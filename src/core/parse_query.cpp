#include "core/parse_query.h"

#include <cctype>
#include <limits>
#include <map>
#include <optional>

namespace newton {
namespace {

struct Lexer {
  const std::string& s;
  std::size_t at = 0;

  void skip_ws() {
    while (at < s.size() && std::isspace(static_cast<unsigned char>(s[at])))
      ++at;
  }
  bool eof() {
    skip_ws();
    return at >= s.size();
  }
  char peek() {
    skip_ws();
    return at < s.size() ? s[at] : '\0';
  }
  bool try_eat(char c) {
    skip_ws();
    if (at < s.size() && s[at] == c) {
      ++at;
      return true;
    }
    return false;
  }
  void expect(char c, const char* what) {
    if (!try_eat(c))
      throw QueryParseError(at, std::string("expected '") + c + "' " + what);
  }
  bool try_word(const char* w) {
    skip_ws();
    std::size_t n = 0;
    while (w[n]) ++n;
    if (s.compare(at, n, w) != 0) return false;
    // Must not continue as an identifier.
    const std::size_t end = at + n;
    if (end < s.size() &&
        (std::isalnum(static_cast<unsigned char>(s[end])) || s[end] == '_'))
      return false;
    at = end;
    return true;
  }
  std::string ident() {
    skip_ws();
    const std::size_t start = at;
    while (at < s.size() &&
           (std::isalnum(static_cast<unsigned char>(s[at])) || s[at] == '_'))
      ++at;
    if (at == start) throw QueryParseError(at, "expected identifier");
    return s.substr(start, at - start);
  }
  uint64_t integer() {
    skip_ws();
    const std::size_t start = at;
    uint64_t v = 0;
    if (s.compare(at, 2, "0x") == 0 || s.compare(at, 2, "0X") == 0) {
      at += 2;
      bool any = false;
      while (at < s.size() &&
             std::isxdigit(static_cast<unsigned char>(s[at]))) {
        if (v >> 60) throw QueryParseError(start, "number too large");
        v = v * 16 + static_cast<uint64_t>(
                         std::isdigit(static_cast<unsigned char>(s[at]))
                             ? s[at] - '0'
                             : std::tolower(s[at]) - 'a' + 10);
        ++at;
        any = true;
      }
      if (!any) throw QueryParseError(start, "expected hex digits");
      return v;
    }
    bool any = false;
    while (at < s.size() && std::isdigit(static_cast<unsigned char>(s[at]))) {
      const auto d = static_cast<uint64_t>(s[at] - '0');
      if (v > (std::numeric_limits<uint64_t>::max() - d) / 10)
        throw QueryParseError(start, "number too large");
      v = v * 10 + d;
      ++at;
      any = true;
    }
    if (!any) throw QueryParseError(start, "expected number");
    return v;
  }
};

Field field_of(Lexer& lx) {
  const std::size_t pos = lx.at;
  const std::string id = lx.ident();
  static const std::map<std::string, Field> kFields{
      {"sip", Field::SrcIp},       {"dip", Field::DstIp},
      {"sport", Field::SrcPort},   {"dport", Field::DstPort},
      {"proto", Field::Proto},     {"flags", Field::TcpFlags},
      {"tcp_flags", Field::TcpFlags}, {"len", Field::PktLen},
      {"pkt_len", Field::PktLen},  {"ttl", Field::Ttl},
      {"ip_id", Field::IpId}};
  const auto it = kFields.find(id);
  if (it == kFields.end())
    throw QueryParseError(pos, "unknown field '" + id + "'");
  return it->second;
}

Cmp cmp_of(Lexer& lx) {
  lx.skip_ws();
  const std::size_t pos = lx.at;
  auto two = [&](const char* op) {
    if (lx.s.compare(lx.at, 2, op) == 0) {
      lx.at += 2;
      return true;
    }
    return false;
  };
  if (two("==")) return Cmp::Eq;
  if (two("!=")) return Cmp::Ne;
  if (two(">=")) return Cmp::Ge;
  if (two("<=")) return Cmp::Le;
  if (lx.try_eat('>')) return Cmp::Gt;
  if (lx.try_eat('<')) return Cmp::Lt;
  throw QueryParseError(pos, "expected comparison operator");
}

uint32_t value_of(Lexer& lx) {
  lx.skip_ws();
  const std::size_t pos = lx.at;
  if (std::isalpha(static_cast<unsigned char>(lx.peek()))) {
    const std::string id = lx.ident();
    static const std::map<std::string, uint32_t> kNamed{
        {"tcp", kProtoTcp}, {"udp", kProtoUdp},   {"icmp", kProtoIcmp},
        {"syn", kTcpSyn},   {"ack", kTcpAck},     {"synack", kTcpSynAck},
        {"fin", kTcpFin},   {"rst", kTcpRst},     {"finack", kTcpFin | kTcpAck}};
    const auto it = kNamed.find(id);
    if (it == kNamed.end())
      throw QueryParseError(pos, "unknown value '" + id + "'");
    return it->second;
  }
  // Dotted quad or plain integer.
  uint64_t first = lx.integer();
  if (lx.peek() != '.') {
    if (first > 0xffffffffull) throw QueryParseError(pos, "value too large");
    return static_cast<uint32_t>(first);
  }
  if (first > 255) throw QueryParseError(pos, "bad IPv4 literal");
  uint32_t ip = static_cast<uint32_t>(first);
  for (int i = 0; i < 3; ++i) {
    lx.expect('.', "in IPv4 literal");
    const uint64_t octet = lx.integer();
    if (octet > 255) throw QueryParseError(pos, "bad IPv4 literal");
    ip = (ip << 8) | static_cast<uint32_t>(octet);
  }
  return ip;
}

// Optional '/len' prefix-mask suffix; returns the field mask.
uint32_t mask_suffix(Lexer& lx, Field f) {
  if (!lx.try_eat('/')) return field_full_mask(f);
  const std::size_t pos = lx.at;
  const uint64_t len = lx.integer();
  const uint8_t bits = field_bits(f);
  if (len > bits) throw QueryParseError(pos, "mask longer than the field");
  if (len == 0) return 0;
  return (field_full_mask(f) >> (bits - len)) << (bits - len);
}

std::vector<KeySel> keys_of(Lexer& lx) {
  std::vector<KeySel> keys;
  do {
    const Field f = field_of(lx);
    keys.push_back(KeySel(f, mask_suffix(lx, f)));
  } while (lx.try_eat(','));
  return keys;
}

Predicate pred_of(Lexer& lx) {
  Predicate p;
  do {
    const Field f = field_of(lx);
    uint32_t mask = field_full_mask(f);
    // allow `flags/0x2 == 2` style? keep to field cmp value [/len]
    const Cmp op = cmp_of(lx);
    const uint32_t v = value_of(lx);
    if (lx.try_eat('/')) {
      const uint64_t len = lx.integer();
      const uint8_t bits = field_bits(f);
      if (len > bits) throw QueryParseError(lx.at, "mask longer than field");
      mask = len == 0 ? 0 : (field_full_mask(f) >> (bits - len)) << (bits - len);
    }
    p.where(f, op, v, mask);
    lx.skip_ws();
    if (lx.s.compare(lx.at, 2, "&&") == 0) {
      lx.at += 2;
      continue;
    }
    break;
  } while (true);
  return p;
}

}  // namespace

Query parse_query(const std::string& name, const std::string& text) {
  Lexer lx{text};
  QueryBuilder b(name);
  bool any_primitive = false;

  do {
    const std::size_t pos = lx.at;
    if (lx.try_word("filter")) {
      lx.expect('(', "after filter");
      b.filter(pred_of(lx));
      lx.expect(')', "after predicate");
      any_primitive = true;
    } else if (lx.try_word("map")) {
      lx.expect('(', "after map");
      b.map(keys_of(lx));
      lx.expect(')', "after keys");
      any_primitive = true;
    } else if (lx.try_word("distinct")) {
      lx.expect('(', "after distinct");
      b.distinct(keys_of(lx));
      lx.expect(')', "after keys");
      any_primitive = true;
    } else if (lx.try_word("reduce")) {
      lx.expect('(', "after reduce");
      // Comma-separated keys; the final comma-element is the aggregation.
      std::vector<KeySel> keys;
      std::optional<std::string> agg;
      do {
        const std::size_t saved = lx.at;
        lx.skip_ws();
        const std::size_t fpos = lx.at;
        const std::string id = lx.ident();
        if ((id == "count" || id == "sum" || id == "bytes") &&
            lx.peek() == ')') {
          agg = id;
          break;
        }
        lx.at = saved;
        const Field f = field_of(lx);
        keys.push_back(KeySel(f, mask_suffix(lx, f)));
        (void)fpos;
      } while (lx.try_eat(','));
      if (!agg)
        throw QueryParseError(lx.at,
                              "expected aggregation (count|sum|bytes)");
      if (keys.empty())
        throw QueryParseError(lx.at, "reduce needs at least one key");
      b.reduce(keys, Agg::Sum, *agg == "bytes");
      lx.expect(')', "after aggregation");
      any_primitive = true;
    } else if (lx.try_word("when_stream")) {
      lx.expect('(', "after when_stream");
      const Cmp op = cmp_of(lx);
      const uint32_t v = value_of(lx);
      b.when_stream(op, v);
      lx.expect(')', "after threshold");
      any_primitive = true;
    } else if (lx.try_word("when")) {
      lx.expect('(', "after when");
      const Cmp op = cmp_of(lx);
      const uint32_t v = value_of(lx);
      b.when(op, v);
      lx.expect(')', "after threshold");
      any_primitive = true;
    } else if (lx.try_word("window")) {
      lx.expect('(', "after window");
      const std::size_t pos = lx.at;
      const uint64_t ms = lx.integer();
      if (!lx.try_word("ms"))
        throw QueryParseError(lx.at, "expected 'ms' after window length");
      try {
        b.window_ms(ms);
      } catch (const std::invalid_argument& e) {
        throw QueryParseError(pos, e.what());
      }
      lx.expect(')', "after window");
    } else if (lx.try_word("sketch")) {
      lx.expect('(', "after sketch");
      const uint64_t depth = lx.integer();
      lx.expect(',', "between depth and width");
      const uint64_t width = lx.integer();
      b.sketch(depth, width);
      lx.expect(')', "after sketch");
    } else if (lx.try_word("partitions")) {
      lx.expect('(', "after partitions");
      b.partition_rows(lx.integer());
      lx.expect(')', "after partitions");
    } else if (lx.try_word("branch")) {
      lx.expect('(', "after branch");
      b.branch(lx.ident());
      lx.expect(')', "after branch name");
    } else {
      throw QueryParseError(pos, "expected a primitive");
    }
  } while (lx.try_eat('|'));

  if (!lx.eof()) throw QueryParseError(lx.at, "trailing input");
  if (!any_primitive) throw QueryParseError(0, "empty query");
  return b.build();
}

}  // namespace newton
