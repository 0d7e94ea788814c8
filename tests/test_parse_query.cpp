// The textual query DSL: parsing, equivalence to the builder API, and
// error reporting.
#include <gtest/gtest.h>

#include "analyzer/ground_truth.h"
#include "core/compose.h"
#include "core/newton_switch.h"
#include "core/parse_query.h"
#include "core/queries.h"
#include "trace/attacks.h"

namespace newton {
namespace {

TEST(ParseQuery, Q1EquivalentText) {
  const Query q = parse_query(
      "q1", "filter(proto == tcp && flags == syn) | map(dip) | "
            "reduce(dip, count) | when(>= 40)");
  ASSERT_EQ(q.branches.size(), 1u);
  const auto& prims = q.branches[0].primitives;
  ASSERT_EQ(prims.size(), 4u);
  EXPECT_EQ(prims[0].kind, PrimitiveKind::Filter);
  EXPECT_TRUE(prims[0].pred.eval(make_packet(1, 2, 3, 4, kProtoTcp, kTcpSyn)));
  EXPECT_FALSE(prims[0].pred.eval(make_packet(1, 2, 3, 4, kProtoUdp, 0)));
  EXPECT_EQ(prims[3].when_op, Cmp::Ge);
  EXPECT_EQ(prims[3].when_value, 40u);
}

TEST(ParseQuery, ValuesAndLiterals) {
  const Query q = parse_query(
      "t", "filter(dip == 10.1.2.3 && dport == 0x50 && flags == finack)");
  const auto& c = q.branches[0].primitives[0].pred.clauses;
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].value, ipv4(10, 1, 2, 3));
  EXPECT_EQ(c[1].value, 0x50u);
  EXPECT_EQ(c[2].value, kTcpFin | kTcpAck);
}

TEST(ParseQuery, PrefixMasksOnKeys) {
  const Query q = parse_query("t", "map(dip/24, sport)");
  const auto& keys = q.branches[0].primitives[0].keys;
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].mask, 0xffffff00u);
  EXPECT_EQ(keys[1].mask, 0xffffu);
}

TEST(ParseQuery, MaskedPredicate) {
  // FIN bit set regardless of other flags: flags == fin masked to 1 bit...
  const Query q = parse_query("t", "filter(flags == fin/8)");
  const auto& c = q.branches[0].primitives[0].pred.clauses[0];
  EXPECT_EQ(c.mask, 0xffu);  // /8 of an 8-bit field = full
}

TEST(ParseQuery, KnobsAndBranches) {
  const Query q = parse_query(
      "t",
      "sketch(3, 1024) | partitions(2) | window(50 ms) | "
      "branch(a) | map(dip) | branch(b) | map(sip)");
  EXPECT_EQ(q.sketch_depth, 3u);
  EXPECT_EQ(q.sketch_width, 1024u);
  EXPECT_EQ(q.row_partitions, 2u);
  EXPECT_EQ(q.window_ns, 50'000'000u);
  ASSERT_EQ(q.branches.size(), 2u);
  EXPECT_EQ(q.branches[0].name, "a");
  EXPECT_EQ(q.branches[1].name, "b");
}

TEST(ParseQuery, AggregationVariants) {
  EXPECT_EQ(parse_query("t", "reduce(dip, bytes) | when(>= 100)")
                .branches[0]
                .primitives[0]
                .value_field_is_len,
            1u);
  EXPECT_EQ(parse_query("t", "reduce(dip, sum) | when(>= 100)")
                .branches[0]
                .primitives[0]
                .value_field_is_len,
            0u);
}

TEST(ParseQuery, ErrorsCarryPositions) {
  EXPECT_THROW(parse_query("t", ""), QueryParseError);
  EXPECT_THROW(parse_query("t", "frobnicate(dip)"), QueryParseError);
  EXPECT_THROW(parse_query("t", "map(dip) extra"), QueryParseError);
  EXPECT_THROW(parse_query("t", "map(nosuchfield)"), QueryParseError);
  EXPECT_THROW(parse_query("t", "filter(dip == 10.1.2)"), QueryParseError);
  EXPECT_THROW(parse_query("t", "filter(dip == 999.0.0.1)"), QueryParseError);
  EXPECT_THROW(parse_query("t", "map(dip/99)"), QueryParseError);
  EXPECT_THROW(parse_query("t", "reduce(dip, median)"), QueryParseError);
  EXPECT_THROW(parse_query("t", "when(40)"), QueryParseError);
  EXPECT_THROW(parse_query("t", "window(5 sec)"), QueryParseError);
  try {
    parse_query("t", "map(dip) | bogus(1)");
    FAIL();
  } catch (const QueryParseError& e) {
    EXPECT_GT(e.position, 5u);
  }
}

// window(Nms) takes 1.. UINT64_MAX / 1e6 ms: zero, a length whose ns wrap
// and a number that does not fit 64 bits are parse errors, not windows.
TEST(ParseQuery, RejectsZeroAndOverflowingWindows) {
  EXPECT_EQ(parse_query("t", "map(dip) | window(18446744073709ms)").window_ns,
            18'446'744'073'709'000'000ull);
  for (const char* bad :
       {"map(dip) | window(0ms)", "map(dip) | window(20000000000000ms)",
        "map(dip) | window(18446744073710ms)",
        "map(dip) | window(18446744073709551617ms)"}) {
    try {
      parse_query("t", bad);
      ADD_FAILURE() << bad << " parsed";
    } catch (const QueryParseError& e) {
      EXPECT_EQ(e.position, 18u) << bad;
    }
  }
  EXPECT_THROW(parse_query("t", "when(>= 0x10000000000000000)"),
               QueryParseError);
  EXPECT_THROW(QueryBuilder("t").window_ms(0), std::invalid_argument);
}

TEST(ParseQuery, ParsedQueryRunsLikeBuiltQuery) {
  const Query built = make_q1();
  const Query parsed = parse_query(
      "q1_new_tcp", "filter(proto == tcp && flags == syn) | map(dip) | "
                    "reduce(dip, count) | when(>= 40)");
  std::mt19937 rng(44);
  Trace t;
  inject_syn_flood(t, ipv4(172, 16, 44, 4), 120, 1, 1'000'000, rng);
  t.sort_by_time();

  auto run = [&](const Query& q) {
    ReportBuffer sink;
    NewtonSwitch sw(1, 12, &sink);
    sw.install(compile_query(q));
    for (const Packet& p : t.packets) sw.process(p);
    KeySet out;
    for (const ReportRecord& r : sink.records()) out.insert(r.oper_keys);
    return out;
  };
  EXPECT_EQ(run(built), run(parsed));
}

TEST(ParseQuery, PrefixAggregationEndToEnd) {
  // Count new connections per /24 — K's masking as exposed by the DSL.
  const Query q = parse_query(
      "per24", "filter(proto == tcp && flags == syn) | map(dip/24) | "
               "reduce(dip/24, count) | when(>= 50)");
  Trace t;
  std::mt19937 rng(45);
  // 30 SYNs each to two dips in the SAME /24: only together they cross 50.
  inject_syn_flood(t, ipv4(172, 16, 9, 1), 30, 1, 1'000'000, rng);
  inject_syn_flood(t, ipv4(172, 16, 9, 2), 30, 1, 2'000'000, rng);
  // 40 SYNs to a dip in another /24: below threshold alone.
  inject_syn_flood(t, ipv4(172, 16, 10, 1), 40, 1, 3'000'000, rng);
  t.sort_by_time();

  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink);
  sw.install(compile_query(q));
  for (const Packet& p : t.packets) sw.process(p);

  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.records()[0].oper_keys[index(Field::DstIp)],
            ipv4(172, 16, 9, 0));  // the /24, host bits masked
}

}  // namespace
}  // namespace newton
