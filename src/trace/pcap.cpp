#include "trace/pcap.h"

#include <cstdint>
#include <stdexcept>

#include "packet/wire.h"

namespace newton {
namespace {

constexpr uint32_t kMagicUsec = 0xA1B2C3D4;
constexpr uint32_t kMagicNsec = 0xA1B23C4D;
constexpr uint32_t kMagicUsecSwapped = 0xD4C3B2A1;
constexpr uint32_t kMagicNsecSwapped = 0x4D3CB2A1;
constexpr uint32_t kLinkEthernet = 1;

uint32_t swap32(uint32_t v) {
  return ((v & 0xffu) << 24) | ((v & 0xff00u) << 8) | ((v >> 8) & 0xff00u) |
         (v >> 24);
}

uint16_t swap16(uint16_t v) {
  return static_cast<uint16_t>((v << 8) | (v >> 8));
}

void put32le(std::ofstream& os, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  os.write(b, 4);
}

void put16le(std::ofstream& os, uint16_t v) {
  char b[2] = {static_cast<char>(v), static_cast<char>(v >> 8)};
  os.write(b, 2);
}

}  // namespace

PcapReader::PcapReader(const std::string& path) {
  is_.open(path, std::ios::binary);
  if (!is_) throw std::runtime_error("pcap: cannot open " + path);

  uint32_t magic;
  if (!is_.read(reinterpret_cast<char*>(&magic), 4))
    throw std::runtime_error("pcap: empty file");
  if (magic == kMagicUsec) {
    nsec_ = false;
  } else if (magic == kMagicNsec) {
    nsec_ = true;
  } else if (magic == kMagicUsecSwapped) {
    nsec_ = false;
    swapped_ = true;
  } else if (magic == kMagicNsecSwapped) {
    nsec_ = true;
    swapped_ = true;
  } else {
    throw std::runtime_error("pcap: bad magic");
  }

  uint16_t ver_major, ver_minor;
  uint32_t thiszone, sigfigs, snaplen, linktype;
  const auto u16 = [&](uint16_t& v) {
    if (!is_.read(reinterpret_cast<char*>(&v), 2)) return false;
    if (swapped_) v = swap16(v);
    return true;
  };
  if (!u16(ver_major) || !u16(ver_minor) || !u32(thiszone) || !u32(sigfigs) ||
      !u32(snaplen) || !u32(linktype))
    throw std::runtime_error("pcap: truncated global header");
  if (linktype != kLinkEthernet)
    throw std::runtime_error("pcap: unsupported linktype " +
                             std::to_string(linktype));
  // Pre-size the record buffer so steady-state reads never reallocate
  // (records are checked against the same cap below).
  frame_.reserve(snaplen != 0 && snaplen < (1u << 24) ? snaplen : (1u << 16));
}

bool PcapReader::u32(uint32_t& v) {
  if (!is_.read(reinterpret_cast<char*>(&v), 4)) return false;
  if (swapped_) v = swap32(v);
  return true;
}

bool PcapReader::next() {
  uint32_t ts_sec, ts_frac, incl_len;
  if (!u32(ts_sec)) return false;  // clean EOF
  if (!u32(ts_frac) || !u32(incl_len) || !u32(orig_len_))
    throw std::runtime_error("pcap: truncated record header");
  if (incl_len > (1u << 24))
    throw std::runtime_error("pcap: implausible record length");
  frame_.resize(incl_len);
  if (!is_.read(reinterpret_cast<char*>(frame_.data()), incl_len))
    throw std::runtime_error("pcap: truncated record body");
  ts_ns_ = uint64_t{ts_sec} * 1'000'000'000ull +
           (nsec_ ? ts_frac : uint64_t{ts_frac} * 1'000ull);
  return true;
}

bool PcapReader::next_packet(Packet& out) {
  while (next()) {
    ++stats_.frames;
    const auto parsed = parse_frame(frame_);
    if (!parsed) {
      ++stats_.skipped;
      switch (classify_frame(frame_.data(), frame_.size())) {
        case FrameKind::Vlan: ++stats_.skipped_vlan; break;
        case FrameKind::Ipv6: ++stats_.skipped_ipv6; break;
        default: ++stats_.skipped_other; break;
      }
      continue;
    }
    out = parsed->packet;
    out.ts_ns = ts_ns_;
    out.wire_len = orig_len_;
    ++stats_.parsed;
    return true;
  }
  return false;
}

Trace load_pcap(const std::string& path, PcapLoadStats* stats) {
  PcapReader r(path);
  Trace t;
  t.name = path;
  Packet p;
  while (r.next_packet(p)) t.packets.push_back(p);
  if (stats) *stats = r.stats();
  return t;
}

void save_pcap(const Trace& t, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("pcap: cannot open " + path);
  put32le(os, kMagicNsec);
  put16le(os, 2);
  put16le(os, 4);
  put32le(os, 0);          // thiszone
  put32le(os, 0);          // sigfigs
  put32le(os, 1 << 16);    // snaplen
  put32le(os, kLinkEthernet);
  for (const Packet& p : t.packets) {
    const auto frame = deparse_frame(p);
    put32le(os, static_cast<uint32_t>(p.ts_ns / 1'000'000'000ull));
    put32le(os, static_cast<uint32_t>(p.ts_ns % 1'000'000'000ull));
    put32le(os, static_cast<uint32_t>(frame.size()));
    put32le(os, static_cast<uint32_t>(frame.size()));
    os.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<long>(frame.size()));
  }
  if (!os) throw std::runtime_error("pcap: write failed");
}

}  // namespace newton
