// Classic libpcap file format support, so the monitor can replay real
// captures (and export synthetic ones for inspection in standard tools).
//
// Supports both byte orders, microsecond (0xA1B2C3D4) and nanosecond
// (0xA1B23C4D) timestamp magics, and LINKTYPE_ETHERNET.  Frames that do not
// parse as Ethernet/IPv4 are counted and skipped, with 802.1Q-tagged and
// IPv6 frames attributed to distinct counters.
//
// Two readers share one parse loop, PcapReader::next_packet:
//   * load_pcap        — whole-file load into an in-memory Trace;
//   * PcapReader       — record-at-a-time streaming with bounded memory (one
//                        reusable frame buffer), the substrate of the live
//                        ingestion PcapFileSource (src/ingest/).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/trace_gen.h"

namespace newton {

struct PcapLoadStats {
  std::size_t frames = 0;
  std::size_t parsed = 0;
  std::size_t skipped = 0;       // total not parsed (all reasons below)
  std::size_t skipped_vlan = 0;  // 802.1Q-tagged frames
  std::size_t skipped_ipv6 = 0;  // IPv6 ethertype
  std::size_t skipped_other = 0; // other ethertypes / malformed
};

// Streaming pcap record reader.  Parses the global header on open (throws
// std::runtime_error on a malformed container) and then yields one record
// per next() into a caller-visible reusable buffer — memory use is bounded
// by the largest record, never the file.
class PcapReader {
 public:
  explicit PcapReader(const std::string& path);

  // Advance to the next record.  Returns false on clean EOF; throws on a
  // truncated or implausible record.  After true: frame() holds the captured
  // bytes, ts_ns() / orig_len() the record header values.
  bool next();

  const std::vector<uint8_t>& frame() const { return frame_; }
  uint64_t ts_ns() const { return ts_ns_; }
  uint32_t orig_len() const { return orig_len_; }

  // Advance to the next record that parses as an IPv4 packet and write it
  // to `out` (ts_ns and wire_len from the record header).  Records that do
  // not parse are counted in stats() by kind and skipped.  Returns false
  // on clean EOF; throws like next().
  bool next_packet(Packet& out);
  // Records read by next_packet() so far.
  const PcapLoadStats& stats() const { return stats_; }

 private:
  bool u32(uint32_t& v);

  std::ifstream is_;
  bool swapped_ = false;
  bool nsec_ = false;
  std::vector<uint8_t> frame_;
  uint64_t ts_ns_ = 0;
  uint32_t orig_len_ = 0;
  PcapLoadStats stats_;
};

// Load an Ethernet pcap into a Trace (timestamps become ts_ns).
// Throws std::runtime_error on malformed container structure.
Trace load_pcap(const std::string& path, PcapLoadStats* stats = nullptr);

// Write the trace as a nanosecond-resolution pcap (frames synthesized via
// the wire codec).
void save_pcap(const Trace& t, const std::string& path);

}  // namespace newton
