#include "ingest/pcap_source.h"

namespace newton::ingest {

PcapFileSource::PcapFileSource(const std::string& path)
    : path_(path), reader_(path) {}

std::size_t PcapFileSource::pull(Packet* out, std::size_t max) {
  std::size_t n = 0;
  for (; n < max; ++n) {
    if (!reader_.next_packet(out[n])) {
      eof_ = true;
      break;
    }
    stats_.bytes += out[n].wire_len;
  }
  const PcapLoadStats& rs = reader_.stats();
  stats_.frames = rs.frames;
  stats_.packets = rs.parsed;
  stats_.skipped_vlan = rs.skipped_vlan;
  stats_.skipped_ipv6 = rs.skipped_ipv6;
  stats_.skipped_other = rs.skipped_other;
  return n;
}

}  // namespace newton::ingest
