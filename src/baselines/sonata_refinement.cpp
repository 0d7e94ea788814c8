#include "baselines/sonata_refinement.h"

#include <algorithm>

#include "packet/epoch_clock.h"

namespace newton {
namespace {

uint32_t prefix_of(uint32_t ip, uint8_t len) {
  return len == 0 ? 0
                  : (len >= 32 ? ip : ip & ~((1u << (32 - len)) - 1));
}

}  // namespace

SonataRefinement::SonataRefinement(std::vector<uint8_t> levels,
                                   uint64_t threshold, uint64_t window_ns)
    : levels_(std::move(levels)), threshold_(threshold),
      window_ns_(window_ns) {
  std::sort(levels_.begin(), levels_.end());
}

std::vector<SonataRefinement::Detection> SonataRefinement::run(
    const Trace& t, bool count_syn_only) {
  // State: the set of (level_index, prefix) currently under watch; level 0
  // watches everything.  Per window, counters accumulate per watched
  // prefix; at the window end, exceeded prefixes advance one level.
  std::set<std::pair<std::size_t, uint32_t>> watched;  // refined prefixes
  std::map<uint32_t, uint64_t> first_seen;             // /L0 anomaly window
  std::vector<Detection> detections;
  std::set<uint32_t> done;

  std::map<std::pair<std::size_t, uint32_t>, uint64_t> counters;
  EpochClock clock(window_ns_);

  auto end_window = [&](uint64_t w) {
    for (const auto& [key, count] : counters) {
      if (count < threshold_) continue;
      const auto [li, prefix] = key;
      if (li == 0) first_seen.try_emplace(prefix, w);
      if (li + 1 < levels_.size()) {
        watched.insert({li + 1, prefix});  // zoom in next window
      } else if (!done.contains(prefix)) {
        // /32 level: pinned down.
        uint64_t first = w;
        for (const auto& [p0, w0] : first_seen)
          if (prefix_of(prefix, levels_[0]) == p0) first = std::min(first, w0);
        detections.push_back({prefix, w, first});
        done.insert(prefix);
      }
    }
    counters.clear();
  };

  for (const Packet& p : t.packets) {
    if (count_syn_only &&
        !(p.is_tcp() && p.tcp_flags() == kTcpSyn))
      continue;
    if (clock.closes(p.ts_ns)) {
      end_window(clock.current());
      clock.advance(p.ts_ns);
    }
    // Level 0 counts unconditionally; deeper levels only for prefixes the
    // previous windows promoted.
    ++counters[{0, prefix_of(p.dip(), levels_[0])}];
    for (std::size_t li = 1; li < levels_.size(); ++li) {
      const uint32_t parent = prefix_of(p.dip(), levels_[li]);
      // A deeper level is active if its parent at level li was promoted.
      if (watched.contains({li, prefix_of(p.dip(), levels_[li - 1])}))
        ++counters[{li, parent}];
    }
  }
  end_window(clock.current());
  return detections;
}

}  // namespace newton
