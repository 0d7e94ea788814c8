// The one packet -> window rule.  A timestamp's window, its "epoch", is
// ts_ns / window_ns.  Every stage that needs a window index or a roll test
// asks this clock, so all of them agree on the window a packet belongs to.
//
// Start rule: a clock starts in epoch 0, so a first packet in epoch 3
// closes the (empty) window 0, and a gap of several epochs closes exactly
// one window.  Any epoch but the open one closes it, an earlier one too.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace newton {

class EpochClock {
 public:
  explicit EpochClock(uint64_t window_ns) : window_ns_(window_ns) {
    if (window_ns == 0) throw std::invalid_argument("EpochClock: zero window");
  }

  uint64_t window_ns() const { return window_ns_; }
  uint64_t epoch_of(uint64_t ts_ns) const { return ts_ns / window_ns_; }
  uint64_t current() const { return cur_; }  // epoch of the open window
  // The roll test: does a packet stamped `ts_ns` close the open window?
  bool closes(uint64_t ts_ns) const { return epoch_of(ts_ns) != cur_; }
  void advance(uint64_t ts_ns) { cur_ = epoch_of(ts_ns); }  // open its window
  void reset() { cur_ = 0; }  // the start rule again, for a new stream

 private:
  uint64_t window_ns_;
  uint64_t cur_ = 0;
};

// A window length in ms, in ns.  Throws std::invalid_argument on 0 or on a
// length whose ns do not fit 64 bits.
inline uint64_t window_ns_of_ms(uint64_t ms) {
  if (ms == 0 || ms > std::numeric_limits<uint64_t>::max() / 1'000'000)
    throw std::invalid_argument("window length out of range: " +
                                std::to_string(ms) + "ms");
  return ms * 1'000'000;
}

}  // namespace newton
