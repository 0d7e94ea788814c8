// EpochClock (src/packet/epoch_clock.h): the one packet -> window rule that
// the switch, the sharded runtime, the analyzer, the aggregation tree, the
// detectors, the difftest reference and the baselines share.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "packet/epoch_clock.h"

using namespace newton;

namespace {

constexpr uint64_t kW = 100;  // window length, ns

TEST(EpochClock, EpochIsTimestampOverWindow) {
  const EpochClock c(kW);
  EXPECT_EQ(c.window_ns(), kW);
  EXPECT_EQ(c.epoch_of(0), 0u);
  EXPECT_EQ(c.epoch_of(99), 0u);
  EXPECT_EQ(c.epoch_of(100), 1u);
  EXPECT_EQ(c.epoch_of(std::numeric_limits<uint64_t>::max()),
            std::numeric_limits<uint64_t>::max() / kW);
}

TEST(EpochClock, StartsInEpochZero) {
  EpochClock c(kW);
  EXPECT_EQ(c.current(), 0u);
  EXPECT_FALSE(c.closes(0));
  EXPECT_FALSE(c.closes(99));
  EXPECT_TRUE(c.closes(100));
}

// A stream that begins mid-way closes the empty window 0 on its first
// packet (the runtime's barrier count and perfbench's report timing rely
// on this).
TEST(EpochClock, FirstPacketMidStreamClosesWindowZero) {
  EpochClock c(kW);
  EXPECT_TRUE(c.closes(350));
  c.advance(350);
  EXPECT_EQ(c.current(), 3u);
  EXPECT_FALSE(c.closes(399));
}

TEST(EpochClock, GapClosesExactlyOneWindow) {
  EpochClock c(kW);
  c.advance(150);
  int rolls = 0;
  for (uint64_t ts : {160, 170, 720, 730, 790}) {
    if (c.closes(ts)) {
      ++rolls;
      c.advance(ts);
    }
  }
  EXPECT_EQ(rolls, 1);
  EXPECT_EQ(c.current(), 7u);
}

TEST(EpochClock, ResetReturnsToEpochZero) {
  EpochClock c(kW);
  c.advance(750);
  c.reset();
  EXPECT_EQ(c.current(), 0u);
  EXPECT_FALSE(c.closes(50));
  EXPECT_TRUE(c.closes(750));
}

// Today's lateness rule: any epoch other than the open one closes it, an
// earlier one too, so one late packet rolls the window twice.
TEST(EpochClock, LatePacketCountsAsRoll) {
  EpochClock c(kW);
  c.advance(250);
  EXPECT_TRUE(c.closes(199));
  c.advance(199);
  EXPECT_EQ(c.current(), 1u);
  EXPECT_TRUE(c.closes(260));
}

TEST(EpochClock, ZeroWindowIsRejected) {
  EXPECT_THROW(EpochClock(0), std::invalid_argument);
}

TEST(EpochClock, WindowLengthFromMilliseconds) {
  constexpr uint64_t kMaxMs = std::numeric_limits<uint64_t>::max() / 1'000'000;
  EXPECT_EQ(window_ns_of_ms(100), 100'000'000u);
  EXPECT_EQ(window_ns_of_ms(kMaxMs), kMaxMs * 1'000'000);
  EXPECT_THROW(window_ns_of_ms(0), std::invalid_argument);
  EXPECT_THROW(window_ns_of_ms(kMaxMs + 1), std::invalid_argument);
}

}  // namespace
