// Baseline models: export volumes, Sonata footprint & interruption model.
#include <gtest/gtest.h>

#include "baselines/flowradar.h"
#include "baselines/scream.h"
#include "baselines/sonata.h"
#include "baselines/starflow.h"
#include "baselines/turboflow.h"
#include "core/compose.h"
#include "core/queries.h"
#include "trace/trace_gen.h"

namespace newton {
namespace {

Trace small_trace() {
  TraceProfile p = caida_like(61);
  p.num_flows = 2'000;
  return generate_trace(p);
}

TEST(TurboFlow, ExportsAtLeastOnePerFlow) {
  const Trace t = small_trace();
  TurboFlowModel m;
  const double oh = overhead_over_trace(m, t);
  EXPECT_GT(m.messages(), 0u);
  EXPECT_GT(oh, 0.005);  // flow records are a sizable share of packets
  EXPECT_LT(oh, 1.0);
}

TEST(StarFlow, ExportsRoughlyPerGpv) {
  const Trace t = small_trace();
  StarFlowModel m(8'192, 6);
  const double oh = overhead_over_trace(m, t);
  // Every packet's features leave the switch in vectors of <= 6.
  EXPECT_GT(oh, 1.0 / 6.5);
}

TEST(StarFlow, SmallerGpvMeansMoreMessages) {
  const Trace t = small_trace();
  StarFlowModel big(8'192, 12), small(8'192, 3);
  const double oh_big = overhead_over_trace(big, t);
  const double oh_small = overhead_over_trace(small, t);
  EXPECT_GT(oh_small, oh_big);
}

TEST(FlowRadar, PeriodicExportIndependentOfTraffic) {
  const Trace t = small_trace();
  FlowRadarModel m(4'096, 10);
  overhead_over_trace(m, t);
  const uint64_t epochs = t.duration_ns() / 100'000'000 + 1;
  EXPECT_NEAR(static_cast<double>(m.messages()),
              static_cast<double>(epochs * 410), 450.0);
}

// Every elapsed epoch exports once, empty ones too; a late packet counts
// toward the open epoch instead of rewinding it.
TEST(ExportModel, EpochEndsCountElapsedEpochsAndLatePacketsTerminate) {
  struct Counting : ExportModel {
    uint64_t ends = 0, pkts = 0;
    void on_packet(const Packet&) override { ++pkts; }
    void on_epoch_end() override { ++ends; }
    uint64_t messages() const override { return ends; }
    std::string name() const override { return "counting"; }
  };
  Trace t;
  for (uint64_t ts : {5, 250, 150, 320}) {
    Packet p;
    p.ts_ns = ts;
    t.packets.push_back(p);
  }
  Counting m;
  overhead_over_trace(m, t, 100);
  EXPECT_EQ(m.pkts, 4u);
  // Epoch 0 -> 2 ends two, the late packet none, 2 -> 3 one, the end one.
  EXPECT_EQ(m.ends, 4u);
}

TEST(Scream, SketchExportPerEpoch) {
  const Trace t = small_trace();
  ScreamModel m(3, 4'096, 64);
  overhead_over_trace(m, t);
  EXPECT_GT(m.messages(), 0u);
}

TEST(Fig12Ordering, NewtonAndSonataTwoOrdersBelowFullExport) {
  // The headline of Fig. 12: intent-driven exportation beats full-data
  // exportation by ~100x.  Model side only; the full experiment (with the
  // real Newton data plane) lives in bench_fig12_overheads.
  const Trace t = small_trace();
  TurboFlowModel tf;
  StarFlowModel sf;
  const double oh_tf = overhead_over_trace(tf, t);
  const double oh_sf = overhead_over_trace(sf, t);
  // Intent-driven exports on this trace are ~1e-4..1e-3 (see bench); both
  // full-export systems sit far above 1e-2.
  EXPECT_GT(oh_tf, 1e-2);
  EXPECT_GT(oh_sf, 1e-1);
}

TEST(SonataUpdate, InterruptionGrowsLinearly) {
  const SonataUpdateModel m;
  const double base = m.interruption_seconds(0);
  EXPECT_NEAR(base, 7.5, 1e-9);
  const double at_60k = m.interruption_seconds(60'000);
  EXPECT_GT(at_60k, 25.0);  // "up to 0.5 minutes with 60K table entries"
  EXPECT_LT(at_60k, 40.0);
  // Linearity.
  const double a = m.interruption_seconds(10'000) - base;
  const double b = m.interruption_seconds(20'000) - base;
  EXPECT_NEAR(b, 2 * a, 1e-9);
}

TEST(SonataUpdate, TimelineShowsOutageWindow) {
  const SonataUpdateModel m;
  const auto tl = m.throughput_timeline(1'000, /*t_update=*/2.0,
                                        /*horizon=*/15.0, /*step=*/0.5);
  ASSERT_FALSE(tl.empty());
  double down_time = 0;
  for (const auto& [t, thr] : tl)
    if (thr == 0.0) down_time += 0.5;
  EXPECT_NEAR(down_time, m.interruption_seconds(1'000), 1.0);
  EXPECT_EQ(tl.front().second, 1.0);
  EXPECT_EQ(tl.back().second, 1.0);
}

TEST(SonataFootprint, TracksPrimitiveCount) {
  const auto q1 = estimate_sonata(make_q1());
  const auto q4 = estimate_sonata(make_q4());
  EXPECT_GT(q4.tables, q1.tables);  // more primitives, more tables
  EXPECT_GT(q1.tables, 4u);
  EXPECT_GT(q1.stages, 0u);
}

TEST(SonataFootprint, OptimizedNewtonUsesFewerStages) {
  // Fig. 15: with compilation optimization Newton undercuts Sonata's stage
  // count for the evaluated queries.
  for (const Query& q :
       {make_q1(), make_q3(), make_q4(), make_q5(), make_q7()}) {
    const auto sonata = estimate_sonata(q);
    const CompiledQuery compiled = compile_query(q);
    EXPECT_LT(compiled.num_stages(), sonata.stages) << q.name;
  }
}

}  // namespace
}  // namespace newton
