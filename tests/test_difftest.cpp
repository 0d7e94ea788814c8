// Differential-oracle subsystem tests (src/difftest/): seed-corpus replay
// as tier-1 regressions, scenario serialization, op-schedule resolution,
// the minimizer, coverage keys and a small deterministic fuzz campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "difftest/fuzzer.h"
#include "difftest/harness.h"
#include "difftest/minimize.h"
#include "telemetry/telemetry.h"

using namespace newton;
using namespace newton::difftest;

namespace fs = std::filesystem;

#ifndef NEWTON_CORPUS_DIR
#define NEWTON_CORPUS_DIR "tests/corpus"
#endif

namespace {

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(NEWTON_CORPUS_DIR))
    if (e.is_regular_file() && e.path().extension() == ".nds")
      files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

Scenario corpus_scenario(const std::string& stem) {
  for (const fs::path& p : corpus_files())
    if (p.stem() == stem) return Scenario::load(p.string());
  throw std::runtime_error("corpus file missing: " + stem);
}

bool axis_ran(const CheckOutcome& o, const std::string& axis) {
  for (const AxisReport& a : o.axes)
    if (a.axis == axis) return a.ran;
  return false;
}

}  // namespace

// Every committed seed scenario must replay with all axes in agreement —
// this is the regression net for the pipeline/runtime/CQE/fault semantics.
TEST(DiffCorpus, AllSeedScenariosAgree) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 8u);
  for (const fs::path& p : files) {
    SCOPED_TRACE(p.filename().string());
    const Scenario s = Scenario::load(p.string());
    const CheckOutcome o = check_scenario(s);
    EXPECT_TRUE(o.ok()) << describe(o);
  }
}

// The corpus must actually exercise the CQE and fault axes, not just have
// them silently skipped as infeasible.
TEST(DiffCorpus, CqeAndFaultAxesRun) {
  const CheckOutcome cqe = check_scenario(corpus_scenario("cqe_sliced"));
  EXPECT_TRUE(axis_ran(cqe, "cqe-vs-o0")) << describe(cqe);
  const CheckOutcome flt = check_scenario(corpus_scenario("fault_distinct"));
  EXPECT_TRUE(axis_ran(flt, "fault-vs-o0")) << describe(flt);
  const CheckOutcome plc = check_scenario(corpus_scenario("place_churn"));
  EXPECT_TRUE(axis_ran(plc, "place-inc-vs-scratch")) << describe(plc);
}

// The multi-query corpus seed drives mid-stream install/withdraw/update.
TEST(DiffCorpus, OpScheduleSeedResolvesMidStreamOps) {
  const Scenario s = corpus_scenario("multi_query_ops");
  const auto ops = resolve_ops(s);
  std::size_t mid_stream = 0;
  for (const ResolvedOp& op : ops) mid_stream += op.at_packet > 0;
  EXPECT_GE(mid_stream, 3u);  // withdraw + update(2) + reinstall
}

TEST(DiffScenario, SerializeRoundTrips) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Scenario s = generate_scenario(seed);
    const std::string text = s.serialize();
    const Scenario back = Scenario::parse(text);
    EXPECT_EQ(text, back.serialize()) << "seed " << seed;
  }
}

// A hostile .nds window length fails at parse, on the scenario's bad-line
// path, instead of dividing by zero (or by a wrapped window) at replay.
TEST(DiffScenario, ParseRejectsZeroAndOverflowingWindow) {
  const std::string text = generate_scenario(1).serialize();
  const auto with_window = [&](const std::string& ms) {
    const std::size_t at = text.find("window_ms ");
    const std::size_t end = text.find('\n', at);
    return text.substr(0, at) + "window_ms " + ms + text.substr(end);
  };
  EXPECT_NO_THROW(Scenario::parse(with_window("18446744073709")));
  for (const char* bad : {"0", "18446744073710", "20000000000000"}) {
    try {
      Scenario::parse(with_window(bad));
      ADD_FAILURE() << "window_ms " << bad << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("scenario line 3: "),
                std::string::npos)
          << e.what();
    }
  }
  Scenario s = generate_scenario(1);
  s.window_ms = 0;
  EXPECT_THROW(s.window_ns(), std::invalid_argument);
}

TEST(DiffScenario, GenerationIsDeterministic) {
  for (uint64_t seed : {3ull, 99ull, 123456789ull})
    EXPECT_EQ(generate_scenario(seed).serialize(),
              generate_scenario(seed).serialize());
}

TEST(DiffScenario, ResolveOpsDecomposesUpdateAndDropsNoOps) {
  Scenario s;
  s.window_ms = 100;
  s.queries.push_back(QueryBuilder("q0")
                          .sketch(2, 1 << 15)
                          .map({Field::DstIp})
                          .reduce({Field::DstIp}, Agg::Sum)
                          .when(Cmp::Ge, 40)
                          .build());
  s.trace.flows = 50;
  s.ops = {
      {OpEvent::Kind::Install, 0, 0, 0},
      {OpEvent::Kind::Update, 0, 500, 9},    // -> withdraw + install(when=9)
      {OpEvent::Kind::Withdraw, 0, 800, 0},
      {OpEvent::Kind::Withdraw, 0, 900, 0},  // no-op: already withdrawn
      {OpEvent::Kind::Install, 0, 1000, 0},
  };
  const auto ops = resolve_ops(s);
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops[0].kind, ResolvedOp::Kind::Install);
  EXPECT_EQ(ops[0].at_packet, 0u);
  EXPECT_EQ(ops[1].kind, ResolvedOp::Kind::Withdraw);
  EXPECT_EQ(ops[1].at_packet, 500u);
  EXPECT_EQ(ops[2].kind, ResolvedOp::Kind::Install);
  EXPECT_EQ(ops[2].at_packet, 500u);
  // The update's reinstalled definition carries the new when threshold.
  const auto& prims = ops[2].def.branches[0].primitives;
  EXPECT_EQ(prims.back().when_value, 9u);
  EXPECT_EQ(ops[3].kind, ResolvedOp::Kind::Withdraw);
  EXPECT_EQ(ops[3].at_packet, 800u);
  EXPECT_EQ(ops[4].kind, ResolvedOp::Kind::Install);
  EXPECT_EQ(ops[4].at_packet, 1000u);
}

TEST(DiffScenario, AffineShardKeyRequiresCommonFullMaskedField) {
  // distinct(sip,dip) + reduce(sip): sip is fully masked in both.
  std::vector<Query> compatible = {
      QueryBuilder("q0")
          .distinct({Field::SrcIp, Field::DstIp})
          .reduce({Field::SrcIp}, Agg::Sum)
          .when(Cmp::Ge, 10)
          .build()};
  EXPECT_TRUE(affine_shard_key(compatible).has_value());

  // reduce(sip) vs reduce(dip): no common stateful field.
  std::vector<Query> incompatible = {
      QueryBuilder("q0").reduce({Field::SrcIp}, Agg::Sum).when(Cmp::Ge, 9).build(),
      QueryBuilder("q1").reduce({Field::DstIp}, Agg::Sum).when(Cmp::Ge, 9).build()};
  EXPECT_FALSE(affine_shard_key(incompatible).has_value());

  // Stateless queries shard freely (5-tuple).
  std::vector<Query> stateless = {
      QueryBuilder("q0").map({Field::DstIp}).build()};
  EXPECT_TRUE(affine_shard_key(stateless).has_value());
}

TEST(DiffMinimize, ShrinksUnderSyntheticPredicate) {
  const Scenario s = generate_scenario(42);
  // "Fails whenever any query is installed": minimal reproducer is one
  // query, no extra ops, every optional axis off.
  const FailPredicate fails = [](const Scenario& c) {
    return !c.queries.empty();
  };
  const Scenario m = minimize_scenario(s, fails);
  EXPECT_TRUE(fails(m));
  EXPECT_EQ(m.queries.size(), 1u);
  EXPECT_EQ(m.shards, 1u);
  EXPECT_EQ(m.cqe_stages, 0u);
  EXPECT_FALSE(m.fault);
  EXPECT_LE(m.trace.flows, 16u);
  EXPECT_TRUE(m.trace.injections.empty());
}

TEST(DiffMinimize, ThrowingPredicateRejectsCandidate) {
  const Scenario s = generate_scenario(7);
  std::size_t calls = 0;
  // Throws on every shrunken candidate: the original must come back intact.
  const FailPredicate fails = [&](const Scenario&) -> bool {
    ++calls;
    throw std::runtime_error("candidate invalid");
  };
  const Scenario m = minimize_scenario(s, fails);
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(m.serialize(), s.serialize());
}

TEST(DiffCoverage, TelemetryCoverageKeysAreDeterministic) {
  telemetry::Registry::global().reset();
  const Scenario s = Scenario::load(
      (fs::path(NEWTON_CORPUS_DIR) / "filter_map.nds").string());
  (void)check_scenario(s);
  const auto k1 = telemetry::coverage_keys(telemetry::Registry::global().snapshot());
  EXPECT_FALSE(k1.empty());

  telemetry::Registry::global().reset();
  (void)check_scenario(s);
  const auto k2 = telemetry::coverage_keys(telemetry::Registry::global().snapshot());
  EXPECT_EQ(k1, k2);
}

// A short fully deterministic campaign: same seed twice, identical stats,
// zero divergences.
TEST(DiffFuzz, SmallDeterministicCampaignIsClean) {
  FuzzOptions fo;
  fo.seed = 20260806;
  fo.max_runs = 10;
  fo.out_dir = ::testing::TempDir();
  const FuzzStats a = run_fuzzer(fo);
  EXPECT_EQ(a.runs, 10u);
  EXPECT_EQ(a.divergent, 0u) << "failing scenarios written to " << fo.out_dir;
  const FuzzStats b = run_fuzzer(fo);
  EXPECT_EQ(b.coverage_bits, a.coverage_bits);
  EXPECT_EQ(b.corpus, a.corpus);
}
