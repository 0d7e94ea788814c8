// Compiled per-query executors (src/compile/, docs/compile.md): the chain
// JIT must be a pure performance transform.  Pins, on top of the difftest
// jit axis:
//   * every committed .nds corpus seed replays byte-identically with the
//     JIT on vs. off, at 1 and at 4 shards (reports AND merged register
//     state), with the compiled path actually carrying packets;
//   * the bench query set (q1/q3/q5) replays byte-identically with the JIT
//     on vs. off at 1 and 4 shards, every packet on the compiled path;
//   * all six detector-library chains lower to the compiled executor;
//   * RuntimeOptions::jit = false routes every packet through the
//     interpreter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "core/report.h"
#include "detectors/detector.h"
#include "difftest/scenario.h"
#include "runtime/sharded_runtime.h"
#include "trace/attacks.h"
#include "trace/trace_gen.h"

using namespace newton;

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

auto rec_key(const ReportRecord& r) {
  return std::tuple(r.qid, r.ts_ns, r.oper_keys, r.hash_result,
                    r.state_result, r.global_result, r.switch_id, r.deferred,
                    r.next_slice);
}

std::vector<ReportRecord> sorted(std::vector<ReportRecord> v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return rec_key(a) < rec_key(b);
  });
  return v;
}

CompileOptions level(int o) {
  CompileOptions c;
  c.opt1 = o >= 1;
  c.opt2 = o >= 2;
  c.opt3 = o >= 3;
  return c;
}

// Worst-case register need, mirroring the difftest harness's sizing.
std::size_t bank_size(const difftest::Scenario& s) {
  std::size_t need = 16384;
  for (const Query& q : s.queries)
    need += q.sketch_width * q.row_partitions * q.branches.size();
  return std::max<std::size_t>(kStateBankRegisters, need);
}

struct RunOut {
  std::vector<ReportRecord> records;
  // (query, branch, window) -> end-of-window register slice contents.
  std::map<std::tuple<std::string, std::size_t, uint64_t>,
           std::vector<uint32_t>>
      state;
  uint64_t jit_packets = 0;
  uint64_t packets = 0;  // packets the shard workers executed
};

void collect(const ShardedRuntime& rt, const ReportBuffer& buf, RunOut& out) {
  out.records = sorted(buf.records());
  for (const WindowSnapshot& snap : rt.snapshots())
    for (const BranchSnapshot& b : snap.branches)
      out.state[{b.query, b.branch, snap.window}] = b.state;
  for (const WorkerStats& w : rt.stats().workers) {
    out.jit_packets += w.jit_packets;
    out.packets += w.packets;
  }
}

// Mirror of the difftest harness's sharded-runtime execution (op schedule,
// affine shard key, window snapshots), but collecting the raw report
// stream so the jit-on/off comparison is byte-level, not keyset-level.
// `burst` = 0 keeps the scenario's own burst size.
RunOut run_scenario(const difftest::Scenario& s, const Trace& t,
                    std::size_t nshards, bool jit, std::size_t burst = 0) {
  RunOut out;
  ReportBuffer buf;
  NewtonSwitch primary(1, difftest::kPipelineStages, nullptr, bank_size(s));
  primary.set_window_ns(s.window_ns());
  RuntimeOptions ro;
  ro.num_shards = nshards;
  ro.burst = burst == 0 ? s.burst : burst;
  ro.record_snapshots = true;
  ro.jit = jit;
  const auto key = difftest::affine_shard_key(s.queries);
  ro.shard_key = key ? *key : ShardKey::five_tuple();
  ShardedRuntime rt(primary, ro, nullptr);
  rt.set_report_sink(&buf);
  const std::vector<difftest::ResolvedOp> ops = difftest::resolve_ops(s);
  std::size_t next = 0;
  const auto apply = [&](const difftest::ResolvedOp& op) {
    if (op.kind == difftest::ResolvedOp::Kind::Install)
      rt.install(op.def, level(s.opt_level));
    else
      rt.withdraw(difftest::query_name(op.query));
  };
  for (; next < ops.size() && ops[next].at_packet == 0; ++next)
    apply(ops[next]);
  rt.start();
  for (std::size_t i = 0; i < t.packets.size(); ++i) {
    for (; next < ops.size() && ops[next].at_packet <= i; ++next)
      apply(ops[next]);
    rt.process(t.packets[i]);
  }
  rt.finish();
  collect(rt, buf, out);
  return out;
}

void expect_same(const RunOut& a, const RunOut& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i)
    ASSERT_EQ(rec_key(a.records[i]), rec_key(b.records[i])) << "record " << i;
  EXPECT_EQ(a.state, b.state);
}

Trace bench_trace(uint32_t seed) {
  TraceProfile p = caida_like(seed);
  p.num_flows = 400;
  Trace t = generate_trace(p);
  std::mt19937 rng(seed + 7);
  inject_syn_flood(t, ipv4(172, 16, 7, 7), 200, 1, 150'000'000, rng);
  inject_udp_flood(t, ipv4(172, 16, 9, 9), 120, 2, 450'000'000, rng);
  t.sort_by_time();
  return t;
}

}  // namespace

// Every committed seed scenario — including the mid-stream
// install/withdraw schedules — must produce a byte-identical report stream
// and identical merged register state with the chain JIT on and off, at
// both shard counts.  Same shard key on both legs, so even non-affine
// scenarios must agree exactly.
TEST(CompiledCorpus, JitMatchesInterpreterAt1And4Shards) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 8u);
  uint64_t jit_packets_total = 0;
  for (const fs::path& p : files) {
    SCOPED_TRACE(p.filename().string());
    const difftest::Scenario s = difftest::Scenario::load(p.string());
    const Trace t = s.trace.build();
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      const RunOut on = run_scenario(s, t, shards, /*jit=*/true);
      const RunOut off = run_scenario(s, t, shards, /*jit=*/false);
      ASSERT_EQ(on.records.size(), off.records.size());
      for (std::size_t i = 0; i < on.records.size(); ++i)
        ASSERT_EQ(rec_key(on.records[i]), rec_key(off.records[i]))
            << "record " << i;
      EXPECT_EQ(on.state, off.state);
      EXPECT_EQ(off.jit_packets, 0u);
      // Mid-stream mutations included, every packet runs compiled.
      EXPECT_EQ(on.jit_packets, on.packets);
      jit_packets_total += on.jit_packets;
    }
  }
  // The corpus must actually exercise the compiled path.
  EXPECT_GT(jit_packets_total, 0u);
}

// The burst size is a pure performance lever.  Sweep it over
// representative seeds against one interpreter baseline: byte-identical
// reports and register state at every point.  Burst 1 degenerates every
// run to one packet (no burst schedule), burst 3 stays below the
// schedule's minimum run length, burst 64 is the steady-state shape with
// the three-phase schedule and the CRC 4-way interleave fully engaged.
TEST(CompiledBurstSchedule, BurstSweepByteIdentical) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 2u);
  for (std::size_t fi = 0; fi < 2; ++fi) {
    SCOPED_TRACE(files[fi].filename().string());
    const difftest::Scenario s = difftest::Scenario::load(files[fi].string());
    const Trace t = s.trace.build();
    const RunOut base = run_scenario(s, t, 1, /*jit=*/false);
    uint64_t jit_packets_total = 0;
    for (const std::size_t burst : {std::size_t{1}, std::size_t{3},
                                    std::size_t{64}}) {
      SCOPED_TRACE("burst=" + std::to_string(burst));
      const RunOut on = run_scenario(s, t, 1, /*jit=*/true, burst);
      expect_same(on, base);
      jit_packets_total += on.jit_packets;
    }
    EXPECT_GT(jit_packets_total, 0u);
  }
}

// The bench query set (q1/q3/q5) on the attack-mix trace, 5-tuple
// sharding: the JIT must replay it byte-identically to the interpreter at
// 1 and 4 shards — sorted report records and merged per-window register
// state — with every query compiled and every packet on the compiled path.
TEST(CompiledCoverage, BenchQueriesByteIdenticalAt1And4Shards) {
  const Trace t = bench_trace(31);
  const auto run = [&](std::size_t shards, bool jit) {
    ReportBuffer buf;
    NewtonSwitch sw(1, 24, nullptr);
    RuntimeOptions ro;
    ro.num_shards = shards;
    ro.jit = jit;
    ro.shard_key = ShardKey::five_tuple();
    ShardedRuntime rt(sw, ro, nullptr);
    rt.set_report_sink(&buf);
    QueryParams p;
    rt.install(make_q1(p));
    rt.install(make_q3(p));
    rt.install(make_q5(p));
    rt.start();
    for (const Packet& pk : t.packets) rt.process(pk);
    rt.finish();
    RunOut out;
    collect(rt, buf, out);
    return out;
  };
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const RunOut on = run(shards, /*jit=*/true);
    const RunOut off = run(shards, /*jit=*/false);
    expect_same(on, off);
    EXPECT_FALSE(on.records.empty());
    EXPECT_FALSE(on.state.empty());
    EXPECT_GT(on.packets, 0u);
    EXPECT_EQ(on.jit_packets, on.packets);
    EXPECT_EQ(off.jit_packets, 0u);
  }
}

// All six detector-library chains run compiled (grouped by shard-key
// family exactly as `newton_tool replay --detectors` installs them): a
// replay of the labeled detector trace executes every packet of every
// group on the compiled executors.
TEST(CompiledCoverage, DetectorChainsCompile) {
  const auto lib = detectors::detector_library();
  ASSERT_GE(lib.size(), 6u);
  std::vector<const detectors::Detector*> all;
  for (const auto& d : lib) all.push_back(&d);
  const Trace t = make_labeled_attack_trace(42, 20).trace;
  std::size_t groups = 0;
  for (const auto& g : detectors::group_by_shard_key(all)) {
    SCOPED_TRACE("group with " + g.members.front()->id);
    Analyzer an;
    NewtonSwitch sw(1, 64, nullptr);  // deep budget: concurrent chains
    RuntimeOptions ro;
    ro.shard_key = g.key;
    ro.record_snapshots = false;
    ShardedRuntime rt(sw, ro, &an);
    for (const auto* d : g.members) rt.install(d->query);
    rt.start();
    for (const Packet& pk : t.packets) rt.process(pk);
    rt.finish();
    uint64_t jit = 0, total = 0;
    for (const WorkerStats& w : rt.stats().workers) {
      jit += w.jit_packets;
      total += w.packets;
    }
    EXPECT_EQ(total, t.packets.size());
    EXPECT_EQ(jit, total);
    ++groups;
  }
  EXPECT_GE(groups, 2u);
}

// RuntimeOptions::jit = false: the interpreter handles everything and
// nothing is ever lowered.
TEST(CompiledEscapeHatch, OptionDisablesJit) {
  Analyzer an;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions ro;
  ro.jit = false;
  ShardedRuntime rt(sw, ro, &an);
  QueryParams p;
  rt.install(make_q1(p));
  rt.start();
  EXPECT_FALSE(rt.jit_enabled());
  const Trace t = bench_trace(33);
  for (const Packet& pk : t.packets) rt.process(pk);
  rt.finish();
  EXPECT_EQ(rt.stats().jit_recompiles, 0u);
  uint64_t jit = 0, total = 0;
  for (const WorkerStats& w : rt.stats().workers) {
    jit += w.jit_packets;
    total += w.packets;
  }
  EXPECT_EQ(jit, 0u);
  EXPECT_GT(total, 0u);
}
