// Churn-storm robustness bench (ROADMAP item 2, docs/admission.md).
//
// Newton's claim over recompile-and-redeploy systems is that tenants
// install and withdraw queries at runtime without disturbing the data
// plane.  This bench abuses that claim at production shape and reports
// whether the control plane keeps up:
//
//   phase 1  concurrency + churn under load: install >= 100 concurrent
//            disjoint-traffic tenant queries through the sharded runtime,
//            then stream an attack-mix trace while queueing
//            install+withdraw churn pairs (plus periodic inadmissible
//            installs that admission must bounce without residue) at
//            every window barrier.  Reports sustained churn ops/min,
//            concurrent query count, rejected installs, JIT recompiles
//            (one per replica reload: the workers re-lower before their
//            next burst), and the window-barrier wall time p50/p99 as the
//            registry's newton_runtime_window_merge_duration_us histogram
//            reports it (bounds at 250, 500, 750, 1000, 1500, 2000, 2500,
//            3500 and 5000 us: a 0.3-2 ms barrier lands in a bucket at most
//            500 us wide).
//   phase 2  install-latency SLO: on the still-loaded switch, run direct
//            controller install+withdraw cycles and report the wall and
//            modeled install-latency distribution (p50/p95/p99).
//   phase 3  fragmentation + online compaction: withdraw every other base
//            query to fragment the register banks, report the gauges
//            (free / largest block / stranded), run Controller::compact()
//            and report moves and the stranded count it recovered.
//
//   bench_churn [--queries N]        concurrent base queries (default 110)
//               [--packets N]        trace size (default 200000)
//               [--pairs N]          churn install+withdraw pairs per window
//               [--shards N]         runtime shards (default 2)
//               [--latency-ops N]    phase-2 install samples (default 200)
//               [--min-ops-per-min X]  exit 1 if sustained churn ops/min
//                                    lands below X (CI gate: 200)
//               [--max-p99-ms X]     exit 1 if phase-2 p99 wall install
//                                    latency exceeds X ms (CI gate)
//
// Writes BENCH_churn.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "bench_util.h"
#include "core/controller.h"
#include "core/newton_switch.h"
#include "core/query.h"
#include "packet/epoch_clock.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"

namespace newton {
namespace {

uint64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// A small disjoint-traffic query: every instance filters its own dst port,
// so the scheduler multiplexes them P-Newton style and a hundred of them
// fit one pipeline.  The when-threshold is unreachable — this bench
// measures the control plane, not report volume.
Query small_query(const std::string& name, uint16_t dport,
                  std::size_t width = 256) {
  QueryBuilder b(name);
  b.sketch(2, width);
  b.filter(Predicate{}.where(Field::DstPort, Cmp::Eq, dport))
      .map({Field::SrcIp})
      .reduce({Field::SrcIp}, Agg::Sum)
      .when(Cmp::Ge, 1'000'000'000u);
  Query q = b.build();
  q.window_ns = 100'000'000;
  q.row_partitions = 1;
  return q;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

}  // namespace
}  // namespace newton

int main(int argc, char** argv) {
  using namespace newton;
  std::size_t n_queries = 110;
  std::size_t n_packets = 200'000;
  std::size_t pairs_per_window = 3;
  std::size_t shards = 2;
  std::size_t latency_ops = 200;
  double min_ops_per_min = 0.0;
  double max_p99_ms = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    if (a == "--queries" && has_next)
      n_queries = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (a == "--packets" && has_next)
      n_packets = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (a == "--pairs" && has_next)
      pairs_per_window = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (a == "--shards" && has_next)
      shards = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (a == "--latency-ops" && has_next)
      latency_ops = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (a == "--min-ops-per-min" && has_next)
      min_ops_per_min = std::atof(argv[++i]);
    else if (a == "--max-p99-ms" && has_next)
      max_p99_ms = std::atof(argv[++i]);
    else {
      std::fprintf(stderr,
                   "usage: bench_churn [--queries N] [--packets N] "
                   "[--pairs N] [--shards N] [--latency-ops N]\n"
                   "                   [--min-ops-per-min X] "
                   "[--max-p99-ms X]\n");
      return 2;
    }
  }

  bench::header("churn storm: admission + churn + compaction (ISSUE 8)");
  telemetry::Registry::global().reset();

  Trace t = generate_trace(bench::bench_caida(7));
  if (t.size() > n_packets) {
    t.packets.resize(n_packets);
  } else {
    // Tile in time up to the target so every run sees the same density.
    const uint64_t period = t.duration_ns() + 1'000'000;
    const std::size_t base_n = t.size();
    for (uint64_t k = 1; t.size() < n_packets; ++k)
      for (std::size_t i = 0; i < base_n && t.size() < n_packets; ++i) {
        Packet p = t.packets[i];
        p.ts_ns += k * period;
        t.packets.push_back(p);
      }
  }

  Analyzer an;
  NewtonSwitch sw(1, 64, &an, 1 << 18);
  RuntimeOptions ro;
  ro.num_shards = shards;
  ro.record_snapshots = false;
  ShardedRuntime rt(sw, ro, &an);

  // --- phase 1: load the switch, then churn while traffic flows ---
  for (std::size_t i = 0; i < n_queries; ++i)
    rt.install(small_query("base" + std::to_string(i),
                           static_cast<uint16_t>(20'000 + i)),
               {}, "tenant" + std::to_string(i % 8));
  rt.start();

  EpochClock clock(sw.window_ns());
  std::size_t window_idx = 0;
  std::size_t churn_idx = 0, churn_installs = 0, churn_withdrawals = 0;
  const uint64_t w0 = wall_ns();
  for (const Packet& p : t.packets) {
    if (window_idx == 0 || clock.closes(p.ts_ns)) {  // a window opens
      clock.advance(p.ts_ns);
      // Queue this window's churn batch: admissible install+withdraw
      // pairs, plus every other window one hopeless install (a register
      // demand no bank can hold) that admission must reject cleanly.
      for (std::size_t j = 0; j < pairs_per_window; ++j, ++churn_idx) {
        const std::string name = "churn" + std::to_string(churn_idx);
        rt.install(small_query(name,
                               static_cast<uint16_t>(30'000 + churn_idx % 1024)),
                   {}, "churn-tenant");
        rt.withdraw(name);
        ++churn_installs;
        ++churn_withdrawals;
      }
      if (window_idx++ % 2 == 0) {
        rt.install(small_query("doomed" + std::to_string(churn_idx),
                               static_cast<uint16_t>(50'000),
                               std::size_t{1} << 21),
                   {}, "churn-tenant");
      }
    }
    rt.process(p);
  }
  rt.finish();
  const uint64_t w1 = wall_ns();

  const RuntimeStats& st = rt.stats();
  const double wall_s = static_cast<double>(w1 - w0) / 1e9;
  const std::size_t churn_ops = churn_installs + churn_withdrawals;
  const double ops_per_min = static_cast<double>(churn_ops) / (wall_s / 60.0);
  const std::size_t concurrent = rt.controller().num_installed();
  // Barrier cost as a live scrape sees it: quantiles of the runtime's own
  // merge-duration histogram, not a second stopwatch.
  const telemetry::Snapshot snap = telemetry::Registry::global().snapshot();
  const telemetry::Sample* merge =
      snap.find("newton_runtime_window_merge_duration_us");
  const double barrier_p50_us = merge ? telemetry::quantile(*merge, 0.50) : 0;
  const double barrier_p99_us = merge ? telemetry::quantile(*merge, 0.99) : 0;

  std::printf("phase 1: %zu concurrent queries, %zu packets, %zu shards\n",
              concurrent, t.size(), shards);
  std::printf("  churn: %zu installs + %zu withdrawals in %.2f s = "
              "%.0f ops/min\n",
              churn_installs, churn_withdrawals, wall_s, ops_per_min);
  std::printf("  rejected (inadmissible) installs: %llu   windows: %llu   "
              "jit recompiles: %llu\n",
              static_cast<unsigned long long>(st.installs_rejected),
              static_cast<unsigned long long>(st.windows),
              static_cast<unsigned long long>(st.jit_recompiles));
  std::printf("  window barrier (registry histogram): p50 %.0f us  "
              "p99 %.0f us\n",
              barrier_p50_us, barrier_p99_us);
  if (concurrent < n_queries) {
    std::fprintf(stderr, "FAIL: base queries fell below %zu\n", n_queries);
    return 1;
  }

  // --- phase 2: install-latency distribution on the loaded switch ---
  Controller& ctl = rt.controller();
  std::vector<double> wall_ms, model_ms;
  for (std::size_t i = 0; i < latency_ops; ++i) {
    const std::string name = "lat" + std::to_string(i);
    const uint64_t a = wall_ns();
    const Controller::OpStats ins = ctl.install(
        small_query(name, static_cast<uint16_t>(40'000 + i % 1024)), {},
        "slo-tenant");
    const uint64_t b = wall_ns();
    ctl.remove(name);
    wall_ms.push_back(static_cast<double>(b - a) / 1e6);
    model_ms.push_back(ins.latency_ms);
  }
  const double p50w = percentile(wall_ms, 0.50);
  const double p95w = percentile(wall_ms, 0.95);
  const double p99w = percentile(wall_ms, 0.99);
  const double p99m = percentile(model_ms, 0.99);
  std::printf("phase 2: install latency over %zu ops on the loaded switch\n",
              latency_ops);
  std::printf("  wall    p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n", p50w, p95w,
              p99w);
  std::printf("  modeled p99 %.3f ms (control-channel cost model)\n", p99m);

  // --- phase 3: fragment the banks, then compact ---
  for (std::size_t i = 0; i < n_queries; i += 2)
    ctl.remove("base" + std::to_string(i));
  const Controller::FragStats before = ctl.fragmentation();
  const Controller::CompactStats cs = ctl.compact();
  const Controller::FragStats after = ctl.fragmentation();
  std::printf("phase 3: withdrew %zu queries to fragment, then compacted\n",
              (n_queries + 1) / 2);
  std::printf("  before: free %zu, largest block %zu, stranded %zu\n",
              before.free_registers, before.largest_free_block,
              before.stranded_registers);
  std::printf("  compact: %zu/%zu queries moved, %zu rule ops, %.2f ms\n",
              cs.moved, cs.examined, cs.rule_ops, cs.latency_ms);
  std::printf("  after:  free %zu, largest block %zu, stranded %zu\n",
              after.free_registers, after.largest_free_block,
              after.stranded_registers);

  FILE* f = std::fopen("BENCH_churn.json", "w");
  if (f) {
    std::fprintf(f,
                 "{\n"
                 "  \"concurrent_queries\": %zu,\n"
                 "  \"packets\": %zu,\n"
                 "  \"shards\": %zu,\n"
                 "  \"churn_installs\": %zu,\n"
                 "  \"churn_withdrawals\": %zu,\n"
                 "  \"wall_s\": %.3f,\n"
                 "  \"ops_per_min\": %.1f,\n"
                 "  \"rejected_installs\": %llu,\n"
                 "  \"windows\": %llu,\n"
                 "  \"jit_recompiles\": %llu,\n"
                 "  \"barrier_us\": {\"p50\": %.1f, \"p99\": %.1f},\n"
                 "  \"install_wall_ms\": {\"p50\": %.4f, \"p95\": %.4f, "
                 "\"p99\": %.4f},\n"
                 "  \"install_model_ms_p99\": %.4f,\n"
                 "  \"frag_stranded_before\": %zu,\n"
                 "  \"frag_stranded_after\": %zu,\n"
                 "  \"compaction_moves\": %zu\n"
                 "}\n",
                 concurrent, t.size(), shards, churn_installs,
                 churn_withdrawals, wall_s, ops_per_min,
                 static_cast<unsigned long long>(st.installs_rejected),
                 static_cast<unsigned long long>(st.windows),
                 static_cast<unsigned long long>(st.jit_recompiles),
                 barrier_p50_us, barrier_p99_us, p50w, p95w, p99w, p99m,
                 before.stranded_registers, after.stranded_registers,
                 cs.moved);
    std::fclose(f);
    std::printf("wrote BENCH_churn.json\n");
  }

  int rc = 0;
  if (min_ops_per_min > 0 && ops_per_min < min_ops_per_min) {
    std::fprintf(stderr, "FAIL: %.0f churn ops/min < gate %.0f\n", ops_per_min,
                 min_ops_per_min);
    rc = 1;
  }
  if (max_p99_ms > 0 && p99w > max_p99_ms) {
    std::fprintf(stderr, "FAIL: p99 install wall latency %.3f ms > gate %.3f ms\n",
                 p99w, max_p99_ms);
    rc = 1;
  }
  if (st.installs_rejected == 0) {
    std::fprintf(stderr, "FAIL: expected at least one admission rejection\n");
    rc = 1;
  }
  return rc;
}
