// newton_perfbench: the repo benchmark's driver (README.md).
//
//   newton_perfbench --workload W --seed N --seconds S --trace 0|1
//                    --work DIR [--prepare]
//
// --prepare generates the workload's inputs and oracle into DIR (cached per
// seed) and exits; without it the driver measures for S seconds and prints
// two JSON lines: a detail line (host facts, counts, digests, workload-
// specific figures) and, last, the result:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  perfbench/run.py builds this binary and calls it twice
// (prepare, then measure), so input generation and oracle runs stay out of
// the measured process.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using perfbench::Metric;

struct Def {
  const char* name;
  const char* unit;
};

// The end-to-end and per-layer metrics, in BENCHMARK.json order.
constexpr Def kEndToEnd[] = {
    {"setup_s", "s"},
    {"pps", "1/s"},
    {"report_delay_ms_p50", "ms"},
    {"install_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr Def kPerLayer[] = {
    {"ingest.pull_ns_per_pkt", "ns"},
    {"runtime.demux_ns_per_pkt", "ns"},
    {"runtime.ring_stalls_per_kpkt", "count"},
    {"runtime.worker_busy_frac", "ratio"},
    {"runtime.barrier_us_p50", "us"},
    {"runtime.barrier_mut_us_p50", "us"},
    {"compile.exec_ns_per_pkt", "ns"},
    {"compile.lower_ms", "ms"},
    {"compile.jit_frac", "ratio"},
    {"compile.fused_frac", "ratio"},
    {"compile.prefetch_per_pkt", "count"},
    {"dataplane.init_ns_per_pkt", "ns"},
    {"dataplane.interp_ns_per_pkt", "ns"},
    {"dataplane.merge_us", "us"},
    {"sketch.hash_ns_per_lane", "ns"},
    {"sketch.cse_saved_frac", "ratio"},
    {"analyzer.report_ns", "ns"},
    {"analyzer.reports_per_kpkt", "count"},
    {"core.admit_us_p50", "us"},
    {"core.install_us_p50", "us"},
    {"core.withdraw_us_p50", "us"},
    {"core.compact_us_per_rule_op", "us"},
    {"net.route_us_per_pkt", "us"},
    {"net.send_along_us_per_pkt", "us"},
    {"net.agg_report_ns", "ns"},
    {"net.agg_compression", "ratio"},
    {"net.event_ms_p50", "ms"},
    {"net.scope_frac", "ratio"},
    {"net.deploy_ms", "ms"},
    {"self_frac.bench", "ratio"},
    {"self_frac.ingest", "ratio"},
    {"self_frac.runtime", "ratio"},
    {"self_frac.analyzer", "ratio"},
    {"self_frac.core", "ratio"},
    {"self_frac.net", "ratio"},
    {"trace.pps_ratio", "ratio"},
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string json_num(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int usage() {
  std::fprintf(stderr,
               "usage: newton_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work DIR [--prepare]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Ctx ctx;
  bool prepare_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) ctx.workload = argv[++i];
    else if (a == "--seed" && has)
      ctx.seed = static_cast<uint32_t>(std::stoul(argv[++i]));
    else if (a == "--seconds" && has) ctx.seconds = std::stod(argv[++i]);
    else if (a == "--trace" && has) ctx.trace = std::string(argv[++i]) == "1";
    else if (a == "--work" && has) ctx.dir = argv[++i];
    else if (a == "--prepare") prepare_only = true;
    else return usage();
  }
  if (!perfbench::known_workload(ctx.workload) || ctx.dir.empty() ||
      ctx.seconds <= 0)
    return usage();

  // Fixed allocator thresholds.  glibc raises its mmap and trim thresholds
  // as large blocks are freed, so without this a pass's set-up cost (which
  // allocates every register bank) would depend on what the benchmark's
  // earlier passes happened to free: 6 ms or 20 ms for the same set-up.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 512 << 20);

  try {
    if (prepare_only) {
      perfbench::prepare(ctx);
      return 0;
    }
    perfbench::Outcome o = perfbench::run(ctx);
    const double rss = peak_rss_mb();

    // Detail line: host facts, counts and digests, workload-specific
    // end-to-end figures.
    std::string d = "{\"workload\": " + json_str(ctx.workload) +
                    ", \"seed\": " + std::to_string(ctx.seed) +
                    ", \"trace\": " + (ctx.trace ? "1" : "0");
    d += ", \"host\": {\"nproc\": " +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"compiler\": " + json_str(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
         ", \"threads\": " +
         std::to_string(perfbench::workload_threads(ctx.workload)) + "}";
    d += ", \"counts\": {";
    bool first = true;
    for (const auto& [k, v] : o.facts) {
      d += (first ? "" : ", ") + json_str(k) + ": " + json_str(v);
      first = false;
    }
    d += "}, \"samples\": {";
    first = true;
    for (const auto& [k, v] : o.samples) {
      d += (first ? "" : ", ") + json_str(k) + ": " + std::to_string(v);
      first = false;
    }
    d += "}, \"extra\": {";
    first = true;
    for (const Metric& m : o.extra) {
      d += (first ? "" : ", ") + json_str(m.name) + ": {\"value\": " +
           json_num(m.value) + ", \"unit\": " + json_str(m.unit) + "}";
      first = false;
    }
    d += "}, \"pass_pps\": [";
    for (std::size_t i = 0; i < o.pass_pps.size(); ++i)
      d += (i ? ", " : "") + json_num(o.pass_pps[i]);
    d += "]";
    if (o.tracer != nullptr) {
      const std::string path = ctx.dir + "/spans-" + ctx.workload + ".csv";
      o.tracer->write(path);
      d += ", \"spans\": " + std::to_string(o.tracer->spans().size()) +
           ", \"spans_file\": " + json_str(path);
    }
    std::printf("%s}\n", d.c_str());

    // Result line.
    std::string r = "{\"correct\": ";
    r += o.failed == 0 ? "true" : "false";
    r += ", \"attempted\": " + std::to_string(o.attempted) +
         ", \"failed\": " + std::to_string(o.failed) + ", \"metrics\": {";
    first = true;
    const auto emit = [&](const Def& def, double v) {
      r += (first ? "" : ", ") + json_str(def.name) + ": {\"value\": " +
           json_num(v) + ", \"unit\": " + json_str(def.unit) + "}";
      first = false;
    };
    if (!ctx.trace) {
      o.e2e["peak_rss_mb"] = rss;
      for (const Def& def : kEndToEnd) emit(def, o.e2e.at(def.name));
    } else {
      // A layer the workload does not exercise reads 0 (README.md).
      for (const Def& def : kPerLayer) {
        const auto it = o.layer.find(def.name);
        emit(def, it == o.layer.end() ? 0.0 : it->second);
      }
    }
    std::printf("%s}}\n", r.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "newton_perfbench: %s\n", e.what());
    return 1;
  }
}
