// The four benchmark workloads (README.md "Workloads") and the thread-free
// layer drives the traced run adds (layers.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/newton_switch.h"
#include "packet/packet.h"

namespace perfbench {

struct Ctx {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;  // per-checkout work directory: inputs, oracle cache
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // End-to-end metrics (untraced run): setup_s, pps, report_delay_ms_p50,
  // install_ms_p50; peak_rss_mb is added by the driver.
  std::map<std::string, double> e2e;
  // Workload-specific end-to-end figures, printed on the detail line only.
  std::vector<Metric> extra;
  // Per-layer metrics (traced run), by name; absent = layer not exercised.
  std::map<std::string, double> layer;
  // Counts and digests: identical on every rerun with the same seed.
  std::map<std::string, std::string> facts;
  // Sample counts behind the medians (depend on the time budget).
  std::map<std::string, std::size_t> samples;
  // Per-pass throughput of the measured passes, in run order.
  std::vector<double> pass_pps;
  // The traced run's spans (null when untraced).
  std::unique_ptr<Tracer> tracer;
};

// Generate the workload's inputs and its oracle into ctx.dir, unless a
// previous run left them there for this seed.  Throws on failure.
void prepare(const Ctx& ctx);

// Set up, measure for ctx.seconds, check outputs.  Throws on a setup
// failure (an output mismatch is counted, not thrown).
Outcome run(const Ctx& ctx);

bool known_workload(const std::string& name);
// Threads the workload runs (shard workers + the caller's demux thread).
std::size_t workload_threads(const std::string& name);

// Packets the thread-free layer drives run (the first of the input).
inline constexpr std::size_t kDrivePackets = 16'384;

// Thread-free layer drives over a workload's installed pipeline (layers.cpp,
// ROADMAP item 1b): PHV bursts built with the switch's own newton_init,
// then CompiledPipeline::execute_run against Pipeline::process_burst on the
// same bursts, hash_words_lanes at the chains' digest specs,
// RegisterArray::merge_from at `bank_registers`.  Fills the compile.*,
// dataplane.* and sketch.* per-layer metrics.
void drive_layers(const newton::NewtonSwitch& sw,
                  const std::vector<newton::Packet>& pkts,
                  std::size_t bank_registers, Tracer* tracer,
                  std::map<std::string, double>& layer);

}  // namespace perfbench
