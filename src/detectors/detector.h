// Real-detector scenario library: operator intents from the paper's target
// domain (§2: port scans, superspreaders, floods, volume anomalies, heavy
// hitters) expressed as Newton query chains, each paired with an *exact*
// ground-truth evaluator over the raw trace and acceptance bounds on
// precision/recall.  The library is the bridge between the query plumbing
// and "does this thing actually detect attacks":
//
//   * tests/test_detectors.cpp scores every detector on the labeled corpus
//     fixture (tests/corpus/detectors.pcap) against its bounds;
//   * bench/bench_detectors.cpp registers the same runs as an accuracy
//     experiment (EXPERIMENTS.md);
//   * examples/newton_tool.cpp `replay --detectors` installs them over live
//     pcap/socket ingestion; `detectors` lists the chains;
//   * each detector seeds a difftest scenario (tests/corpus/det_*.nds).
//
// Key-set detectors (port_scan, superspreader, syn_flood, prefix_hh) score
// the analyzer's deduplicated key sets directly.  Value detectors
// (ewma_volume, topk_ports) need the running aggregate, not just membership:
// their chains end in when_stream (every surviving packet reports), a
// ValueSink captures each report's global_result (the cross-row Count-Min
// minimum), and because window aggregates are monotone under Agg::Sum, the
// per-(key, window) maximum is the end-of-window value.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/metrics.h"
#include "core/query.h"
#include "core/report.h"
#include "packet/epoch_clock.h"
#include "runtime/shard_hash.h"
#include "trace/trace_gen.h"

namespace newton::detectors {

// Raw-report value capture: max running aggregate per (qid, window, key).
// Attach alongside the Analyzer (ShardedRuntime::set_report_sink).
class ValueSink : public ReportSink {
 public:
  struct WindowKey {
    uint64_t window;
    KeyArray key;
    friend auto operator<=>(const WindowKey&, const WindowKey&) = default;
  };
  using ValueMap = std::map<WindowKey, uint32_t>;

  explicit ValueSink(uint64_t window_ns) : clock_(window_ns) {}

  void report(const ReportRecord& r) override;

  // End-of-window aggregates for one data-plane qid (empty map if silent).
  const ValueMap& values(uint16_t qid) const;
  void clear() { by_qid_.clear(); }

 private:
  EpochClock clock_;  // window index of a report's timestamp
  std::map<uint16_t, ValueMap> by_qid_;
  static const ValueMap kEmpty;
};

// Everything a detector's evaluator sees after a run: the raw trace it can
// derive exact truth from, plus the run's outputs.
struct EvalInput {
  const Trace& trace;
  const Analyzer& analyzer;
  const ValueSink& values;
};

struct Evaluation {
  Accuracy acc;                 // detected vs exact truth (all branches)
  std::size_t detected_keys = 0;
  std::size_t truth_keys = 0;
};

struct Detector {
  std::string id;      // "port_scan" — stable handle for CLI / tests
  std::string intent;  // one-line operator intent
  std::string chain;   // rendered query chain (docs / `newton_tool detectors`)
  Query query;
  // The coarsest flow key that keeps this chain's stateful primitives
  // key-affine under the sharded runtime (docs/runtime.md): all packets of
  // one aggregation key must land on one shard.
  ShardKey shard_key;
  double min_precision = 0.9;  // acceptance bounds on the labeled fixture
  double min_recall = 0.9;
  std::function<Evaluation(const EvalInput&)> evaluate;
};

// Tunables; defaults are calibrated against make_labeled_attack_trace.
// Thresholds are per 100 ms window unless stated otherwise.
struct DetectorParams {
  uint32_t scan_ports_th = 40;      // distinct probed ports per sip
  uint32_t spread_fanout_th = 50;   // distinct contacted dips per sip
  uint32_t syn_th = 120;            // SYNs per dip
  uint32_t ack_th = 120;            // ACKs per dip (flood exoneration)
  uint32_t ewma_floor = 32;         // min per-window packets to consider
  double ewma_alpha = 0.3;          // smoothing factor
  double ewma_mult = 4.0;           // anomaly = v > mult * smoothed mean
  uint32_t topk_k = 4;              // ports to rank
  uint32_t topk_floor = 16;         // min per-window packets to report
  uint32_t hh_bytes_th24 = 12'000;  // bytes per /24 per window
  uint32_t hh_bytes_th16 = 12'000;  // bytes per /16 per window
  uint32_t hh_bytes_th8 = 12'000;   // bytes per /8 per window
  std::size_t sketch_depth = 2;
  std::size_t sketch_width = 4096;
  uint64_t window_ms = 100;
};

// The library, in stable order: port_scan, superspreader, syn_flood,
// ewma_volume, topk_ports, prefix_hh.
std::vector<Detector> detector_library(const DetectorParams& p = {});

// nullptr when no detector has this id.
const Detector* find_detector(const std::vector<Detector>& lib,
                              const std::string& id);

// Partition detectors into sharding-compatible groups: same shard fields,
// with each group adopting the coarsest (AND-ed) mask of its members — a
// coarsening of every member's key is affine for all of them.  Each group
// installs into one sharded runtime; incompatible families (sip-keyed vs
// dip-keyed vs dport-keyed) need separate passes when num_shards > 1.
struct DetectorGroup {
  ShardKey key;
  std::vector<const Detector*> members;
};

std::vector<DetectorGroup> group_by_shard_key(
    const std::vector<const Detector*>& selected);

}  // namespace newton::detectors
