// k-ary report aggregation tree (ROADMAP item 4).
//
// The central collector model has every switch mirror its reports straight
// to the analyzer: collection fan-in equals the switch count, and resilient
// replica deployments multiply the volume further (every replica of a slice
// re-reports the same key).  AggregationTree interposes as the fabric's
// ReportSink: each switch feeds a leaf, internal nodes coalesce up to
// `fanin` children, and per-edge partial merges combine records that carry
// the same (query, branch, window, operation keys) — the root forwards the
// survivors downstream.  Collection cost then scales with tree depth
// (log_fanin of the switch count), not with the fabric size.
//
// Merging follows `RegisterArray::merge_from` semantics: the duplicate
// records' global results combine under the query's MergeOp (Add for
// count-min banks, Or for bloom banks, Max otherwise — see
// `merge_op_for_slices`), the representative keeps the smallest reporting
// switch id and the latest timestamp.  Because the analyzer derives its
// detections from per-window key sets, and a merge never crosses a window
// or drops a key, the analyzer-visible detections are byte-identical to
// central collection (proven in test_fleet).  Deferred records (software
// continuations of a stranded CQE chain) pass through unmerged.
//
// Attribution: switch-local qids differ across replicas of the same slice,
// so cross-switch merging resolves the logical owner through
// `Analyzer::owner_of`.  Without an attribution analyzer, merging degrades
// to per-switch coalescing (still bounded fan-in, weaker compression).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/cqe.h"
#include "core/report.h"
#include "dataplane/register_array.h"
#include "net/topology.h"
#include "packet/epoch_clock.h"

namespace newton {

// The MergeOp under which replicas of a query's final aggregate combine,
// derived from its slices' non-bypass S-module SALU ops: all-Add -> Add,
// all-Or -> Or, anything else (or no stateful module) -> Max.
MergeOp merge_op_for_slices(const std::vector<QuerySlice>& slices);

class AggregationTree : public ReportSink {
 public:
  struct Options {
    std::size_t fanin = 16;              // max children per internal node
    uint64_t window_ns = 100'000'000;    // must match the switches' window
    const Analyzer* attribution = nullptr;  // owner lookup for merging
  };

  struct Stats {
    std::size_t depth = 0;          // levels from leaf to root (>= 1)
    std::size_t nodes = 0;          // leaves + internal nodes + root
    std::size_t max_fanin = 0;      // widest node actually built
    uint64_t reports_in = 0;        // records entering at the leaves
    uint64_t link_records = 0;      // records crossing any tree edge
    uint64_t merged_away = 0;       // records absorbed by a partial merge
    uint64_t root_records = 0;      // records the root forwarded downstream
    uint64_t passthrough = 0;       // deferred records forwarded unmerged
  };

  // `downstream` (borrowed, may be the same Analyzer used for attribution)
  // receives the root's output on flush().
  AggregationTree(const Topology& t, ReportSink* downstream, Options opt);

  void report(const ReportRecord& r) override;

  // Propagate every buffered record leaf-to-root, merging per edge, and
  // emit the survivors downstream.  Call at window boundaries (or at end
  // of replay); records of several windows buffer safely between calls —
  // the merge key carries the window index.
  void flush();

  // Override the MergeOp for one query's records (default Max).
  void set_merge_op(const std::string& query, MergeOp op);

  const Stats& stats() const { return stats_; }

 private:
  struct MergeKey {
    std::string query;   // owner query, or "" when unattributed
    uint64_t branch;     // owner branch, or (switch_id << 16) | qid
    uint64_t window;
    uint8_t next_slice;
    std::array<uint32_t, kNumFields> keys;
    bool operator<(const MergeKey& o) const {
      return std::tie(query, branch, window, next_slice, keys) <
             std::tie(o.query, o.branch, o.window, o.next_slice, o.keys);
    }
  };

  struct Node {
    int parent = -1;
    std::size_t children = 0;
    std::map<MergeKey, ReportRecord> merged;
    std::vector<ReportRecord> passthrough;  // deferred records
  };

  MergeOp op_for(const MergeKey& k) const;
  void absorb(Node& parent, Node& child);

  Options opt_;
  EpochClock clock_;  // the merge key's window index
  ReportSink* downstream_;
  std::map<uint32_t, std::size_t> leaf_of_;   // switch id -> leaf node
  std::vector<std::size_t> level_start_;      // node index where level begins
  std::vector<Node> nodes_;                   // leaves first, root last
  std::map<std::string, MergeOp> merge_ops_;
  Stats stats_;
};

}  // namespace newton
