// Exact reference interpreter for differential scenarios: evaluates the
// scenario's query chains with plain maps/sets (ExactBranch, the ground
// truth's interpreter: no sketches, no RMT pipeline) under the same
// windowing and op-schedule semantics the data plane uses.  Its
// per-window passing keysets are the oracle the pipeline executions are
// compared against (docs/difftest.md, "Oracle semantics").
#pragma once

#include <map>
#include <utility>

#include "analyzer/ground_truth.h"
#include "difftest/scenario.h"

namespace newton::difftest {

// Per-window detected keysets of one execution, keyed by (query index,
// branch index).  All executors — reference, single-switch, runtime, CQE,
// fault — reduce to this shape before comparison.
struct ExecResult {
  std::map<std::pair<std::size_t, std::size_t>, std::map<uint64_t, KeySet>>
      detected;

  // Merged end-of-window register state per (query, branch) per window
  // (sharded-runtime executors only).  The window merge folds per-worker
  // banks by the slice's ALU op (sums add, bloom bits or), so two runs of
  // the same scenario at different shard counts must agree bit for bit —
  // this is the axis that exercises the merge itself.
  std::map<std::pair<std::size_t, std::size_t>,
           std::map<uint64_t, std::vector<uint32_t>>>
      state;

  // Union over windows of one (query, branch)'s detected keys.
  KeySet passing_union(std::size_t query, std::size_t branch) const;
};

// Evaluate the scenario exactly over `t` (which must be s.trace.build(), or
// a caller-cached copy of it).  Ops apply at the first window-epoch
// crossing at or after their packet index; ops at packet 0 apply before the
// stream starts; per-window state clears at every crossing — the same
// semantics every pipeline executor observes.
ExecResult run_reference(const Scenario& s, const Trace& t);

}  // namespace newton::difftest
