// Compiled per-query executor over lowered chains (chain_ir.h).
//
// A worker builds one CompiledPipeline per replica load, on its own
// thread, before the first burst it executes after that load.  At run time
// the worker partitions each burst into maximal runs of packets whose
// active query sets are identical, and hands each run here.  The executor
// merges the k active chains' ops by interpreter visit order (`order`)
// into a preallocated scratch and runs the merged sequence op-major, one
// runtime switch per op.  Every installed query is covered: a qid without
// module rules runs an empty chain, exactly as the interpreter's tables
// find no rule for it.
//
// A run of kGenericPlanMinRun packets or more executes as a THREE-PHASE
// burst schedule, planned per run over the merged ops (plan_generic):
//
//   1. HASH phase — every HHash op's digest is computed for all lanes at
//      once with hash_words_lanes, straight off the strided packet fields;
//   2. PREFETCH phase — every planned S op's register index is resolved
//      from its feeding digest into a per-op index lane, and the first
//      kPrefetchDistance lanes' cache lines are prefetched (the apply loop
//      keeps the stream running kPrefetchDistance lanes ahead);
//   3. APPLY phase — the op sequence runs in program order; planned H ops
//      copy mapped digests, planned S ops hit precomputed indices through
//      RegisterArray::execute_unchecked (indices are reduced mod size at
//      resolve time, so the innermost loop carries no bounds check).
//
// The executor reproduces interpreter results byte-for-byte: same
// per-register op order (runs are contiguous in burst order and op-major
// execution preserves it; the hash/prefetch phases are pure or advisory),
// same report contents, same rule-hit telemetry (ops bump the source
// modules' hit cells).  Report emission order within a burst can differ
// from the interpreter's stage-major order; every cross-execution check in
// the tree compares sorted records.  docs/compile.md walks the lowering
// rules and the equivalence argument.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "compile/chain_ir.h"
#include "dataplane/phv.h"

namespace newton {

class Pipeline;

namespace compile {

// Index-lane sentinel for "guard missed": the apply loop writes kSMissValue
// without touching the bank.  Collides with a real index only if a register
// array holds >= 2^32 - 1 registers; such S ops stay unplanned (none exist
// — the state bank is 48K registers).
inline constexpr uint32_t kMissIndex = 0xffffffffu;

// How many lanes ahead of the apply loop the state-bank prefetch stream
// runs.
inline constexpr std::size_t kPrefetchDistance = 8;

// Executor options, plumbed from RuntimeOptions (sharded_runtime.h).
struct ExecOptions {
  bool enabled = true;  // false = skip lowering (RuntimeOptions::jit off)
};

// Cumulative burst-schedule counters (monotone across rebuilds; the worker
// snapshots them into WorkerStats and the runtime flushes deltas into
// registry telemetry at window barriers).
struct ExecStats {
  uint64_t hash_lanes = 0;       // digest lanes computed by the hash phase
  uint64_t hash_cse_lanes = 0;   // always 0; read by perfbench/layers.cpp
  uint64_t prefetch_issued = 0;  // state-bank prefetch hints issued
};

class CompiledPipeline {
 public:
  // Lower every installed chain of `pipe` (after report sinks are rebound)
  // and preallocate run scratch for bursts up to `burst_capacity`.
  // `opts.enabled` = false (RuntimeOptions::jit off) skips the lowering
  // entirely and leaves the object not covering.
  void build(Pipeline& pipe, std::size_t burst_capacity,
             const ExecOptions& opts);
  // Drop every compiled chain: nothing is covered until the next build.
  void clear();

  bool enabled() const { return enabled_; }

  // The executor can take this packet: true for every packet once built
  // (qids without module rules run the empty chain).
  bool covers(const Phv&) const { return enabled_; }

  // Execute a run of packets with identical active sets (the first packet's
  // set stands for all).  Requires covers(phvs[0]).
  void execute_run(Phv* phvs, std::size_t n);

  // Cumulative across rebuilds (see ExecStats).
  const ExecStats& stats() const { return stats_; }

 private:
  void plan_generic(std::size_t m, Phv* phvs, std::size_t n);

  uint32_t* digest_row(std::size_t slot) {
    return digest_.data() + slot * capacity_;
  }
  uint32_t* sidx_row(std::size_t block) {
    return sidx_.data() + block * capacity_;
  }

  bool enabled_ = false;
  std::vector<Chain> chains_;
  // qid -> its chain; qids without module rules map to an empty chain.
  std::array<const Chain*, kMaxQueries> by_qid_{};
  // Merge scratch: sized at build to the total op count, so merging never
  // allocates on the packet path.
  std::vector<const ChainOp*> merged_;
  // Per-run plan (plan_generic): merged op j is a planned HHash when
  // ann_[j] is its digest row, a planned SOp when ann_[j] is its index
  // row, or unplanned (-1, plain generic_op).  run_specs_ holds the run's
  // digests, one per planned HHash.
  std::vector<int32_t> ann_;
  std::vector<DigestSpec> run_specs_;
  // Planned S ops of the current run (index row = position), with their
  // feeding digest's hash-result mapping (offset/width come from the
  // feeding H op, not the S op itself).
  struct PlannedS {
    const ChainOp* op;
    int32_t slot;
    uint32_t offset;
    uint32_t width;
  };
  std::vector<PlannedS> run_sops_;
  // Burst-schedule lanes: digest rows [slot * capacity_ + lane] filled by
  // the hash phase, index rows [block * capacity_ + lane] by the prefetch
  // phase (kMissIndex = guard miss).
  std::vector<uint32_t> digest_;
  std::vector<uint32_t> sidx_;
  std::size_t capacity_ = 0;
  ExecStats stats_;
};

}  // namespace compile
}  // namespace newton
