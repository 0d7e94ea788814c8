// One shard worker of the sharded runtime: a thread owning a private
// replica of the primary switch's newton_init table and pipeline (tables +
// register banks) — a deep clone at the first load, refreshed in place
// after that — its compiled chain executors, plus a private report buffer.
//
// Ownership / synchronization contract:
//   * Only the worker thread touches the replica while packets are in
//     flight.  It also lowers the replica's chains itself, before the first
//     burst it executes after each load.
//   * The demux thread may read or update the replica (merge and clear
//     banks, drain reports, refresh rules after an update) ONLY between
//     observing a fence acknowledgement and pushing the next queue item;
//     the ring's release/acquire pairs order those accesses (see
//     spsc_ring.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "compile/executor.h"
#include "core/modules.h"
#include "core/report.h"
#include "dataplane/pipeline.h"
#include "runtime/spsc_ring.h"

namespace newton {

// Per-shard execution totals, refreshed at window barriers (and exported
// through telemetry as the newton_runtime_shard_* series).
struct WorkerStats {
  uint64_t packets = 0;   // packets this worker executed
  uint64_t reports = 0;   // reports it emitted (drained at barriers)
  uint64_t busy_ns = 0;   // thread CPU time consumed so far
  // Of `packets`, how many ran through the compiled chain executor
  // (src/compile/) rather than the interpreter.
  uint64_t jit_packets = 0;
  uint64_t jit_fused_packets = 0;  // always 0; read by perfbench/workloads.cpp
  // Burst-schedule counters mirrored from the compiled executor's ExecStats
  // (compile/executor.h) at window fences: digest lanes batch-hashed and
  // state-bank prefetch hints issued.
  uint64_t jit_hash_lanes = 0;
  uint64_t jit_prefetch_issued = 0;
};

// One demux->worker queue item: a packet, a window fence, a stop token, or
// a fault-injection poison (Kill: the thread closes its ring and exits
// without acking anything further — a simulated crash at a deterministic
// point in the item stream; Stall: the thread stops consuming and freezes
// its heartbeat until released — a simulated hang).
struct WorkItem {
  enum class Kind : uint8_t { Packet, Fence, Stop, Kill, Stall };
  Kind kind = Kind::Packet;
  Packet pkt;
};

class ShardWorker {
 public:
  // `burst` is the drain batch size: the worker pulls up to this many ring
  // items per handshake and executes packet runs through the pipeline
  // stage-major (Pipeline::process_burst).  1 executes one packet per
  // handshake.
  ShardWorker(std::size_t index, std::size_t queue_capacity,
              std::size_t burst = 64);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  // Bring the replica up to date with `pipe` + `init`.  The first load
  // deep-clones them and binds the cloned R modules to this worker's
  // private report buffer; every later load refreshes in place, copying
  // only the rule tables whose version changed (Pipeline::
  // refresh_rules_from) and keeping the modules, register banks, sink
  // bindings and hit counters.  The compiled executors are dropped on
  // every load because their ops fold in the rules the load replaced (the
  // banks, sinks and hit cells they point at all survive a refresh); with
  // jit on, the worker thread lowers the replica again before its next
  // burst.  Demux thread only; worker must be quiesced (not yet started, or
  // fenced).
  void load_replica(const Pipeline& pipe, const InitModule& init);

  // Executor options for subsequent lowerings: chain compilation on/off
  // (RuntimeOptions::jit).
  void set_exec_options(const compile::ExecOptions& opts) {
    exec_opts_ = opts;
  }

  void start();  // spawn the thread (idempotent)
  void join();   // wait for the thread after a Stop token

  SpscRing<WorkItem>& ring() { return ring_; }

  // Enqueue one item, waiting out a full ring.  `ok = false` means the
  // ring is closed — the worker died (crashed or was failed over); nothing
  // was enqueued.
  SpscRing<WorkItem>::PushResult post(const WorkItem& item) {
    return ring_.push_bulk_for(&item, 1, /*timeout_ms=*/0, nullptr);
  }

  // Block (spin+yield) until the worker acknowledged `seq` fences total.
  // Returns false if the worker died (ring closed without the ack) or made
  // no progress — heartbeat frozen with the fence outstanding — for
  // `stall_ms` milliseconds; stall_ms = 0 disables the progress deadline.
  bool wait_fence_for(uint64_t seq, uint64_t stall_ms) const;

  // Items processed since start (packets + fences): the watchdog's
  // liveness signal.  A healthy-but-slow worker keeps advancing it; a dead
  // or hung one freezes.
  uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_acquire);
  }
  // The worker closed its ring (crashed, failed over, or was stalled out).
  bool dead() const { return ring_.closed(); }

  // --- quiesced access (demux thread, after wait_fence) ---
  ReportBuffer& reports() { return reports_; }
  RegisterArray& bank(std::size_t stage);
  bool has_bank(std::size_t stage) const;
  // Fold the replica's packet/stage/rule-hit deltas into the global
  // registry (the runtime calls this at every window barrier).
  void publish_telemetry() {
    pipeline_.publish_telemetry();
    if (init_) init_->publish_telemetry();
  }
  const WorkerStats& stats() const { return stats_; }

  std::size_t index() const { return index_; }

 private:
  void run();
  void process_batch(const WorkItem* items, std::size_t n);
  void sync_jit_stats();  // mirror ExecStats into stats_ (fence/exit path)

  std::size_t index_;
  std::size_t burst_;
  SpscRing<WorkItem> ring_;
  Pipeline pipeline_{0};
  compile::CompiledPipeline jit_;
  compile::ExecOptions exec_opts_;
  bool lower_pending_ = false;  // loaded with jit on, not yet lowered
  std::shared_ptr<InitModule> init_;
  std::vector<SModule*> s_by_stage_;  // typed views into the replica
  // Reusable drain/execute buffers, sized to burst_ once at start: the
  // steady-state loop allocates nothing; only the lowering after a load
  // does, once per reload (docs/runtime.md "Hot path").
  std::vector<WorkItem> batch_;
  std::vector<Phv> phvs_;
  ReportBuffer reports_;
  WorkerStats stats_;
  std::atomic<uint64_t> fences_seen_{0};
  std::atomic<uint64_t> heartbeat_{0};
  std::atomic<bool> stall_release_{false};  // lets a Stall'd thread exit
  std::thread thread_;
  bool started_ = false;
};

}  // namespace newton
