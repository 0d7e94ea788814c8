// Bounded single-producer / single-consumer ring buffer: the demux->worker
// packet channel of the sharded runtime.
//
// The fast path is lock-free (a release/acquire pair on the two indices —
// the classic cached-index SPSC queue).  When one side would spin for long
// it parks on a condition variable with a short timeout, so the runtime
// stays live and cheap on CPU-starved hosts (CI containers often pin us to
// a single core) without the latency cliffs of pure blocking queues.
//
// Every transfer is a bulk one (a single item is a burst of one): the
// producer pushes with try_push_bulk / push_bulk_for, the consumer reads
// with peek_bulk / wait_peek_bulk and retires what it handled with consume.
//
// The release/acquire pair doubles as the runtime's quiesce fence: any
// plain-memory write the producer performs before a push is visible to the
// consumer after it peeks that item, and vice versa — which is what makes
// it safe for the demux thread to rebuild a worker's pipeline replica
// between a fence acknowledgement and the next push.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace newton {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // ---- bulk transfer -------------------------------------------------
  // One acquire/release pair moves a whole burst, so the cross-thread
  // cache-line traffic on the two indices is amortized over the burst
  // instead of paid per item (docs/runtime.md "Hot path").

  // Enqueue up to n items; returns how many fit (0 when full or closed).
  // A partial push publishes a contiguous prefix of v.
  std::size_t try_push_bulk(const T* v, std::size_t n) {
    if (n == 0 || closed_.load(std::memory_order_acquire)) return 0;
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    std::size_t free = mask_ + 1 - static_cast<std::size_t>(t - head_cache_);
    if (free < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = mask_ + 1 - static_cast<std::size_t>(t - head_cache_);
      if (free == 0) return 0;
    }
    const std::size_t m = n < free ? n : free;
    for (std::size_t i = 0; i < m; ++i) buf_[(t + i) & mask_] = v[i];
    tail_.store(t + m, std::memory_order_release);
    return m;
  }

  // Copy up to max queued items into out WITHOUT consuming them; returns
  // the count.  Pair with consume(k), k <= that count, once the items are
  // actually handled.  Consumer thread only.  The peek/consume split lets
  // the shard worker stop a burst at a control item (fence, crash poison)
  // and leave everything behind it in the ring — exactly the items the
  // failover path must be able to salvage.
  std::size_t peek_bulk(T* out, std::size_t max) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (h == tail_cache_) return 0;  // empty
    }
    const std::size_t avail = static_cast<std::size_t>(tail_cache_ - h);
    const std::size_t m = max < avail ? max : avail;
    for (std::size_t i = 0; i < m; ++i) out[i] = buf_[(h + i) & mask_];
    return m;
  }

  // Retire n items previously peeked (single release on the head index).
  void consume(std::size_t n) {
    if (n == 0) return;
    head_.store(head_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
    wake(producer_waiting_);
  }

  // Blocking bulk peek: waits (spin, then park) until at least one item is
  // queued, then copies up to max items out without consuming them.
  std::size_t wait_peek_bulk(T* out, std::size_t max) {
    while (true) {
      for (int i = 0; i < kSpin; ++i) {
        const std::size_t n = peek_bulk(out, max);
        if (n != 0) return n;
        std::this_thread::yield();
      }
      park(consumer_waiting_, [this] { return can_pop(); });
    }
  }

  struct PushResult {
    uint64_t stalls = 0;  // failed attempts while the ring was full
    bool ok = true;       // false: closed or timed out before all items fit
  };

  // Blocking bulk push of the whole batch.  Partial progress is fine (the
  // batch lands as several bursts under backpressure); the call only gives
  // up when the ring closes (ok = false) or when `timeout_ms` milliseconds
  // pass with NO forward progress — a deadline since the last accepted
  // item, not since the call, so a slowly-draining consumer never trips it.
  // `*pushed` (when non-null) reports how many leading items were enqueued.
  // timeout_ms = 0 means no deadline: only a close ends the call early,
  // so a consumer that exited never strands its producer.
  PushResult push_bulk_for(const T* v, std::size_t n, uint64_t timeout_ms,
                           std::size_t* pushed) {
    PushResult r;
    std::size_t done = 0;
    auto last_progress = std::chrono::steady_clock::now();
    while (done < n) {
      if (closed_.load(std::memory_order_acquire)) {
        r.ok = false;
        break;
      }
      std::size_t m = 0;
      for (int i = 0; i < kSpin; ++i) {
        m = try_push_bulk(v + done, n - done);
        if (m != 0) break;
        ++r.stalls;
        std::this_thread::yield();
      }
      if (m != 0) {
        done += m;
        wake(consumer_waiting_);
        if (timeout_ms != 0) last_progress = std::chrono::steady_clock::now();
        continue;
      }
      if (timeout_ms != 0 &&
          std::chrono::steady_clock::now() - last_progress >=
              std::chrono::milliseconds(timeout_ms)) {
        r.ok = false;
        break;
      }
      park(producer_waiting_, [this] { return can_push() || closed(); });
    }
    if (pushed != nullptr) *pushed = done;
    return r;
  }

  // Shut the ring: subsequent pushes fail fast; items already enqueued can
  // still be drained with peek_bulk/consume.  Either side may close (the
  // runtime's workers close on death so the demux detects them at the next
  // push); parked producers are woken promptly.
  void close() {
    {
      // Holding mu_ orders the store against a parked producer's re-check
      // (same protocol as wake()).
      std::lock_guard<std::mutex> lk(mu_);
      closed_.store(true, std::memory_order_seq_cst);
    }
    cv_.notify_all();
  }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  std::size_t capacity() const { return mask_ + 1; }

  // Items currently enqueued, racy by nature (indices are read separately).
  // Telemetry samples this at window barriers as the shard-occupancy gauge.
  std::size_t size_approx() const {
    const uint64_t t = tail_.load(std::memory_order_acquire);
    const uint64_t h = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(t - h);
  }

  // Test seam: invoked at the top of park(), i.e. exactly in the window
  // between the caller's last failed peek/push attempt and the waiting-flag
  // publication.  Lets a regression test inject a push into that window
  // deterministically (tests/test_runtime.cpp ParkRecheck).
  void set_park_test_hook(std::function<void()> hook) {
    park_test_hook_ = std::move(hook);
  }

 private:
  bool can_pop() const {
    return head_.load(std::memory_order_relaxed) !=
           tail_.load(std::memory_order_acquire);
  }
  bool can_push() const {
    return tail_.load(std::memory_order_relaxed) -
               head_.load(std::memory_order_acquire) <=
           mask_;
  }

  // Publish the waiting flag, THEN re-check the ring before sleeping: an
  // item pushed between the caller's last failed attempt and the flag store
  // would otherwise always eat the full timeout (its wake() read the flag
  // as false).  The flag store is seq_cst so it cannot reorder past the
  // re-check; the wake side reads it seq_cst after its release-store of the
  // index.  A residual miss on weakly-ordered hardware is still bounded by
  // the park timeout, so no eventcount sequencing is needed.
  template <typename Ready>
  void park(std::atomic<bool>& flag, Ready ready) {
    if (park_test_hook_) park_test_hook_();
    std::unique_lock<std::mutex> lk(mu_);
    flag.store(true, std::memory_order_seq_cst);
    if (ready()) {
      flag.store(false, std::memory_order_relaxed);
      return;
    }
    // Holding mu_ from before the flag store to the wait means any wake()
    // that saw the flag blocks on mu_ until wait_for releases it — its
    // notify cannot slip into the gap.
    cv_.wait_for(lk, std::chrono::milliseconds(1));
    flag.store(false, std::memory_order_relaxed);
  }

  void wake(std::atomic<bool>& flag) {
    if (flag.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_.notify_all();
    }
  }

  static constexpr int kSpin = 64;

  std::vector<T> buf_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer index
  uint64_t tail_cache_ = 0;                    // consumer-private
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer index
  uint64_t head_cache_ = 0;                    // producer-private
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> producer_waiting_{false};
  std::atomic<bool> consumer_waiting_{false};
  std::function<void()> park_test_hook_;  // cold path only; see setter
};

}  // namespace newton
