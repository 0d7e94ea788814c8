// Lock-cheap metrics registry: the uniform observability layer of the
// reproduction (ISSUE 2).  Everything the pipeline, controller, network
// simulator and sharded runtime want to report flows through one of three
// instrument kinds:
//
//   * Counter   — monotonic; per-thread-sharded atomic cells, so the packet
//                 hot path is a single relaxed fetch_add on a cache line the
//                 incrementing thread effectively owns (wait-free, no CAS
//                 loops, no locks);
//   * Gauge     — a settable signed value (queue depths, occupancy);
//   * Histogram — fixed upper-bound buckets chosen at registration, with
//                 the same per-thread cell sharding as counters.
//
// Shards are merged on *scrape* (`Registry::snapshot()`), never on update:
// readers pay the aggregation cost, writers never synchronize with each
// other.  Snapshots are ordered by (name, labels), so two scrapes of
// identical totals serialize identically — the determinism contract
// tests/test_telemetry.cpp pins under the 1-vs-N sharded runtime.
//
// Registration (`Registry::counter(...)` etc.) takes a mutex and returns a
// stable reference; call it once at setup and keep the handle.  The global()
// registry is what the built-in instrumentation records into; benches and
// tests reset() it between runs or construct private registries.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace newton::telemetry {

// Label set attached to one child of a metric family, e.g. {{"module","K"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { Counter, Gauge, Histogram };

namespace detail {

// Number of update shards per instrument.  Threads hash onto shards by a
// process-wide registration order id, so up to kCells writers never share a
// cache line; beyond that they start to (still correct, just contended).
inline constexpr std::size_t kCells = 16;

struct alignas(64) Cell {
  std::atomic<uint64_t> v{0};
};

// Stable per-thread shard index.
std::size_t thread_cell();

struct MetricBase {
  MetricKind kind;
  std::string name;
  std::string help;
  Labels labels;

  MetricBase(MetricKind k, std::string n, std::string h, Labels l)
      : kind(k), name(std::move(n)), help(std::move(h)), labels(std::move(l)) {}
  virtual ~MetricBase() = default;
  virtual void reset() = 0;
};

}  // namespace detail

class Counter : public detail::MetricBase {
 public:
  Counter(std::string name, std::string help, Labels labels)
      : MetricBase(MetricKind::Counter, std::move(name), std::move(help),
                   std::move(labels)),
        cells_(new detail::Cell[detail::kCells]) {}

  void add(uint64_t n = 1) noexcept {
    cells_[detail::thread_cell()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t value() const noexcept {
    uint64_t s = 0;
    for (std::size_t i = 0; i < detail::kCells; ++i)
      s += cells_[i].v.load(std::memory_order_relaxed);
    return s;
  }

  void reset() override {
    for (std::size_t i = 0; i < detail::kCells; ++i)
      cells_[i].v.store(0, std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<detail::Cell[]> cells_;
};

class Gauge : public detail::MetricBase {
 public:
  Gauge(std::string name, std::string help, Labels labels)
      : MetricBase(MetricKind::Gauge, std::move(name), std::move(help),
                   std::move(labels)) {}

  void set(int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() override { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed-bucket histogram.  `bounds` are inclusive upper bounds in ascending
// order; one implicit +Inf bucket is appended.  Values are observed as
// doubles (latencies in ms/us); the running sum is kept per shard so
// observe() stays a bucket scan plus two relaxed atomic adds.
class Histogram : public detail::MetricBase {
 public:
  Histogram(std::string name, std::string help, std::vector<double> bounds,
            Labels labels);

  void observe(double v) noexcept;

  const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket counts (non-cumulative), +Inf bucket last.
  std::vector<uint64_t> bucket_counts() const;
  uint64_t count() const;
  double sum() const;
  void reset() override;

 private:
  std::vector<double> bounds_;
  std::size_t stride_;  // bounds_.size() + 1 buckets per shard
  std::unique_ptr<detail::Cell[]> cells_;  // shard-major bucket counts
  std::unique_ptr<std::atomic<double>[]> sums_;  // one per shard
};

// One merged (shard-folded) instrument value at scrape time.
struct Sample {
  MetricKind kind = MetricKind::Counter;
  std::string name;
  std::string help;
  Labels labels;
  double value = 0;  // counter / gauge
  // Histogram only: non-cumulative per-bucket counts, +Inf last.
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
  double sum = 0;
  uint64_t count = 0;
};

// Deterministically ordered by (name, labels).
struct Snapshot {
  std::vector<Sample> samples;

  const Sample* find(const std::string& name, const Labels& labels = {}) const;
};

// The q-quantile (0 <= q <= 1) of a histogram sample, estimated the way
// Prometheus' histogram_quantile() does: find the bucket holding rank
// q * count and interpolate linearly inside it (the first bucket starts at
// 0; ranks in the +Inf bucket report the largest finite bound).  Returns 0
// for an empty histogram or a non-histogram sample.  Benches use it so the
// numbers they print are the ones a scrape of the live registry yields.
double quantile(const Sample& s, double q);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Get-or-create.  Re-registration with the same (name, labels) returns the
  // existing instrument (help/buckets of the first registration win); a kind
  // mismatch throws.
  Counter& counter(const std::string& name, const std::string& help = "",
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help = "",
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, const Labels& labels = {});

  // Merge every instrument's shards into an ordered snapshot.
  Snapshot snapshot() const;

  // Zero every instrument (handles stay valid).  Benches call this between
  // runs so the global registry reports one run at a time.
  void reset();

  std::size_t size() const;

  // Process-wide registry the built-in instrumentation records into.
  static Registry& global();

 private:
  detail::MetricBase* find_locked(const std::string& key) const;

  mutable std::mutex mu_;
  // Keyed by name + rendered labels: map iteration order == scrape order.
  std::map<std::string, std::unique_ptr<detail::MetricBase>> metrics_;
};

// Exporters (export.cpp).  Both render a Snapshot deterministically.
std::string to_prometheus(const Snapshot& s);
std::string to_json(const Snapshot& s, int indent = 0);

// Coverage export (export.cpp): fold a snapshot into stable 64-bit coverage
// keys, one per (series identity, log2-bucketed magnitude) pair — histograms
// contribute one key per non-empty bucket.  The differential fuzzer
// (src/difftest/) hashes these into its corpus-retention bitmap: a scenario
// that lights a series never seen before, or drives a known series into a
// new order of magnitude, counts as new coverage.  Keys depend only on
// (name, labels, bucketed value), so identical activity always produces
// identical keys.
std::vector<uint64_t> coverage_keys(const Snapshot& s);

}  // namespace newton::telemetry
