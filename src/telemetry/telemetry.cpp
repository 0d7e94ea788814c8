#include "telemetry/telemetry.h"

#include <algorithm>
#include <stdexcept>

namespace newton::telemetry {

namespace detail {

std::size_t thread_cell() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed) % kCells;
  return id;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::string name, std::string help,
                     std::vector<double> bounds, Labels labels)
    : MetricBase(MetricKind::Histogram, std::move(name), std::move(help),
                 std::move(labels)),
      bounds_(std::move(bounds)) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: at least one bucket bound");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("Histogram: bounds must be ascending");
  stride_ = bounds_.size() + 1;  // +Inf bucket
  cells_.reset(new detail::Cell[detail::kCells * stride_]);
  sums_.reset(new std::atomic<double>[detail::kCells]);
  for (std::size_t i = 0; i < detail::kCells; ++i) sums_[i].store(0.0);
}

void Histogram::observe(double v) noexcept {
  std::size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  const std::size_t shard = detail::thread_cell();
  cells_[shard * stride_ + b].v.fetch_add(1, std::memory_order_relaxed);
  std::atomic<double>& s = sums_[shard];
  double cur = s.load(std::memory_order_relaxed);
  while (!s.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(stride_, 0);
  for (std::size_t shard = 0; shard < detail::kCells; ++shard)
    for (std::size_t b = 0; b < stride_; ++b)
      out[b] += cells_[shard * stride_ + b].v.load(std::memory_order_relaxed);
  return out;
}

uint64_t Histogram::count() const {
  uint64_t n = 0;
  for (uint64_t c : bucket_counts()) n += c;
  return n;
}

double Histogram::sum() const {
  double s = 0;
  for (std::size_t shard = 0; shard < detail::kCells; ++shard)
    s += sums_[shard].load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  for (std::size_t i = 0; i < detail::kCells * stride_; ++i)
    cells_[i].v.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < detail::kCells; ++i)
    sums_[i].store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

std::string metric_key(const std::string& name, const Labels& labels) {
  std::string k = name;
  k += '{';
  for (const auto& [lk, lv] : labels) {
    k += lk;
    k += '=';
    k += lv;
    k += ',';
  }
  k += '}';
  return k;
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

}  // namespace

detail::MetricBase* Registry::find_locked(const std::string& key) const {
  const auto it = metrics_.find(key);
  return it == metrics_.end() ? nullptr : it->second.get();
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const Labels& labels) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::string key = metric_key(name, labels);
  if (detail::MetricBase* m = find_locked(key)) {
    if (m->kind != MetricKind::Counter)
      throw std::logic_error("telemetry: " + name + " already registered as " +
                             kind_name(m->kind));
    return static_cast<Counter&>(*m);
  }
  auto c = std::make_unique<Counter>(name, help, labels);
  Counter& ref = *c;
  metrics_[key] = std::move(c);
  return ref;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const Labels& labels) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::string key = metric_key(name, labels);
  if (detail::MetricBase* m = find_locked(key)) {
    if (m->kind != MetricKind::Gauge)
      throw std::logic_error("telemetry: " + name + " already registered as " +
                             kind_name(m->kind));
    return static_cast<Gauge&>(*m);
  }
  auto g = std::make_unique<Gauge>(name, help, labels);
  Gauge& ref = *g;
  metrics_[key] = std::move(g);
  return ref;
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               std::vector<double> bounds,
                               const Labels& labels) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::string key = metric_key(name, labels);
  if (detail::MetricBase* m = find_locked(key)) {
    if (m->kind != MetricKind::Histogram)
      throw std::logic_error("telemetry: " + name + " already registered as " +
                             kind_name(m->kind));
    return static_cast<Histogram&>(*m);
  }
  auto h = std::make_unique<Histogram>(name, help, std::move(bounds), labels);
  Histogram& ref = *h;
  metrics_[key] = std::move(h);
  return ref;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  Snapshot snap;
  snap.samples.reserve(metrics_.size());
  for (const auto& [key, m] : metrics_) {
    Sample s;
    s.kind = m->kind;
    s.name = m->name;
    s.help = m->help;
    s.labels = m->labels;
    switch (m->kind) {
      case MetricKind::Counter:
        s.value = static_cast<double>(static_cast<Counter&>(*m).value());
        break;
      case MetricKind::Gauge:
        s.value = static_cast<double>(static_cast<Gauge&>(*m).value());
        break;
      case MetricKind::Histogram: {
        auto& h = static_cast<Histogram&>(*m);
        s.bounds = h.bounds();
        s.buckets = h.bucket_counts();
        s.sum = h.sum();
        for (uint64_t c : s.buckets) s.count += c;
        break;
      }
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [key, m] : metrics_) m->reset();
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return metrics_.size();
}

Registry& Registry::global() {
  // Leaked singleton: instrumented statics (module counters) may outlive any
  // destruction order we could arrange.
  static Registry* g = new Registry();
  return *g;
}

const Sample* Snapshot::find(const std::string& name,
                             const Labels& labels) const {
  for (const Sample& s : samples)
    if (s.name == name && s.labels == labels) return &s;
  return nullptr;
}

double quantile(const Sample& s, double q) {
  if (s.kind != MetricKind::Histogram || s.count == 0 || s.bounds.empty())
    return 0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(s.count);
  uint64_t below = 0;
  for (std::size_t b = 0; b < s.bounds.size(); ++b) {
    const uint64_t in = b < s.buckets.size() ? s.buckets[b] : 0;
    if (in > 0 && static_cast<double>(below + in) >= rank) {
      const double lo = b == 0 ? 0.0 : s.bounds[b - 1];
      const double frac =
          (rank - static_cast<double>(below)) / static_cast<double>(in);
      return lo + (s.bounds[b] - lo) * std::max(frac, 0.0);
    }
    below += in;
  }
  return s.bounds.back();  // the rank lies in the +Inf bucket
}

}  // namespace newton::telemetry
