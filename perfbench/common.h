// Shared pieces of the repo benchmark (README.md): clocks, the sample
// statistics and percentile rule, the window-closing attribution behind
// report_delay_ms_*, the span tracer, and the report digests the output
// checks compare.  Header-only so the self-tests (selftest.cpp) exercise
// exactly the code the driver runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/report.h"
#include "packet/packet.h"

namespace perfbench {

// CLOCK_MONOTONIC, the clock ReplaySource schedules against, so paced due
// times and measured completion times share one time base.
inline uint64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

// Per-step medians over repeats of the same deterministic work: m[r][j] is
// step j's time in repeat r; the result holds, for each step every repeat
// recorded, its median over the repeats.  A host stall slows a step in one
// repeat and not in the others, so the median of each step drops it, where
// a whole-repeat time would carry every stall of that repeat.
inline std::vector<double> step_medians(
    const std::vector<std::vector<double>>& m) {
  std::size_t steps = m.empty() ? 0 : m.front().size();
  for (const auto& r : m) steps = std::min(steps, r.size());
  std::vector<double> out(steps);
  std::vector<double> col(m.size());
  for (std::size_t j = 0; j < steps; ++j) {
    for (std::size_t r = 0; r < m.size(); ++r) col[r] = m[r][j];
    out[j] = median(col);
  }
  return out;
}

// The percentile rule: a percentile p is reported only when at least ten
// samples lie beyond it, so p99 needs >= 1000 samples and p50 needs >= 20.
// (A tail estimate resting on fewer samples is one or two outliers.)
inline bool percentile_reportable(std::size_t samples, double p) {
  return static_cast<double>(samples) * (1.0 - p) >= 10.0 - 1e-9;
}

// ---------------------------------------------------------------------------
// Window-closing attribution
// ---------------------------------------------------------------------------

// Predicts which ShardedRuntime::process() call closes a window, mirroring
// the runtime's epoch rule: the runtime starts in epoch 0 and runs a window
// barrier whenever a packet's epoch (ts / window_ns) differs from the
// current one — so a stream whose first packet lies in epoch 3 closes the
// (empty) window 0 on that first call, and a gap skipping several epochs
// closes exactly one window.  The barrier delivers every report of the
// closed window to the sinks before that process() call returns, which is
// what report_delay_ms_* times.
class WindowClock {
 public:
  explicit WindowClock(uint64_t window_ns) : window_ns_(window_ns) {}

  uint64_t epoch_of(const newton::Packet& p) const {
    return window_ns_ == 0 ? 0 : p.ts_ns / window_ns_;
  }
  // Would processing `p` next close the current window?
  bool closes(const newton::Packet& p) const { return epoch_of(p) != cur_; }
  // Account `p` as processed.
  void advance(const newton::Packet& p) { cur_ = epoch_of(p); }
  uint64_t current() const { return cur_; }

 private:
  uint64_t window_ns_;
  uint64_t cur_ = 0;
};

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

// Benchmark-side spans around the public calls into each layer.  A span has
// a name, a start, an end and a parent; spans live in memory and are
// written out once, at exit (write()).  Self time — a span's duration minus
// the part of it covered by child spans — is folded into a per-layer total
// as each span closes, so self times stay exact even when span storage is
// capped.  A layer is the span name's prefix before the first '.'.
class Tracer {
 public:
  struct Span {
    uint32_t name = 0;    // interned name (intern())
    int32_t parent = -1;  // index of the enclosing span, -1 for a root
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  explicit Tracer(std::size_t max_stored = 400'000)
      : max_stored_(max_stored) {}

  uint32_t intern(const std::string& name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const uint32_t id = static_cast<uint32_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    const std::string layer = name.substr(0, name.find('.'));
    const auto lt = layer_ids_.find(layer);
    if (lt != layer_ids_.end()) {
      layer_of_.push_back(lt->second);
    } else {
      layer_of_.push_back(static_cast<uint32_t>(layers_.size()));
      layer_ids_.emplace(layer, static_cast<uint32_t>(layers_.size()));
      layers_.push_back(layer);
      self_ns_.push_back(0);
    }
    total_ns_.push_back(0);
    count_.push_back(0);
    return id;
  }

  void begin(uint32_t name, uint64_t now = mono_ns()) {
    Open o;
    o.name = name;
    o.start = now;
    o.index = -1;
    if (spans_.size() < max_stored_) {
      o.index = static_cast<int32_t>(spans_.size());
      spans_.push_back({name, open_.empty() ? -1 : open_.back().index, now, 0});
    } else {
      ++dropped_;
    }
    open_.push_back(o);
  }

  void end(uint64_t now = mono_ns()) {
    const Open o = open_.back();
    open_.pop_back();
    const uint64_t dur = now - o.start;
    self_ns_[layer_of_[o.name]] += dur > o.child_ns ? dur - o.child_ns : 0;
    if (!open_.empty()) open_.back().child_ns += dur;
    if (o.index >= 0) spans_[static_cast<std::size_t>(o.index)].end_ns = now;
    total_ns_[o.name] += dur;
    ++count_[o.name];
  }

  // Summed duration and number of closed spans of one name.
  uint64_t total_ns(uint32_t name) const { return total_ns_.at(name); }
  uint64_t count(uint32_t name) const { return count_.at(name); }

  // Per-layer self time so far, in nanoseconds.
  std::map<std::string, uint64_t> self_ns() const {
    std::map<std::string, uint64_t> out;
    for (std::size_t i = 0; i < layers_.size(); ++i)
      out[layers_[i]] = self_ns_[i];
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // One span per line: name,parent,start_ns,end_ns (parent = line index of
  // the enclosing span among the data lines, -1 for roots).
  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# spans=%zu dropped=%llu\nname,parent,start_ns,end_ns\n",
                 spans_.size(), static_cast<unsigned long long>(dropped_));
    for (const Span& s : spans_)
      std::fprintf(f, "%s,%d,%llu,%llu\n", names_[s.name].c_str(), s.parent,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    uint32_t name = 0;
    uint64_t start = 0;
    uint64_t child_ns = 0;
    int32_t index = -1;
  };

  std::size_t max_stored_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
  std::vector<uint32_t> layer_of_;
  std::vector<std::string> layers_;
  std::map<std::string, uint32_t> layer_ids_;
  std::vector<uint64_t> self_ns_;
  std::vector<uint64_t> total_ns_;  // per name
  std::vector<uint64_t> count_;     // per name
  uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Report digests
// ---------------------------------------------------------------------------

inline uint64_t fnv1a(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (b * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

inline auto record_tuple(const newton::ReportRecord& r) {
  return std::tie(r.ts_ns, r.qid, r.switch_id, r.oper_keys, r.hash_result,
                  r.state_result, r.global_result, r.deferred, r.next_slice);
}

// Window index -> digest of that window's report records in canonical
// (sorted) order.  Sorting removes the cross-shard delivery order, which is
// the only thing allowed to differ between executions.
using WindowDigests = std::map<uint64_t, uint64_t>;

inline WindowDigests digest_by_window(std::vector<newton::ReportRecord> recs,
                                      uint64_t window_ns) {
  std::sort(recs.begin(), recs.end(),
            [](const newton::ReportRecord& a, const newton::ReportRecord& b) {
              return record_tuple(a) < record_tuple(b);
            });
  WindowDigests out;
  for (const newton::ReportRecord& r : recs) {
    uint64_t& h = out.try_emplace(r.ts_ns / window_ns, kFnvBasis).first->second;
    h = fnv1a(h, r.ts_ns);
    h = fnv1a(h, (uint64_t{r.qid} << 32) | r.switch_id);
    for (uint32_t k : r.oper_keys) h = fnv1a(h, k);
    h = fnv1a(h, (uint64_t{r.hash_result} << 32) | r.state_result);
    h = fnv1a(h, (uint64_t{r.global_result} << 16) |
                     (uint64_t{r.deferred} << 8) | r.next_slice);
  }
  return out;
}

// Windows whose digest differs, counting windows present on one side only.
inline std::size_t mismatched_windows(const WindowDigests& got,
                                      const WindowDigests& want) {
  std::size_t bad = 0;
  for (const auto& [w, h] : want) {
    const auto it = got.find(w);
    if (it == got.end() || it->second != h) ++bad;
  }
  for (const auto& [w, h] : got)
    if (!want.contains(w)) ++bad;
  return bad;
}

inline uint64_t combined_digest(const WindowDigests& d) {
  uint64_t h = kFnvBasis;
  for (const auto& [w, v] : d) h = fnv1a(fnv1a(h, w), v);
  return h;
}

// Text form "window digest" per line, for the per-seed oracle cache.
inline bool save_digests(const std::string& path, const WindowDigests& d) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [w, h] : d)
    std::fprintf(f, "%llu %016llx\n", static_cast<unsigned long long>(w),
                 static_cast<unsigned long long>(h));
  return std::fclose(f) == 0;
}

inline bool load_digests(const std::string& path, WindowDigests& d) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  d.clear();
  unsigned long long w = 0, h = 0;
  while (std::fscanf(f, "%llu %llx", &w, &h) == 2) d[w] = h;
  std::fclose(f);
  return true;
}

}  // namespace perfbench
