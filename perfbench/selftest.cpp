// Self-tests of the benchmark's own measurement code (common.h):
//
//   * the percentile and sample-count rule behind every *_p50 / *_p99;
//   * the window-closing attribution behind report_delay_ms_*, checked
//     against the real ShardedRuntime: WindowClock must flag exactly the
//     process() calls that run a window barrier, and when such a call
//     returns every report of the closed window must already be at the sink;
//   * span self time, and the order-insensitive report digests.
//
// Run: python3 perfbench/run.py --selftest  (exit 0 = all passed)
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "runtime/sharded_runtime.h"

namespace {

using namespace newton;
using namespace perfbench;

int g_failed = 0;
int g_checked = 0;

void check(bool ok, const std::string& what) {
  ++g_checked;
  if (!ok) {
    ++g_failed;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted 1..100
  check(percentile(v, 0.50) == 50, "p50 of 1..100 is 50 (nearest rank)");
  check(percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  check(percentile(v, 1.00) == 100, "p100 is the maximum");
  check(percentile(v, 0.0) == 1, "p0 is the minimum");
  check(percentile({}, 0.5) == 0, "percentile of no samples is 0");
  check(percentile({7}, 0.99) == 7, "one sample is every percentile");
  check(median({3, 1, 2}) == 2, "odd median");
  check(median({4, 1, 3, 2}) == 2.5, "even median averages the middle");

  // Each step's median over repeats: a stall in one repeat drops out.
  const std::vector<double> steps =
      step_medians({{1, 10, 5}, {90, 11, 5}, {2, 12, 50}});
  check(steps == std::vector<double>({2, 11, 5}), "per-step medians");
  check(step_medians({{1, 2, 3}, {4, 5}}).size() == 2,
        "steps present in every repeat only");
  check(step_medians({}).empty(), "no repeats, no steps");

  // Ten samples must lie beyond a reported percentile.
  check(!percentile_reportable(999, 0.99), "p99 needs 1000 samples");
  check(percentile_reportable(1000, 0.99), "p99 reportable at 1000");
  check(!percentile_reportable(19, 0.50), "p50 needs 20 samples");
  check(percentile_reportable(20, 0.50), "p50 reportable at 20");
  check(percentile_reportable(100, 0.90), "p90 reportable at 100");
}

// Packets to one victim so q1 (new TCP connections per dip) reports once
// per window, at windows separated by gaps of one and several epochs, and
// starting in a later epoch than 0.
std::vector<Packet> attribution_stream() {
  const uint64_t w = 100'000'000;
  std::vector<Packet> out;
  std::mt19937 rng(3);
  const uint64_t windows[] = {2, 3, 4, 7, 8, 12};
  uint16_t sport = 1000;
  for (uint64_t win : windows) {
    for (int i = 0; i < 30; ++i) {
      const uint64_t ts = win * w + 1'000'000 + static_cast<uint64_t>(i) *
                                                    2'000'000 +
                          rng() % 1000;
      out.push_back(make_packet(ipv4(10, 0, 0, static_cast<uint8_t>(i)),
                                ipv4(172, 16, 7, 7), sport++, 80, kProtoTcp,
                                kTcpSyn, 64, ts));
    }
  }
  return out;
}

void test_window_attribution(std::size_t shards) {
  const uint64_t w = 100'000'000;
  QueryParams p;
  p.q1_syn_th = 10;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions o;
  o.num_shards = shards;
  o.shard_key = ShardKey::on({Field::DstIp});
  o.record_snapshots = false;
  telemetry::Registry reg;
  o.registry = &reg;
  ShardedRuntime rt(sw, o);
  ReportBuffer sink;
  rt.set_report_sink(&sink);
  rt.install(make_q1(p));

  const std::vector<Packet> pkts = attribution_stream();
  WindowClock wc(w);
  std::size_t predicted = 0, mispredicted = 0, incomplete = 0;
  // Reports of each window present at the moment its closing call returned.
  std::vector<std::pair<uint64_t, std::size_t>> at_close;
  for (const Packet& pkt : pkts) {
    const bool closes = wc.closes(pkt);
    const uint64_t closing = wc.current();
    const uint64_t before = rt.stats().windows;
    rt.process(pkt);
    const bool barrier = rt.stats().windows != before;
    mispredicted += closes != barrier;
    if (closes) {
      ++predicted;
      std::size_t n = 0;
      for (const ReportRecord& r : sink.records()) n += r.ts_ns / w == closing;
      at_close.push_back({closing, n});
      wc.advance(pkt);
    }
  }
  rt.finish();
  for (const auto& [win, n] : at_close) {
    std::size_t final_n = 0;
    for (const ReportRecord& r : sink.records()) final_n += r.ts_ns / w == win;
    incomplete += n != final_n;
  }
  const std::string tag = " (" + std::to_string(shards) + " shards)";
  check(mispredicted == 0, "WindowClock flags exactly the barrier calls" + tag);
  // Windows 2,3,4,7,8,12 plus the empty window 0 closed by the first packet;
  // the last window closes in finish(), not in a process() call.
  check(predicted == 6, "one closing call per window boundary crossed" + tag);
  check(incomplete == 0,
        "closed window's reports are at the sink when the call returns" + tag);
  check(sink.size() == 6, "q1 reported once per active window" + tag);
}

void test_tracer() {
  Tracer t;
  const uint32_t root = t.intern("bench.pass");
  const uint32_t child = t.intern("runtime.barrier");
  const uint32_t leaf = t.intern("analyzer.report");
  t.begin(root, 0);
  t.begin(child, 10);
  t.begin(leaf, 20);
  t.end(30);
  t.end(40);
  t.begin(leaf, 50);
  t.end(55);
  t.end(100);
  const auto self = t.self_ns();
  check(self.at("bench") == 65, "root self time excludes its children");
  check(self.at("runtime") == 20, "child self time excludes the grandchild");
  check(self.at("analyzer") == 15, "leaf spans are all self time");
  check(t.spans().size() == 4 && t.spans()[2].parent == 1 &&
            t.spans()[3].parent == 0,
        "spans record their parent");
  check(t.total_ns(leaf) == 15 && t.count(leaf) == 2, "per-name totals");
}

void test_digests() {
  const uint64_t w = 100;
  std::vector<ReportRecord> a;
  for (uint32_t i = 0; i < 50; ++i) {
    ReportRecord r;
    r.qid = static_cast<uint16_t>(i % 3);
    r.ts_ns = i * 7;
    r.oper_keys[0] = i * 13;
    a.push_back(r);
  }
  std::vector<ReportRecord> b = a;
  std::shuffle(b.begin(), b.end(), std::mt19937(9));
  const WindowDigests da = digest_by_window(a, w);
  check(da == digest_by_window(b, w), "digests ignore delivery order");
  b[0].global_result ^= 1;
  const WindowDigests db = digest_by_window(b, w);
  check(mismatched_windows(db, da) == 1, "one changed record, one window");
  WindowDigests dc = da;
  dc.erase(dc.begin());
  check(mismatched_windows(dc, da) == 1, "a missing window counts");
}

}  // namespace

int main() {
  test_percentiles();
  test_window_attribution(1);
  test_window_attribution(3);
  test_tracer();
  test_digests();
  std::printf("perfbench selftest: %d/%d checks passed\n",
              g_checked - g_failed, g_checked);
  return g_failed == 0 ? 0 : 1;
}
