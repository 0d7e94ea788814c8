// The four workloads (README.md).  Each run: build inputs from the seed
// (prepare() caches the expensive ones and the oracle), then repeat passes
// of the workload until the time budget is spent.  Every pass sets up the
// program from scratch (a setup_s sample), streams its input from source to
// report sink, and is checked against the workload's oracle.  With tracing
// on, the first half of the budget runs untraced (the overhead baseline)
// and the second half records spans; the thread-free layer drives follow.
#include <sched.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>

#include "analyzer/analyzer.h"
#include "core/controller.h"
#include "core/queries.h"
#include "core/query.h"
#include "detectors/detector.h"
#include "ingest/pcap_source.h"
#include "ingest/replay_source.h"
#include "ingest/trace_source.h"
#include "net/agg_tree.h"
#include "net/net_controller.h"
#include "net/network.h"
#include "net/routing.h"
#include "packet/flow_key.h"
#include "packet/wire.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"
#include "trace/attacks.h"
#include "trace/trace_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace newton;
namespace fs = std::filesystem;

constexpr uint64_t kWindowNs = 100'000'000;  // every query's epoch
constexpr std::size_t kShards = 3;           // + the caller = 4 threads
constexpr std::size_t kPullBurst = 64;       // IngestPump's default burst

// --- backbone_saturate ---
constexpr std::size_t kBackboneFlows = 15'000;
constexpr std::size_t kBackbonePackets = 800'000;
constexpr std::size_t kBackboneWindows = 4;
// --- detectors_paced ---
constexpr std::size_t kDetectorTiles = 3;     // labeled trace, tiled in time
constexpr uint64_t kDetectorTileNs = 500'000'000;  // 5 windows per tile
constexpr std::size_t kDetectorTilePackets = 1'390;
constexpr double kDetectorSpeedup = 4.0;      // capture-time replay speedup
// --- tenant_churn ---
constexpr std::size_t kTenants = 110;
constexpr std::size_t kChurnFlows = 1'000;
constexpr std::size_t kChurnPackets = 40'000;
constexpr std::size_t kChurnWindows = 50;
constexpr uint32_t kTenantThreshold = 4;      // reports per src crossing
constexpr std::size_t kDoomedEvery = 8;       // inadmissible install cadence
constexpr std::size_t kDirectCycles = 200;    // Controller install/withdraw
// Control-plane-only queries filter dst ports >= 61000, above every port
// the generator emits (ephemeral ports end at 60999): they never collide
// with a tenant's traffic class, on any seed.
constexpr uint16_t kChurnPortBase = 61'000;
constexpr uint16_t kDirectPortBase = 62'100;
constexpr uint16_t kDoomedPort = 65'000;
// --- fleet_k16 ---
constexpr int kFatTreeK = 16;
constexpr std::size_t kFleetQueries = 8;
constexpr std::size_t kFleetStages = 3;
constexpr std::size_t kFleetBank = 4096;
constexpr std::size_t kFleetFlows = 200;
constexpr std::size_t kFleetPackets = 6'000;
constexpr std::size_t kFleetWindows = 48;
constexpr std::size_t kFleetEventPairs = 6;   // fail + restore each
constexpr std::size_t kFleetChunk = 8;        // packets per timed step

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

std::string input_path(const Ctx& c, const std::string& suffix) {
  return c.dir + "/" + c.workload + "-" + std::to_string(c.seed) + suffix;
}

// Keep the first `n` packets and spread them evenly over `windows` windows,
// in their original order.  The seed then decides the traffic's content
// (keys, flow mix, attacks) but not its size or its window count, so runs
// on different seeds measure the same amount of work.
void fix_shape(Trace& t, std::size_t n, std::size_t windows) {
  if (t.size() < n)
    throw std::runtime_error("trace too small: " + std::to_string(t.size()));
  t.packets.resize(n);
  const uint64_t span = windows * kWindowNs;
  for (std::size_t i = 0; i < n; ++i)
    t.packets[i].ts_ns = static_cast<uint64_t>(i) * span / n;
}

// Keep only this seed's large inputs: a run over many seeds must not fill
// the checkout.  Oracle digests (tiny) stay cached for every seed.
void drop_other_seeds(const Ctx& c, const std::string& suffix) {
  const std::string keep = fs::path(input_path(c, suffix)).filename();
  for (const auto& e : fs::directory_iterator(c.dir)) {
    const std::string f = e.path().filename();
    if (f != keep && f.starts_with(c.workload + "-") && f.ends_with(suffix))
      fs::remove(e.path());
  }
}

// A header-only capture, like CAIDA's passive traces: each record keeps the
// Ethernet/IPv4/L4 headers (incl_len) and the original length (orig_len),
// so PcapFileSource parses exactly the packet save_pcap would have written
// without streaming every payload byte through the page cache.
void save_header_pcap(const Trace& t, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  const auto put32 = [&os](uint32_t v) {
    const char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                       static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
    os.write(b, 4);
  };
  put32(0xa1b23c4d);        // nanosecond-resolution magic
  put32(2 | (4u << 16));    // version 2.4
  put32(0);                 // thiszone
  put32(0);                 // sigfigs
  put32(1 << 16);           // snaplen
  put32(1);                 // LINKTYPE_ETHERNET
  for (const Packet& p : t.packets) {
    const std::vector<uint8_t> frame = deparse_frame(p);
    const std::size_t headers = 14 + 20 + (p.is_tcp() ? 20 : 8);
    const std::size_t incl = std::min(frame.size(), headers);
    put32(static_cast<uint32_t>(p.ts_ns / 1'000'000'000ull));
    put32(static_cast<uint32_t>(p.ts_ns % 1'000'000'000ull));
    put32(static_cast<uint32_t>(incl));
    put32(static_cast<uint32_t>(frame.size()));
    os.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(incl));
  }
  if (!os) throw std::runtime_error("cannot write " + path);
}

// CAIDA-like background carrying the paper's q1/q3/q5 attack mix (SYN
// flood, UDP DDoS, super spreader) inside the kept prefix of the trace.
Trace backbone_trace(uint32_t seed) {
  TraceProfile p = caida_like(seed);
  p.num_flows = kBackboneFlows;
  Trace t = generate_trace(p);
  std::mt19937 rng(seed + 1000);
  inject_syn_flood(t, ipv4(172, 16, 200, 1), 300, 1, 50'000'000, rng);
  inject_udp_flood(t, ipv4(172, 16, 200, 3), 120, 2, 150'000'000, rng);
  inject_super_spreader(t, ipv4(198, 18, 4, 4), 150, 250'000'000, rng);
  t.sort_by_time();
  fix_shape(t, kBackbonePackets, kBackboneWindows);
  return t;
}

// Background traffic of the labeled trace: both endpoints in the
// generator's host pools (10.0/16 clients, 172.16/16 servers); every
// injected attack involves an address outside them.
bool background(const Packet& p) {
  const auto pool = [](uint32_t ip) {
    return ip >> 16 == (10u << 8) || ip >> 16 == ((172u << 8) | 16);
  };
  return pool(p.sip()) && pool(p.dip());
}

// The labeled attack trace with its background thinned evenly to a fixed
// packet count (attacks untouched; ground truth is recomputed from the
// trace actually replayed), tiled in time: every copy keeps the attack
// schedule, so each window holds a few hundred packets.
Trace detectors_trace(uint32_t seed) {
  std::vector<Packet> base;
  std::size_t bg = 0;
  for (const Packet& p : make_labeled_attack_trace(seed).trace.packets) {
    if (p.ts_ns >= kDetectorTileNs) {
      if (!background(p)) throw std::runtime_error("attack past the tile");
      continue;
    }
    base.push_back(p);
    bg += background(p);
  }
  if (base.size() < kDetectorTilePackets)
    throw std::runtime_error("labeled trace too small");
  const std::size_t drop = base.size() - kDetectorTilePackets;
  Trace t;
  std::size_t k = 0;
  for (const Packet& p : base) {
    if (background(p)) {
      const bool dropped = (k + 1) * drop / bg != k * drop / bg;
      ++k;
      if (dropped) continue;
    }
    t.packets.push_back(p);
  }
  const std::size_t n = t.size();
  for (std::size_t r = 1; r < kDetectorTiles; ++r)
    for (std::size_t i = 0; i < n; ++i) {
      Packet p = t.packets[i];
      p.ts_ns += r * kDetectorTileNs;
      t.packets.push_back(p);
    }
  return t;
}

// MAWI-like traffic, sparse: ~800 packets in each of 100 windows.
Trace churn_trace(uint32_t seed) {
  TraceProfile p = mawi_like(seed);
  p.num_flows = kChurnFlows;
  Trace t = generate_trace(p);
  fix_shape(t, kChurnPackets, kChurnWindows);
  return t;
}

// The tenants' disjoint dst ports: the trace's most frequent ones, so every
// tenant sees traffic (ties broken by port number).
std::vector<uint16_t> tenant_ports(const Trace& t) {
  std::map<uint32_t, std::size_t> freq;
  for (const Packet& p : t.packets) ++freq[p.dport()];
  std::vector<std::pair<std::size_t, uint32_t>> by;
  for (const auto& [port, n] : freq) by.push_back({n, port});
  std::sort(by.begin(), by.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<uint16_t> out;
  for (std::size_t i = 0; i < by.size() && out.size() < kTenants; ++i)
    out.push_back(static_cast<uint16_t>(by[i].second));
  return out;
}

// Background + the attack mix the paper's nine queries look for.
Trace fleet_trace(uint32_t seed) {
  TraceProfile p = caida_like(seed);
  p.num_flows = kFleetFlows;
  Trace t = generate_trace(p);
  std::mt19937 rng(seed + 1000);
  inject_syn_flood(t, ipv4(172, 16, 200, 1), 300, 1, 50'000'000, rng);
  inject_port_scan(t, ipv4(198, 18, 1, 1), ipv4(172, 16, 200, 2), 150,
                   150'000'000, rng);
  inject_udp_flood(t, ipv4(172, 16, 200, 3), 120, 2, 250'000'000, rng);
  inject_ssh_brute(t, ipv4(198, 18, 2, 2), ipv4(172, 16, 200, 4), 60,
                   350'000'000, rng);
  inject_slowloris(t, ipv4(198, 18, 3, 3), ipv4(172, 16, 200, 5), 60,
                   450'000'000, rng);
  inject_super_spreader(t, ipv4(198, 18, 4, 4), 150, 550'000'000, rng);
  inject_dns_no_tcp(t, ipv4(10, 50, 0, 1), ipv4(172, 16, 0, 53), 12,
                    650'000'000, rng);
  t.sort_by_time();
  fix_shape(t, kFleetPackets, kFleetWindows);
  return t;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

// One tenant: its own dst port, per-source packet count, exact-crossing
// report at `th` (th = 0: never reports).
Query tenant_query(const std::string& name, uint16_t dport, uint32_t th,
                   std::size_t width = 256) {
  QueryBuilder b(name);
  b.sketch(2, width);
  b.filter(Predicate{}.where(Field::DstPort, Cmp::Eq, dport))
      .map({Field::SrcIp})
      .reduce({Field::SrcIp}, Agg::Sum)
      .when(Cmp::Ge, th == 0 ? 1'000'000'000u : th);
  Query q = b.build();
  q.window_ns = kWindowNs;
  q.row_partitions = 1;
  return q;
}

Query fleet_query(const std::string& name, uint16_t dport) {
  QueryBuilder b(name);
  b.sketch(2, 256);
  b.filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoTcp))
      .map({Field::DstIp})
      .distinct({Field::DstIp})
      .reduce({Field::DstIp}, Agg::Sum)
      .when(Cmp::Ge, 2 + dport % 3);
  Query q = b.build();
  q.window_ns = kWindowNs;
  q.row_partitions = 1;
  return q;
}

// ---------------------------------------------------------------------------
// Measurement plumbing
// ---------------------------------------------------------------------------

struct Spans {
  uint32_t pass, pull, demux, barrier, barrier_mut, finish, start, report,
      install, admit, withdraw, compact, route, send_along, agg_report,
      agg_flush, event, deploy;
  explicit Spans(Tracer& t)
      : pass(t.intern("bench.pass")),
        pull(t.intern("ingest.pull")),
        demux(t.intern("runtime.demux")),
        barrier(t.intern("runtime.barrier")),
        barrier_mut(t.intern("runtime.barrier_mut")),
        finish(t.intern("runtime.finish")),
        start(t.intern("runtime.start")),
        report(t.intern("analyzer.report")),
        install(t.intern("core.install")),
        admit(t.intern("core.admit")),
        withdraw(t.intern("core.withdraw")),
        compact(t.intern("core.compact")),
        route(t.intern("net.route")),
        send_along(t.intern("net.send_along")),
        agg_report(t.intern("net.agg_report")),
        agg_flush(t.intern("net.agg_flush")),
        event(t.intern("net.event")),
        deploy(t.intern("net.deploy")) {}
};

// Everything a run accumulates across its passes.
struct Acc {
  // end-to-end samples
  std::vector<double> setup_s, pps, delay_ms, install_ms;
  // workload-specific end-to-end samples (detail line)
  std::vector<double> pacing_lag_us, compact_ms, replace_ms;
  // traced passes only
  std::vector<double> traced_pps, barrier_us, barrier_mut_us, admit_us,
      install_us, withdraw_us, compact_us_per_op, event_ms, scope_frac,
      deploy_ms;
  uint64_t t_packets = 0, t_demux_pkts = 0, t_stalls = 0, t_busy_ns = 0,
           t_busy_cap_ns = 0, t_jit = 0, t_fused = 0, t_prefetch = 0,
           t_reports = 0, t_agg_in = 0, t_agg_root = 0;
  // fleet_k16, untraced passes: per pass, the time of each fixed step (a
  // packet chunk, a deploy, a window flush), for step_medians.
  std::vector<std::vector<double>> chunk_ns, deploy_steps_ms, flush_steps_ms;
  uint64_t attempted = 0, failed = 0;
  std::size_t passes = 0;  // passes started (PinScope rotation)
  std::map<std::string, std::string> facts;

  void check(bool ok, uint64_t weight = 1) {
    attempted += weight;
    if (!ok) failed += weight;
  }
};

// Forwards every report to `inner`, timed as one span when tracing (the
// traced run's view of Analyzer::report and AggregationTree::report).
class TimedSink : public ReportSink {
 public:
  TimedSink(ReportSink* inner, Tracer* t, uint32_t span)
      : inner_(inner), tracer_(t), span_(span) {}
  void report(const ReportRecord& r) override {
    if (tracer_ != nullptr) tracer_->begin(span_);
    inner_->report(r);
    if (tracer_ != nullptr) tracer_->end();
  }

 private:
  ReportSink* inner_;
  Tracer* tracer_;
  uint32_t span_;
};

// The runtime's report sink: tees to the (timed) Analyzer and an optional
// second sink (the detectors' value capture), and keeps every record for
// the output check.
class CollectSink : public ReportSink {
 public:
  CollectSink(ReportSink* first, ReportSink* also)
      : first_(first), also_(also) {}
  void report(const ReportRecord& r) override {
    first_->report(r);
    if (also_ != nullptr) also_->report(r);
    records.push_back(r);
  }
  std::vector<ReportRecord> records;

 private:
  ReportSink* first_;
  ReportSink* also_;
};

// A switch, its sharded runtime and the report path, torn down in the
// right order (runtime before switch).
struct RuntimeRig {
  telemetry::Registry registry;  // private: passes must not accumulate
  Analyzer an;
  TimedSink timed_an;
  CollectSink sink;
  std::unique_ptr<NewtonSwitch> sw;
  std::unique_ptr<ShardedRuntime> rt;

  RuntimeRig(std::size_t stages, RuntimeOptions o, ReportSink* also,
             Tracer* tr, const Spans* sp)
      : timed_an(&an, tr, sp->report), sink(&timed_an, also) {
    sw = std::make_unique<NewtonSwitch>(1, stages, nullptr);
    o.num_shards = kShards;
    o.record_snapshots = false;
    o.registry = &registry;
    rt = std::make_unique<ShardedRuntime>(*sw, o, nullptr);
    rt->set_report_sink(&sink);
  }

  // Pre-start install through the runtime (= Controller::install); the
  // traced run also times the pure admission check first.  Returns ms.
  double install(const Query& q, Tracer* tr, const Spans* sp, Acc& acc) {
    if (tr != nullptr) {
      const uint64_t a = mono_ns();
      tr->begin(sp->admit, a);
      const AdmitDecision d = rt->controller().admit(q);
      const uint64_t b = mono_ns();
      tr->end(b);
      if (!d.admitted()) throw std::runtime_error("admission: " + q.name);
      acc.admit_us.push_back(static_cast<double>(b - a) / 1e3);
    }
    const uint64_t a = mono_ns();
    if (tr != nullptr) tr->begin(sp->install, a);
    rt->install(q);
    const uint64_t b = mono_ns();
    if (tr != nullptr) {
      tr->end(b);
      acc.install_us.push_back(static_cast<double>(b - a) / 1e3);
    }
    return static_cast<double>(b - a) / 1e6;
  }

  void start(Tracer* tr, const Spans* sp) {
    if (tr != nullptr) tr->begin(sp->start);
    rt->start();
    if (tr != nullptr) tr->end();
  }

  // qid -> (query, branch) for the analyzer, as the runtime would register
  // them had it owned the analyzer (it does not: CollectSink does).
  void register_qids() {
    for (const Controller::QueryInfo& qi : rt->controller().list_queries())
      for (std::size_t b = 0; b < qi.qids.size(); ++b)
        an.register_qid_any(qi.qids[b], qi.name, b);
  }
};

// Pins the calling thread to the k-th CPU it may run on, for the scope's
// lifetime.  Single-threaded measurements rotate k pass by pass: on a
// shared VM the vCPUs run at different, drifting speeds, and the scheduler
// would otherwise keep a whole run on whichever vCPU it picked first.
// Never held across thread creation: threads inherit the mask.
class PinScope {
 public:
  explicit PinScope(std::size_t k) {
    if (sched_getaffinity(0, sizeof old_, &old_) != 0) return;
    const int n = CPU_COUNT(&old_);
    for (int c = 0, seen = 0; c < CPU_SETSIZE && n > 0; ++c) {
      if (!CPU_ISSET(c, &old_) || seen++ != static_cast<int>(k % n)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      break;
    }
  }
  ~PinScope() {
    if (pinned_) sched_setaffinity(0, sizeof old_, &old_);
  }
  PinScope(const PinScope&) = delete;
  PinScope& operator=(const PinScope&) = delete;

 private:
  cpu_set_t old_{};
  bool pinned_ = false;
};

void sleep_ns(uint64_t ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000ull);
  nanosleep(&ts, nullptr);
}

struct StreamStats {
  uint64_t packets = 0;
  uint64_t wall_ns = 0;  // first pull -> finish() returned
  ingest::SourceStats src;
};

// The benchmark's own pull -> process loop, equal to IngestPump::run (same
// burst, same would-block wait) but able to see which process() call
// closes a window.  report_delay starts when the first packet of the next
// window was due (paced: its replay schedule, `rate` > 0) or handed to
// process() (unpaced), and stops when that call returns — by then the
// barrier has delivered every report of the closed window.  on_close runs
// just before such a call and returns whether it queued rule mutations.
StreamStats stream(ShardedRuntime& rt, ingest::Source& src, double rate,
                   Tracer* tr, const Spans& sp, Acc& acc,
                   const std::function<bool()>& on_close = {}) {
  StreamStats st;
  WindowClock wc(kWindowNs);
  std::vector<Packet> buf(kPullBurst);
  const uint64_t t0 = mono_ns();  // ReplaySource's clock starts at 1st pull
  uint64_t ts0 = 0;
  constexpr uint64_t kMaxWaitNs = 1'000'000;  // PumpOptions::max_wait_us
  while (!src.done()) {
    if (tr != nullptr) tr->begin(sp.pull);
    const std::size_t n = src.pull(buf.data(), buf.size());
    if (tr != nullptr) tr->end();
    if (n == 0) {
      if (src.done()) break;
      const uint64_t hint = src.ns_until_ready();
      sleep_ns(hint == 0 ? kMaxWaitNs : std::min(hint, kMaxWaitNs));
      continue;
    }
    if (st.packets == 0) ts0 = buf[0].ts_ns;
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i;
      while (j < n && !wc.closes(buf[j])) ++j;
      if (j > i) {
        if (tr != nullptr) tr->begin(sp.demux);
        for (std::size_t k = i; k < j; ++k) rt.process(buf[k]);
        if (tr != nullptr) tr->end();
        acc.t_demux_pkts += tr != nullptr ? j - i : 0;
      }
      if (j == n) break;
      const bool mut = on_close ? on_close() : false;
      const uint64_t a = mono_ns();
      const uint64_t from =
          rate > 0 ? t0 + static_cast<uint64_t>(
                              static_cast<double>(buf[j].ts_ns - ts0) / rate)
                   : a;
      if (tr != nullptr) tr->begin(mut ? sp.barrier_mut : sp.barrier, a);
      rt.process(buf[j]);
      const uint64_t b = mono_ns();
      if (tr != nullptr) {
        tr->end(b);
        (mut ? acc.barrier_mut_us : acc.barrier_us)
            .push_back(static_cast<double>(b - a) / 1e3);
      }
      wc.advance(buf[j]);
      acc.delay_ms.push_back(static_cast<double>(b - std::min(from, a)) /
                             1e6);
      i = j + 1;
    }
    st.packets += n;
  }
  if (tr != nullptr) tr->begin(sp.finish);
  rt.finish();
  if (tr != nullptr) tr->end();
  st.wall_ns = mono_ns() - t0;
  st.src = src.stats();
  return st;
}

// Runtime-layer counters of one traced pass.
void note_runtime(const ShardedRuntime& rt, const StreamStats& st, Acc& acc) {
  const RuntimeStats& rs = rt.stats();
  acc.t_packets += st.packets;
  acc.t_stalls += rs.backpressure_stalls;
  acc.t_reports += rs.reports;
  for (const WorkerStats& w : rs.workers) {
    acc.t_busy_ns += w.busy_ns;
    acc.t_jit += w.jit_packets;
    acc.t_fused += w.jit_fused_packets;
    acc.t_prefetch += w.jit_prefetch_issued;
  }
  acc.t_busy_cap_ns += st.wall_ns * rs.workers.size();
}

// Runtime-side sanity shared by the runtime workloads: every packet reached
// a shard and none was abandoned.
void check_runtime(const ShardedRuntime& rt, uint64_t expect_packets,
                   Acc& acc) {
  const RuntimeStats& rs = rt.stats();
  uint64_t executed = 0;
  for (const WorkerStats& w : rs.workers) executed += w.packets;
  acc.check(rs.packets_in == expect_packets && executed == expect_packets &&
            rs.abandoned_packets == 0 && rs.worker_failovers == 0);
}

// ---------------------------------------------------------------------------
// backbone_saturate
// ---------------------------------------------------------------------------

struct BackboneRun {
  std::string pcap;
  WindowDigests oracle;
};

std::vector<Query> backbone_queries() {
  const QueryParams p;
  return {make_q1(p), make_q3(p), make_q5(p)};
}

RuntimeOptions backbone_options(bool jit) {
  RuntimeOptions o;
  o.queue_capacity = 8192;
  o.jit = jit;
  return o;
}

// One pass; returns the pass's digests (checked by the caller).
WindowDigests backbone_pass(const BackboneRun& in, bool jit, Tracer* tr,
                            const Spans& sp, Acc& acc) {
  const uint64_t s0 = mono_ns();
  RuntimeRig rig(24, backbone_options(jit), nullptr, tr, &sp);
  {
    PinScope pin(acc.passes++);
    for (const Query& q : backbone_queries())
      acc.install_ms.push_back(rig.install(q, tr, &sp, acc));
  }
  rig.start(tr, &sp);
  acc.setup_s.push_back(static_cast<double>(mono_ns() - s0) / 1e9);
  rig.register_qids();

  ingest::PcapFileSource src(in.pcap);
  const StreamStats st = stream(*rig.rt, src, 0, tr, sp, acc);
  const double pps = static_cast<double>(st.packets) * 1e9 /
                     static_cast<double>(st.wall_ns);
  (tr != nullptr ? acc.traced_pps : acc.pps).push_back(pps);
  if (tr != nullptr) note_runtime(*rig.rt, st, acc);
  check_runtime(*rig.rt, kBackbonePackets, acc);
  acc.facts["packets"] = std::to_string(st.packets);
  acc.facts["reports"] = std::to_string(rig.sink.records.size());
  acc.facts["windows"] = std::to_string(rig.rt->stats().windows);
  return digest_by_window(std::move(rig.sink.records), kWindowNs);
}

void backbone_prepare(const Ctx& c) {
  const std::string pcap = input_path(c, ".pcap");
  const std::string oracle = input_path(c, ".oracle");
  if (fs::exists(pcap) && fs::exists(oracle)) return;
  drop_other_seeds(c, ".pcap");
  const Trace t = backbone_trace(c.seed);
  save_header_pcap(t, pcap + ".tmp");
  fs::rename(pcap + ".tmp", pcap);
  // Oracle: the same sharded run with the chain compiler off — every query
  // on the interpreter (the JIT-vs-interpreter byte-identity contract).
  BackboneRun in{pcap, {}};
  Tracer none;
  Spans sp(none);
  Acc acc;
  const WindowDigests d = backbone_pass(in, /*jit=*/false, nullptr, sp, acc);
  if (!save_digests(oracle, d))
    throw std::runtime_error("cannot write " + oracle);
}

// ---------------------------------------------------------------------------
// detectors_paced
// ---------------------------------------------------------------------------

struct DetectorsRun {
  Trace trace;
  std::vector<detectors::Detector> lib;
  std::vector<detectors::DetectorGroup> groups;
};

void detectors_pass(const DetectorsRun& in, Tracer* tr, const Spans& sp,
                    Acc& acc) {
  uint64_t packets = 0, wall = 0;
  for (const detectors::DetectorGroup& g : in.groups) {
    detectors::ValueSink values(kWindowNs);
    RuntimeOptions o;
    o.shard_key = g.key;
    const uint64_t s0 = mono_ns();
    // Concurrent chains stack up the pipeline: a deep stage budget.
    RuntimeRig rig(64, o, &values, tr, &sp);
    {
      PinScope pin(acc.passes++);
      for (const detectors::Detector* d : g.members)
        acc.install_ms.push_back(rig.install(d->query, tr, &sp, acc));
    }
    rig.start(tr, &sp);
    acc.setup_s.push_back(static_cast<double>(mono_ns() - s0) / 1e9);
    rig.register_qids();

    ingest::TraceSource inner(in.trace);
    ingest::ReplaySource src(inner, {kDetectorSpeedup, nullptr});
    const StreamStats st = stream(*rig.rt, src, kDetectorSpeedup, tr, sp, acc);
    packets += st.packets;
    wall += st.wall_ns;
    if (st.src.paced_packets > 0)
      acc.pacing_lag_us.push_back(
          static_cast<double>(st.src.pacing_lag_ns_total) /
          static_cast<double>(st.src.paced_packets) / 1e3);
    if (tr != nullptr) note_runtime(*rig.rt, st, acc);
    check_runtime(*rig.rt, in.trace.size(), acc);

    // Every detector meets its own bounds against exact ground truth.
    const detectors::EvalInput ev{in.trace, rig.an, values};
    for (const detectors::Detector* d : g.members) {
      const detectors::Evaluation e = d->evaluate(ev);
      const bool ok = e.acc.precision() >= d->min_precision &&
                      e.acc.recall() >= d->min_recall;
      acc.check(ok);
      acc.facts["detected." + d->id] = std::to_string(e.detected_keys) + "/" +
                                       std::to_string(e.truth_keys);
    }
  }
  (tr != nullptr ? acc.traced_pps : acc.pps)
      .push_back(static_cast<double>(packets) * 1e9 /
                 static_cast<double>(wall));
  acc.facts["packets"] = std::to_string(packets);
}

// ---------------------------------------------------------------------------
// tenant_churn
// ---------------------------------------------------------------------------

struct ChurnRun {
  Trace trace;
  std::vector<uint16_t> ports;
  WindowDigests oracle;
};

struct ChurnOut {
  WindowDigests digests;
  std::vector<std::string> rejected, doomed;
};

ChurnOut churn_pass(const ChurnRun& in, bool jit, Tracer* tr, const Spans& sp,
                    Acc& acc) {
  RuntimeOptions o;
  o.jit = jit;
  o.shard_key = ShardKey::on({Field::SrcIp});  // affine for every tenant
  const uint64_t s0 = mono_ns();
  RuntimeRig rig(64, o, nullptr, tr, &sp);
  for (std::size_t i = 0; i < in.ports.size(); ++i) {
    const Query q = tenant_query("base" + std::to_string(i), in.ports[i],
                                 kTenantThreshold);
    if (tr != nullptr) tr->begin(sp.install);
    rig.rt->install(q, {}, "tenant" + std::to_string(i % 8));
    if (tr != nullptr) tr->end();
  }
  rig.start(tr, &sp);
  acc.setup_s.push_back(static_cast<double>(mono_ns() - s0) / 1e9);
  rig.register_qids();

  // Every barrier applies one install+withdraw pair; every kDoomedEvery-th
  // also carries an install no bank can hold, which admission must bounce.
  ChurnOut out;
  std::size_t window = 0;
  const auto on_close = [&]() {
    const std::string name = "churn" + std::to_string(window);
    const auto port = static_cast<uint16_t>(kChurnPortBase + window % 1024);
    rig.rt->install(tenant_query(name, port, 0), {}, "churn-tenant");
    rig.rt->withdraw(name);
    if (window % kDoomedEvery == 0) {
      out.doomed.push_back("doomed" + std::to_string(window));
      rig.rt->install(tenant_query(out.doomed.back(), kDoomedPort, 0,
                                   std::size_t{1} << 21),
                      {}, "churn-tenant");
    }
    ++window;
    return true;
  };
  ingest::TraceSource src(in.trace);
  const StreamStats st = stream(*rig.rt, src, 0, tr, sp, acc, on_close);
  (tr != nullptr ? acc.traced_pps : acc.pps)
      .push_back(static_cast<double>(st.packets) * 1e9 /
                 static_cast<double>(st.wall_ns));
  if (tr != nullptr) note_runtime(*rig.rt, st, acc);
  check_runtime(*rig.rt, in.trace.size(), acc);
  for (const auto& r : rig.rt->rejections()) out.rejected.push_back(r.query);
  acc.facts["packets"] = std::to_string(st.packets);
  acc.facts["reports"] = std::to_string(rig.sink.records.size());
  acc.facts["windows"] = std::to_string(rig.rt->stats().windows);
  acc.facts["jit_recompiles"] =
      std::to_string(rig.rt->stats().jit_recompiles);

  // Direct install/withdraw cycles on the loaded switch (runtime stopped,
  // so the controller accepts mutations; its workers are joined).
  PinScope pin(acc.passes++);
  Controller& ctl = rig.rt->controller();
  for (std::size_t i = 0; i < kDirectCycles; ++i) {
    const std::string name = "lat" + std::to_string(i);
    const Query q = tenant_query(
        name, static_cast<uint16_t>(kDirectPortBase + i % 1024), 0);
    if (tr != nullptr) {
      const uint64_t a = mono_ns();
      tr->begin(sp.admit, a);
      const bool ok = ctl.admit(q, {}, "slo-tenant").admitted();
      const uint64_t b = mono_ns();
      tr->end(b);
      acc.check(ok);
      acc.admit_us.push_back(static_cast<double>(b - a) / 1e3);
    }
    bool ok = true;
    uint64_t a = mono_ns();
    if (tr != nullptr) tr->begin(sp.install, a);
    try {
      ctl.install(q, {}, "slo-tenant");
    } catch (const std::exception&) {
      ok = false;
    }
    uint64_t b = mono_ns();
    if (tr != nullptr) tr->end(b);
    acc.install_ms.push_back(static_cast<double>(b - a) / 1e6);
    if (tr != nullptr)
      acc.install_us.push_back(static_cast<double>(b - a) / 1e3);
    acc.check(ok);
    if (!ok) continue;
    a = mono_ns();
    if (tr != nullptr) tr->begin(sp.withdraw, a);
    ctl.remove(name);
    b = mono_ns();
    if (tr != nullptr) {
      tr->end(b);
      acc.withdraw_us.push_back(static_cast<double>(b - a) / 1e3);
    }
  }

  // Fragment the banks (every other tenant leaves), then compact.
  for (std::size_t i = 0; i < in.ports.size(); i += 2)
    ctl.remove("base" + std::to_string(i));
  const uint64_t a = mono_ns();
  if (tr != nullptr) tr->begin(sp.compact, a);
  const Controller::CompactStats cs = ctl.compact();
  const uint64_t b = mono_ns();
  if (tr != nullptr) {
    tr->end(b);
    if (cs.rule_ops > 0)
      acc.compact_us_per_op.push_back(static_cast<double>(b - a) / 1e3 /
                                      static_cast<double>(cs.rule_ops));
  }
  acc.compact_ms.push_back(static_cast<double>(b - a) / 1e6);
  acc.check(cs.stranded_after <= cs.stranded_before);
  acc.facts["compaction_moves"] = std::to_string(cs.moved);

  out.digests = digest_by_window(std::move(rig.sink.records), kWindowNs);
  return out;
}

void churn_prepare(const Ctx& c) {
  const std::string oracle = input_path(c, ".oracle");
  if (fs::exists(oracle)) return;
  ChurnRun in;
  in.trace = churn_trace(c.seed);
  in.ports = tenant_ports(in.trace);
  Tracer none;
  Spans sp(none);
  Acc acc;
  const ChurnOut o = churn_pass(in, /*jit=*/false, nullptr, sp, acc);
  if (!save_digests(oracle, o.digests))
    throw std::runtime_error("cannot write " + oracle);
}

// ---------------------------------------------------------------------------
// fleet_k16
// ---------------------------------------------------------------------------

// Deterministic host pairing (bench_fleet / the difftest fault axis).
std::size_t src_of(std::size_t i, std::size_t n) { return (i * 7 + 1) % n; }
std::size_t dst_of(std::size_t i, std::size_t n) {
  std::size_t d = (i * 11 + 5) % n;
  if (d == src_of(i, n)) d = (d + 1) % n;
  return d;
}

struct FleetEvent {
  bool link = false;
  bool fail = false;
  int a = -1, b = -1;
};

// Switch kill/restore pairs with a link flap every third pair, drawn from
// the seed; at most one element is down at a time.
std::vector<FleetEvent> fleet_events(const Topology& t, uint32_t seed) {
  const std::vector<int> sws = t.switches();
  std::vector<std::pair<int, int>> links;
  for (int s : sws)
    for (int n : t.adj.at(static_cast<std::size_t>(s)))
      if (t.is_switch(n) && s < n) links.push_back({s, n});
  uint64_t x = seed * 2654435761u + 12345u;
  const auto next = [&] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  std::vector<FleetEvent> ev;
  for (std::size_t i = 0; i < kFleetEventPairs; ++i) {
    FleetEvent e;
    if (i % 3 == 2) {
      const auto [a, b] = links[next() % links.size()];
      e = {true, true, a, b};
    } else {
      e = {false, true, sws[next() % sws.size()], -1};
    }
    ev.push_back(e);
    e.fail = false;
    ev.push_back(e);
  }
  return ev;
}

void apply_event(Network& net, NetworkController& ctl, const FleetEvent& e) {
  Topology& t = net.topo();
  if (e.link) {
    if (e.fail) {
      t.fail_link(e.a, e.b);
      ctl.on_link_failed(e.a, e.b);
    } else {
      t.restore_link(e.a, e.b);
      ctl.on_link_restored(e.a, e.b);
    }
  } else if (e.fail) {
    t.fail_node(e.a);
    ctl.on_switch_failed(e.a);
  } else {
    t.restore_node(e.a);
    ctl.on_switch_restored(e.a);
  }
}

// The analyzer-visible result of collection: per window, the set of
// (owner query, branch, next slice, deferred, keys) the reports carried —
// identical between the aggregation tree and central collection.
class KeySetSink : public ReportSink {
 public:
  KeySetSink(const Analyzer* attribution, ReportSink* down)
      : attr_(attribution), down_(down) {}
  void report(const ReportRecord& r) override {
    down_->report(r);
    const auto* owner = attr_->owner_of(r.switch_id, r.qid);
    keys_.insert({r.ts_ns / kWindowNs, owner ? owner->first : "?",
                  owner ? owner->second : 0, r.next_slice, r.deferred,
                  r.oper_keys});
    ++records_;
  }
  WindowDigests digests() const {
    WindowDigests out;
    for (const Key& k : keys_) {
      uint64_t& h =
          out.try_emplace(std::get<0>(k), kFnvBasis).first->second;
      for (char ch : std::get<1>(k)) h = fnv1a(h, static_cast<uint8_t>(ch));
      h = fnv1a(h, std::get<2>(k));
      h = fnv1a(h, (uint64_t{std::get<3>(k)} << 8) | std::get<4>(k));
      for (uint32_t v : std::get<5>(k)) h = fnv1a(h, v);
    }
    return out;
  }
  uint64_t records() const { return records_; }

 private:
  using Key = std::tuple<uint64_t, std::string, std::size_t, uint8_t, bool,
                         std::array<uint32_t, kNumFields>>;
  const Analyzer* attr_;
  ReportSink* down_;
  std::set<Key> keys_;
  uint64_t records_ = 0;
};

struct FleetRun {
  Trace trace;
  Topology topo;
  std::vector<FleetEvent> events;
  WindowDigests oracle;
};

// One pass over the fabric.  central = true is the oracle arm: every switch
// reports straight to the collector instead of through the tree.
WindowDigests fleet_pass(const FleetRun& in, bool central, Tracer* tr,
                         const Spans& sp, Acc& acc) {
  PinScope pin(acc.passes++);
  const uint64_t s0 = mono_ns();
  Analyzer an;  // attribution: the controller registers every replica qid
  Network net(in.topo, kFleetStages, nullptr, kFleetBank);
  NetworkController ctl(net, &an, kFleetBank);
  ctl.set_placement_mode(PlacementMode::Incremental);
  std::vector<double> deploys, flushes, chunks;
  for (std::size_t i = 0; i < kFleetQueries; ++i) {
    const uint64_t a = mono_ns();
    if (tr != nullptr) tr->begin(sp.deploy, a);
    ctl.deploy(fleet_query("fleet" + std::to_string(i),
                           static_cast<uint16_t>(20'000 + i)));
    const uint64_t b = mono_ns();
    if (tr != nullptr) {
      tr->end(b);
      acc.deploy_ms.push_back(static_cast<double>(b - a) / 1e6);
    }
    acc.install_ms.push_back(static_cast<double>(b - a) / 1e6);
    deploys.push_back(static_cast<double>(b - a) / 1e6);
  }
  Analyzer down;
  TimedSink timed_down(&down, tr, sp.report);
  KeySetSink keys(&an, &timed_down);
  AggregationTree::Options topt;
  topt.fanin = 16;
  topt.window_ns = kWindowNs;
  topt.attribution = &an;
  AggregationTree tree(net.topo(), &keys, topt);
  for (std::size_t i = 0; i < kFleetQueries; ++i) {
    const std::string name = "fleet" + std::to_string(i);
    if (const auto* sl = ctl.slices_of(name))
      tree.set_merge_op(name, merge_op_for_slices(*sl));
  }
  TimedSink timed_tree(&tree, tr, sp.agg_report);
  ReportSink* leaf = central ? static_cast<ReportSink*>(&keys) : &timed_tree;
  for (int n : net.topo().switches()) net.sw(n).set_sink(leaf);
  acc.setup_s.push_back(static_cast<double>(mono_ns() - s0) / 1e9);

  const std::vector<int> hosts = net.topo().hosts();
  const std::size_t total = in.trace.size();
  const std::size_t slots = in.events.size() + 1;
  std::size_t next_event = 0;
  WindowClock wc(kWindowNs);
  ingest::TraceSource src(in.trace);
  std::vector<Packet> buf(kPullBurst);
  std::size_t i = 0;
  const uint64_t t0 = mono_ns();
  uint64_t chunk_start = t0;
  while (!src.done()) {
    if (tr != nullptr) tr->begin(sp.pull);
    const std::size_t n = src.pull(buf.data(), buf.size());
    if (tr != nullptr) tr->end();
    for (std::size_t k = 0; k < n; ++k, ++i) {
      const Packet& p = buf[k];
      if (i > 0 && i % kFleetChunk == 0) {
        const uint64_t now = mono_ns();
        chunks.push_back(static_cast<double>(now - chunk_start));
        chunk_start = now;
      }
      if (wc.closes(p)) {
        // Window boundary: the closed window's records leave the tree.
        const uint64_t a = mono_ns();
        if (tr != nullptr) tr->begin(sp.agg_flush, a);
        tree.flush();
        const uint64_t b = mono_ns();
        if (tr != nullptr) tr->end(b);
        wc.advance(p);
        acc.delay_ms.push_back(static_cast<double>(b - a) / 1e6);
        flushes.push_back(static_cast<double>(b - a) / 1e6);
      }
      if (next_event < in.events.size() &&
          i == (next_event + 1) * total / slots) {
        const auto& fs = ctl.fault_stats();
        const uint64_t e0 = fs.replace_events, sc0 = fs.replace_scope_switches;
        const uint64_t a = mono_ns();
        if (tr != nullptr) tr->begin(sp.event, a);
        apply_event(net, ctl, in.events[next_event++]);
        const uint64_t b = mono_ns();
        acc.replace_ms.push_back(static_cast<double>(b - a) / 1e6);
        if (tr != nullptr) {
          tr->end(b);
          acc.event_ms.push_back(static_cast<double>(b - a) / 1e6);
          const uint64_t de = fs.replace_events - e0;
          if (de > 0)
            acc.scope_frac.push_back(
                static_cast<double>(fs.replace_scope_switches - sc0) /
                static_cast<double>(de) /
                static_cast<double>(net.topo().switches().size()));
        }
      }
      const int s = hosts[src_of(i, hosts.size())];
      const int d = hosts[dst_of(i, hosts.size())];
      if (tr == nullptr) {
        net.send(p, s, d);
        continue;
      }
      // Network::send, split at its layer boundary: route(), then the
      // hop-by-hop pipeline walk.
      tr->begin(sp.route);
      const uint32_t fh =
          static_cast<uint32_t>(FiveTupleHash{}(FiveTuple::of(p)));
      const auto path = route(net.topo(), s, d, fh);
      std::vector<int> hops;
      if (path) hops = switches_on(net.topo(), *path);
      tr->end();
      if (!path) continue;
      tr->begin(sp.send_along);
      net.send_along(p, hops);
      tr->end();
    }
  }
  if (tr != nullptr) tr->begin(sp.agg_flush);
  tree.flush();
  if (tr != nullptr) tr->end();
  const uint64_t t1 = mono_ns();
  chunks.push_back(static_cast<double>(t1 - chunk_start));
  const uint64_t wall = t1 - t0;
  (tr != nullptr ? acc.traced_pps : acc.pps)
      .push_back(static_cast<double>(total) * 1e9 / static_cast<double>(wall));
  if (tr == nullptr) {
    acc.chunk_ns.push_back(std::move(chunks));
    acc.deploy_steps_ms.push_back(std::move(deploys));
    acc.flush_steps_ms.push_back(std::move(flushes));
  } else {
    acc.t_packets += total;
    acc.t_reports += keys.records();
    acc.t_agg_in += tree.stats().reports_in;
    acc.t_agg_root += tree.stats().root_records;
  }
  acc.facts["packets"] = std::to_string(total);
  acc.facts["root_records"] = std::to_string(keys.records());
  acc.facts["leaf_reports"] = std::to_string(tree.stats().reports_in);
  return keys.digests();
}

// Placement oracle: replay the event sequence with every incremental
// re-placement cross-checked against a scratch recompute (throws on any
// divergence).  Untimed; no packets needed — placement ignores traffic.
void fleet_verify_placement(const FleetRun& in, Acc& acc) {
  Analyzer an;
  Network net(in.topo, kFleetStages, nullptr, kFleetBank);
  NetworkController ctl(net, &an, kFleetBank);
  ctl.set_placement_mode(PlacementMode::Incremental);
  ctl.set_verify_placement(true);
  for (std::size_t i = 0; i < kFleetQueries; ++i)
    ctl.deploy(fleet_query("fleet" + std::to_string(i),
                           static_cast<uint16_t>(20'000 + i)));
  for (const FleetEvent& e : in.events) {
    bool ok = true;
    try {
      apply_event(net, ctl, e);
    } catch (const std::logic_error&) {
      ok = false;
    }
    acc.check(ok);
  }
}

FleetRun fleet_inputs(uint32_t seed) {
  FleetRun in;
  in.trace = fleet_trace(seed);
  in.topo = make_fat_tree(kFatTreeK);
  in.events = fleet_events(in.topo, seed);
  return in;
}

void fleet_prepare(const Ctx& c) {
  const std::string oracle = input_path(c, ".oracle");
  if (fs::exists(oracle)) return;
  const FleetRun in = fleet_inputs(c.seed);
  Tracer none;
  Spans sp(none);
  Acc acc;
  const WindowDigests d = fleet_pass(in, /*central=*/true, nullptr, sp, acc);
  if (!save_digests(oracle, d))
    throw std::runtime_error("cannot write " + oracle);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

// Passes until the budget is spent: a pass is started only if the last one
// would still fit.  At least `min_passes` run.
void repeat(uint64_t t_begin, double until_s, std::size_t min_passes,
            const std::function<void()>& pass) {
  const uint64_t until = static_cast<uint64_t>(until_s * 1e9);
  uint64_t last = 0;
  for (std::size_t n = 0;; ++n) {
    const uint64_t now = mono_ns();
    if (n >= min_passes && now - t_begin + last > until) break;
    pass();
    last = mono_ns() - now;
  }
}

double ratio(uint64_t num, uint64_t den, double scale = 1.0) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) * scale / static_cast<double>(den);
}

// Per-layer metrics from the traced passes.
void layer_metrics(const Tracer& t, const Spans& sp, const Acc& acc,
                   std::map<std::string, double>& L) {
  const auto per = [&](uint32_t span, uint64_t den, double scale) {
    return ratio(t.total_ns(span), den, scale);
  };
  L["ingest.pull_ns_per_pkt"] = per(sp.pull, acc.t_packets, 1.0);
  if (acc.t_demux_pkts > 0) {
    L["runtime.demux_ns_per_pkt"] = per(sp.demux, acc.t_demux_pkts, 1.0);
    L["runtime.ring_stalls_per_kpkt"] = ratio(acc.t_stalls, acc.t_packets, 1e3);
    L["runtime.worker_busy_frac"] = ratio(acc.t_busy_ns, acc.t_busy_cap_ns);
    L["compile.jit_frac"] = ratio(acc.t_jit, acc.t_packets);
    L["compile.fused_frac"] = ratio(acc.t_fused, acc.t_packets);
    L["compile.prefetch_per_pkt"] = ratio(acc.t_prefetch, acc.t_packets);
  }
  if (!acc.barrier_us.empty())
    L["runtime.barrier_us_p50"] = median(acc.barrier_us);
  if (!acc.barrier_mut_us.empty())
    L["runtime.barrier_mut_us_p50"] = median(acc.barrier_mut_us);
  if (t.count(sp.report) > 0)
    L["analyzer.report_ns"] = per(sp.report, t.count(sp.report), 1.0);
  L["analyzer.reports_per_kpkt"] = ratio(acc.t_reports, acc.t_packets, 1e3);
  if (!acc.admit_us.empty()) L["core.admit_us_p50"] = median(acc.admit_us);
  if (!acc.install_us.empty())
    L["core.install_us_p50"] = median(acc.install_us);
  if (!acc.withdraw_us.empty())
    L["core.withdraw_us_p50"] = median(acc.withdraw_us);
  if (!acc.compact_us_per_op.empty())
    L["core.compact_us_per_rule_op"] = median(acc.compact_us_per_op);
  if (t.count(sp.route) > 0) {
    L["net.route_us_per_pkt"] = per(sp.route, t.count(sp.route), 1e-3);
    L["net.send_along_us_per_pkt"] =
        per(sp.send_along, t.count(sp.send_along), 1e-3);
    L["net.agg_report_ns"] =
        ratio(t.total_ns(sp.agg_report) + t.total_ns(sp.agg_flush),
              acc.t_agg_in);
    L["net.agg_compression"] = ratio(acc.t_agg_in, acc.t_agg_root);
  }
  if (!acc.event_ms.empty()) {
    L["net.event_ms_p50"] = median(acc.event_ms);
    L["net.scope_frac"] = median(acc.scope_frac);
  }
  if (!acc.deploy_ms.empty()) L["net.deploy_ms"] = median(acc.deploy_ms);
}

void set_extra(Outcome& o, const std::string& name, const std::string& unit,
               const std::vector<double>& v) {
  if (!v.empty()) o.extra.push_back({name, unit, median(v)});
}

// Tail percentiles, only where the percentile rule allows.
void set_p99(Outcome& o, const std::string& name,
             const std::vector<double>& v) {
  if (percentile_reportable(v.size(), 0.99))
    o.extra.push_back({name, "ms", percentile(v, 0.99)});
}

}  // namespace

bool known_workload(const std::string& w) {
  return w == "backbone_saturate" || w == "detectors_paced" ||
         w == "tenant_churn" || w == "fleet_k16";
}

std::size_t workload_threads(const std::string& w) {
  return w == "fleet_k16" ? 1 : kShards + 1;
}

void prepare(const Ctx& c) {
  fs::create_directories(c.dir);
  if (c.workload == "backbone_saturate") backbone_prepare(c);
  if (c.workload == "tenant_churn") churn_prepare(c);
  if (c.workload == "fleet_k16") fleet_prepare(c);
}

Outcome run(const Ctx& c) {
  Outcome o;
  Acc acc;
  auto tracer = std::make_unique<Tracer>();
  Spans sp(*tracer);
  Tracer* tr = c.trace ? tracer.get() : nullptr;
  // Inputs: loaded or generated before the clock starts.
  BackboneRun bb;
  DetectorsRun det;
  ChurnRun ch;
  FleetRun fl;
  std::function<void(Tracer*)> pass;
  std::unique_ptr<NewtonSwitch> drive_sw;  // layer-drive target
  std::vector<Packet> drive_pkts;
  std::size_t drive_bank = kStateBankRegisters;

  if (c.workload == "backbone_saturate") {
    bb.pcap = input_path(c, ".pcap");
    if (!load_digests(input_path(c, ".oracle"), bb.oracle))
      throw std::runtime_error("missing oracle; run prepare");
    pass = [&](Tracer* t) {
      const WindowDigests d = backbone_pass(bb, true, t, sp, acc);
      acc.check(mismatched_windows(d, bb.oracle) == 0, bb.oracle.size());
      acc.facts["digest"] = std::to_string(combined_digest(d));
    };
    if (c.trace) {
      drive_sw = std::make_unique<NewtonSwitch>(1, 24, nullptr);
      Controller ctl(*drive_sw);
      for (const Query& q : backbone_queries()) ctl.install(q);
      ingest::PcapFileSource src(bb.pcap);
      drive_pkts.resize(kDrivePackets);
      std::size_t n = 0;
      while (n < drive_pkts.size() && !src.done())
        n += src.pull(drive_pkts.data() + n, drive_pkts.size() - n);
      drive_pkts.resize(n);
    }
  } else if (c.workload == "detectors_paced") {
    det.trace = detectors_trace(c.seed);
    det.lib = detectors::detector_library();
    std::vector<const detectors::Detector*> all;
    for (const auto& d : det.lib) all.push_back(&d);
    det.groups = detectors::group_by_shard_key(all);
    pass = [&](Tracer* t) { detectors_pass(det, t, sp, acc); };
    if (c.trace) {
      drive_sw = std::make_unique<NewtonSwitch>(1, 64, nullptr);
      Controller ctl(*drive_sw);
      for (const auto& d : det.lib) ctl.install(d.query);
      drive_pkts = det.trace.packets;
    }
  } else if (c.workload == "tenant_churn") {
    ch.trace = churn_trace(c.seed);
    ch.ports = tenant_ports(ch.trace);
    if (!load_digests(input_path(c, ".oracle"), ch.oracle))
      throw std::runtime_error("missing oracle; run prepare");
    pass = [&](Tracer* t) {
      const ChurnOut out = churn_pass(ch, true, t, sp, acc);
      acc.check(mismatched_windows(out.digests, ch.oracle) == 0,
                ch.oracle.size());
      acc.check(out.rejected == out.doomed);
      acc.facts["rejected_installs"] = std::to_string(out.rejected.size());
      acc.facts["digest"] = std::to_string(combined_digest(out.digests));
    };
    if (c.trace) {
      drive_sw = std::make_unique<NewtonSwitch>(1, 64, nullptr);
      Controller ctl(*drive_sw);
      for (std::size_t i = 0; i < ch.ports.size(); ++i)
        ctl.install(tenant_query("base" + std::to_string(i), ch.ports[i],
                                 kTenantThreshold));
      drive_pkts = ch.trace.packets;
    }
  } else if (c.workload == "fleet_k16") {
    fl = fleet_inputs(c.seed);
    if (!load_digests(input_path(c, ".oracle"), fl.oracle))
      throw std::runtime_error("missing oracle; run prepare");
    pass = [&](Tracer* t) {
      const WindowDigests d = fleet_pass(fl, false, t, sp, acc);
      acc.check(mismatched_windows(d, fl.oracle) == 0, fl.oracle.size());
      acc.facts["digest"] = std::to_string(combined_digest(d));
    };
    drive_bank = kFleetBank;
  } else {
    throw std::invalid_argument("unknown workload " + c.workload);
  }

  // One untimed warm-up pass (caches, allocator, page cache): its checks
  // count, its samples do not.
  pass(nullptr);
  Acc measured;
  measured.attempted = acc.attempted;
  measured.failed = acc.failed;
  measured.passes = acc.passes;
  acc = std::move(measured);
  const uint64_t t_begin = mono_ns();
  if (!c.trace) {
    repeat(t_begin, c.seconds, 1, [&] { pass(nullptr); });
  } else {
    // First half untraced (the overhead baseline), second half traced.
    repeat(t_begin, c.seconds / 2, 1, [&] { pass(nullptr); });
    repeat(t_begin, c.seconds, 1, [&] {
      tr->begin(sp.pass);
      pass(tr);
      tr->end();
    });
  }
  if (c.workload == "fleet_k16") fleet_verify_placement(fl, acc);

  o.e2e["setup_s"] = median(acc.setup_s);
  o.e2e["pps"] = median(acc.pps);
  o.e2e["report_delay_ms_p50"] = median(acc.delay_ms);
  o.e2e["install_ms_p50"] = median(acc.install_ms);
  if (c.workload == "fleet_k16" && !acc.chunk_ns.empty()) {
    // Single-threaded and identical pass after pass: time each fixed step
    // by its median over the passes (README: "fleet_k16 timing").
    double pass_ns = 0;
    for (double ns : step_medians(acc.chunk_ns)) pass_ns += ns;
    o.e2e["pps"] = static_cast<double>(fl.trace.size()) * 1e9 / pass_ns;
    o.e2e["report_delay_ms_p50"] = median(step_medians(acc.flush_steps_ms));
    o.e2e["install_ms_p50"] = median(step_medians(acc.deploy_steps_ms));
  }
  set_p99(o, "report_delay_ms_p99", acc.delay_ms);
  set_p99(o, "install_ms_p99", acc.install_ms);
  set_extra(o, "pacing_lag_us_mean", "us", acc.pacing_lag_us);
  set_extra(o, "compact_ms", "ms", acc.compact_ms);
  set_extra(o, "replace_ms_p50", "ms", acc.replace_ms);
  o.facts = acc.facts;
  o.pass_pps = c.trace ? acc.traced_pps : acc.pps;
  o.samples["passes"] = acc.pps.size() + acc.traced_pps.size();
  o.samples["setup"] = acc.setup_s.size();
  o.samples["report_delay"] = acc.delay_ms.size();
  o.samples["install"] = acc.install_ms.size();

  if (c.trace) {
    // Self time per layer over the traced passes (demux-thread spans).
    const auto self = tr->self_ns();
    uint64_t all = 0;
    for (const auto& [layer, ns] : self) all += ns;
    for (const auto& [layer, ns] : self)
      o.layer["self_frac." + layer] = ratio(ns, all);
    layer_metrics(*tr, sp, acc, o.layer);
    o.layer["trace.pps_ratio"] =
        median(acc.pps) > 0 ? median(acc.traced_pps) / median(acc.pps) : 0.0;
    // Thread-free drives, after the passes (own root span).
    tr->begin(tr->intern("bench.drives"));
    if (c.workload == "fleet_k16") {
      Analyzer an;
      Network net(fl.topo, kFleetStages, nullptr, kFleetBank);
      NetworkController ctl(net, &an, kFleetBank);
      for (std::size_t i = 0; i < kFleetQueries; ++i)
        ctl.deploy(fleet_query("fleet" + std::to_string(i),
                               static_cast<uint16_t>(20'000 + i)));
      const int edge = net.topo().edge_switches().front();
      drive_layers(net.sw(edge), fl.trace.packets, drive_bank, tr, o.layer);
    } else {
      drive_layers(*drive_sw, drive_pkts, drive_bank, tr, o.layer);
    }
    tr->end();
    o.tracer = std::move(tracer);
  }
  o.attempted = acc.attempted;
  o.failed = acc.failed;
  return o;
}

}  // namespace perfbench
