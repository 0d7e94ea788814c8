// Multi-tenant churn robustness (docs/admission.md): rejected installs are
// byte-identical no-ops (including racing a concurrent withdraw), every
// packet stays compiled under every-barrier churn, online compaction
// converts fragmentation rejections into admissions, tenant quotas hold,
// and a flapping switch ends in FAILED_PERMANENT with clean rollback —
// never a wedged controller.  This suite runs under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/controller.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "fault/install_faults.h"
#include "net/net_controller.h"
#include "net/network.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"

namespace newton {
namespace {

// Small disjoint-traffic query on its own dst port; the low threshold
// makes every matching packet report, so byte-identity checks see real
// output, not silence.
Query port_query(const std::string& name, uint16_t dport,
                 std::size_t width = 256) {
  QueryBuilder b(name);
  b.sketch(2, width);
  b.filter(Predicate{}.where(Field::DstPort, Cmp::Eq, dport))
      .map({Field::SrcIp})
      .reduce({Field::SrcIp}, Agg::Sum)
      .when(Cmp::Ge, 1);
  Query q = b.build();
  q.window_ns = 100'000'000;
  q.row_partitions = 1;
  return q;
}

// An install no bank in these tests can host: one row wants 2^21 registers.
Query doomed_query(const std::string& name) {
  return port_query(name, 50'000, std::size_t{1} << 21);
}

// Round-robin traffic over dports [20000, 20000+nports), `win` windows of
// `per_win` packets each.
Trace port_trace(std::size_t nports, std::size_t win, std::size_t per_win) {
  Trace t;
  t.name = "churn";
  for (std::size_t w = 0; w < win; ++w)
    for (std::size_t i = 0; i < per_win; ++i) {
      const uint64_t ts = w * 100'000'000ull + i * 1'000'000ull;
      t.packets.push_back(make_packet(
          ipv4(10, 0, static_cast<uint8_t>(i % 17), static_cast<uint8_t>(i)),
          ipv4(172, 16, 0, 1), 1234,
          static_cast<uint32_t>(20'000 + i % nports), 6, 0, 64, ts));
    }
  return t;
}

// Full byte-level digest of a switch: per-stage allocator maps, table
// sizes, every register bank word, init table size, qid pool.  A rejected
// install never allocates (admission is pure), so even free-range bytes
// must survive untouched.
struct SwitchDigest {
  std::vector<std::map<std::size_t, std::size_t>> allocs;
  std::vector<std::size_t> tables;
  std::vector<uint32_t> banks;
  std::size_t init_size = 0, free_qids = 0, installs = 0, rules = 0;

  friend bool operator==(const SwitchDigest&, const SwitchDigest&) = default;
};

SwitchDigest digest(NewtonSwitch& sw) {
  SwitchDigest d;
  const ModuleInstances& inst = sw.modules();
  for (std::size_t st = 0; st < sw.num_stages(); ++st) {
    d.allocs.push_back(sw.bank_allocator(st).allocations());
    d.tables.push_back(inst.k[st]->table().size());
    d.tables.push_back(inst.h[st]->table().size());
    d.tables.push_back(inst.s[st]->table().size());
    d.tables.push_back(inst.r[st]->table().size());
    const RegisterArray& bank = sw.bank(st);
    for (std::size_t i = 0; i < bank.size(); ++i)
      d.banks.push_back(bank.read(i));
  }
  d.init_size = sw.init_table().table().size();
  d.free_qids = sw.free_qids();
  d.installs = sw.num_installs();
  d.rules = sw.installed_rule_count();
  return d;
}

bool same_record(const ReportRecord& a, const ReportRecord& b) {
  return a.qid == b.qid && a.switch_id == b.switch_id && a.ts_ns == b.ts_ns &&
         a.oper_keys == b.oper_keys && a.hash_result == b.hash_result &&
         a.state_result == b.state_result && a.global_result == b.global_result &&
         a.deferred == b.deferred && a.next_slice == b.next_slice;
}

auto rec_key(const ReportRecord& r) {
  return std::tuple(r.qid, r.ts_ns, r.oper_keys, r.hash_result,
                    r.state_result, r.global_result, r.switch_id);
}

std::vector<ReportRecord> sorted_records(std::vector<ReportRecord> v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return rec_key(a) < rec_key(b);
  });
  return v;
}

// ---------------------------------------------------------------------------
// Rejected installs are byte-identical no-ops
// ---------------------------------------------------------------------------

TEST(RejectedInstall, LeavesSwitchControllerAndTelemetryUntouched) {
  telemetry::Registry::global().reset();
  Analyzer an;
  NewtonSwitch sw(1, 24, &an, 1 << 14);
  Controller ctl(sw);
  for (int i = 0; i < 6; ++i)
    ctl.install(port_query(std::string("q").append(std::to_string(i)),
                           static_cast<uint16_t>(20'000 + i)),
                {}, std::string("t").append(std::to_string(i % 2)));
  // Put live state into the allocated ranges so the digest has bytes that
  // a sloppy rollback could plausibly disturb.
  const Trace t = port_trace(6, 2, 50);
  for (const Packet& p : t.packets) sw.process(p);

  const SwitchDigest before = digest(sw);
  const auto tele_before = telemetry::Registry::global().snapshot();
  const std::size_t tenants_before = ctl.tenant_usage("t0").queries;

  const auto out = ctl.try_install(doomed_query("boom"), {}, "t0");
  ASSERT_FALSE(out.admitted());
  EXPECT_EQ(out.decision.code, AdmitCode::kRegisterOverflow);
  EXPECT_FALSE(ctl.installed("boom"));
  EXPECT_EQ(ctl.num_installed(), 6u);
  EXPECT_EQ(ctl.tenant_usage("t0").queries, tenants_before);
  EXPECT_EQ(digest(sw), before);

  // The only telemetry allowed to move is the admission/rejection
  // accounting itself — every other series must be byte-identical.
  const auto tele_after = telemetry::Registry::global().snapshot();
  std::map<std::string, double> changed;
  for (const auto& s : tele_after.samples) {
    const telemetry::Sample* old = tele_before.find(s.name, s.labels);
    const double was = old ? old->value : 0.0;
    if (s.value != was || (old && old->count != s.count))
      changed[s.name] = s.value - was;
  }
  for (const auto& [name, delta] : changed)
    EXPECT_TRUE(name.rfind("newton_admission", 0) == 0 ||
                name.rfind("newton_tenant_rejects", 0) == 0)
        << name << " moved by " << delta << " on a rejected install";
  EXPECT_TRUE(changed.contains("newton_admission_total"));
}

TEST(RejectedInstall, RacingWithdrawMatchesWithdrawOnlyRun) {
  // Two identical runtimes replay the same trace; one additionally queues
  // an inadmissible install in the SAME barrier batch as a withdraw.  The
  // rejection must be recorded and the final data-plane state and report
  // stream must match the withdraw-only twin byte for byte.
  const Trace t = port_trace(6, 4, 50);
  auto run = [&](bool with_doomed, std::vector<ReportRecord>& reports,
                 SwitchDigest& dig, std::size_t& rejected) {
    telemetry::Registry::global().reset();
    Analyzer an;
    NewtonSwitch sw(1, 24, &an, 1 << 14);
    RuntimeOptions ro;
    ro.num_shards = 2;
    ShardedRuntime rt(sw, ro, &an);
    ReportBuffer buf;
    rt.set_report_sink(&buf);
    for (int i = 0; i < 6; ++i)
      rt.install(port_query(std::string("q").append(std::to_string(i)),
                            static_cast<uint16_t>(20'000 + i)));
    rt.start();
    bool queued = false;
    for (const Packet& p : t.packets) {
      if (!queued && p.ts_ns >= 150'000'000ull) {
        queued = true;
        rt.withdraw("q3");
        if (with_doomed) rt.install(doomed_query("boom"));
      }
      rt.process(p);
    }
    rt.finish();
    reports = buf.records();
    dig = digest(sw);
    rejected = rt.stats().installs_rejected;
    if (with_doomed) {
      ASSERT_EQ(rt.rejections().size(), 1u);
      EXPECT_EQ(rt.rejections()[0].query, "boom");
      EXPECT_EQ(rt.rejections()[0].decision.code,
                AdmitCode::kRegisterOverflow);
    }
  };

  std::vector<ReportRecord> ra, rb;
  SwitchDigest da, db;
  std::size_t reja = 0, rejb = 0;
  run(false, ra, da, reja);
  run(true, rb, db, rejb);
  EXPECT_EQ(reja, 0u);
  EXPECT_EQ(rejb, 1u);
  EXPECT_EQ(da, db);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i)
    EXPECT_TRUE(same_record(ra[i], rb[i])) << "report " << i << " diverged";
}

// ---------------------------------------------------------------------------
// JIT under continuous churn
// ---------------------------------------------------------------------------

TEST(JitChurn, EveryBarrierMutationStaysCompiled) {
  // The tenant_churn shape: an install and a withdraw land at every window
  // barrier, so no barrier is ever mutation-free.  Each worker lowers its
  // reloaded replica itself before its next burst, so every packet still
  // runs compiled, with one lowering per reload, and the output matches
  // the interpreter byte for byte.
  constexpr std::size_t kWindows = 10;
  const Trace t = port_trace(4, kWindows, 60);

  struct Out {
    uint64_t packets = 0;
    uint64_t jit_packets = 0;
    uint64_t recompiles = 0;
    uint64_t mutation_barriers = 0;
    std::vector<ReportRecord> reports;
  };
  auto run = [&](std::size_t shards, bool jit) {
    telemetry::Registry::global().reset();
    Analyzer an;
    NewtonSwitch sw(1, 24, &an, 1 << 14);
    RuntimeOptions ro;
    ro.num_shards = shards;
    ro.jit = jit;
    ShardedRuntime rt(sw, ro, &an);
    ReportBuffer buf;
    rt.set_report_sink(&buf);
    for (int i = 0; i < 4; ++i)
      rt.install(port_query("base" + std::to_string(i),
                            static_cast<uint16_t>(20'000 + i)));
    rt.start();
    Out out;
    uint64_t seen_epoch = 0;
    for (const Packet& p : t.packets) {
      const uint64_t epoch = p.ts_ns / 100'000'000ull;
      if (epoch != seen_epoch) {
        // Queued before the window's first packet: the barrier this packet
        // triggers applies both.  The churned query shares a base query's
        // port, so its packets run two chains at once.
        seen_epoch = epoch;
        rt.install(port_query("churn" + std::to_string(epoch),
                              static_cast<uint16_t>(20'000 + epoch % 4)));
        if (epoch >= 2) rt.withdraw("churn" + std::to_string(epoch - 1));
        ++out.mutation_barriers;
      }
      rt.process(p);
    }
    rt.finish();
    for (const WorkerStats& w : rt.stats().workers) {
      out.packets += w.packets;
      out.jit_packets += w.jit_packets;
    }
    out.recompiles = rt.stats().jit_recompiles;
    out.reports = sorted_records(buf.records());
    return out;
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const Out on = run(shards, /*jit=*/true);
    const Out off = run(shards, /*jit=*/false);
    ASSERT_EQ(on.mutation_barriers, kWindows - 1);
    EXPECT_EQ(on.packets, t.packets.size());
    EXPECT_EQ(on.jit_packets, on.packets) << "packets interpreted under churn";
    // One lowering per reload: the load at start() plus one per barrier
    // that applied a mutation.
    EXPECT_EQ(on.recompiles, on.mutation_barriers + 1);
    EXPECT_EQ(off.recompiles, 0u);
    EXPECT_EQ(off.jit_packets, 0u);
    ASSERT_EQ(on.reports.size(), off.reports.size());
    ASSERT_FALSE(on.reports.empty());
    for (std::size_t i = 0; i < on.reports.size(); ++i)
      EXPECT_TRUE(same_record(on.reports[i], off.reports[i])) << "record " << i;
  }
}

// ---------------------------------------------------------------------------
// Online compaction
// ---------------------------------------------------------------------------

TEST(Compaction, ConvertsFragmentationRejectionIntoAdmission) {
  Analyzer an;
  // 6 stages: exactly one chain's worth, so the big query cannot sidestep
  // the fragmented banks into untouched later stages.  3072-register banks
  // fill EXACTLY with twelve 256-wide rows — freeing every other query
  // leaves 1536 registers free with no hole wider than 256.
  NewtonSwitch sw(1, 6, &an, 3072);
  Controller ctl(sw);
  std::size_t rebinds = 0;
  ctl.set_rebind_hook(
      [&](const std::string&, const std::vector<uint16_t>&) { ++rebinds; });

  // Fill the banks with width-256 rows, then free every other query: lots
  // of registers free, but no hole wide enough for a 1024-wide row.
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    const std::string n = "frag" + std::to_string(i);
    const auto out = ctl.try_install(
        port_query(n, static_cast<uint16_t>(20'000 + i), 256));
    if (!out.admitted()) break;
    names.push_back(n);
  }
  ASSERT_GE(names.size(), 6u);
  for (std::size_t i = 0; i < names.size(); i += 2) ctl.remove(names[i]);

  const Query big = port_query("big", 45'000, 1024);
  ctl.set_auto_compact(false);
  const AdmitDecision raw = ctl.admit(big);
  if (raw.admitted()) GTEST_SKIP() << "banks not fragmented enough";
  ASSERT_EQ(raw.code, AdmitCode::kRegisterFragmented);
  EXPECT_TRUE(raw.would_fit_compacted);
  // Without compaction the install really is rejected...
  EXPECT_FALSE(ctl.try_install(big).admitted());

  // ...and with it, the same install lands, the gauges drain, and every
  // moved query's qids were rebound.
  ctl.set_auto_compact(true);
  const auto before = ctl.fragmentation();
  const auto out = ctl.try_install(big);
  EXPECT_TRUE(out.admitted()) << out.decision.to_string();
  EXPECT_TRUE(ctl.installed("big"));
  const auto after = ctl.fragmentation();
  EXPECT_LT(after.stranded_registers, before.stranded_registers);
  EXPECT_GE(rebinds, 1u);
}

TEST(Compaction, RebindKeepsReportAttributionCorrect) {
  // Compaction reassigns qids; reports must still land on the right query.
  Analyzer an;
  NewtonSwitch sw(1, 24, &an, 1 << 12);
  Controller ctl(sw);
  ctl.set_rebind_hook(
      [&](const std::string& q, const std::vector<uint16_t>& qids) {
        for (std::size_t bi = 0; bi < qids.size(); ++bi)
          an.register_qid_any(qids[bi], q, bi);
      });

  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) {
    const std::string n = std::string("q").append(std::to_string(i));
    const auto out = ctl.try_install(
        port_query(n, static_cast<uint16_t>(20'000 + i), 256));
    if (!out.admitted()) break;
    const auto infos = ctl.list_queries();
    for (const auto& qi : infos)
      if (qi.name == n)
        for (std::size_t bi = 0; bi < qi.qids.size(); ++bi)
          an.register_qid_any(qi.qids[bi], n, bi);
    names.push_back(n);
  }
  ASSERT_GE(names.size(), 4u);
  for (std::size_t i = 0; i < names.size(); i += 2) ctl.remove(names[i]);
  const auto cs = ctl.compact();
  EXPECT_GT(cs.moved, 0u);

  // q1 survived and was likely moved; traffic on its port must still be
  // attributed to it.
  const Trace t = port_trace(8, 1, 64);
  for (const Packet& p : t.packets) sw.process(p);
  EXPECT_GT(an.reports_for("q1"), 0u);
}

// ---------------------------------------------------------------------------
// Tenant quotas
// ---------------------------------------------------------------------------

TEST(TenantQuota, ConcurrentQueryCapEnforced) {
  Analyzer an;
  NewtonSwitch sw(1, 24, &an, 1 << 14);
  Controller ctl(sw);
  TenantQuota quota;
  quota.max_queries = 2;
  ctl.set_tenant_quota("small", quota);

  EXPECT_TRUE(ctl.try_install(port_query("a", 20'001), {}, "small").admitted());
  EXPECT_TRUE(ctl.try_install(port_query("b", 20'002), {}, "small").admitted());
  const auto out = ctl.try_install(port_query("c", 20'003), {}, "small");
  ASSERT_FALSE(out.admitted());
  EXPECT_EQ(out.decision.code, AdmitCode::kTenantQueryQuota);
  // Another tenant is unaffected by the first one's quota.
  EXPECT_TRUE(ctl.try_install(port_query("d", 20'004), {}, "other").admitted());
  // Withdrawing frees quota headroom.
  ctl.remove("a");
  EXPECT_TRUE(ctl.try_install(port_query("c", 20'003), {}, "small").admitted());
}

// ---------------------------------------------------------------------------
// Flapping switch: FAILED_PERMANENT, clean rollback, no wedged controller
// ---------------------------------------------------------------------------

TEST(FailedPermanent, FlappingSwitchStormEndsTerminallyAndRollsBack) {
  telemetry::Registry::global().reset();
  Analyzer an;
  Network net(make_line(3), /*stages=*/6, &an, 1 << 14);
  NetworkController ctl(net, &an, 1 << 14);
  InstallFaultModel faults;
  ctl.set_install_faults(&faults);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.retry_budget = 5;
  ctl.set_retry_policy(policy);

  const int sick = net.topo().switches().front();
  faults.fail_always(sick);

  QueryParams p;
  p.sketch_width = 512;
  CompileOptions opts;
  opts.opt3 = false;

  // The storm: repeated deploy attempts against a permanently flapping
  // switch.  Every one must terminate in FAILED_PERMANENT within the retry
  // budget — bounded work, full rollback, never a wedge.
  for (int round = 0; round < 3; ++round) {
    try {
      ctl.deploy(make_q1(p), opts);
      FAIL() << "deploy against a dead switch succeeded";
    } catch (const PermanentInstallError& e) {
      EXPECT_EQ(e.failure().sw_node, sick);
      EXPECT_LE(e.failure().attempts, policy.max_attempts);
      EXPECT_LE(e.failure().retries_charged, policy.retry_budget);
      EXPECT_NE(std::string(e.what()).find("FAILED_PERMANENT"),
                std::string::npos);
    }
    EXPECT_EQ(ctl.deployment("q1_new_tcp"), nullptr);
    for (int s : net.topo().switches())
      EXPECT_EQ(net.sw(s).installed_rule_count(), 0u)
          << "switch " << s << " kept rules after FAILED_PERMANENT";
  }
  EXPECT_EQ(ctl.fault_stats().failed_permanent, 3u);
  EXPECT_GE(ctl.fault_stats().rollbacks, 3u);
  ASSERT_TRUE(ctl.last_install_failure().has_value());
  EXPECT_EQ(ctl.last_install_failure()->sw_node, sick);

  // Operator-visible counter.
  const auto snap = telemetry::Registry::global().snapshot();
  const auto* perm = snap.find("newton_net_installs_failed_permanent_total");
  ASSERT_NE(perm, nullptr);
  EXPECT_GE(perm->value, 3.0);

  // The fabric calms down: the same controller heals without a restart.
  faults.restore(sick);
  const auto& d = ctl.deploy(make_q1(p), opts);
  EXPECT_GT(d.handles.size(), 0u);
  EXPECT_FALSE(ctl.any_degraded());
}

// ---------------------------------------------------------------------------
// Window barriers: slice-scoped reset, in-place replica refresh
// ---------------------------------------------------------------------------

// Geometry of the compaction test above: 3072-register banks fill exactly
// with twelve 256-wide rows, and withdrawing every other query leaves no
// hole a 1024-wide row fits without compaction.
constexpr std::size_t kBarrierStages = 6;
constexpr std::size_t kBarrierBank = 3072;
constexpr std::size_t kFragQueries = 12;
constexpr uint64_t kBarrierWindowNs = 100'000'000;

// Mutations queued just before the first packet of window `window`, i.e.
// applied by the barrier that closes window - 1.
struct ChurnStep {
  uint64_t window;
  std::vector<std::string> withdraw;
  std::vector<Query> install;
};

std::vector<ChurnStep> barrier_churn_script() {
  std::vector<ChurnStep> steps(4);
  // Withdraw every other base query (fragmenting the banks) beside an
  // inadmissible install.
  steps[0].window = 1;
  for (std::size_t i = 0; i < kFragQueries; i += 2)
    steps[0].withdraw.push_back("frag" + std::to_string(i));
  steps[0].install.push_back(doomed_query("boom"));
  // A plain mid-stream install into one of the holes.
  steps[1].window = 2;
  steps[1].install.push_back(port_query("mid", 20'000 + kFragQueries));
  // Only fits after auto-compaction moves the surviving base queries.
  steps[2].window = 3;
  steps[2].install.push_back(
      port_query("big", 20'000 + kFragQueries + 1, 1024));
  // Withdraw a surviving base query and the mid-stream one.
  steps[3].window = 4;
  steps[3].withdraw = {"frag1", "mid"};
  return steps;
}

Trace barrier_churn_trace() {
  return port_trace(kFragQueries + 2, /*win=*/6, /*per_win=*/90);
}

// Per-branch contents of every allocated slice, ordered and attributed the
// way ShardedRuntime's window snapshots are.
std::vector<BranchSnapshot> branch_state(
    NewtonSwitch& sw,
    const std::map<uint16_t, std::pair<std::string, std::size_t>>& owner) {
  auto segs = sw.state_segments();
  std::sort(segs.begin(), segs.end(), [](const auto& a, const auto& b) {
    return std::tie(a.qid, a.stage, a.offset) <
           std::tie(b.qid, b.stage, b.offset);
  });
  std::vector<BranchSnapshot> out;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (i == 0 || segs[i].qid != segs[i - 1].qid) {
      const auto it = owner.find(segs[i].qid);
      out.push_back(it == owner.end()
                        ? BranchSnapshot{"?", 0, {}}
                        : BranchSnapshot{it->second.first, it->second.second,
                                         {}});
    }
    for (std::size_t r = 0; r < segs[i].width; ++r)
      out.back().state.push_back(
          sw.bank(segs[i].stage).read(segs[i].offset + r));
  }
  return out;
}

// Registers of `bank` outside every slice of `stage` that hold a nonzero
// value (`inside_too` counts the slices as well).
std::size_t dirty_registers(const RegisterArray& bank, std::size_t stage,
                            const std::vector<NewtonSwitch::StateSegment>& segs,
                            bool inside_too) {
  std::vector<char> allocated(bank.size(), 0);
  if (!inside_too)
    for (const auto& seg : segs)
      if (seg.stage == stage)
        for (std::size_t r = 0; r < seg.width; ++r)
          allocated[seg.offset + r] = 1;
  std::size_t n = 0;
  for (std::size_t r = 0; r < bank.size(); ++r)
    n += !allocated[r] && bank.read(r) != 0;
  return n;
}

struct BarrierChurnRun {
  std::vector<ReportRecord> reports;  // sorted
  std::vector<std::vector<BranchSnapshot>> snapshots;  // per closed window
  std::size_t barriers = 0;
  std::size_t rejected = 0;
  uint64_t compaction_moves = 0;
};

uint64_t compaction_moves_total() {
  return telemetry::Registry::global()
      .counter("newton_compaction_moves_total",
               "Queries migrated by online layout compaction")
      .value();
}

// The single-threaded reference: one NewtonSwitch executing every packet,
// the same mutations applied through a Controller at the same boundaries.
BarrierChurnRun run_barrier_churn_reference() {
  telemetry::Registry::global().reset();
  const Trace t = barrier_churn_trace();
  const auto script = barrier_churn_script();
  ReportBuffer buf;
  NewtonSwitch sw(1, kBarrierStages, &buf, kBarrierBank);
  Controller ctl(sw);
  std::map<uint16_t, std::pair<std::string, std::size_t>> owner;
  auto bind = [&](const std::string& name, const std::vector<uint16_t>& qids) {
    for (auto it = owner.begin(); it != owner.end();)
      it = it->second.first == name ? owner.erase(it) : std::next(it);
    for (std::size_t bi = 0; bi < qids.size(); ++bi)
      owner[qids[bi]] = {name, bi};
  };
  ctl.set_rebind_hook(bind);
  for (std::size_t i = 0; i < kFragQueries; ++i) {
    const std::string name = "frag" + std::to_string(i);
    bind(name, ctl.install(port_query(name, static_cast<uint16_t>(20'000 + i)))
                   .qids);
  }
  BarrierChurnRun out;
  uint64_t epoch = 0;
  for (const Packet& p : t.packets) {
    const uint64_t e = p.ts_ns / kBarrierWindowNs;
    if (e != epoch) {
      out.snapshots.push_back(branch_state(sw, owner));
      for (const ChurnStep& step : script) {
        if (step.window != e) continue;
        for (const std::string& name : step.withdraw) {
          ctl.remove(name);
          bind(name, {});
        }
        for (const Query& q : step.install) {
          const auto r = ctl.try_install(q);
          if (r.admitted())
            bind(q.name, r.stats.qids);
          else
            ++out.rejected;
        }
      }
      epoch = e;
    }
    sw.process(p);
  }
  out.snapshots.push_back(branch_state(sw, owner));
  out.barriers = out.snapshots.size();
  out.reports = sorted_records(buf.records());
  out.compaction_moves = compaction_moves_total();
  return out;
}

BarrierChurnRun run_barrier_churn(std::size_t shards, bool jit) {
  telemetry::Registry::global().reset();
  const Trace t = barrier_churn_trace();
  const auto script = barrier_churn_script();
  Analyzer an;
  NewtonSwitch sw(1, kBarrierStages, &an, kBarrierBank);
  RuntimeOptions ro;
  ro.num_shards = shards;
  ro.jit = jit;
  ShardedRuntime rt(sw, ro, &an);
  ReportBuffer buf;
  rt.set_report_sink(&buf);
  for (std::size_t i = 0; i < kFragQueries; ++i)
    rt.install(port_query("frag" + std::to_string(i),
                          static_cast<uint16_t>(20'000 + i)));
  rt.start();

  // Replica banks are looked at only while the workers are quiesced: right
  // after a barrier the demux has staged, not pushed, the packet that
  // closed the window (one packet is far below the burst size).
  std::vector<std::vector<const RegisterArray*>> storage(shards);
  for (std::size_t i = 0; i < shards; ++i)
    for (std::size_t st = 0; st < kBarrierStages; ++st)
      storage[i].push_back(&rt.replica_bank_for_test(i, st));

  BarrierChurnRun out;
  auto check_barrier_exit = [&] {
    ++out.barriers;
    SCOPED_TRACE("barrier " + std::to_string(out.barriers));
    const auto segs = sw.state_segments();
    for (std::size_t st = 0; st < kBarrierStages; ++st) {
      // (a) Outside the allocated slices every register reads 0 on the
      // primary, and every replica starts the next window from 0.
      EXPECT_EQ(dirty_registers(sw.bank(st), st, segs, false), 0u)
          << "primary stage " << st;
      for (std::size_t i = 0; i < shards; ++i) {
        const RegisterArray& bank = rt.replica_bank_for_test(i, st);
        EXPECT_EQ(dirty_registers(bank, st, segs, true), 0u)
            << "shard " << i << " stage " << st;
        // (b) Rule updates refresh the replica in place: its banks are the
        // ones loaded at start.
        EXPECT_EQ(&bank, storage[i][st]) << "shard " << i << " stage " << st;
      }
    }
  };

  uint64_t epoch = 0;
  uint64_t windows = 0;
  for (const Packet& p : t.packets) {
    const uint64_t e = p.ts_ns / kBarrierWindowNs;
    if (e != epoch) {
      for (const ChurnStep& step : script) {
        if (step.window != e) continue;
        for (const std::string& name : step.withdraw) rt.withdraw(name);
        for (const Query& q : step.install) rt.install(q);
      }
      epoch = e;
    }
    rt.process(p);
    if (rt.stats().windows != windows) {
      windows = rt.stats().windows;
      check_barrier_exit();
    }
  }
  rt.finish();
  check_barrier_exit();

  out.reports = sorted_records(buf.records());
  for (const WindowSnapshot& w : rt.snapshots())
    out.snapshots.push_back(w.branches);
  out.rejected = rt.stats().installs_rejected;
  out.compaction_moves = compaction_moves_total();
  return out;
}

TEST(BarrierRefresh, SliceResetAndInPlaceRefreshMatchReference) {
  const BarrierChurnRun ref = run_barrier_churn_reference();
  // The script exercises what it claims: one rejection, at least one
  // compaction move, reports in every window.
  ASSERT_EQ(ref.rejected, 1u);
  ASSERT_GT(ref.compaction_moves, 0u);
  ASSERT_EQ(ref.barriers, 6u);
  ASSERT_FALSE(ref.reports.empty());

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    for (const bool jit : {true, false}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " jit=" + std::to_string(jit));
      const BarrierChurnRun r = run_barrier_churn(shards, jit);
      EXPECT_EQ(r.barriers, ref.barriers);
      EXPECT_EQ(r.rejected, ref.rejected);
      EXPECT_EQ(r.compaction_moves, ref.compaction_moves);
      // (c) Byte-identical to the single-threaded switch (and so to each
      // other, jit on and off).
      ASSERT_EQ(r.reports.size(), ref.reports.size());
      for (std::size_t i = 0; i < r.reports.size(); ++i)
        EXPECT_EQ(rec_key(r.reports[i]), rec_key(ref.reports[i]))
            << "report " << i;
      ASSERT_EQ(r.snapshots.size(), ref.snapshots.size());
      for (std::size_t w = 0; w < r.snapshots.size(); ++w)
        EXPECT_EQ(r.snapshots[w], ref.snapshots[w]) << "window " << w;
    }
  }
}

}  // namespace
}  // namespace newton
