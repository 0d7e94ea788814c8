// Runtime hygiene: state isolation between queries across install/remove
// cycles, rule/qid/register recycling, multi-query dispatch, capacity
// behaviour under churn.
#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "trace/attacks.h"

namespace newton {
namespace {

TEST(RegisterHygiene, ClearRange) {
  RegisterArray r(16);
  for (std::size_t i = 0; i < 16; ++i) r.execute(SaluOp::Write, i, 7);
  r.clear_range(4, 8);
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_EQ(r.read(i), (i >= 4 && i < 12) ? 0u : 7u);
  r.clear_range(14, 100);  // clamped at the end
  EXPECT_EQ(r.read(15), 0u);
  r.clear_range(99, 5);  // out of range: no-op
}

TEST(RegisterHygiene, ReinstalledQuerySeesNoStaleState) {
  // Install Q1, feed it 30 SYNs (threshold 40: silent), remove, reinstall,
  // feed 20 more in the SAME window.  Stale counters would make 30+20 cross
  // the threshold; a swept reinstall must stay silent.
  QueryParams p;
  p.q1_syn_th = 40;
  p.sketch_width = 64;  // small bank so ranges certainly recycle
  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink, 1 << 10);
  Controller ctl(sw);
  ctl.install(make_q1(p));
  for (int i = 0; i < 30; ++i)
    sw.process(make_packet(100 + i, 200, 1, 80, kProtoTcp, kTcpSyn, 64,
                           1000ull * i));
  ctl.remove("q1_new_tcp");
  ctl.install(make_q1(p));
  for (int i = 0; i < 20; ++i)
    sw.process(make_packet(300 + i, 200, 1, 80, kProtoTcp, kTcpSyn, 64,
                           50'000 + 1000ull * i));
  EXPECT_EQ(sink.size(), 0u);
  // And a fresh 40 in one window still fires.
  for (int i = 0; i < 40; ++i)
    sw.process(make_packet(500 + i, 201, 1, 80, kProtoTcp, kTcpSyn, 64,
                           100'000 + 1000ull * i));
  EXPECT_EQ(sink.size(), 1u);
}

TEST(MultiQueryDispatch, OverlappingQueriesBothFire) {
  // Q1 (SYN counting) and a bare SYN exporter watch the same traffic; a
  // packet must execute both (the init cross-product).
  ReportBuffer sink;
  NewtonSwitch sw(1, 24, &sink);
  Controller ctl(sw);
  QueryParams p;
  p.q1_syn_th = 3;
  ctl.install(make_q1(p));
  const Query exporter =
      QueryBuilder("syn_export")
          .filter(Predicate{}
                      .where(Field::Proto, Cmp::Eq, kProtoTcp)
                      .where(Field::TcpFlags, Cmp::Eq, kTcpSyn))
          .map({Field::SrcIp, Field::DstIp})
          .build();
  ctl.install(exporter);

  for (int i = 0; i < 3; ++i)
    sw.process(make_packet(10 + i, 99, 1, 80, kProtoTcp, kTcpSyn, 64,
                           1000ull * i));
  // exporter reports every SYN (3) + Q1 reports the crossing (1).
  EXPECT_EQ(sink.size(), 4u);
}

TEST(MultiQueryDispatch, LookupAllReturnsEveryMatch) {
  TernaryTable<int> t(8);
  t.insert({MatchWord::wildcard()}, 0, 1);
  t.insert({MatchWord::exact(7)}, 5, 2);
  t.insert({MatchWord::exact(8)}, 5, 3);
  const auto all = t.lookup_all({7});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(*t.lookup({7}), 2);  // single-result lookup honors priority
}

TEST(Churn, RepeatedInstallRemoveIsStable) {
  NewtonSwitch sw(1, 24, nullptr, 1 << 14);
  Controller ctl(sw);
  QueryParams p;
  p.sketch_width = 512;
  for (int round = 0; round < 50; ++round) {
    for (const Query& q : {make_q1(p), make_q3(p), make_q5(p)}) ctl.install(q);
    EXPECT_EQ(ctl.num_installed(), 3u);
    for (const char* n :
         {"q1_new_tcp", "q3_super_spreader", "q5_udp_ddos"})
      ctl.remove(n);
  }
  EXPECT_EQ(sw.installed_rule_count(), 0u);
  EXPECT_EQ(sw.slots_used(), 0u);
}

TEST(Capacity, ModuleRuleCapacityBindsConcurrency) {
  // Each module table holds kRulesPerModule rules; pushing past it throws
  // and rolls back cleanly.
  NewtonSwitch sw(1, 12, nullptr, 1 << 20);
  Controller ctl(sw);
  std::size_t installed = 0;
  try {
    for (std::size_t i = 0; i < kRulesPerModule + 10; ++i) {
      Query q = QueryBuilder(std::string("m").append(std::to_string(i)))
                    .filter(Predicate{}.where(Field::DstPort, Cmp::Eq,
                                              static_cast<uint32_t>(i)))
                    .map({Field::DstIp})
                    .sketch(1, 8)
                    .build();
      ctl.install(q);
      ++installed;
    }
    FAIL() << "expected capacity exhaustion";
  } catch (const std::runtime_error&) {
    EXPECT_GE(installed, 200u);
  }
  // The failed install must not leak partial rules: removing everything
  // returns the switch to empty.
  for (std::size_t i = 0; i < installed; ++i)
    ctl.remove(std::string("m").append(std::to_string(i)));
  EXPECT_EQ(sw.installed_rule_count(), 0u);
}

TEST(Capacity, RollbackFreesRegistersOnFailedInstall) {
  // Two structurally identical queries over DISJOINT traffic compile to the
  // same stages (P-Newton); the bank fits only one 4096-register sketch per
  // stage, so the second install fails — and must roll back cleanly.
  auto counter = [](const char* name, uint32_t proto, std::size_t width) {
    return QueryBuilder(name)
        .sketch(2, width)
        .filter(Predicate{}.where(Field::Proto, Cmp::Eq, proto))
        .map({Field::DstIp})
        .reduce({Field::DstIp}, Agg::Sum)
        .when(Cmp::Ge, 1000)
        .build();
  };
  NewtonSwitch sw(1, 12, nullptr, /*bank=*/4096 + 64);
  Controller ctl(sw);
  ctl.install(counter("tcp_counter", kProtoTcp, 4096));
  EXPECT_THROW(ctl.install(counter("udp_counter", kProtoUdp, 4096)),
               std::runtime_error);
  // The failed install must have freed its partial allocations/qids: a
  // query that fits still installs on the very same stages.
  EXPECT_NO_THROW(ctl.install(counter("icmp_counter", kProtoIcmp, 16)));
}

TEST(Epoch, WindowBoundaryResetsAllBanks) {
  QueryParams p;
  p.q1_syn_th = 10;
  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink);
  sw.set_window_ns(1'000'000);  // 1 ms windows
  sw.install(compile_query(make_q1(p)));
  // 9 SYNs at the end of one window + 9 at the start of the next: silent.
  for (int i = 0; i < 9; ++i)
    sw.process(make_packet(i, 5, 1, 80, kProtoTcp, kTcpSyn, 64,
                           900'000 + 1000ull * i));
  for (int i = 0; i < 9; ++i)
    sw.process(make_packet(50 + i, 5, 1, 80, kProtoTcp, kTcpSyn, 64,
                           1'050'000 + 1000ull * i));
  EXPECT_EQ(sink.size(), 0u);
}

}  // namespace
}  // namespace newton
