// Ablation: reacting to anomalies by runtime query operations (Newton) vs
// Sonata-style dynamic refinement (fixed program, prefix zoom ladder).
//
// Both approaches pinpoint a /32 SYN-flood victim.  Refinement needs one
// 100 ms window per ladder level; Newton installs the precise intent in
// ~10 ms of table-rule writes and reports within the first window.  Attacks
// shorter than the ladder are missed entirely by refinement.
#include <cstdio>

#include "baselines/sonata_refinement.h"
#include "bench_util.h"
#include "core/compose.h"
#include "core/newton_switch.h"
#include "core/queries.h"

using namespace newton;

namespace {

Trace flood_lasting(int windows, uint32_t victim) {
  Trace t;
  std::mt19937 rng(81);
  for (int w = 0; w < windows; ++w)
    inject_syn_flood(t, victim, 150, 1,
                     static_cast<uint64_t>(w) * 100'000'000 + 1'000'000, rng);
  t.sort_by_time();
  return t;
}

}  // namespace

int main() {
  bench::header("Ablation: detection latency — runtime queries vs refinement");
  std::printf("(SYN flood, threshold 100/window; refinement ladder "
              "/8->/16->/24->/32)\n\n");
  std::printf("%18s | %22s | %26s\n", "attack duration",
              "Newton detect window", "refinement detect window");
  bench::row_sep();

  const uint32_t victim = ipv4(172, 16, 70, 7);
  for (int windows : {1, 2, 3, 4, 6, 10}) {
    const Trace t = flood_lasting(windows, victim);

    QueryParams p;
    p.q1_syn_th = 100;
    ReportBuffer sink;
    NewtonSwitch sw(1, 12, &sink);
    sw.install(compile_query(make_q1(p)));
    for (const Packet& pk : t.packets) sw.process(pk);
    std::string newton_at = sink.size()
        ? std::to_string(
              EpochClock(sw.window_ns()).epoch_of(sink.records()[0].ts_ns))
        : "missed";

    SonataRefinement ref({8, 16, 24, 32}, 100);
    const auto det = ref.run(t);
    std::string refine_at =
        det.empty() ? "missed" : std::to_string(det[0].window);

    std::printf("%15d w | %22s | %26s\n", windows, newton_at.c_str(),
                refine_at.c_str());
  }
  std::printf(
      "\nRefinement spends one window per ladder level and misses attacks\n"
      "shorter than the ladder; Newton's runtime-installed intent reports\n"
      "in the first window (install cost ~10 ms of rules, Fig. 11).\n");
  return 0;
}
