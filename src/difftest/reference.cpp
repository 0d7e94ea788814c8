#include "difftest/reference.h"

#include <optional>
#include <vector>

namespace newton::difftest {

KeySet ExecResult::passing_union(std::size_t query, std::size_t branch) const {
  KeySet out;
  const auto it = detected.find({query, branch});
  if (it == detected.end()) return out;
  for (const auto& [w, ks] : it->second) out.insert(ks.begin(), ks.end());
  return out;
}

ExecResult run_reference(const Scenario& s, const Trace& t) {
  ExecResult out;
  const std::vector<ResolvedOp> ops = resolve_ops(s);
  std::size_t next_op = 0;
  // Live definition per query index (empty = not installed).
  std::vector<std::optional<Query>> live(s.queries.size());
  const auto apply_due = [&](uint64_t upto_packet) {
    for (; next_op < ops.size() && ops[next_op].at_packet <= upto_packet;
         ++next_op) {
      const ResolvedOp& op = ops[next_op];
      if (op.kind == ResolvedOp::Kind::Install)
        live[op.query] = op.def;
      else
        live[op.query].reset();
    }
  };
  apply_due(0);

  // Exact state per (query, branch); cleared every window.
  std::map<std::pair<std::size_t, std::size_t>, ExactBranch> state;
  EpochClock clock(s.window_ns());
  for (std::size_t i = 0; i < t.packets.size(); ++i) {
    const Packet& pkt = t.packets[i];
    if (clock.closes(pkt.ts_ns)) {
      apply_due(i);
      state.clear();
      clock.advance(pkt.ts_ns);
    }
    for (std::size_t qi = 0; qi < live.size(); ++qi) {
      if (!live[qi]) continue;
      for (std::size_t bi = 0; bi < live[qi]->branches.size(); ++bi)
        if (const auto keys =
                state[{qi, bi}].eval(live[qi]->branches[bi], pkt))
          out.detected[{qi, bi}][clock.current()].insert(*keys);
    }
  }
  return out;
}

}  // namespace newton::difftest
