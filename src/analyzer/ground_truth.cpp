#include "analyzer/ground_truth.h"

#include "core/decompose.h"
#include "packet/epoch_clock.h"

namespace newton {

std::size_t ExactBranch::Hash::operator()(const KeyArray& k) const {
  std::size_t h = 0xcbf29ce484222325ull;
  for (uint32_t v : k) {
    h ^= v;
    h *= 0x100000001b3ull;
  }
  return h;
}

void ExactBranch::clear() {
  for (auto& [pi, st] : prims_) {
    st.distinct_seen.clear();
    st.counters.clear();
  }
}

std::optional<KeyArray> ExactBranch::eval(const BranchDef& b,
                                          const Packet& pkt,
                                          KeySet* reduce_keys) {
  KeyArray keys = pkt.fields;
  uint64_t agg_value = 0;
  for (std::size_t pi = 0; pi < b.primitives.size(); ++pi) {
    const Primitive& p = b.primitives[pi];
    // map, distinct and reduce project the tuple to their keys.
    if (p.kind == PrimitiveKind::Map || p.kind == PrimitiveKind::Distinct ||
        p.kind == PrimitiveKind::Reduce) {
      const auto masks = masks_of(p.keys);
      for (std::size_t f = 0; f < kNumFields; ++f)
        keys[f] = pkt.fields[f] & masks[f];
    }
    bool alive = true;
    switch (p.kind) {
      case PrimitiveKind::Filter:
        alive = p.pred.eval(pkt);
        break;
      case PrimitiveKind::Map:
        break;
      case PrimitiveKind::Distinct:
        // Passes only each key's first occurrence in the window.
        alive = prims_[pi].distinct_seen.insert(keys).second;
        break;
      case PrimitiveKind::Reduce: {
        uint64_t& n = prims_[pi].counters[keys];
        n += p.value_field_is_len ? pkt.get(Field::PktLen) : 1;
        agg_value = n;
        if (reduce_keys) reduce_keys->insert(keys);
        break;
      }
      case PrimitiveKind::When:
        alive = cmp_eval(p.when_op, agg_value, p.when_value);
        break;
    }
    if (!alive) return std::nullopt;
  }
  return keys;
}

KeySet QueryTruth::passing_union(std::size_t branch) const {
  KeySet out;
  for (const auto& [w, ks] : branches.at(branch).passing)
    out.insert(ks.begin(), ks.end());
  return out;
}

QueryTruth exact_truth(const Query& q, const Trace& trace) {
  QueryTruth truth;
  truth.branches.resize(q.branches.size());
  std::vector<ExactBranch> state(q.branches.size());
  EpochClock clock(q.window_ns);
  for (const Packet& pkt : trace.packets) {
    if (clock.closes(pkt.ts_ns)) {
      for (ExactBranch& st : state) st.clear();
      clock.advance(pkt.ts_ns);
    }
    const uint64_t w = clock.current();
    for (std::size_t bi = 0; bi < q.branches.size(); ++bi) {
      BranchTruth& bt = truth.branches[bi];
      if (const auto keys =
              state[bi].eval(q.branches[bi], pkt, &bt.universe[w]))
        bt.passing[w].insert(*keys);
    }
  }
  // A window enters the universe only if some reduce counted a key in it.
  for (BranchTruth& bt : truth.branches)
    std::erase_if(bt.universe, [](const auto& kv) { return kv.second.empty(); });
  return truth;
}

}  // namespace newton
