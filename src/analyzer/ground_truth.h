// Exact reference evaluation of queries over a trace.
//
// Runs the query semantics with exact containers (hash sets / maps instead
// of Bloom filters / Count-Min sketches), windowed like the data plane.
// Used as ground truth for the accuracy experiments (Fig. 14) and as the
// oracle for end-to-end tests.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/query.h"
#include "packet/fields.h"
#include "trace/trace_gen.h"

namespace newton {

using KeyArray = std::array<uint32_t, kNumFields>;
using KeySet = std::set<KeyArray>;

// Exact interpreter of one branch over one window's packets: a key set per
// distinct and a counter map per reduce, by primitive index, so chained
// stateful primitives do not interfere.  clear() at every window roll.
class ExactBranch {
 public:
  // Run `pkt` through `b`.  Returns the keys the branch reports, or nullopt
  // when a primitive drops the packet.  A branch without a threshold
  // reports every surviving packet (map/distinct-terminal chains).  Every
  // key a reduce counts is added to `reduce_keys` if given.
  std::optional<KeyArray> eval(const BranchDef& b, const Packet& pkt,
                               KeySet* reduce_keys = nullptr);
  void clear();

 private:
  struct Hash {
    std::size_t operator()(const KeyArray& k) const;
  };
  struct Prim {
    std::unordered_set<KeyArray, Hash> distinct_seen;
    std::unordered_map<KeyArray, uint64_t, Hash> counters;
  };
  std::map<std::size_t, Prim> prims_;
};

struct BranchTruth {
  // Window index -> keys whose chain fully passed (incl. threshold).
  std::map<uint64_t, KeySet> passing;
  // Window index -> all candidate keys that reached the final aggregation
  // (the negative universe for false-positive rates).
  std::map<uint64_t, KeySet> universe;
};

struct QueryTruth {
  std::vector<BranchTruth> branches;

  // Union across windows of one branch's passing keys.
  KeySet passing_union(std::size_t branch) const;
};

// Exactly evaluate `q` over `trace` (windows of q.window_ns).
QueryTruth exact_truth(const Query& q, const Trace& trace);

}  // namespace newton
