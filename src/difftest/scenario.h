// Differential-testing scenarios: one self-contained tuple describing a
// complete end-to-end run — trace shape, query chains, a runtime op schedule
// (install / withdraw / update at packet indices) and the execution axes
// (shard count, burst size, optimization level, CQE slicing, fault plan).
//
// A Scenario is pure data with a line-oriented text form, so a failing case
// serializes to a seed file that replays bit-identically with
// `newton_tool fuzz --replay <file>` (docs/difftest.md).  Generation and
// mutation are fully deterministic from the seed / rng handed in.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/query.h"
#include "packet/epoch_clock.h"
#include "runtime/shard_hash.h"
#include "trace/trace_gen.h"

namespace newton::difftest {

// Stage budget of the harness's single-switch / runtime-primary pipelines.
// normalize() keeps the sum of every install event's O0 schedule span under
// this (minus headroom), since the controller chains overlapping installs
// into later stages.
constexpr std::size_t kPipelineStages = 64;

// One attack-traffic injection layered on the background trace
// (trace/attacks.h).  `a`/`b` are the primary/secondary addresses whose
// meaning depends on the kind (victim, attacker, scanner, resolver...);
// `n`/`m` are the injector's two size knobs (sources x per-source packets,
// ports, attempts...).
struct InjectionSpec {
  std::string kind;    // syn_flood | udp_flood | port_scan | ssh_brute |
                       // slowloris | super_spreader | dns_no_tcp |
                       // volume_burst | prefix_flood
  uint32_t a = 0;
  uint32_t b = 0;
  std::size_t n = 0;
  std::size_t m = 0;
  uint64_t at_ns = 0;  // injection start timestamp
};

struct TraceSpec {
  std::string profile = "caida";  // caida | mawi
  std::size_t flows = 150;
  uint32_t seed = 1;
  std::vector<InjectionSpec> injections;

  // Materialize the trace (background profile + injections, time-sorted).
  // Deterministic: the same spec always yields the same packet sequence.
  Trace build() const;
};

// A control-plane action scheduled against the packet stream.  Every
// executor applies an op at the first window-epoch crossing at or after
// `at_packet` (mirroring the sharded runtime's barrier semantics); ops at
// packet 0 apply before the stream starts.
struct OpEvent {
  enum class Kind : uint8_t { Install, Withdraw, Update };
  Kind kind = Kind::Install;
  std::size_t query = 0;   // index into Scenario::queries
  uint64_t at_packet = 0;
  uint32_t new_when = 0;   // Update: replacement when-threshold
};

struct Scenario {
  uint64_t id = 0;  // generation seed (file naming, replay printing)
  TraceSpec trace;
  std::vector<Query> queries;  // named q0, q1, ... by index
  std::vector<OpEvent> ops;    // applied in at_packet order (stable)

  // Execution axes.
  std::size_t shards = 1;      // N-shard runtime axis when > 1
  std::size_t burst = 64;      // runtime demux/worker batch size
  int opt_level = 3;           // cross-checked against O0
  uint64_t window_ms = 100;
  std::size_t cqe_stages = 0;  // per-switch stage budget; 0 = CQE axis off
  bool fault = false;          // fat-tree link-failure axis (query 0 only)
  uint32_t fault_seed = 1;
  std::size_t fault_events = 0;
  // Control-plane churn axis (docs/admission.md): when > 0 the harness
  // re-runs the scenario with `churn_ops` derived install/withdraw events —
  // a deterministic mix of admissible transient installs and provably
  // inadmissible ones — interleaved at window crossings, asserting the
  // admission invariants (admit => the install fits; reject => the switch
  // state is byte-identical to the pre-attempt snapshot; exact register /
  // qid / init-entry conservation) and that reports stay byte-identical to
  // the churn-free baseline.  0 = axis off.
  std::size_t churn_ops = 0;
  uint32_t churn_seed = 1;
  // Placement axis (docs/fleet.md): when > 0 the harness replays query 0 on
  // the fat-tree under a mixed link/switch churn plan twice — once with
  // scratch full-recompute placement, once with incremental re-placement
  // plus the built-in scratch-equivalence oracle — and asserts the two runs
  // report byte-identically.  0 = axis off.
  std::size_t place_events = 0;
  uint32_t place_seed = 1;

  // Throws std::invalid_argument on a zero or overflowing window_ms.
  uint64_t window_ns() const { return window_ns_of_ms(window_ms); }

  std::string serialize() const;
  static Scenario parse(const std::string& text);
  static Scenario load(const std::string& path);
  void save(const std::string& path) const;
};

// An op schedule flattened for execution: no-op events dropped (installing
// an installed query, withdrawing/updating an absent one) and Update
// decomposed into Withdraw + Install of the modified definition, so every
// executor applies the exact same action sequence.
struct ResolvedOp {
  enum class Kind : uint8_t { Install, Withdraw };
  Kind kind = Kind::Install;
  std::size_t query = 0;
  uint64_t at_packet = 0;
  Query def;  // Install only: the definition current at apply time
};

std::vector<ResolvedOp> resolve_ops(const Scenario& s);

// Name of the scenario's query at index `i` ("q<i>"): every execution
// installs, withdraws and reads results under it.
std::string query_name(std::size_t i);

// A shard key that preserves exact sharded-runtime semantics for this query
// set: a single field selected by EVERY stateful (distinct/reduce)
// primitive, hashed under the AND of all key masks — a coarsening of every
// aggregation key, so all packets contributing to one key land on one shard
// (prefix-masked heavy-hitter chains shard on their widest prefix).
// Returns the 5-tuple key when no query is stateful, and nullopt when no
// common field exists (the scenario must then run with 1 shard).
std::optional<ShardKey> affine_shard_key(const std::vector<Query>& qs);

// Deterministic scenario generation and mutation (the fuzzer's input
// model).  Both return scenarios already normalized: shard counts clamped
// to the queries' common stateful key, wide-sketch sizing applied to the
// regimes that need collision-free sketches, op indices clamped to the
// trace length (docs/difftest.md, "Scenario regimes").
Scenario generate_scenario(uint64_t seed);
Scenario mutate_scenario(const Scenario& base, std::mt19937_64& rng);

}  // namespace newton::difftest
