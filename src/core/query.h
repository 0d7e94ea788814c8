// Traffic-monitoring query API.
//
// Operators express intents as stream-processing queries over the packet
// stream, composed from the four primitives Newton supports on the data
// plane (§2.1/§4.1): filter, map, distinct, reduce — the same set Sonata
// uses — plus `when` (a filter over the aggregation result) and a terminal
// `report`.  A Query holds one or more *branches*: parallel sub-query
// chains over (possibly different) traffic whose results are joined on the
// software analyzer (e.g. Q6's SYN/SYN-ACK/ACK counters).  Branches are the
// unit of rule multiplexing: modules of different branches can share the
// same physical module with different table rules.
//
// Example (Q1, new TCP connections):
//
//   Query q = QueryBuilder("new_tcp")
//                 .filter(Predicate{}
//                             .where(Field::Proto, Cmp::Eq, kProtoTcp)
//                             .where(Field::TcpFlags, Cmp::Eq, kTcpSyn))
//                 .map({Field::DstIp})
//                 .reduce({Field::DstIp}, Agg::Sum)
//                 .when(Cmp::Ge, 40)
//                 .build();
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "packet/fields.h"
#include "packet/packet.h"

namespace newton {

enum class Cmp : uint8_t { Eq, Ne, Ge, Le, Gt, Lt };

bool cmp_eval(Cmp op, uint64_t lhs, uint64_t rhs);

// Conjunctive predicate over (masked) packet fields.
struct Predicate {
  struct Clause {
    Field field;
    Cmp op = Cmp::Eq;
    uint32_t value = 0;
    uint32_t mask = 0xffffffffu;  // applied to the field before comparing
  };
  std::vector<Clause> clauses;

  Predicate& where(Field f, Cmp op, uint32_t value,
                   uint32_t mask = 0xffffffffu) {
    clauses.push_back({f, op, value, mask});
    return *this;
  }

  bool eval(const Packet& p) const;

  // True if this predicate can be absorbed by the newton_init table (Opt.1):
  // equality tests over the 5-tuple and TCP flags only.
  bool init_expressible() const;
};

enum class Agg : uint8_t { Sum };

enum class PrimitiveKind : uint8_t { Filter, Map, Distinct, Reduce, When };

// Field selected into the operation keys, with an optional coarsening mask
// (e.g. /24 prefixes, discretized lengths).
struct KeySel {
  Field field;
  uint32_t mask = 0xffffffffu;

  KeySel(Field f) : field(f) {}  // NOLINT: implicit by design for key lists
  KeySel(Field f, uint32_t m) : field(f), mask(m) {}
  friend bool operator==(const KeySel&, const KeySel&) = default;
};

struct Primitive {
  PrimitiveKind kind;
  Predicate pred;              // Filter
  std::vector<KeySel> keys;    // Map / Distinct / Reduce keys
  Agg agg = Agg::Sum;          // Reduce
  uint32_t value_field_is_len = 0;  // Reduce: 0 => count(+1), 1 => +pkt_len
  Cmp when_op = Cmp::Ge;       // When
  uint32_t when_value = 0;     // When
  // When: 0 => exact-crossing (one report per key per window, fired the
  // instant the aggregate reaches the threshold); 1 => streaming (every
  // packet past the threshold reports, so the report stream carries the
  // running aggregate — value-exporting queries read the per-window maximum).
  uint32_t when_stream = 0;
};

// One sub-query chain.
struct BranchDef {
  std::string name;
  std::vector<Primitive> primitives;
};

struct Query {
  std::string name;
  std::vector<BranchDef> branches;
  // Stateful-primitive configuration (per paper §6: window = 100 ms, and
  // "reduce could leverage several module suites to implement a multi-array
  // CM" — depth is the number of suites per sketch).
  std::size_t sketch_depth = 2;
  std::size_t sketch_width = 4096;   // registers per row partition
  // Cross-switch register pooling (§5.1/§6.3): each logical sketch row is
  // split into this many guarded partitions of sketch_width registers, so a
  // query deployed with CQE can "utilize the memory of many switches".
  // Effective row width = sketch_width * row_partitions.
  std::size_t row_partitions = 1;
  uint64_t window_ns = 100'000'000;  // 100 ms epoch

  std::size_t num_primitives() const;
};

class QueryBuilder {
 public:
  explicit QueryBuilder(std::string name);

  QueryBuilder& filter(Predicate p);
  QueryBuilder& map(std::vector<KeySel> keys);
  QueryBuilder& distinct(std::vector<KeySel> keys);
  QueryBuilder& reduce(std::vector<KeySel> keys, Agg agg,
                       bool sum_pkt_len = false);
  QueryBuilder& when(Cmp op, uint32_t value);
  // Streaming `when`: gate like when(), but report every surviving packet
  // so the analyzer-side consumer sees the running aggregate (ValueSink).
  QueryBuilder& when_stream(Cmp op, uint32_t value);

  // Start a new parallel branch (results joined on the analyzer).
  QueryBuilder& branch(std::string name = "");

  QueryBuilder& sketch(std::size_t depth, std::size_t width);
  // Split each sketch row across `parts` state banks (CQE register pooling).
  QueryBuilder& partition_rows(std::size_t parts);
  // Throws std::invalid_argument on 0 or a length whose ns overflow.
  QueryBuilder& window_ms(uint64_t ms);

  Query build();

 private:
  BranchDef& cur();
  Query q_;
};

}  // namespace newton
