#include "core/query.h"

#include <stdexcept>

#include "packet/epoch_clock.h"

namespace newton {

bool cmp_eval(Cmp op, uint64_t lhs, uint64_t rhs) {
  switch (op) {
    case Cmp::Eq: return lhs == rhs;
    case Cmp::Ne: return lhs != rhs;
    case Cmp::Ge: return lhs >= rhs;
    case Cmp::Le: return lhs <= rhs;
    case Cmp::Gt: return lhs > rhs;
    case Cmp::Lt: return lhs < rhs;
  }
  return false;
}

bool Predicate::eval(const Packet& p) const {
  for (const Clause& c : clauses)
    if (!cmp_eval(c.op, p.get(c.field) & c.mask, c.value & c.mask))
      return false;
  return true;
}

bool Predicate::init_expressible() const {
  for (const Clause& c : clauses) {
    if (c.op != Cmp::Eq) return false;
    switch (c.field) {
      case Field::SrcIp:
      case Field::DstIp:
      case Field::SrcPort:
      case Field::DstPort:
      case Field::Proto:
      case Field::TcpFlags:
        break;
      default:
        return false;
    }
  }
  return true;
}

std::size_t Query::num_primitives() const {
  std::size_t n = 0;
  for (const BranchDef& b : branches) n += b.primitives.size();
  return n;
}

QueryBuilder::QueryBuilder(std::string name) {
  q_.name = std::move(name);
  q_.branches.push_back({q_.name + "/b0", {}});
}

BranchDef& QueryBuilder::cur() { return q_.branches.back(); }

QueryBuilder& QueryBuilder::filter(Predicate p) {
  Primitive prim;
  prim.kind = PrimitiveKind::Filter;
  prim.pred = std::move(p);
  cur().primitives.push_back(std::move(prim));
  return *this;
}

QueryBuilder& QueryBuilder::map(std::vector<KeySel> keys) {
  Primitive prim;
  prim.kind = PrimitiveKind::Map;
  prim.keys = std::move(keys);
  cur().primitives.push_back(std::move(prim));
  return *this;
}

QueryBuilder& QueryBuilder::distinct(std::vector<KeySel> keys) {
  Primitive prim;
  prim.kind = PrimitiveKind::Distinct;
  prim.keys = std::move(keys);
  cur().primitives.push_back(std::move(prim));
  return *this;
}

QueryBuilder& QueryBuilder::reduce(std::vector<KeySel> keys, Agg agg,
                                   bool sum_pkt_len) {
  Primitive prim;
  prim.kind = PrimitiveKind::Reduce;
  prim.keys = std::move(keys);
  prim.agg = agg;
  prim.value_field_is_len = sum_pkt_len ? 1 : 0;
  cur().primitives.push_back(std::move(prim));
  return *this;
}

QueryBuilder& QueryBuilder::when(Cmp op, uint32_t value) {
  Primitive prim;
  prim.kind = PrimitiveKind::When;
  prim.when_op = op;
  prim.when_value = value;
  cur().primitives.push_back(std::move(prim));
  return *this;
}

QueryBuilder& QueryBuilder::when_stream(Cmp op, uint32_t value) {
  when(op, value);
  cur().primitives.back().when_stream = 1;
  return *this;
}

QueryBuilder& QueryBuilder::branch(std::string name) {
  if (!cur().primitives.empty() || q_.branches.size() > 1 ||
      !q_.branches.front().primitives.empty()) {
    q_.branches.push_back(
        {name.empty()
             ? q_.name + "/b" + std::to_string(q_.branches.size())
             : std::move(name),
         {}});
  } else if (!name.empty()) {
    cur().name = std::move(name);
  }
  return *this;
}

QueryBuilder& QueryBuilder::sketch(std::size_t depth, std::size_t width) {
  if (depth == 0 || width == 0)
    throw std::invalid_argument("QueryBuilder::sketch: depth/width > 0");
  q_.sketch_depth = depth;
  q_.sketch_width = width;
  return *this;
}

QueryBuilder& QueryBuilder::partition_rows(std::size_t parts) {
  if (parts == 0)
    throw std::invalid_argument("QueryBuilder::partition_rows: parts > 0");
  q_.row_partitions = parts;
  return *this;
}

QueryBuilder& QueryBuilder::window_ms(uint64_t ms) {
  q_.window_ns = window_ns_of_ms(ms);
  return *this;
}

Query QueryBuilder::build() {
  for (const BranchDef& b : q_.branches)
    if (b.primitives.empty())
      throw std::invalid_argument("QueryBuilder: empty branch " + b.name);
  return q_;
}

}  // namespace newton
