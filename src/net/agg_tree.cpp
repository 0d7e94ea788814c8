#include "net/agg_tree.h"

#include <algorithm>

#include "telemetry/telemetry.h"

namespace newton {

namespace {

struct AggCounters {
  telemetry::Counter& reports_in;
  telemetry::Counter& link_records;
  telemetry::Counter& merged_away;
  telemetry::Counter& root_records;

  static AggCounters& get() {
    auto& reg = telemetry::Registry::global();
    static AggCounters c{
        reg.counter("newton_agg_reports_in_total",
                    "Reports entering the aggregation tree at the leaves"),
        reg.counter("newton_agg_link_records_total",
                    "Records crossing an aggregation-tree edge"),
        reg.counter("newton_agg_merged_total",
                    "Records absorbed by a per-edge partial merge"),
        reg.counter("newton_agg_root_records_total",
                    "Records the aggregation root forwarded downstream")};
    return c;
  }
};

}  // namespace

MergeOp merge_op_for_slices(const std::vector<QuerySlice>& slices) {
  bool any = false, all_add = true, all_or = true;
  for (const QuerySlice& sl : slices)
    for (const auto& b : sl.part.branches)
      for (const ModuleSpec& m : b.modules) {
        if (m.type != ModuleType::S || m.s.bypass) continue;
        any = true;
        all_add &= m.s.op == SaluOp::Add;
        all_or &= m.s.op == SaluOp::Or;
      }
  if (any && all_add) return MergeOp::Add;
  if (any && all_or) return MergeOp::Or;
  return MergeOp::Max;
}

AggregationTree::AggregationTree(const Topology& t, ReportSink* downstream,
                                 Options opt)
    : opt_(opt), clock_(opt.window_ns), downstream_(downstream) {
  if (opt_.fanin < 2) opt_.fanin = 2;
  // Leaves in switch-id order, then level by level: each run of `fanin`
  // same-level nodes shares one parent until a single root remains.
  std::vector<int> sw = t.switches();
  std::sort(sw.begin(), sw.end());
  for (int s : sw) {
    leaf_of_[static_cast<uint32_t>(s)] = nodes_.size();
    nodes_.emplace_back();
  }
  if (nodes_.empty()) nodes_.emplace_back();  // degenerate: root only
  level_start_.push_back(0);
  std::size_t begin = 0, count = nodes_.size();
  while (count > 1) {
    level_start_.push_back(nodes_.size());
    const std::size_t parents = (count + opt_.fanin - 1) / opt_.fanin;
    for (std::size_t p = 0; p < parents; ++p) nodes_.emplace_back();
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t parent = level_start_.back() + i / opt_.fanin;
      nodes_[begin + i].parent = static_cast<int>(parent);
      ++nodes_[parent].children;
    }
    begin = level_start_.back();
    count = parents;
  }
  stats_.depth = level_start_.size();
  stats_.nodes = nodes_.size();
  for (const Node& n : nodes_)
    stats_.max_fanin = std::max(stats_.max_fanin, n.children);
}

void AggregationTree::set_merge_op(const std::string& query, MergeOp op) {
  merge_ops_[query] = op;
}

MergeOp AggregationTree::op_for(const MergeKey& k) const {
  const auto it = merge_ops_.find(k.query);
  return it == merge_ops_.end() ? MergeOp::Max : it->second;
}

void AggregationTree::report(const ReportRecord& r) {
  ++stats_.reports_in;
  AggCounters::get().reports_in.add();
  // Unknown reporters (e.g. software sources) enter at the root.
  const auto leaf = leaf_of_.find(r.switch_id);
  Node& node =
      leaf == leaf_of_.end() ? nodes_.back() : nodes_[leaf->second];
  if (r.deferred) {
    node.passthrough.push_back(r);
    return;
  }
  MergeKey k;
  if (const auto* owner =
          opt_.attribution
              ? opt_.attribution->owner_of(r.switch_id, r.qid)
              : nullptr) {
    k.query = owner->first;
    k.branch = owner->second;
  } else {
    k.branch = (static_cast<uint64_t>(r.switch_id) << 16) | r.qid;
  }
  k.window = clock_.epoch_of(r.ts_ns);
  k.next_slice = r.next_slice;
  k.keys = r.oper_keys;
  const auto [it, fresh] = node.merged.emplace(k, r);
  if (fresh) return;
  ++stats_.merged_away;
  AggCounters::get().merged_away.add();
  ReportRecord& dst = it->second;
  switch (op_for(k)) {
    case MergeOp::Add: dst.global_result += r.global_result; break;
    case MergeOp::Or: dst.global_result |= r.global_result; break;
    case MergeOp::Max:
      dst.global_result = std::max(dst.global_result, r.global_result);
      break;
  }
  dst.ts_ns = std::max(dst.ts_ns, r.ts_ns);
  if (r.switch_id < dst.switch_id) {
    dst.switch_id = r.switch_id;
    dst.qid = r.qid;
    dst.hash_result = r.hash_result;
    dst.state_result = r.state_result;
  }
}

void AggregationTree::absorb(Node& parent, Node& child) {
  for (auto& [k, r] : child.merged) {
    ++stats_.link_records;
    AggCounters::get().link_records.add();
    const auto [it, fresh] = parent.merged.emplace(k, r);
    if (fresh) continue;
    ++stats_.merged_away;
    AggCounters::get().merged_away.add();
    ReportRecord& dst = it->second;
    switch (op_for(k)) {
      case MergeOp::Add: dst.global_result += r.global_result; break;
      case MergeOp::Or: dst.global_result |= r.global_result; break;
      case MergeOp::Max:
        dst.global_result = std::max(dst.global_result, r.global_result);
        break;
    }
    dst.ts_ns = std::max(dst.ts_ns, r.ts_ns);
    if (r.switch_id < dst.switch_id) {
      dst.switch_id = r.switch_id;
      dst.qid = r.qid;
      dst.hash_result = r.hash_result;
      dst.state_result = r.state_result;
    }
  }
  child.merged.clear();
  for (ReportRecord& r : child.passthrough) {
    ++stats_.link_records;
    AggCounters::get().link_records.add();
    parent.passthrough.push_back(r);
  }
  child.passthrough.clear();
}

void AggregationTree::flush() {
  // Leaf-to-root propagation in node order (children always precede their
  // parent by construction), then the root emits.
  for (std::size_t i = 0; i + 1 < nodes_.size(); ++i)
    if (nodes_[i].parent >= 0)
      absorb(nodes_[static_cast<std::size_t>(nodes_[i].parent)], nodes_[i]);
  Node& root = nodes_.back();
  for (const auto& [k, r] : root.merged) {
    ++stats_.root_records;
    AggCounters::get().root_records.add();
    if (downstream_) downstream_->report(r);
  }
  root.merged.clear();
  for (const ReportRecord& r : root.passthrough) {
    ++stats_.root_records;
    ++stats_.passthrough;
    AggCounters::get().root_records.add();
    if (downstream_) downstream_->report(r);
  }
  root.passthrough.clear();
}

}  // namespace newton
