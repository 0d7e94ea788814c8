#include "compile/executor.h"

#include <algorithm>
#include <span>

#include "dataplane/pipeline.h"

namespace newton::compile {

// The hash phase reads packet fields for all lanes of a run straight out
// of the PHV array, striding lane-to-lane by whole PHVs.
static_assert(sizeof(Phv) % sizeof(uint32_t) == 0,
              "hash phase strides packet fields by whole PHVs");
inline constexpr std::size_t kPhvStrideWords = sizeof(Phv) / sizeof(uint32_t);

// Below this run length the executor skips the burst schedule: the plan
// walk would cost about as much as the run itself.
inline constexpr std::size_t kGenericPlanMinRun = 4;

namespace {

// Phase 2 worker: resolve one planned S op's register index for every lane
// from its feeding digest row (mapped through the feeding H's offset/width,
// then the S op's guard and base — exactly the scalar math of the apply
// path, so the precomputed index is the index), and prime the prefetch
// stream with the first kPrefetchDistance lanes.
void index_phase_op(const ChainOp& op, const uint32_t* dig, uint32_t offset,
                    uint32_t width, uint32_t* idx, std::size_t n,
                    ExecStats& stats) {
  RegisterArray& regs = *op.regs;
  const std::size_t size = regs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const uint32_t v = dig[i];
    const uint32_t h = offset + (width == 0 ? v : v % width);
    idx[i] = (h < op.guard_lo || h > op.guard_hi)
                 ? kMissIndex
                 : static_cast<uint32_t>(
                       (op.index_base + (h - op.guard_lo)) % size);
  }
  const std::size_t d = std::min(kPrefetchDistance, n);
  for (std::size_t i = 0; i < d; ++i) {
    if (idx[i] == kMissIndex) continue;
    regs.prefetch(idx[i]);
    ++stats.prefetch_issued;
  }
}

// What a qid without module rules lowers to: no ops, as the interpreter's
// tables find no rule for it.
const Chain kEmptyChain{};

bool stops(const ChainOp& op) {
  return op.on_match == RAction::Stop || op.on_match == RAction::ReportStop ||
         op.on_miss == RAction::Stop || op.on_miss == RAction::ReportStop;
}

// Unplanned ops, executed op-major directly on the PHVs.  Each case
// mirrors its module's execute() body exactly (core/modules.cpp), minus the
// table lookup — the rule parameters are already folded into the op.  The
// active-bit guard stays per packet: a Stop from an earlier R in the merged
// sequence must silence the rest of the chain, as it does when the
// interpreter's tables re-test the bit.

void generic_op(const ChainOp& op, Phv* phvs, std::size_t n) {
  uint64_t hits = 0;
  switch (op.kind) {
    case OpKind::K:
      for (std::size_t i = 0; i < n; ++i) {
        Phv& p = phvs[i];
        if (!p.active.test(op.qid)) continue;
        ++hits;
        MetadataSet& set = p.sets[op.set];
        for (std::size_t f = 0; f < kNumFields; ++f)
          set.keys[f] = p.pkt.fields[f] & op.masks[f];
      }
      break;
    case OpKind::HHash:
      for (std::size_t i = 0; i < n; ++i) {
        Phv& p = phvs[i];
        if (!p.active.test(op.qid)) continue;
        ++hits;
        MetadataSet& set = p.sets[op.set];
        const uint32_t v = hash_words(
            op.algo, op.seed,
            std::span<const uint32_t>(set.keys.data(), kNumFields));
        set.hash_result = op.offset + (op.width == 0 ? v : v % op.width);
      }
      break;
    case OpKind::HDirect:
      for (std::size_t i = 0; i < n; ++i) {
        Phv& p = phvs[i];
        if (!p.active.test(op.qid)) continue;
        ++hits;
        MetadataSet& set = p.sets[op.set];
        const uint32_t v = set.keys[op.direct_index];
        set.hash_result = op.offset + (op.width == 0 ? v : v % op.width);
      }
      break;
    case OpKind::SBypass:
      for (std::size_t i = 0; i < n; ++i) {
        Phv& p = phvs[i];
        if (!p.active.test(op.qid)) continue;
        ++hits;
        MetadataSet& set = p.sets[op.set];
        set.state_result = set.hash_result;
      }
      break;
    case OpKind::SOp: {
      RegisterArray& regs = *op.regs;
      const std::size_t size = regs.size();
      for (std::size_t i = 0; i < n; ++i) {
        Phv& p = phvs[i];
        if (!p.active.test(op.qid)) continue;
        ++hits;
        MetadataSet& set = p.sets[op.set];
        if (set.hash_result < op.guard_lo || set.hash_result > op.guard_hi) {
          set.state_result = kSMissValue;
          continue;
        }
        const uint32_t operand = op.operand_is_pkt_len
                                     ? p.pkt.get(Field::PktLen)
                                     : op.operand;
        const std::size_t idx =
            (op.index_base + (set.hash_result - op.guard_lo)) % size;
        set.state_result = regs.execute(op.sop, idx, operand);
      }
      break;
    }
    case OpKind::R:
      for (std::size_t i = 0; i < n; ++i) {
        Phv& p = phvs[i];
        if (!p.active.test(op.qid)) continue;
        ++hits;
        const MetadataSet& set = p.sets[op.set];
        const uint32_t s = set.state_result;
        switch (op.combine) {
          case RCombine::None: break;
          case RCombine::Set: p.global_result = s; break;
          case RCombine::Min:
            p.global_result = std::min(p.global_result, s);
            break;
          case RCombine::Max:
            p.global_result = std::max(p.global_result, s);
            break;
          case RCombine::Add: p.global_result += s; break;
          case RCombine::Sub: p.global_result -= s; break;
        }
        const uint32_t v = op.match_on_global ? p.global_result : s;
        const bool hit = v >= op.match_lo && v <= op.match_hi;
        const RAction a = hit ? op.on_match : op.on_miss;
        if (a == RAction::Continue) continue;
        if ((a == RAction::Report || a == RAction::ReportStop) &&
            op.sink != nullptr) {
          ReportRecord rec;
          rec.qid = op.qid;
          rec.switch_id = op.switch_id;
          rec.ts_ns = p.pkt.ts_ns;
          rec.oper_keys = set.keys;
          rec.hash_result = set.hash_result;
          rec.state_result = s;
          rec.global_result = p.global_result;
          op.sink->report(rec);
        }
        if (a == RAction::Stop || a == RAction::ReportStop)
          p.stop_query(op.qid);
      }
      break;
  }
  *op.hits += hits;
}

// Apply-phase bodies for planned ops.  Only ops BEFORE the first
// stop-capable R are ever planned (plan_generic), and within a run every
// lane starts with the identical active set, so the per-packet active guard
// is all-true here by construction — the loops run unconditionally and
// credit n hits, exactly what generic_op would do.

void planned_h(const ChainOp& op, const uint32_t* dig, Phv* phvs,
               std::size_t n) {
  *op.hits += n;
  for (std::size_t i = 0; i < n; ++i) {
    const uint32_t v = dig[i];
    phvs[i].sets[op.set].hash_result =
        op.offset + (op.width == 0 ? v : v % op.width);
  }
}

void planned_s(const ChainOp& op, const uint32_t* idx, Phv* phvs,
               std::size_t n, ExecStats& stats) {
  *op.hits += n;
  RegisterArray& regs = *op.regs;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n && idx[i + kPrefetchDistance] != kMissIndex) {
      regs.prefetch(idx[i + kPrefetchDistance]);
      ++stats.prefetch_issued;
    }
    MetadataSet& set = phvs[i].sets[op.set];
    if (idx[i] == kMissIndex) {
      set.state_result = kSMissValue;
      continue;
    }
    const uint32_t operand =
        op.operand_is_pkt_len ? phvs[i].pkt.get(Field::PktLen) : op.operand;
    set.state_result = regs.execute_unchecked(op.sop, idx[i], operand);
  }
}

}  // namespace

void CompiledPipeline::clear() {
  enabled_ = false;
  chains_.clear();
  by_qid_.fill(&kEmptyChain);
  merged_.clear();
}

void CompiledPipeline::build(Pipeline& pipe, std::size_t burst_capacity,
                             const ExecOptions& opts) {
  clear();
  if (!opts.enabled) return;
  chains_ = lower(pipe).chains;
  std::size_t total_ops = 0, total_h = 0, total_s = 0;
  for (const Chain& c : chains_) {
    for (const ChainOp& op : c.ops) {
      total_h += op.kind == OpKind::HHash ? 1 : 0;
      total_s += op.kind == OpKind::SOp ? 1 : 0;
    }
    by_qid_[c.qid] = &c;
    total_ops += c.ops.size();
  }
  merged_.resize(total_ops);
  ann_.assign(total_ops, -1);
  run_specs_.clear();
  run_specs_.reserve(total_h);
  run_sops_.clear();
  run_sops_.reserve(total_s);
  capacity_ = burst_capacity == 0 ? 1 : burst_capacity;
  digest_.resize(total_h * capacity_);
  sidx_.resize(total_s * capacity_);
  enabled_ = true;
}

// Per-run plan over the merged op sequence.  The effective key masks seen
// by an H op depend on the MERGED op order — another chain's K can rewrite
// a metadata set between this chain's K and H — so the plan walks the
// merged sequence.  Planning is sound only while the run's lanes are
// lockstep: every lane starts with the identical active set, so until the
// first stop-capable R executes, every op runs on every lane and the
// tracked masks/feeds are exact.  Ops at or after that R stay unplanned
// and run through the per-packet-guarded generic_op.
void CompiledPipeline::plan_generic(std::size_t m, Phv* phvs, std::size_t n) {
  run_specs_.clear();
  run_sops_.clear();
  std::fill_n(ann_.begin(), m, -1);

  // The dataplane zeroes staged keys per packet before any K runs, so "no
  // K yet" behaves exactly like an all-zero mask.
  static constexpr std::array<uint32_t, kNumFields> kZeroMasks{};
  const std::array<uint32_t, kNumFields>* masks[kNumMetadataSets];
  for (std::size_t s = 0; s < kNumMetadataSets; ++s) masks[s] = &kZeroMasks;
  // Per-set hash_result provenance: digest row + (offset, width) mapping of
  // the most recent HHash, or -1 when hash_result is not digest-derived (no
  // H yet, or an HDirect overwrote it).
  struct Feed {
    int32_t slot = -1;
    uint32_t offset = 0;
    uint32_t width = 1;
  };
  Feed feed[kNumMetadataSets]{};

  for (std::size_t j = 0; j < m; ++j) {
    const ChainOp& op = *merged_[j];
    if (op.kind == OpKind::K) {
      masks[op.set] = &op.masks;
    } else if (op.kind == OpKind::HHash) {
      const auto slot = static_cast<int32_t>(run_specs_.size());
      run_specs_.push_back({op.algo, op.seed, *masks[op.set]});
      ann_[j] = slot;
      feed[op.set] = {slot, op.offset, op.width};
    } else if (op.kind == OpKind::HDirect) {
      feed[op.set] = {};
    } else if (op.kind == OpKind::SOp) {
      if (feed[op.set].slot >= 0 && op.regs != nullptr &&
          op.regs->size() < kMissIndex) {
        ann_[j] = static_cast<int32_t>(run_sops_.size());
        run_sops_.push_back({&op, feed[op.set].slot, feed[op.set].offset,
                             feed[op.set].width});
      }
    } else if (op.kind == OpKind::R && stops(op)) {
      break;
    }
  }

  if (run_specs_.empty()) return;
  const uint32_t* base = phvs[0].pkt.fields.data();
  for (std::size_t d = 0; d < run_specs_.size(); ++d) {
    const DigestSpec& spec = run_specs_[d];
    hash_words_lanes(spec.algo, spec.seed, base, kNumFields, kPhvStrideWords,
                     n, spec.masks.data(), digest_row(d));
  }
  stats_.hash_lanes += run_specs_.size() * n;
  for (std::size_t b = 0; b < run_sops_.size(); ++b) {
    const PlannedS& ps = run_sops_[b];
    index_phase_op(*ps.op, digest_row(static_cast<std::size_t>(ps.slot)),
                   ps.offset, ps.width, sidx_row(b), n, stats_);
  }
}

void CompiledPipeline::execute_run(Phv* phvs, std::size_t n) {
  if (n == 0) return;
  // k-way merge of the active chains into interpreter visit order:
  // ascending (stage, slot), ties broken by activation-list position —
  // exactly the order the per-table active-list loops produce.  The
  // cursor arrays live on the stack and merged_ was sized at build, so
  // nothing allocates.
  const auto& list = phvs[0].active_list;
  const std::size_t k = list.size();
  const ChainOp* cur[kMaxQueries];
  const ChainOp* end[kMaxQueries];
  for (std::size_t q = 0; q < k; ++q) {
    const Chain* c = by_qid_[list[q]];
    cur[q] = c->ops.data();
    end[q] = c->ops.data() + c->ops.size();
  }
  std::size_t m = 0;
  while (true) {
    uint32_t best = UINT32_MAX;
    for (std::size_t q = 0; q < k; ++q)
      if (cur[q] != end[q] && cur[q]->order < best) best = cur[q]->order;
    if (best == UINT32_MAX) break;
    for (std::size_t q = 0; q < k; ++q)
      if (cur[q] != end[q] && cur[q]->order == best) merged_[m++] = cur[q]++;
  }
  if (n < kGenericPlanMinRun) {
    for (std::size_t j = 0; j < m; ++j) generic_op(*merged_[j], phvs, n);
    return;
  }
  plan_generic(m, phvs, n);
  for (std::size_t j = 0; j < m; ++j) {
    const ChainOp& op = *merged_[j];
    const int32_t row = ann_[j];
    if (row < 0)
      generic_op(op, phvs, n);
    else if (op.kind == OpKind::HHash)
      planned_h(op, digest_row(static_cast<std::size_t>(row)), phvs, n);
    else
      planned_s(op, sidx_row(static_cast<std::size_t>(row)), phvs, n, stats_);
  }
}

}  // namespace newton::compile
