#include "core/newton_switch.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace newton {

NewtonSwitch::NewtonSwitch(uint32_t id, std::size_t num_stages,
                           ReportSink* sink, std::size_t bank_registers,
                           uint32_t latency_seed)
    : id_(id),
      pipeline_(num_stages),
      latency_(latency_seed),
      qid_used_(kMaxQueries, false) {
  inst_ = build_compact_layout(pipeline_, sink, id, bank_registers);
  init_ = std::make_shared<InitModule>();
  bank_alloc_.reserve(num_stages);
  for (std::size_t i = 0; i < num_stages; ++i)
    bank_alloc_.emplace_back(bank_registers);
}

uint16_t NewtonSwitch::alloc_qid() {
  for (std::size_t i = 0; i < qid_used_.size(); ++i) {
    if (!qid_used_[i]) {
      qid_used_[i] = true;
      return static_cast<uint16_t>(i);
    }
  }
  throw std::runtime_error("NewtonSwitch: out of query ids");
}

void NewtonSwitch::free_qid(uint16_t q) { qid_used_.at(q) = false; }

void NewtonSwitch::set_sink(ReportSink* sink) {
  for (RModule* r : inst_.r)
    if (r) r->set_sink(sink);
}

NewtonSwitch::InstallResult NewtonSwitch::install(const CompiledQuery& cq,
                                                  bool resolve_offsets) {
  return install_impl(cq, resolve_offsets, /*with_init=*/true, std::nullopt);
}

NewtonSwitch::InstallResult NewtonSwitch::install_slice(
    const QuerySlice& slice, uint16_t query_uid, bool resolve_offsets) {
  SliceRt rt;
  rt.query_uid = query_uid;
  rt.index = slice.index;
  rt.final_slice = slice.final_slice;
  rt.in_hash_set = slice.in_hash_set;
  rt.in_state_set = slice.in_state_set;
  rt.out_hash_set = slice.out_hash_set;
  rt.out_state_set = slice.out_state_set;
  return install_impl(slice.part, resolve_offsets,
                      /*with_init=*/slice.index == 0, rt);
}

NewtonSwitch::InstallResult NewtonSwitch::install_impl(
    const CompiledQuery& cq, bool resolve_offsets, bool with_init,
    std::optional<SliceRt> slice_meta) {
  if (cq.num_modules() == 0)
    throw std::invalid_argument("install: empty compiled query");
  if (cq.max_stage() >= pipeline_.num_stages())
    throw std::runtime_error(
        "install: query needs stage " + std::to_string(cq.max_stage()) +
        " but switch has " + std::to_string(pipeline_.num_stages()) +
        " (use CQE slicing)");

  // Work on a copy so offset resolution does not mutate the caller's query.
  CompiledQuery q = cq;
  InstallRecord rec;
  std::vector<std::pair<std::size_t, std::size_t>> new_allocs;

  auto rollback = [&]() {
    for (auto& [stage, off] : new_allocs) bank_alloc_[stage].free(off);
    for (uint16_t qid : rec.qids) free_qid(qid);
  };

  try {
    // 1. qids.
    for (std::size_t bi = 0; bi < q.branches.size(); ++bi)
      rec.qids.push_back(alloc_qid());

    // 2. Register ranges for stateful S modules.  Each S rule carries its
    // partition width from decomposition; the allocated base becomes the
    // rule's local index_base.
    for (std::size_t bi = 0; bi < q.branches.size(); ++bi) {
      for (ModuleSpec& m : q.branches[bi].modules) {
        if (m.type != ModuleType::S || m.s.bypass || m.alloc_width == 0)
          continue;
        if (resolve_offsets) {
          auto off = bank_alloc_[m.stage].allocate(m.alloc_width);
          if (!off)
            throw std::runtime_error("install: state bank exhausted at stage " +
                                     std::to_string(m.stage));
          m.alloc_offset = static_cast<uint32_t>(*off);
          new_allocs.push_back({static_cast<std::size_t>(m.stage), *off});
        } else {
          if (!bank_alloc_[m.stage].reserve(m.alloc_offset, m.alloc_width))
            throw std::runtime_error(
                "install: pre-resolved register range unavailable");
          new_allocs.push_back(
              {static_cast<std::size_t>(m.stage), m.alloc_offset});
        }
        m.s.index_base = m.alloc_offset;
        rec.segments.push_back({static_cast<std::size_t>(m.stage),
                                m.alloc_offset, m.alloc_width, m.s.op,
                                rec.qids[bi]});
        // Sweep the range clean: it may hold a removed query's state.
        inst_.s[m.stage]->registers().clear_range(m.alloc_offset,
                                                  m.alloc_width);
      }
    }

    // 3. Module rules.  Placeholder specs (rule_needed == false) model
    // unconfigured modules a naive composition still lays out: they occupy
    // a stage slot in the metrics but carry NO table rule.
    for (std::size_t bi = 0; bi < q.branches.size(); ++bi) {
      const uint16_t qid = rec.qids[bi];
      for (const ModuleSpec& m : q.branches[bi].modules) {
        if (!m.rule_needed) continue;
        const auto st = static_cast<std::size_t>(m.stage);
        switch (m.type) {
          case ModuleType::K: inst_.k[st]->table().insert(qid, m.k); break;
          case ModuleType::H: inst_.h[st]->table().insert(qid, m.h); break;
          case ModuleType::S: inst_.s[st]->table().insert(qid, m.s); break;
          case ModuleType::R: inst_.r[st]->table().insert(qid, m.r); break;
        }
        rec.rule_slots.push_back({m.stage, m.type});
        rec.rule_qids.push_back(qid);
      }
      if (with_init) {
        const InitEntrySpec& e = q.branches[bi].init;
        std::vector<MatchWord> key = e.key;
        // CQE first slices start an execution exactly once per path: only
        // where the packet enters the network.  Whole-query installs run
        // wherever deployed (sole model / single switch).
        key.push_back(slice_meta ? MatchWord::exact(1)
                                 : MatchWord::wildcard());
        rec.init_handles.push_back(
            init_->table().insert(std::move(key), e.priority, {{qid}}));
      }
    }
  } catch (...) {
    // Best-effort rollback of partially installed rules.
    for (std::size_t i = 0; i < rec.rule_slots.size(); ++i) {
      const auto [stage, type] = rec.rule_slots[i];
      const auto st = static_cast<std::size_t>(stage);
      const uint16_t qid = rec.rule_qids[i];
      switch (type) {
        case ModuleType::K: inst_.k[st]->table().remove(qid); break;
        case ModuleType::H: inst_.h[st]->table().remove(qid); break;
        case ModuleType::S: inst_.s[st]->table().remove(qid); break;
        case ModuleType::R: inst_.r[st]->table().remove(qid); break;
      }
    }
    for (uint64_t h : rec.init_handles) init_->table().remove(h);
    rollback();
    throw;
  }

  rec.allocs = new_allocs;
  const uint64_t handle = next_handle_++;
  if (slice_meta) {
    slice_meta->qids = rec.qids;
    slices_[handle] = *slice_meta;
    rec.slice_rt_key = handle;
  }

  InstallResult res;
  res.handle = handle;
  res.rule_ops = rec.rule_slots.size() + rec.init_handles.size();
  res.latency_ms = latency_.batch_ms(res.rule_ops);
  res.qids = rec.qids;
  next_free_stage_ = std::max(next_free_stage_, cq.max_stage() + 1);
  installs_[handle] = std::move(rec);
  return res;
}

double NewtonSwitch::remove(uint64_t handle) {
  auto it = installs_.find(handle);
  if (it == installs_.end())
    throw std::invalid_argument("remove: unknown handle");
  InstallRecord& rec = it->second;
  for (std::size_t i = 0; i < rec.rule_slots.size(); ++i) {
    const auto [stage, type] = rec.rule_slots[i];
    const auto st = static_cast<std::size_t>(stage);
    const uint16_t qid = rec.rule_qids[i];
    switch (type) {
      case ModuleType::K: inst_.k[st]->table().remove(qid); break;
      case ModuleType::H: inst_.h[st]->table().remove(qid); break;
      case ModuleType::S: inst_.s[st]->table().remove(qid); break;
      case ModuleType::R: inst_.r[st]->table().remove(qid); break;
    }
  }
  for (uint64_t h : rec.init_handles) init_->table().remove(h);
  for (auto& [stage, off] : rec.allocs) bank_alloc_[stage].free(off);
  for (uint16_t q : rec.qids) free_qid(q);
  const std::size_t ops = rec.rule_slots.size() + rec.init_handles.size();
  if (rec.slice_rt_key) slices_.erase(*rec.slice_rt_key);
  installs_.erase(it);
  return latency_.batch_ms(ops);
}

void NewtonSwitch::maybe_roll_epoch(uint64_t ts) {
  if (clock_.closes(ts)) {
    reset_state();
    flush_telemetry();
    clock_.advance(ts);
  }
}

void NewtonSwitch::flush_telemetry() {
  pipeline_.publish_telemetry();
  if (init_) init_->publish_telemetry();
}

void NewtonSwitch::reset_state() {
  for (SModule* s : inst_.s)
    if (s) s->registers().reset();
}

NewtonSwitch::Output NewtonSwitch::process(const Packet& pkt,
                                           std::optional<SpHeader> sp_in,
                                           bool at_ingress_edge) {
  maybe_roll_epoch(pkt.ts_ns);
  ++packets_forwarded_;

  Output out;
  Phv& phv = out.phv;
  phv.pkt = pkt;
  phv.sp_in = sp_in;
  phv.at_ingress_edge = at_ingress_edge;

  // CQE ingress: resume the execution context carried by the SP header.
  const SliceRt* resumed = nullptr;
  if (sp_in) {
    for (auto& [h, rt] : slices_) {
      if (rt.query_uid == sp_in->qid && rt.index == sp_in->next_slice) {
        resumed = &rt;
        out.sp_consumed = true;
        phv.global_result = sp_in->global_result;
        if (rt.in_hash_set)
          phv.set(static_cast<std::size_t>(*rt.in_hash_set)).hash_result =
              sp_in->hash_result;
        if (rt.in_state_set)
          phv.set(static_cast<std::size_t>(*rt.in_state_set)).state_result =
              sp_in->state_result;
        for (uint16_t q : rt.qids) phv.activate_query(q);
        break;
      }
    }
  }

  init_->execute(phv);
  pipeline_.process(phv);

  // CQE egress: snapshot results toward the next hop for every non-final
  // slice that ran with its query still live.  A resumed pass continues
  // exactly one execution; a fresh ingress pass may start one execution per
  // sliced query the packet activated — each gets its own SP header (the
  // first lands in sp_out for single-query callers, the rest ride
  // extra_sp_outs).
  std::vector<const SliceRt*> runnings;
  if (resumed) {
    runnings.push_back(resumed);
  } else if (!slices_.empty() && !phv.active_list.empty()) {
    for (auto& [h, rt] : slices_) {
      if (rt.index != 0) continue;
      bool activated = false;
      for (uint16_t q : rt.qids)
        activated |= std::find(phv.active_list.begin(), phv.active_list.end(),
                               q) != phv.active_list.end();
      if (activated) runnings.push_back(&rt);
    }
  }
  for (const SliceRt* running : runnings) {
    if (running->final_slice) continue;
    bool still_active = false;
    for (uint16_t q : running->qids) still_active |= phv.active.test(q);
    if (!still_active) continue;
    SpHeader sp;
    sp.qid = static_cast<uint8_t>(running->query_uid);
    sp.next_slice = static_cast<uint8_t>(running->index + 1);
    sp.global_result = phv.global_result;
    if (running->out_hash_set)
      sp.hash_result = static_cast<uint16_t>(
          phv.set(static_cast<std::size_t>(*running->out_hash_set))
              .hash_result);
    if (running->out_state_set)
      sp.state_result =
          phv.set(static_cast<std::size_t>(*running->out_state_set))
              .state_result;
    if (!out.sp_out)
      out.sp_out = sp;
    else
      out.extra_sp_outs.push_back(sp);
  }
  return out;
}

std::vector<NewtonSwitch::StateSegment> NewtonSwitch::state_segments() const {
  std::vector<StateSegment> out;
  for (const auto& [h, rec] : installs_)
    out.insert(out.end(), rec.segments.begin(), rec.segments.end());
  return out;
}

std::size_t NewtonSwitch::installed_rule_count() const {
  std::size_t n = init_->table().size();
  for (std::size_t i = 0; i < pipeline_.num_stages(); ++i)
    n += inst_.k[i]->table().size() + inst_.h[i]->table().size() +
         inst_.s[i]->table().size() + inst_.r[i]->table().size();
  return n;
}

std::size_t NewtonSwitch::slots_used() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < pipeline_.num_stages(); ++i) {
    n += inst_.k[i]->table().size() > 0;
    n += inst_.h[i]->table().size() > 0;
    n += inst_.s[i]->table().size() > 0;
    n += inst_.r[i]->table().size() > 0;
  }
  return n;
}

std::size_t NewtonSwitch::stages_used() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < pipeline_.num_stages(); ++i) {
    n += inst_.k[i]->table().size() > 0 || inst_.h[i]->table().size() > 0 ||
         inst_.s[i]->table().size() > 0 || inst_.r[i]->table().size() > 0;
  }
  return n;
}

}  // namespace newton
