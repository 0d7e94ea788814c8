#include "dataplane/pipeline.h"

#include <stdexcept>
#include <string>

#include "telemetry/telemetry.h"

namespace newton {

void Pipeline::publish_telemetry() {
  auto& reg = telemetry::Registry::global();
  const uint64_t delta = packets_seen_ - packets_published_;
  if (delta != 0) {
    reg.counter("newton_pipeline_packets_total",
                "Packets run through a pipeline (all replicas)")
        .add(delta);
    // Every packet traverses every stage (stages predicate internally), so
    // each per-stage series advances by the same delta.
    for (std::size_t i = 0; i < stages_.size(); ++i)
      reg.counter("newton_pipeline_stage_packets_total",
                  "Packets traversing a pipeline stage (all replicas)",
                  {{"stage", std::to_string(i)}})
          .add(delta);
    packets_published_ = packets_seen_;
  }
  for (Stage& s : stages_)
    for (const auto& t : s.tables()) t->publish_telemetry();
}

void Stage::add(std::shared_ptr<TableProgram> table) {
  if (!table) throw std::invalid_argument("Stage::add: null table");
  if (!used().fits_with(table->resources(), stage_capacity()))
    throw std::runtime_error("Stage::add: per-stage resources exceeded by " +
                             table->name());
  tables_.push_back(std::move(table));
}

ResourceVec Stage::used() const {
  ResourceVec r;
  for (const auto& t : tables_) r += t->resources();
  return r;
}

ResourceVec Pipeline::total_used() const {
  ResourceVec r;
  for (const Stage& s : stages_) r += s.used();
  return r;
}

Stage Stage::clone() const {
  Stage c;
  for (const auto& t : tables_) {
    c.tables_.push_back(t->clone());
    // The original keeps (and eventually publishes) its own counts; the
    // replica accounts only for packets it executes itself.
    c.tables_.back()->reset_telemetry();
  }
  return c;
}

Pipeline Pipeline::clone() const {
  Pipeline c(stages_.size());
  for (std::size_t i = 0; i < stages_.size(); ++i)
    c.stages_[i] = stages_[i].clone();
  return c;
}

std::size_t Pipeline::refresh_rules_from(const Pipeline& src) {
  if (src.stages_.size() != stages_.size())
    throw std::logic_error("Pipeline::refresh_rules_from: stage count differs");
  std::size_t refreshed = 0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const auto& mine = stages_[i].tables();
    const auto& theirs = src.stages_[i].tables();
    if (mine.size() != theirs.size())
      throw std::logic_error(
          "Pipeline::refresh_rules_from: table layout differs at stage " +
          std::to_string(i));
    for (std::size_t j = 0; j < mine.size(); ++j)
      refreshed += mine[j]->refresh_rules_from(*theirs[j]) ? 1 : 0;
  }
  return refreshed;
}

}  // namespace newton
