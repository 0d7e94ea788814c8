#include "baselines/export_model.h"

#include "baselines/starflow.h"
#include "baselines/turboflow.h"
#include "packet/epoch_clock.h"
#include "sketch/hash.h"

namespace newton {

double overhead_over_trace(ExportModel& m, const Trace& t,
                           uint64_t epoch_ns) {
  if (t.packets.empty()) return 0.0;
  const EpochClock clock(epoch_ns);
  uint64_t cur_epoch = clock.epoch_of(t.packets.front().ts_ns);
  for (const Packet& p : t.packets) {
    // Every elapsed epoch exports, empty ones too; a late packet counts
    // toward the open epoch.
    for (; cur_epoch < clock.epoch_of(p.ts_ns); ++cur_epoch) m.on_epoch_end();
    m.on_packet(p);
  }
  m.on_epoch_end();
  return static_cast<double>(m.messages()) /
         static_cast<double>(t.packets.size());
}

void TurboFlowModel::on_packet(const Packet& p) {
  const FiveTuple ft = FiveTuple::of(p);
  const std::size_t idx = FiveTupleHash{}(ft) % slots_.size();
  auto& slot = slots_[idx];
  if (!slot) {
    slot = ft;
  } else if (!(*slot == ft)) {
    ++messages_;  // evict the resident microflow record
    slot = ft;
  }
}

void TurboFlowModel::on_epoch_end() {
  for (auto& slot : slots_) {
    if (slot) {
      ++messages_;
      slot.reset();
    }
  }
}

void StarFlowModel::on_packet(const Packet& p) {
  const FiveTuple ft = FiveTuple::of(p);
  const std::size_t idx = FiveTupleHash{}(ft) % slots_.size();
  auto& slot = slots_[idx];
  if (!slot) {
    slot = Gpv{ft, 1};
    return;
  }
  if (slot->key == ft) {
    if (++slot->pkts >= gpv_capacity_) {
      ++messages_;  // GPV full: export
      slot.reset();
    }
  } else {
    ++messages_;  // collision: evict the resident GPV
    slot = Gpv{ft, 1};
  }
}

void StarFlowModel::on_epoch_end() {
  for (auto& slot : slots_) {
    if (slot) {
      ++messages_;
      slot.reset();
    }
  }
}

}  // namespace newton
