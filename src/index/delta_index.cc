#include "index/delta_index.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace modb {

IndexLayersView IndexLayersView::Single(const RTree3D* tree) {
  IndexLayersView v;
  v.base = tree;
  if (tree != nullptr) v.bounds = tree->Bounds();
  return v;
}

IndexLayersView IndexLayersView::Over(const RTree3D* base, const RTree3D* delta,
                                      const RTree3D::Entry* mem,
                                      std::size_t mem_count) {
  IndexLayersView v;
  v.base = base;
  v.delta = delta;
  v.mem = mem;
  v.mem_count = mem_count;
  if (base != nullptr && base->NumEntries() > 0) v.bounds.Extend(base->Bounds());
  if (delta != nullptr && delta->NumEntries() > 0) {
    v.bounds.Extend(delta->Bounds());
  }
  for (std::size_t i = 0; i < mem_count; ++i) v.bounds.Extend(mem[i].cube);
  return v;
}

void IndexSnapshot::SetMemRow(std::int64_t id,
                              const std::vector<RTree3D::Entry>& entries) {
  const std::size_t row = std::size_t(id);
  if (row >= mem_slots_.size()) mem_slots_.resize(row + 1);
  std::vector<std::size_t>& slots = mem_slots_[row];
  const std::size_t keep = std::min(slots.size(), entries.size());
  for (std::size_t i = 0; i < keep; ++i) mem_[slots[i]] = entries[i];
  for (std::size_t i = keep; i < entries.size(); ++i) {
    slots.push_back(mem_.size());
    mem_.push_back(entries[i]);
  }
  // Surplus entries leave by swap-with-last, so mem_ stays dense; the
  // moved entry's owner learns its new slot.
  while (slots.size() > entries.size()) {
    const std::size_t hole = slots.back();
    slots.pop_back();
    const std::size_t last = mem_.size() - 1;
    if (hole != last) {
      mem_[hole] = mem_[last];
      std::vector<std::size_t>& owner = mem_slots_[std::size_t(mem_[hole].id)];
      *std::find(owner.begin(), owner.end(), last) = hole;
    }
    mem_.pop_back();
  }
}

void IndexSnapshot::AppendToDelta(const std::vector<RTree3D::Entry>& sealed,
                                  int fanout) {
  if (sealed.empty()) return;
  delta_entries_.insert(delta_entries_.end(), sealed.begin(), sealed.end());
  delta_ = RTree3D::BulkLoad(delta_entries_, fanout);
  ++generation_;
  MODB_COUNTER_ADD("index.delta.sealed_entries", sealed.size());
  MODB_COUNTER_INC("index.delta.rebuilds");
}

std::optional<MergePlan> IndexSnapshot::PrepareMerge() const {
  if (delta_entries_.empty()) return std::nullopt;
  MergePlan plan;
  plan.entries.reserve(base_entries_.size() + delta_entries_.size());
  plan.entries.insert(plan.entries.end(), base_entries_.begin(),
                      base_entries_.end());
  plan.entries.insert(plan.entries.end(), delta_entries_.begin(),
                      delta_entries_.end());
  plan.generation = generation_;
  return plan;
}

bool IndexSnapshot::ApplyMerge(const MergePlan& plan, RTree3D merged) {
  if (plan.generation != generation_) {
    MODB_COUNTER_INC("index.delta.merge_stale");
    return false;
  }
  base_entries_ = plan.entries;
  base_ = std::move(merged);
  delta_entries_.clear();
  delta_ = RTree3D();
  ++generation_;
  ++merges_;
  MODB_COUNTER_INC("index.delta.merges");
  return true;
}

void IndexSnapshot::MergeInline(int fanout) {
  std::optional<MergePlan> plan = PrepareMerge();
  if (!plan) return;
  RTree3D merged = RTree3D::BulkLoad(plan->entries, fanout);
  (void)ApplyMerge(*plan, std::move(merged));
}

void IndexSnapshot::ResetBase(std::vector<RTree3D::Entry> entries, int fanout) {
  base_entries_ = std::move(entries);
  base_ = RTree3D::BulkLoad(base_entries_, fanout);
  delta_entries_.clear();
  delta_ = RTree3D();
  mem_.clear();
  mem_slots_.clear();
  ++generation_;
}

}  // namespace modb
