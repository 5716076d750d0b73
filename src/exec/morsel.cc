#include "exec/morsel.h"

#include <algorithm>

namespace modb {
namespace exec {

std::size_t PickMorselRows(std::size_t n, std::size_t workers,
                           std::size_t requested) {
  if (requested > 0) return requested;
  if (n == 0) return 1;
  workers = std::max<std::size_t>(workers, 1);
  const std::size_t per_worker_target = (n + 4 * workers - 1) / (4 * workers);
  return std::max<std::size_t>(
      1, std::min<std::size_t>(kDefaultMorselRows, per_worker_target));
}

MorselScheduler::MorselScheduler(std::size_t num_rows, std::size_t morsel_rows,
                                 std::size_t workers)
    : num_rows_(num_rows),
      morsel_rows_(std::max<std::size_t>(morsel_rows, 1)),
      num_morsels_((num_rows + morsel_rows_ - 1) / morsel_rows_),
      workers_(std::max<std::size_t>(workers, 1)) {}

Morsel MorselScheduler::MorselAt(std::size_t seq) const {
  Morsel m;
  m.seq = seq;
  m.begin = seq * morsel_rows_;
  m.end = std::min(m.begin + morsel_rows_, num_rows_);
  return m;
}

bool MorselScheduler::Next(Morsel* out) {
  const std::size_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  if (seq >= num_morsels_) return false;
  *out = MorselAt(seq);
  return true;
}

namespace {
ExecTestHooks* g_hooks = nullptr;
}  // namespace

ExecTestHooks* SetExecTestHooks(ExecTestHooks* hooks) {
  ExecTestHooks* prev = g_hooks;
  g_hooks = hooks;
  return prev;
}

const ExecTestHooks* GetExecTestHooks() { return g_hooks; }

}  // namespace exec
}  // namespace modb
