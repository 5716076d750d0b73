// Morsel-driven scheduling (src/exec/): the unit of parallel work in
// the pipelined query engine is a *morsel* — a fixed-size contiguous
// row range of a pipeline's source — not an operator-sized chunk. A
// worker claims a morsel, streams it through every stage of its
// pipeline (scan → filters → terminal) without materializing anything
// between stages, deposits the result in the morsel's output slot, and
// claims the next one. Because results are keyed by morsel sequence
// number and concatenated in that order by the sink, the output is
// byte-identical regardless of which worker ran which morsel or in
// what order they finished.
//
// Morsel claims: every worker claims the next unclaimed morsel from
// one shared atomic cursor (dynamic self-scheduling), so a worker that
// hits expensive morsels (skewed predicates, cold spilled pages) simply
// claims fewer of them while idle peers take the rest. A claim is one
// fetch_add.

#ifndef MODB_EXEC_MORSEL_H_
#define MODB_EXEC_MORSEL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "core/status.h"

namespace modb {
namespace exec {

/// Default rows per morsel. Small enough that a skewed stage rebalances
/// across workers, large enough that the per-morsel claim (one atomic
/// fetch_add) is noise.
inline constexpr std::size_t kDefaultMorselRows = 256;

/// One unit of pipeline work: source rows [begin, end), with `seq` its
/// position in the deterministic output order.
struct Morsel {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t seq = 0;
};

/// Rows per morsel for an n-row source run by `workers` workers.
/// `requested` pins the size (tests use 1-row morsels to maximize
/// scheduling freedom); 0 picks min(kDefaultMorselRows, ceil(n / (4 *
/// workers))) so even small inputs split into ~4 morsels per worker —
/// enough slack for a slow worker's share to move to idle peers.
/// Depends only on (n, workers, requested), never on scheduling, so
/// morsel boundaries are deterministic.
std::size_t PickMorselRows(std::size_t n, std::size_t workers,
                           std::size_t requested);

/// Morsel dispenser for one pipeline run: hands out the morsel
/// sequence [0, num_morsels) in ascending order from one atomic cursor,
/// to whichever worker asks next. Every morsel is claimed exactly once.
class MorselScheduler {
 public:
  MorselScheduler(std::size_t num_rows, std::size_t morsel_rows,
                  std::size_t workers);

  std::size_t num_morsels() const { return num_morsels_; }
  std::size_t num_workers() const { return workers_; }

  /// The morsel with sequence number `seq`.
  Morsel MorselAt(std::size_t seq) const;

  /// Claims the next unclaimed morsel. Returns false when every morsel
  /// has been claimed.
  bool Next(Morsel* out);

 private:
  std::size_t num_rows_ = 0;
  std::size_t morsel_rows_ = 1;
  std::size_t num_morsels_ = 0;
  std::size_t workers_ = 1;
  std::atomic<std::size_t> next_{0};  // first unclaimed seq
};

/// Test instrumentation for the engine. `before_morsel` runs on the
/// claiming worker right before a morsel's stages execute — the
/// determinism tests install a hook that stalls chosen workers to
/// permute completion order. `morsel_status` runs next; a non-OK
/// Status fails that morsel with it instead of running its stages, so
/// tests can fail chosen morsels with distinct errors. Null hooks cost
/// one pointer load per morsel.
struct ExecTestHooks {
  std::function<void(std::size_t worker, std::size_t seq)> before_morsel;
  std::function<Status(std::size_t seq)> morsel_status;
};

/// Installs `hooks` (nullptr to clear) and returns the previous
/// installation. Not thread-safe against concurrently running plans;
/// tests install hooks around their own runs only.
ExecTestHooks* SetExecTestHooks(ExecTestHooks* hooks);

/// The installed hooks, or nullptr.
const ExecTestHooks* GetExecTestHooks();

}  // namespace exec
}  // namespace modb

#endif  // MODB_EXEC_MORSEL_H_
