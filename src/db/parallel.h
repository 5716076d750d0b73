// The execution policy every query entrypoint takes (ExecOptions) and
// the fixed thread pool the morsel engine (src/exec/) runs its helper
// workers on. Workers are started once and reused.

#ifndef MODB_DB_PARALLEL_H_
#define MODB_DB_PARALLEL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/status.h"

namespace modb {

namespace obs {
struct ExecStats;
}  // namespace obs

/// Fixed-size pool of worker threads draining a FIFO task queue.
class ThreadPool {
 public:
  /// num_threads <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return int(workers_.size()); }

  /// Enqueues a task; runs on some worker thread.
  void Submit(std::function<void()> task);

  /// Process-wide shared pool, sized to the hardware, started lazily.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Parallel execution policy of the morsel engine (src/exec/).
///
/// Determinism guarantee: the engine cuts its input into morsels by
/// rules that depend only on (input size, worker count) — never on
/// thread scheduling — and concatenates per-morsel results in morsel
/// order, so parallel output is identical (tuple-for-tuple and
/// byte-for-byte) to serial output. Predicates must be thread-safe when
/// more than one worker runs: they are invoked concurrently from pool
/// workers.
struct ParallelOptions {
  /// Worker count. Worker 0 is the calling thread and the rest are
  /// helpers on ThreadPool::Shared(), so 1 runs serially inline and
  /// never touches the pool; <= 0 uses one worker per thread of the
  /// shared pool; values above kMaxQueryThreads are rejected with
  /// InvalidArgument.
  int num_threads = 0;
};

/// Upper bound on ParallelOptions.num_threads. Worker counts beyond
/// this are certainly a bug (a garbage or overflowed value), not a
/// policy.
inline constexpr int kMaxQueryThreads = 4096;

/// The one validation point for every ParallelOptions consumer — the
/// exec engine and the modbd server both call this, so the sanity
/// bound is enforced (and phrased) identically everywhere. The error
/// message names the offending field and the violated bound so a
/// remote caller seeing the round-tripped kInvalidArgument can fix its
/// request without reading server logs.
Status ValidateParallelOptions(const ParallelOptions& options);

/// Per-call execution options of the query entrypoints (exec::RunPlan,
/// Db::Run).
struct ExecOptions {
  /// Worker policy. ExecOptions defaults to serial inline
  /// (num_threads = 1); a ParallelOptions you construct yourself keeps
  /// its historical default of 0 = one worker per pool thread.
  ParallelOptions parallel{.num_threads = 1};
  /// When non-null, the operator fills one ExecStats node here
  /// (cardinalities, predicate/index counters, wall time, one child per
  /// pipeline stage). Null skips even the clock reads.
  obs::ExecStats* stats = nullptr;
  /// Cooperative execution deadline, checked by the morsel engine once
  /// per morsel — never mid-operator, so a check costs one clock read
  /// and expiry yields a typed kDeadlineExceeded with all partial work
  /// discarded. nullopt = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// The worker count `options` resolves to: 1 when serial, the explicit
/// count when positive, one per shared-pool thread otherwise.
/// Consumers size per-worker scratch state with this before running.
std::size_t ResolveWorkerCount(const ParallelOptions& options);

}  // namespace modb

#endif  // MODB_DB_PARALLEL_H_
