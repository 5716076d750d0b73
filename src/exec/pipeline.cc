#include "exec/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <utility>

#include "obs/metrics.h"
#include "temporal/batch_ops.h"
#include "temporal/lifted_ops.h"

namespace modb {
namespace exec {

namespace {

// Per-stage tallies accumulated in worker-local plain integers and
// summed after the barrier (addition is commutative, so the totals are
// schedule-independent).
struct StageCounters {
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t predicate_evals = 0;
  std::uint64_t index_candidates = 0;
  std::uint64_t index_hits = 0;
  std::uint64_t units_scanned = 0;
  // The join predicate's EverWithin work (predicate_intervals and
  // predicate_fallbacks in ExecStats).
  EverWithinStats predicate;
};

// A morsel output slot (see MakeSlots); the sink concatenates slots in
// morsel order. Tuple terminals fill `tuples`, the batch terminals
// `columns` (atinstant its compact columns, straight from the kernel;
// present `defined` alone), and the window terminal's row pass the
// surviving moving points.
struct MorselOutput {
  std::vector<Tuple> tuples;
  BatchXYOutput columns;
  std::vector<const MovingPoint*> points;
};

// The index-join probe's per-worker candidate set. seen[j] == stamp
// marks inner row j as already a candidate of the outer row being
// probed, so each id is kept once however many of its units hit; the
// stamp advances per outer row, so the array is never cleared.
struct ProbeScratch {
  std::vector<int64_t> candidates;
  std::vector<std::uint64_t> seen;  // sized to the inner relation
  std::uint64_t stamp = 0;
};

// Worker-private buffers reused across the morsels a worker claims; a
// warm worker allocates nothing per morsel. The probe's tree counters
// and the batch kernels' counters collect a morsel's work and go to the
// metrics registry once per morsel (FlushMetrics).
struct WorkerState {
  std::vector<std::size_t> rows;  // surviving source row ids
  ProbeScratch probe;
  BatchScratch batch;
  RTree3D::QueryCounters tree_counters;
  BatchCounters batch_counters;
  std::vector<StageCounters> stages;
  std::uint64_t morsels = 0;

  void FlushMetrics() {
    tree_counters.Flush();
    tree_counters = RTree3D::QueryCounters();
    batch_counters.Flush();
  }
};

class OptionalTimer {
 public:
  explicit OptionalTimer(bool enabled) : enabled_(enabled) {
    if (enabled_) start_ = std::chrono::steady_clock::now();
  }
  std::uint64_t ElapsedNs() const {
    if (!enabled_) return 0;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    return ns > 0 ? std::uint64_t(ns) : 0;
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
};

// First-error capture with deterministic tie-break: the error of the
// smallest morsel sequence wins, so a failing plan reports the same
// Status regardless of worker schedule.
class FirstError {
 public:
  void Record(std::size_t seq, Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!has_ || seq < seq_) {
      has_ = true;
      seq_ = seq;
      status_ = std::move(status);
    }
    failed_.store(true, std::memory_order_release);
  }
  bool Failed() const { return failed_.load(std::memory_order_acquire); }
  Status Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

 private:
  std::mutex mu_;
  bool has_ = false;
  std::size_t seq_ = 0;
  Status status_ = Status::OK();
  std::atomic<bool> failed_{false};
};

// Stage ids within a pipeline's counter arrays: 0 = scan, 1..F =
// filters, F+1 = terminal (project / join probe / batch / window /
// implicit copy sink).
std::size_t NumStages(const Pipeline& pipe) {
  return pipe.filters.size() + 2;
}

// The one morsel loop. Runs body(worker state, morsel) for every morsel
// `sched` hands out. Worker 0 is the calling thread; the other
// min(workers, morsels) - 1 workers are helper tasks on the shared
// pool, so a one-worker or one-morsel run submits nothing and never
// touches the pool. The cooperative deadline is checked once per
// morsel, before any of its work (including the test hook, so a
// hook-injected stall is charged to the NEXT checkpoint — the morsel
// that observed the stall still completes).
Status DriveMorsels(
    MorselScheduler* sched, const ExecOptions& options,
    std::vector<WorkerState>* states,
    const std::function<Status(WorkerState*, const Morsel&)>& body) {
  const std::size_t num_morsels = sched->num_morsels();
  FirstError error;
  const ExecTestHooks* hooks = GetExecTestHooks();

  auto worker_loop = [&](std::size_t w) {
    WorkerState& state = (*states)[w];
    Morsel m;
    while (!error.Failed() && sched->Next(&m)) {
      if (options.deadline) {
        MODB_COUNTER_INC("exec.deadline_checks");
        if (std::chrono::steady_clock::now() >= *options.deadline) {
          MODB_COUNTER_INC("exec.deadline_exceeded");
          error.Record(m.seq,
                       Status::DeadlineExceeded(
                           "query execution deadline expired at morsel " +
                           std::to_string(m.seq) + " of " +
                           std::to_string(num_morsels)));
          break;
        }
      }
      if (hooks != nullptr && hooks->before_morsel) {
        hooks->before_morsel(w, m.seq);
      }
      ++state.morsels;
      Status s = hooks != nullptr && hooks->morsel_status
                     ? hooks->morsel_status(m.seq)
                     : Status::OK();
      if (s.ok()) s = body(&state, m);
      if (!s.ok()) error.Record(m.seq, std::move(s));
    }
  };

  // Workers beyond the morsel count would find nothing to claim.
  const std::size_t workers = std::max<std::size_t>(
      1, std::min(sched->num_workers(), num_morsels));
  std::mutex mu;
  std::condition_variable done;
  std::size_t remaining = workers - 1;  // helpers still running
  for (std::size_t w = 1; w < workers; ++w) {
    ThreadPool::Shared().Submit([&, w] {
      worker_loop(w);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done.notify_one();
    });
  }
  worker_loop(0);
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return remaining == 0; });
  return error.Failed() ? error.Take() : Status::OK();
}

// Joined tuples for one surviving outer row of the index-join probe,
// appended in ascending candidate order. Candidates are deduplicated as
// they arrive, and the probe stops at the first unit that finds every
// inner row the row can pair with already a candidate: no later unit
// could add one. With distinct pairs those are the rows past
// `outer_row`; ids up to it are dropped as they arrive, and the last
// row probes nothing.
void ProbeIndexJoinRow(const Tuple& outer, std::size_t outer_row,
                       const JoinProbeOp& op, const IndexLayersView& view,
                       std::vector<Tuple>* out, StageCounters* s,
                       ProbeScratch* scratch,
                       RTree3D::QueryCounters* counters) {
  const Relation& b = *op.inner;
  const auto& mp = std::get<MovingPoint>(outer[std::size_t(op.attr_outer)]);
  const std::size_t inner_rows = b.NumTuples();
  const std::size_t first = op.distinct_pairs ? outer_row + 1 : 0;
  const std::size_t wanted = first < inner_rows ? inner_rows - first : 0;
  if (scratch->seen.size() != inner_rows) scratch->seen.assign(inner_rows, 0);
  const std::uint64_t stamp = ++scratch->stamp;
  std::vector<int64_t>* candidates = &scratch->candidates;
  candidates->clear();
  auto collect = [scratch, candidates, stamp, first](int64_t id) {
    if (std::size_t(id) < first) return;
    std::uint64_t& seen = scratch->seen[std::size_t(id)];
    if (seen == stamp) return;
    seen = stamp;
    candidates->push_back(id);
  };
  const Cube& bounds = view.Bounds();
  std::size_t probed = 0;
  for (const UPoint& u : mp.units()) {
    if (candidates->size() == wanted) break;
    ++probed;
    Cube c = u.BoundingCube();
    c.rect.min_x -= op.expand;
    c.rect.min_y -= op.expand;
    c.rect.max_x += op.expand;
    c.rect.max_y += op.expand;
    // Bbox prefilter: a probe cube disjoint from every layer cannot
    // produce candidates; skip the descent outright.
    if (!Cube::Intersect(c, bounds)) continue;
    view.QueryVisit(c, collect, counters);
  }
  std::sort(candidates->begin(), candidates->end());
  s->units_scanned += probed;
  s->index_candidates += candidates->size();
  for (int64_t j : *candidates) {
    ++s->predicate_evals;
    if (!op.pred(outer, outer_row, b.tuple(std::size_t(j)), std::size_t(j),
                 &s->predicate)) {
      continue;
    }
    ++s->index_hits;
    Tuple joined = outer;
    joined.insert(joined.end(), b.tuple(std::size_t(j)).begin(),
                  b.tuple(std::size_t(j)).end());
    out->push_back(std::move(joined));
  }
}

void ProbeNestedLoopRow(const Tuple& outer, std::size_t outer_row,
                        const JoinProbeOp& op, std::vector<Tuple>* out,
                        StageCounters* s) {
  const Relation& b = *op.inner;
  for (std::size_t j = op.distinct_pairs ? outer_row + 1 : 0;
       j < b.NumTuples(); ++j) {
    ++s->predicate_evals;
    if (!op.pred(outer, outer_row, b.tuple(j), j, &s->predicate)) continue;
    Tuple joined = outer;
    joined.insert(joined.end(), b.tuple(j).begin(), b.tuple(j).end());
    out->push_back(std::move(joined));
  }
}

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

// Sink append: the first slot's buffer is moved, not copied, so a
// single-slot run hands its output over without a copy.
template <typename T>
void Append(std::vector<T>* to, std::vector<T>&& from) {
  if (to->empty()) {
    *to = std::move(from);
  } else {
    Append(to, from);
  }
}

// Morsel output slots for `sched`. One worker claims morsels in
// sequence order, so its morsels share a single slot; otherwise each
// morsel gets its own. A batch terminal's flag columns are sized up
// front (rows × instants cells); the compact coordinate columns grow
// with the defined cells they hold.
std::vector<MorselOutput> MakeSlots(const Pipeline& pipe,
                                    const MorselScheduler& sched) {
  const bool shared = sched.num_workers() == 1;
  std::vector<MorselOutput> slots(shared ? 1 : sched.num_morsels());
  if (pipe.batch) {
    const std::size_t k = pipe.batch->instants.size();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Morsel m = sched.MorselAt(i);
      const std::size_t cells =
          (shared ? pipe.rel->NumTuples() : m.end - m.begin) * k;
      slots[i].columns.defined.reserve(cells);
    }
  }
  return slots;
}

// The slot morsel `m` writes to.
MorselOutput* SlotOf(std::vector<MorselOutput>* slots, const Morsel& m) {
  return &(*slots)[slots->size() == 1 ? 0 : m.seq];
}

// One morsel through the fused stage chain. Fails only on batch-kernel
// errors (instants not ascending); predicate work never fails.
Status ProcessMorsel(const Pipeline& pipe, const IndexLayersView& view,
                     const Morsel& m, WorkerState* w, MorselOutput* out) {
  // Scan: enumerate the morsel's rows.
  w->rows.clear();
  StageCounters& scan = w->stages[0];
  scan.rows_in += m.end - m.begin;
  for (std::size_t i = m.begin; i < m.end; ++i) w->rows.push_back(i);
  scan.rows_out += w->rows.size();

  auto tuple_at = [&](std::size_t k) -> const Tuple& {
    return pipe.rel->tuple(w->rows[k]);
  };

  // Filters: in-place compaction of the surviving row list.
  for (std::size_t f = 0; f < pipe.filters.size(); ++f) {
    StageCounters& s = w->stages[1 + f];
    s.rows_in += w->rows.size();
    std::size_t kept = 0;
    for (std::size_t k = 0; k < w->rows.size(); ++k) {
      ++s.predicate_evals;
      if (!pipe.filters[f](tuple_at(k))) continue;
      w->rows[kept++] = w->rows[k];
    }
    w->rows.resize(kept);
    s.rows_out += kept;
  }

  // Terminal: emit this morsel's output.
  StageCounters& term = w->stages[NumStages(pipe) - 1];
  const std::size_t survivors = w->rows.size();
  const std::size_t emitted_before = out->tuples.size();
  term.rows_in += survivors;
  if (pipe.join) {
    for (std::size_t k = 0; k < survivors; ++k) {
      if (pipe.join->kind == JoinProbeOp::Kind::kIndex) {
        ProbeIndexJoinRow(tuple_at(k), w->rows[k], *pipe.join, view,
                          &out->tuples, &term, &w->probe, &w->tree_counters);
      } else {
        ProbeNestedLoopRow(tuple_at(k), w->rows[k], *pipe.join, &out->tuples,
                           &term);
      }
    }
  } else if (pipe.project) {
    for (std::size_t k = 0; k < survivors; ++k) {
      const Tuple& t = tuple_at(k);
      Tuple projected;
      projected.reserve(pipe.project->indices.size());
      for (int idx : pipe.project->indices) {
        projected.push_back(t[std::size_t(idx)]);
      }
      out->tuples.push_back(std::move(projected));
    }
  } else if (pipe.batch) {
    const BatchOp& op = *pipe.batch;
    auto point_at = [&](std::size_t k) -> const MovingPoint& {
      return std::get<MovingPoint>(tuple_at(k)[std::size_t(op.attr)]);
    };
    if (op.kind == BatchOp::Kind::kAtInstant) {
      for (std::size_t k = 0; k < survivors; ++k) {
        MODB_RETURN_IF_ERROR(AtInstantBatchXYInto(
            point_at(k), op.instants, &out->columns, &w->batch,
            &w->batch_counters));
      }
    } else {
      // Every row writes its flags straight into the slot, which one
      // worker shares across its morsels.
      std::vector<std::uint8_t>& flags = out->columns.defined;
      const std::size_t cells = op.instants.size();
      const std::size_t f0 = flags.size();
      flags.resize(f0 + survivors * cells);
      for (std::size_t k = 0; k < survivors; ++k) {
        MODB_RETURN_IF_ERROR(PresentBatchFill(point_at(k), op.instants,
                                              flags.data() + f0 + k * cells,
                                              &w->batch_counters));
      }
    }
    term.rows_out += survivors;
    return Status::OK();
  } else if (pipe.window) {
    // Row pass only: the grid pass (RunWindowGrid) emits the windows.
    const std::size_t attr = std::size_t(pipe.window->attr);
    for (std::size_t k = 0; k < survivors; ++k) {
      out->points.push_back(&std::get<MovingPoint>(tuple_at(k)[attr]));
    }
    return Status::OK();
  } else {
    for (std::size_t k = 0; k < survivors; ++k) {
      out->tuples.push_back(tuple_at(k));
    }
  }
  term.rows_out += out->tuples.size() - emitted_before;
  return Status::OK();
}

const char* TerminalOpName(const Pipeline& pipe) {
  if (pipe.join) return "join_probe";
  if (pipe.project) return "project";
  if (pipe.batch) {
    return pipe.batch->kind == BatchOp::Kind::kAtInstant ? "atinstant_batch"
                                                         : "present_batch";
  }
  if (pipe.window) return "window_grid";
  return "sink";
}

// ---- window aggregation ---------------------------------------------------

// A set of instants {t : lo <= t <= hi} with endpoint closedness — the
// working type of the exact window/unit/rect intersection. All three
// operand kinds lower to it: unit intervals (their own closedness),
// windows (closed-open), rect crossing ranges (closed).
struct TRange {
  double lo = 0;
  double hi = 0;
  bool lc = true;
  bool rc = true;
  bool empty = false;
};

TRange EmptyRange() {
  TRange r;
  r.empty = true;
  return r;
}

TRange IntersectRanges(const TRange& a, const TRange& b) {
  if (a.empty || b.empty) return EmptyRange();
  TRange r;
  if (a.lo > b.lo) {
    r.lo = a.lo;
    r.lc = a.lc;
  } else if (b.lo > a.lo) {
    r.lo = b.lo;
    r.lc = b.lc;
  } else {
    r.lo = a.lo;
    r.lc = a.lc && b.lc;
  }
  if (a.hi < b.hi) {
    r.hi = a.hi;
    r.rc = a.rc;
  } else if (b.hi < a.hi) {
    r.hi = b.hi;
    r.rc = b.rc;
  } else {
    r.hi = a.hi;
    r.rc = a.rc && b.rc;
  }
  // A degenerate instant survives only if BOTH operands actually
  // contain it — this is what makes a fix exactly on a window edge
  // count in exactly one window.
  if (r.lo > r.hi || (r.lo == r.hi && !(r.lc && r.rc))) return EmptyRange();
  return r;
}

// Time range where c0 + c1*t lies in [lo, hi] (closed): a closed
// interval for c1 != 0, everything or nothing for constant motion.
TRange AxisCrossingRange(double c0, double c1, double lo, double hi) {
  TRange r;
  if (c1 == 0) {
    if (c0 < lo || c0 > hi) return EmptyRange();
    r.lo = -std::numeric_limits<double>::infinity();
    r.hi = std::numeric_limits<double>::infinity();
    return r;
  }
  double a = (lo - c0) / c1;
  double b = (hi - c0) / c1;
  if (a > b) std::swap(a, b);
  r.lo = a;
  r.hi = b;
  return r;
}

TRange RangeOfInterval(const TimeInterval& iv) {
  TRange r;
  r.lo = iv.start();
  r.hi = iv.end();
  r.lc = iv.left_closed();
  r.rc = iv.right_closed();
  return r;
}

// Per-object accumulation over one window: presence inside the rect,
// plus distance traveled / time covered under the TEMPORAL clip only
// (the rect does not clip distance — documented in docs/INGEST.md).
struct WindowRowAgg {
  bool qualifies = false;
  double distance = 0;
  double covered = 0;
};

// Sums one row's units over `window`, from `first` — the row's first
// unit whose end is not before window.lo — to the last unit that
// starts by window.hi.
WindowRowAgg AggregateRowWindow(std::vector<UPoint>::const_iterator first,
                                std::vector<UPoint>::const_iterator last,
                                const TRange& window,
                                const WindowAggregateOp& op, bool has_rect) {
  WindowRowAgg agg;
  for (auto it = first; it != last; ++it) {
    const UPoint& u = *it;
    const TimeInterval& iv = u.interval();
    if (iv.start() > window.hi) break;
    const TRange clip = IntersectRanges(RangeOfInterval(iv), window);
    if (clip.empty) continue;
    const double dur = clip.hi - clip.lo;
    agg.distance += u.Speed() * dur;
    agg.covered += dur;
    if (!agg.qualifies) {
      if (!has_rect) {
        agg.qualifies = true;
      } else {
        const LinearMotion& m = u.motion();
        const TRange q = IntersectRanges(
            IntersectRanges(clip,
                            AxisCrossingRange(m.x0, m.x1, op.min_x, op.max_x)),
            AxisCrossingRange(m.y0, m.y1, op.min_y, op.max_y));
        if (!q.empty) agg.qualifies = true;
      }
    }
  }
  return agg;
}

// Window i: [t0 + i*step, t0 + i*step + width). The start is never
// accumulated, so window boundaries are bit-reproducible regardless of
// how many windows precede them, and starts (and ends) ascend with i.
TRange WindowRange(const WindowAggregateOp& op, std::size_t i) {
  TRange window;
  window.lo = op.t0 + double(i) * op.step;
  window.hi = window.lo + op.width;
  window.lc = true;
  window.rc = false;
  return window;
}

// One window's totals over the rows that qualify in it.
struct WindowSums {
  std::uint64_t count = 0;
  double distance = 0;
  double covered = 0;
};

// Folds one row into the sums of `windows` (ascending starts) in one
// forward sweep: windows that end before the row's first unit are
// skipped, the sweep stops at the first window that starts after its
// last unit, and a single unit cursor — one binary search, then only
// forward steps — finds each window's first unit not ending before it.
// That is the unit a binary search per window would find, so every
// (row, window) sum sees the same units in the same order.
void AccumulateRowWindows(const MovingPoint& mp,
                          const std::vector<TRange>& windows,
                          const WindowAggregateOp& op, bool has_rect,
                          std::vector<WindowSums>* sums) {
  const std::vector<UPoint>& units = mp.units();
  if (units.empty()) return;
  const Instant first_start = units.front().interval().start();
  const Instant last_end = units.back().interval().end();
  std::size_t j = 0;
  while (j < windows.size() && windows[j].hi < first_start) ++j;
  if (j == windows.size()) return;
  auto cursor = std::partition_point(
      units.begin(), units.end(),
      [lo = windows[j].lo](const UPoint& u) { return u.interval().end() < lo; });
  for (; j < windows.size(); ++j) {
    const TRange& window = windows[j];
    if (window.lo > last_end) break;
    // The last unit ends at or after window.lo, so this stays in range.
    while (cursor->interval().end() < window.lo) ++cursor;
    const WindowRowAgg agg =
        AggregateRowWindow(cursor, units.end(), window, op, has_rect);
    if (!agg.qualifies) continue;
    WindowSums& s = (*sums)[j];
    ++s.count;
    s.distance += agg.distance;
    s.covered += agg.covered;
  }
}

// The window grid pass: morsels over window indexes, on the same
// scheduler and workers as the row pass that produced `row_slots`.
// Inside a morsel the grid is row-major: each row is swept once across
// the morsel's windows, in ascending row order, so each window still
// sums its rows in row order.
Status RunWindowGrid(const Pipeline& pipe,
                     const std::vector<MorselOutput>& row_slots,
                     const ExecOptions& options,
                     std::vector<WorkerState>* states, Relation* out) {
  const WindowAggregateOp& op = *pipe.window;
  const bool has_rect = op.min_x <= op.max_x && op.min_y <= op.max_y;
  std::vector<const MovingPoint*> points;
  for (const MorselOutput& slot : row_slots) Append(&points, slot.points);
  std::size_t n = 0;
  while (WindowRange(op, n).lo < op.t1) ++n;
  MorselScheduler sched(n, PickMorselRows(n, states->size(), 0),
                        states->size());
  std::vector<MorselOutput> outputs = MakeSlots(pipe, sched);
  const std::size_t term = NumStages(pipe) - 1;
  MODB_RETURN_IF_ERROR(DriveMorsels(
      &sched, options, states, [&](WorkerState* w, const Morsel& m) {
        std::vector<TRange> windows;
        windows.reserve(m.end - m.begin);
        for (std::size_t i = m.begin; i < m.end; ++i) {
          windows.push_back(WindowRange(op, i));
        }
        std::vector<WindowSums> sums(windows.size());
        for (const MovingPoint* mp : points) {
          AccumulateRowWindows(*mp, windows, op, has_rect, &sums);
        }
        MorselOutput* slot = SlotOf(&outputs, m);
        for (std::size_t j = 0; j < windows.size(); ++j) {
          const WindowSums& s = sums[j];
          Tuple row;
          row.emplace_back(RealValue(windows[j].lo));
          row.emplace_back(RealValue(windows[j].hi));
          row.emplace_back(IntValue(std::int64_t(s.count)));
          row.emplace_back(RealValue(s.distance));
          row.emplace_back(
              RealValue(s.covered > 0 ? s.distance / s.covered : 0.0));
          slot->tuples.push_back(std::move(row));
        }
        w->stages[term].rows_out += m.end - m.begin;
        return Status::OK();
      }));
  for (MorselOutput& slot : outputs) {
    // Insert cannot fail: window rows conform to the output schema.
    for (Tuple& t : slot.tuples) (void)out->Insert(std::move(t));
  }
  return Status::OK();
}

// Runs the pipeline morsel-parallel and writes its output to `out` in
// morsel order. `node` receives one child per stage plus the
// root-level worker and morsel counters.
Status RunPipeline(const Pipeline& pipe, const IndexLayersView& view,
                   const ExecOptions& options, PlanOutput* out,
                   ExecStats* node) {
  const std::size_t n = pipe.rel->NumTuples();
  const std::size_t workers = ResolveWorkerCount(options.parallel);
  MorselScheduler sched(n, PickMorselRows(n, workers, pipe.morsel_rows),
                        workers);
  std::vector<MorselOutput> outputs = MakeSlots(pipe, sched);
  std::vector<WorkerState> states(workers);
  for (WorkerState& w : states) w.stages.resize(NumStages(pipe));

  MODB_RETURN_IF_ERROR(DriveMorsels(
      &sched, options, &states, [&](WorkerState* w, const Morsel& m) {
        Status s = ProcessMorsel(pipe, view, m, w, SlotOf(&outputs, m));
        w->FlushMetrics();
        return s;
      }));

  // Deterministic sink: concatenate per-morsel outputs in ascending
  // sequence order — ascending source-row order, the serial order.
  if (pipe.window) {
    MODB_RETURN_IF_ERROR(
        RunWindowGrid(pipe, outputs, options, &states, &out->rows));
  } else {
    for (MorselOutput& slot : outputs) {
      // Insert cannot fail: tuples conform to the output schema.
      for (Tuple& t : slot.tuples) (void)out->rows.Insert(std::move(t));
      Append(&out->xs, std::move(slot.columns.xs));
      Append(&out->ys, std::move(slot.columns.ys));
      Append(&out->flags, std::move(slot.columns.defined));
    }
  }

  // Merge worker-local stage counters (sums, schedule-independent).
  std::vector<StageCounters> totals(NumStages(pipe));
  std::uint64_t morsels = 0;
  for (const WorkerState& w : states) {
    morsels += w.morsels;
    for (std::size_t s = 0; s < totals.size(); ++s) {
      StageCounters& t = totals[s];
      const StageCounters& c = w.stages[s];
      t.rows_in += c.rows_in;
      t.rows_out += c.rows_out;
      t.predicate_evals += c.predicate_evals;
      t.index_candidates += c.index_candidates;
      t.index_hits += c.index_hits;
      t.units_scanned += c.units_scanned;
      t.predicate.intervals += c.predicate.intervals;
      t.predicate.fallbacks += c.predicate.fallbacks;
    }
  }

  node->workers += workers;
  node->morsels += morsels;
  auto stage_node = [&](const char* op, const StageCounters& c) {
    ExecStats s;
    s.op = op;
    s.tuples_in = c.rows_in;
    s.tuples_out = c.rows_out;
    s.predicate_evals = c.predicate_evals;
    s.index_candidates = c.index_candidates;
    s.index_hits = c.index_hits;
    s.units_scanned = c.units_scanned;
    s.predicate_intervals = c.predicate.intervals;
    s.predicate_fallbacks = c.predicate.fallbacks;
    node->children.push_back(std::move(s));
  };
  stage_node("scan", totals[0]);
  for (std::size_t f = 0; f < pipe.filters.size(); ++f) {
    stage_node("select", totals[1 + f]);
  }
  stage_node(TerminalOpName(pipe), totals[NumStages(pipe) - 1]);
  // Roll the stage counters into the root so predicate_evals, index
  // candidates/hits and units scanned read there too.
  for (const StageCounters& c : totals) {
    node->predicate_evals += c.predicate_evals;
    node->index_candidates += c.index_candidates;
    node->index_hits += c.index_hits;
    node->units_scanned += c.units_scanned;
    node->predicate_intervals += c.predicate.intervals;
    node->predicate_fallbacks += c.predicate.fallbacks;
  }

  MODB_COUNTER_ADD("exec.morsels_scheduled", morsels);
  return Status::OK();
}

}  // namespace

Result<RTree3D> BuildMovingPointIndex(const Relation& rel, int attr) {
  if (attr < 0 || std::size_t(attr) >= rel.schema().NumAttributes()) {
    return Status::InvalidArgument("moving-point index attribute " +
                                   std::to_string(attr) +
                                   " out of range for " + rel.name());
  }
  std::vector<RTree3D::Entry> entries;
  for (std::size_t j = 0; j < rel.NumTuples(); ++j) {
    const auto* mp = std::get_if<MovingPoint>(&rel.tuple(j)[std::size_t(attr)]);
    if (mp == nullptr) {
      return Status::InvalidArgument("attribute " + std::to_string(attr) +
                                     " of " + rel.name() +
                                     " is not a moving point");
    }
    for (const UPoint& u : mp->units()) {
      entries.push_back({u.BoundingCube(), int64_t(j)});
    }
  }
  MODB_COUNTER_INC("exec.index_builds");
  return RTree3D::BulkLoad(std::move(entries));
}

Result<PlanOutput> RunPlan(const PhysicalPlan& plan,
                           const ExecOptions& options) {
  MODB_RETURN_IF_ERROR(ValidateParallelOptions(options.parallel));
  const Pipeline& pipe = plan.pipe;
  if (pipe.rel == nullptr) {
    return Status::InvalidArgument("pipeline has no source relation");
  }
  const bool probes_index =
      pipe.join && pipe.join->kind == JoinProbeOp::Kind::kIndex;
  if (probes_index && !pipe.join->layers && pipe.join->tree == nullptr &&
      !plan.build) {
    return Status::InvalidArgument(
        "index join probe has no layered view, no prebuilt tree, and no "
        "build step");
  }
  // An already-expired deadline fails up front — before the build or
  // any scan — so a request admitted after its budget ran out never
  // pays for work it cannot finish.
  if (options.deadline &&
      std::chrono::steady_clock::now() >= *options.deadline) {
    MODB_COUNTER_INC("exec.deadline_exceeded");
    return Status::DeadlineExceeded(
        "query execution deadline expired before the plan started");
  }
  OptionalTimer timer(options.stats != nullptr);

  ExecStats node;
  node.op = plan.root_op;
  node.tuples_in = plan.legacy_tuples_in;
  node.materializations = 1;  // the sink; stages materialize nothing

  std::optional<RTree3D> built;
  if (plan.build) {
    OptionalTimer build_timer(options.stats != nullptr);
    Result<RTree3D> tree =
        BuildMovingPointIndex(*plan.build->rel, plan.build->attr);
    if (!tree.ok()) return tree.status();
    built.emplace(*std::move(tree));
    ExecStats b;
    b.op = "build_index";
    b.tuples_in = plan.build->rel->NumTuples();
    b.index_builds = 1;
    b.wall_ns = build_timer.ElapsedNs();
    node.children.push_back(std::move(b));
    node.index_builds += 1;
  }

  // The index the probe runs against — a live relation's layered view,
  // a prebuilt tree, or the build step's — wrapped as one
  // IndexLayersView so the probe has one body.
  IndexLayersView view;
  if (probes_index) {
    view = pipe.join->layers ? *pipe.join->layers
                             : IndexLayersView::Single(
                                   pipe.join->tree != nullptr ? pipe.join->tree
                                                              : &*built);
  }

  PlanOutput out;
  out.rows = Relation(plan.out_name, plan.out_schema);
  MODB_RETURN_IF_ERROR(RunPipeline(pipe, view, options, &out, &node));

  if (pipe.batch) {
    for (std::uint8_t f : out.flags) node.tuples_out += f;
  } else {
    node.tuples_out = out.rows.NumTuples();
  }
  node.wall_ns = timer.ElapsedNs();
  if (options.stats != nullptr) *options.stats = std::move(node);
  MODB_COUNTER_INC("exec.plans_run");
  MODB_COUNTER_INC("exec.relations_materialized");
  return out;
}

}  // namespace exec
}  // namespace modb
