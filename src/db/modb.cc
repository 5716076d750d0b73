#include "db/modb.h"

#include <chrono>
#include <utility>

#include "core/interval.h"
#include "core/range_set.h"
#include "exec/pipeline.h"
#include "exec/planner.h"
#include "obs/metrics.h"
#include "temporal/lifted_ops.h"
#include "temporal/moving.h"

namespace modb {
namespace {

// Resolves `attr` in `schema` and checks its declared type, naming the
// attribute, the relation, and both types on failure so a remote caller
// can fix the request from the message alone.
Result<int> ResolveSlot(const Relation& rel, const std::string& attr,
                        AttributeType want) {
  const int slot = rel.schema().IndexOf(attr);
  if (slot < 0) {
    return Status::InvalidArgument("relation '" + rel.name() +
                                   "' has no attribute '" + attr + "'");
  }
  const AttributeType got = rel.schema().attribute(slot).type;
  if (got != want) {
    return Status::InvalidArgument(
        "attribute '" + attr + "' of relation '" + rel.name() + "' is " +
        AttributeTypeName(got) + ", expected " + AttributeTypeName(want));
  }
  return slot;
}

// Lowers one FilterSpec to an exec::Predicate.
Result<exec::Predicate> LowerFilter(const Relation& rel,
                                    const FilterSpec& f) {
  switch (f.kind) {
    case FilterSpec::Kind::kStringEquals: {
      Result<int> slot = ResolveSlot(rel, f.attr, AttributeType::kString);
      MODB_RETURN_IF_ERROR(slot.status());
      const int s = *slot;
      const std::string value = f.value;
      return exec::Predicate([s, value](const Tuple& t) {
        return std::get<StringValue>(t[s]).value() == value;
      });
    }
    case FilterSpec::Kind::kTrajectoryLengthAtLeast: {
      Result<int> slot = ResolveSlot(rel, f.attr, AttributeType::kMovingPoint);
      MODB_RETURN_IF_ERROR(slot.status());
      const int s = *slot;
      const double threshold = f.threshold;
      return exec::Predicate([s, threshold](const Tuple& t) {
        return Trajectory(std::get<MovingPoint>(t[s])).Length() >= threshold;
      });
    }
    case FilterSpec::Kind::kPresentAt: {
      Result<int> slot = ResolveSlot(rel, f.attr, AttributeType::kMovingPoint);
      MODB_RETURN_IF_ERROR(slot.status());
      const int s = *slot;
      const Instant t0 = f.t0;
      return exec::Predicate([s, t0](const Tuple& t) {
        return std::get<MovingPoint>(t[s]).Present(t0);
      });
    }
    case FilterSpec::Kind::kDeftimeIntersects: {
      Result<int> slot = ResolveSlot(rel, f.attr, AttributeType::kMovingPoint);
      MODB_RETURN_IF_ERROR(slot.status());
      if (!(f.t0 <= f.t1)) {
        return Status::InvalidArgument(
            "deftime_intersects window is empty: t0 = " +
            std::to_string(f.t0) + " > t1 = " + std::to_string(f.t1));
      }
      const int s = *slot;
      Result<Interval<Instant>> iv = Interval<Instant>::Closed(f.t0, f.t1);
      MODB_RETURN_IF_ERROR(iv.status());
      const Periods window = Periods::Of(*iv);
      return exec::Predicate([s, window](const Tuple& t) {
        return std::get<MovingPoint>(t[s]).Present(window);
      });
    }
  }
  return Status::InvalidArgument("unknown filter kind " +
                                 std::to_string(int(f.kind)));
}

// MutationResult <-> the live relation's stored ack type (identical
// fields; live_relation.h cannot see MutationResult without a cycle).
ingest::IngestAck ToIngestAck(const MutationResult& ack) {
  return {ack.accepted, ack.objects,      ack.mem_units, ack.delta_entries,
          ack.base_entries, ack.merges, ack.epoch};
}

MutationResult FromIngestAck(const ingest::IngestAck& a) {
  MutationResult ack;
  ack.accepted = a.accepted;
  ack.objects = a.objects;
  ack.mem_units = a.mem_units;
  ack.delta_entries = a.delta_entries;
  ack.base_entries = a.base_entries;
  ack.merges = a.merges;
  ack.epoch = a.epoch;
  return ack;
}

// The Q2 predicate template: ever closer than `dist`. The probe, not
// the predicate, keeps a self-join to its distinct pairs.
exec::JoinPred EverCloserPred(int slot_a, int slot_b, double dist) {
  return [slot_a, slot_b, dist](const Tuple& a, std::size_t, const Tuple& b,
                                std::size_t, EverWithinStats* stats) {
    return EverWithin(std::get<MovingPoint>(a[slot_a]),
                      std::get<MovingPoint>(b[slot_b]), dist, stats);
  };
}

}  // namespace

Status Db::Register(Relation rel) {
  if (rel.name().empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] = relations_.try_emplace(rel.name());
  if (!inserted) {
    return Status::FailedPrecondition("relation '" + rel.name() +
                                      "' is already registered");
  }
  it->second.rel = std::move(rel);
  return Status::OK();
}

Status Db::Drop(const std::string& name) {
  std::unique_lock lock(mu_);
  if (relations_.erase(name) == 0) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return Status::OK();
}

Status Db::BuildIndex(const std::string& relation, const std::string& attr) {
  std::unique_lock lock(mu_);
  auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  if (it->second.live != nullptr) {
    return Status::FailedPrecondition(
        "relation '" + relation +
        "' is live and maintains its own layered index");
  }
  Result<int> slot =
      ResolveSlot(it->second.rel, attr, AttributeType::kMovingPoint);
  MODB_RETURN_IF_ERROR(slot.status());
  Result<RTree3D> tree =
      exec::BuildMovingPointIndex(it->second.rel, *slot);
  MODB_RETURN_IF_ERROR(tree.status());
  it->second.indexes.insert_or_assign(*slot, *std::move(tree));
  return Status::OK();
}

std::vector<std::string> Db::RelationNames() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, entry] : relations_) names.push_back(name);
  return names;
}

Result<std::uint64_t> Db::NumTuples(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return std::uint64_t{RelOf(it->second).NumTuples()};
}

Status Db::RegisterLive(const std::string& name, ingest::LiveOptions options) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] = relations_.try_emplace(name);
  if (!inserted) {
    return Status::FailedPrecondition("relation '" + name +
                                      "' is already registered");
  }
  it->second.live = std::make_unique<ingest::LiveRelation>(name, options);
  return Status::OK();
}

Status Db::AttachLiveStore(const std::string& name,
                           VersionedSpillStore* store) {
  std::unique_lock lock(mu_);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  if (it->second.live == nullptr) {
    return Status::FailedPrecondition("relation '" + name +
                                      "' is not a live relation");
  }
  return it->second.live->AttachStore(store);
}

Result<MutationResult> Db::Apply(const MutationRequest& req) {
  std::unique_lock lock(mu_);
  MutationResult ack;
  switch (req.kind) {
    case MutationRequest::Kind::kRegisterLive: {
      if (req.relation.empty()) {
        return Status::InvalidArgument("relation name must be non-empty");
      }
      auto [it, inserted] = relations_.try_emplace(req.relation);
      if (!inserted) {
        return Status::FailedPrecondition("relation '" + req.relation +
                                          "' is already registered");
      }
      ingest::LiveOptions options;
      if (req.seal_units > 0) {
        options.seal_units = std::size_t(req.seal_units);
      }
      it->second.live =
          std::make_unique<ingest::LiveRelation>(req.relation, options);
      return ack;
    }

    case MutationRequest::Kind::kDropRelation: {
      if (relations_.erase(req.relation) == 0) {
        return Status::NotFound("no relation named '" + req.relation + "'");
      }
      return ack;
    }

    case MutationRequest::Kind::kIngest: {
      auto it = relations_.find(req.relation);
      if (it == relations_.end()) {
        return Status::NotFound("no relation named '" + req.relation +
                                "' (ingest target)");
      }
      ingest::LiveRelation* live = it->second.live.get();
      if (live == nullptr) {
        return Status::FailedPrecondition("relation '" + req.relation +
                                          "' is not a live relation");
      }
      // Idempotency: a keyed batch the window already remembers was
      // applied by an earlier attempt whose ack the client never saw —
      // re-ack with the original stats, touch nothing.
      if (!req.client_id.empty()) {
        if (std::optional<ingest::IngestAck> hit =
                live->DedupLookup(req.client_id, req.batch_seq)) {
          MODB_COUNTER_INC("ingest.dedup_hits");
          return FromIngestAck(*hit);
        }
      }
      std::vector<ingest::IngestFix> fixes;
      fixes.reserve(req.fixes.size());
      for (const MutationRequest::Fix& f : req.fixes) {
        fixes.push_back({f.object_id, f.t, f.x, f.y});
      }
      MODB_RETURN_IF_ERROR(live->Ingest(fixes));
      ack.accepted = fixes.size();
      ack.objects = live->NumObjects();
      ack.mem_units = live->index().MemEntries();
      ack.delta_entries = live->index().DeltaEntries();
      ack.base_entries = live->index().BaseEntries();
      ack.merges = live->index().merges();
      ack.epoch = live->epoch();
      if (!live->HasStore()) {
        if (!req.client_id.empty()) {
          live->RecordAck(req.client_id, req.batch_seq, ToIngestAck(ack));
        }
        return ack;
      }

      // Keyed + store-backed: the dedup entry must ride in the SAME
      // commit as the batch it remembers, so it is recorded before
      // Persist with the epoch that commit will create (epoch() + 1 —
      // Persist commits exactly once). A racing ingest can slip its
      // own Persist in first, making the epoch this request ultimately
      // returns larger; the post-Persist RecordAck below re-records
      // the ack actually sent, so a retry always re-acks those bytes.
      if (!req.client_id.empty()) {
        ingest::IngestAck predicted = ToIngestAck(ack);
        predicted.epoch = live->epoch() + 1;
        live->RecordAck(req.client_id, req.batch_seq, predicted);
      }

      // Durability before the ack: a store-backed ingest is committed
      // as one epoch, so a crash after the reply loses nothing the
      // client was told about. The commit's I/O runs under the READER
      // lock — queries proceed concurrently (pinned to the epoch they
      // started on); only the in-memory mutation above excluded them.
      // Persist-vs-Persist is serialized inside LiveRelation, and
      // Persist's reads cannot overlap an Ingest because Ingest holds
      // the writer lock, which waits out our reader lock.
      lock.unlock();
      std::shared_lock rlock(mu_);
      auto again = relations_.find(req.relation);
      if (again == relations_.end() || again->second.live.get() != live) {
        return Status::FailedPrecondition(
            "relation '" + req.relation +
            "' was dropped before its ingest batch became durable");
      }
      // A failed Persist deliberately KEEPS the dedup entry: the batch
      // is applied in memory and the client saw an error, so a retry
      // must re-ack, not re-apply; the next successful Persist makes
      // both the batch and its entry durable together.
      MODB_RETURN_IF_ERROR(live->Persist());
      ack.epoch = live->epoch();
      if (!req.client_id.empty()) {
        live->RecordAck(req.client_id, req.batch_seq, ToIngestAck(ack));
      }
      return ack;
    }
  }
  return Status::InvalidArgument("unknown mutation kind " +
                                 std::to_string(int(req.kind)));
}

Status Db::MergeLive(const std::string& name) {
  std::optional<MergePlan> plan;
  int fanout = 16;
  {
    std::shared_lock lock(mu_);
    auto it = relations_.find(name);
    if (it == relations_.end()) {
      return Status::NotFound("no relation named '" + name + "'");
    }
    if (it->second.live == nullptr) {
      return Status::FailedPrecondition("relation '" + name +
                                        "' is not a live relation");
    }
    fanout = it->second.live->options().fanout;
    plan = it->second.live->PrepareMerge();
  }
  if (!plan) return Status::OK();  // empty delta — nothing to compact

  // The expensive part runs with NO lock held.
  RTree3D merged = RTree3D::BulkLoad(plan->entries, fanout);

  std::unique_lock lock(mu_);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  if (it->second.live == nullptr) {
    return Status::FailedPrecondition("relation '" + name +
                                      "' is not a live relation");
  }
  // A stale generation (a seal raced the build) is a clean no-op; the
  // next maintenance round re-prepares against the new generation.
  (void)it->second.live->ApplyMerge(*plan, std::move(merged));
  return Status::OK();
}

Status Db::DrainLive(const std::string& name) {
  std::unique_lock lock(mu_);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  if (it->second.live == nullptr) {
    return Status::FailedPrecondition("relation '" + name +
                                      "' is not a live relation");
  }
  it->second.live->SealAll();
  if (it->second.live->HasStore()) {
    return it->second.live->Persist();
  }
  return Status::OK();
}

Result<QueryResult> Db::Run(const QueryRequest& req,
                            const ExecOptions& options) const {
  Result<QueryResult> out = Status::Internal("query produced no result");
  MODB_RETURN_IF_ERROR(Run(req, options, [&out](QueryResult& r) {
    out = std::move(r);
    return Status::OK();
  }));
  return out;
}

Status Db::Run(const QueryRequest& req, const ExecOptions& options,
               const std::function<Status(QueryResult&)>& consume) const {
  MODB_RETURN_IF_ERROR(ValidateParallelOptions(options.parallel));
  // Expired-on-arrival fails before touching any relation (the morsel
  // engine re-checks cooperatively at every morsel boundary).
  if (options.deadline &&
      std::chrono::steady_clock::now() >= *options.deadline) {
    MODB_COUNTER_INC("exec.deadline_exceeded");
    return Status::DeadlineExceeded(
        "query execution deadline expired before execution started");
  }
  std::shared_lock lock(mu_);

  auto src_it = relations_.find(req.relation);
  if (src_it == relations_.end()) {
    return Status::NotFound("no relation named '" + req.relation + "'");
  }
  const Entry& src = src_it->second;
  const Relation& src_rel = RelOf(src);

  // Store-backed live source: pin its committed epoch for the whole
  // request. A concurrent ingest may commit later epochs while we run
  // (its Persist holds only the reader lock too), but deferred
  // reclamation keeps every page of the pinned snapshot intact until
  // this pin drains with the request.
  VersionedSpillStore::EpochPin epoch_pin;
  if (src.live != nullptr) epoch_pin = src.live->PinStoreEpoch();

  // Every kind lowers to one logical query over the source: filters
  // (ignored by the batch kinds) and the kind's terminal.
  const bool batch = req.kind == QueryRequest::Kind::kAtInstantBatch ||
                     req.kind == QueryRequest::Kind::kPresentBatch;
  exec::LogicalQuery q;
  q.rel = &src_rel;
  if (!batch) {
    for (const FilterSpec& f : req.filters) {
      Result<exec::Predicate> p = LowerFilter(src_rel, f);
      MODB_RETURN_IF_ERROR(p.status());
      q.filters.push_back(*std::move(p));
    }
  }

  switch (req.kind) {
    case QueryRequest::Kind::kSelect:
      break;

    case QueryRequest::Kind::kProject: {
      if (req.project.empty()) {
        return Status::InvalidArgument(
            "project requires at least one attribute");
      }
      std::vector<int> slots;
      for (const std::string& name : req.project) {
        const int slot = src_rel.schema().IndexOf(name);
        if (slot < 0) {
          return Status::InvalidArgument("relation '" + req.relation +
                                         "' has no attribute '" + name + "'");
        }
        slots.push_back(slot);
      }
      q.project = std::move(slots);
      break;
    }

    case QueryRequest::Kind::kJoin:
    case QueryRequest::Kind::kIndexJoin: {
      auto inner_it = relations_.find(req.join_relation);
      if (inner_it == relations_.end()) {
        return Status::NotFound("no relation named '" + req.join_relation +
                                "' (join inner)");
      }
      const Entry& inner = inner_it->second;
      const Relation& inner_rel = RelOf(inner);
      Result<int> outer_slot =
          ResolveSlot(src_rel, req.attr, AttributeType::kMovingPoint);
      MODB_RETURN_IF_ERROR(outer_slot.status());
      Result<int> inner_slot =
          ResolveSlot(inner_rel, req.join_attr, AttributeType::kMovingPoint);
      MODB_RETURN_IF_ERROR(inner_slot.status());
      exec::LogicalQuery::JoinSpec join;
      join.inner = &inner_rel;
      join.attr_outer = *outer_slot;
      join.attr_inner = *inner_slot;
      join.expand = req.distance;
      join.pred = EverCloserPred(*outer_slot, *inner_slot, req.distance);
      join.distinct_pairs = req.distinct_pairs;
      if (req.kind == QueryRequest::Kind::kJoin) {
        join.algorithm = exec::LogicalQuery::JoinSpec::Algorithm::kNestedLoop;
      } else {
        join.algorithm = exec::LogicalQuery::JoinSpec::Algorithm::kIndex;
        if (inner.live != nullptr &&
            *inner_slot == ingest::LiveRelation::kTrailSlot) {
          // Live inner: probe the base/delta/mem stack instead of
          // building a throwaway tree. The probe's sort+dedupe makes
          // the layering invisible in the output.
          join.layers = inner.live->View();
        } else {
          auto tree = inner.indexes.find(*inner_slot);
          if (tree != inner.indexes.end()) join.prebuilt = &tree->second;
        }
      }
      q.join = std::move(join);
      break;
    }

    case QueryRequest::Kind::kAtInstantBatch:
    case QueryRequest::Kind::kPresentBatch: {
      Result<int> slot =
          ResolveSlot(src_rel, req.attr, AttributeType::kMovingPoint);
      MODB_RETURN_IF_ERROR(slot.status());
      const bool xy = req.kind == QueryRequest::Kind::kAtInstantBatch;
      q.batch = exec::BatchOp{
          xy ? exec::BatchOp::Kind::kAtInstant : exec::BatchOp::Kind::kPresent,
          *slot, req.instants};
      q.root_op = xy ? "atinstant_batch_many_xy" : "present_batch_many";
      break;
    }

    case QueryRequest::Kind::kWindowAggregate: {
      Result<int> slot =
          ResolveSlot(src_rel, req.attr, AttributeType::kMovingPoint);
      MODB_RETURN_IF_ERROR(slot.status());
      q.window = exec::WindowAggregateOp{
          *slot,     req.window_t0, req.window_t1, req.window_width,
          req.window_step, req.min_x, req.min_y,   req.max_x,
          req.max_y};
      q.root_op = "window_aggregate";
      break;
    }

    default:
      return Status::InvalidArgument("unknown query kind " +
                                     std::to_string(int(req.kind)));
  }

  // Declared after the lock, so consume runs and the result is dropped
  // before the lock is released.
  QueryResult result;
  ExecOptions run = options;
  run.stats = &result.stats;
  Result<exec::PhysicalPlan> plan = exec::PlanQuery(q);
  MODB_RETURN_IF_ERROR(plan.status());
  Result<exec::PlanOutput> out = exec::RunPlan(*plan, run);
  MODB_RETURN_IF_ERROR(out.status());
  if (!batch) {
    result.payload = QueryResult::Payload::kRows;
    result.rows = std::move(out->rows);
  } else {
    result.batch_tuples = src_rel.NumTuples();
    result.batch_instants = req.instants.size();
    if (req.kind == QueryRequest::Kind::kAtInstantBatch) {
      result.payload = QueryResult::Payload::kXY;
      result.xs = std::move(out->xs);
      result.ys = std::move(out->ys);
      result.defined = std::move(out->flags);
    } else {
      result.payload = QueryResult::Payload::kPresent;
      result.present = std::move(out->flags);
    }
  }

  if (options.stats != nullptr) *options.stats = result.stats;
  return consume(result);
}

}  // namespace modb
