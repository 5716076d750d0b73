#include "exec/spilled_relation.h"

#include <utility>

#include "obs/metrics.h"
#include "temporal/upoint.h"

namespace modb {
namespace exec {

Result<SpilledRelation> SpilledRelation::Spill(const Relation& rel, int attr,
                                               PageDevice* device,
                                               BufferPool* pool) {
  if (attr < 0 || std::size_t(attr) >= rel.schema().NumAttributes()) {
    return Status::InvalidArgument("spill attribute " + std::to_string(attr) +
                                   " out of range for " + rel.name());
  }
  Relation skeleton(rel.name(), rel.schema());
  std::vector<Spilled<MovingPoint>> handles;
  std::vector<SpilledStats> stats;
  handles.reserve(rel.NumTuples());
  stats.reserve(rel.NumTuples());
  for (std::size_t i = 0; i < rel.NumTuples(); ++i) {
    const Tuple& t = rel.tuple(i);
    const auto* mp = std::get_if<MovingPoint>(&t[std::size_t(attr)]);
    if (mp == nullptr) {
      return Status::InvalidArgument("attribute " + std::to_string(attr) +
                                     " of " + rel.name() +
                                     " is not a moving point");
    }
    SpilledStats s;
    s.num_units = std::uint32_t(mp->NumUnits());
    if (!mp->IsEmpty()) {
      s.min_start = mp->units().front().interval().start();
      s.max_end = mp->units().back().interval().end();
      for (const UPoint& u : mp->units()) s.bbox.Extend(u.BoundingCube());
    }
    Result<Spilled<MovingPoint>> handle = Spilled<MovingPoint>::Spill(*mp, device);
    if (!handle.ok()) return handle.status();
    Tuple skel = t;
    skel[std::size_t(attr)] = MovingPoint();  // placeholder; value is on pages
    MODB_RETURN_IF_ERROR(skeleton.Insert(std::move(skel)));
    handles.push_back(std::move(*handle));
    stats.push_back(s);
  }
  MODB_COUNTER_ADD("exec.spilled_relation.values_spilled", rel.NumTuples());
  return SpilledRelation(std::move(skeleton), attr, pool, std::move(handles),
                         std::move(stats));
}

Result<Tuple> SpilledRelation::MaterializeTuple(std::size_t i) {
  Result<const MovingPoint*> mp = handles_[i].Load(pool_);
  if (!mp.ok()) return mp.status();
  Tuple t = skeleton_.tuple(i);
  t[std::size_t(attr_)] = **mp;
  return t;
}

Result<Relation> SpilledRelation::MaterializeAll() {
  Relation out(skeleton_.name(), skeleton_.schema());
  for (std::size_t i = 0; i < NumTuples(); ++i) {
    Result<Tuple> t = MaterializeTuple(i);
    if (!t.ok()) return t.status();
    MODB_RETURN_IF_ERROR(out.Insert(std::move(*t)));
  }
  return out;
}

}  // namespace exec
}  // namespace modb
