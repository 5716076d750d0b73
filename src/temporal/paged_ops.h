// Query operators over *spilled* mappings: the Section-5 algorithms
// (atinstant, present) evaluated against values that live on secondary
// memory as checksummed pages (storage/spill.h) rather than in RAM. Each
// reader loads the mapping on demand through a BufferPool — cold calls
// pay one device read per page, warm calls none — then runs the same
// batch kernels over the same unit records as the in-memory path, so
// results are identical regardless of where the value resides.

#ifndef MODB_TEMPORAL_PAGED_OPS_H_
#define MODB_TEMPORAL_PAGED_OPS_H_

#include <cstdint>
#include <vector>

#include "core/instant.h"
#include "core/intime.h"
#include "core/status.h"
#include "storage/spill.h"
#include "temporal/batch_ops.h"
#include "temporal/mapping.h"

namespace modb {

/// atinstant over ascending instants against a spilled mapping; the paged
/// counterpart of AtInstantBatchInto (identical output).
template <typename U>
Status AtInstantBatchSpilled(Spilled<Mapping<U>>* value, BufferPool* pool,
                             const std::vector<Instant>& instants,
                             std::vector<Intime<typename U::ValueType>>* out) {
  Result<const Mapping<U>*> m = value->Load(pool);
  if (!m.ok()) return m.status();
  return AtInstantBatchInto(**m, instants, out);
}

/// present over ascending instants against a spilled mapping; the paged
/// counterpart of PresentBatchInto.
template <typename U>
Status PresentBatchSpilled(Spilled<Mapping<U>>* value, BufferPool* pool,
                           const std::vector<Instant>& instants,
                           std::vector<std::uint8_t>* out) {
  Result<const Mapping<U>*> m = value->Load(pool);
  if (!m.ok()) return m.status();
  return PresentBatchInto(**m, instants, out);
}

/// present at a single instant against a spilled mapping.
template <typename U>
Result<bool> PresentSpilled(Spilled<Mapping<U>>* value, BufferPool* pool,
                            Instant t) {
  Result<const Mapping<U>*> m = value->Load(pool);
  if (!m.ok()) return m.status();
  return (*m)->Present(t);
}

}  // namespace modb

#endif  // MODB_TEMPORAL_PAGED_OPS_H_
