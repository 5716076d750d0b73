#include "temporal/batch_ops.h"

#include "temporal/moving.h"

namespace modb {

void BatchCounters::Flush() {
  if (atinstant_xy_calls != 0) {
    MODB_COUNTER_ADD("temporal.batch.atinstant_xy_calls", atinstant_xy_calls);
  }
  if (present_calls != 0) {
    MODB_COUNTER_ADD("temporal.batch.present_calls", present_calls);
  }
  if (atinstant_instants != 0) {
    MODB_COUNTER_ADD("temporal.batch.atinstant_instants", atinstant_instants);
  }
  if (present_instants != 0) {
    MODB_COUNTER_ADD("temporal.batch.present_instants", present_instants);
  }
  if (units_scanned != 0) {
    MODB_COUNTER_ADD("temporal.batch.units_scanned", units_scanned);
  }
  if (sweep.cursor_hits != 0) {
    MODB_COUNTER_ADD("temporal.batch.sweep_cursor_hits", sweep.cursor_hits);
  }
  if (sweep.gallop_searches != 0) {
    MODB_COUNTER_ADD("temporal.batch.sweep_gallop_searches",
                     sweep.gallop_searches);
  }
  if (sweep.bbox_skips != 0) {
    MODB_COUNTER_ADD("temporal.batch.sweep_bbox_skips", sweep.bbox_skips);
  }
  *this = BatchCounters();
}

// The kernels are header-only templates; this TU compiles the header
// standalone and pins explicit instantiations for the moving types the
// query layer evaluates in bulk, keeping their code out of every
// including TU.

template Status AtInstantBatchInto<UPoint>(const Mapping<UPoint>&,
                                           const std::vector<Instant>&,
                                           std::vector<Intime<Point>>*);
template Status AtInstantBatchInto<UReal>(const Mapping<UReal>&,
                                          const std::vector<Instant>&,
                                          std::vector<Intime<double>>*);
template Result<std::vector<Intime<Point>>> AtInstantBatch<UPoint>(
    const Mapping<UPoint>&, const std::vector<Instant>&);
template Result<std::vector<Intime<double>>> AtInstantBatch<UReal>(
    const Mapping<UReal>&, const std::vector<Instant>&);
template Status AtInstantBatchXYInto<UPoint>(const Mapping<UPoint>&,
                                             const std::vector<Instant>&,
                                             BatchXYOutput*, BatchScratch*);
template Status AtInstantBatchXYInto<UPoint>(const Mapping<UPoint>&,
                                             const std::vector<Instant>&,
                                             BatchXYOutput*, BatchScratch*,
                                             BatchCounters*);
template Status AtInstantBatchManyXY<UPoint>(
    const std::vector<const Mapping<UPoint>*>&, const std::vector<Instant>&,
    std::vector<BatchXYOutput>*);
template Status PresentBatchFill<UPoint>(const Mapping<UPoint>&,
                                         const std::vector<Instant>&,
                                         std::uint8_t*, BatchCounters*);
template Status PresentBatchInto<UPoint>(const Mapping<UPoint>&,
                                         const std::vector<Instant>&,
                                         std::vector<std::uint8_t>*);
template Status PresentBatchInto<UReal>(const Mapping<UReal>&,
                                        const std::vector<Instant>&,
                                        std::vector<std::uint8_t>*);
template Result<std::vector<std::uint8_t>> PresentBatch<UPoint>(
    const Mapping<UPoint>&, const std::vector<Instant>&);
template Result<std::vector<std::uint8_t>> PresentBatch<UReal>(
    const Mapping<UReal>&, const std::vector<Instant>&);

}  // namespace modb
