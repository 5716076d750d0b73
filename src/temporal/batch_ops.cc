#include "temporal/batch_ops.h"

#include "temporal/moving.h"

namespace modb {

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
template Status AtInstantBatchManyXY<UPoint>(
    const std::vector<const Mapping<UPoint>*>&, const std::vector<Instant>&,
    std::vector<BatchXYOutput>*);
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
