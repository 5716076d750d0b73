// The spill format: a serialized flat attribute value (root record +
// database arrays, storage/flat.h) laid out across device pages, each
// page carrying a checksummed, versioned header. This is the durable,
// self-verifying shape of the paper's Section-4 representation — the
// database arrays of Figure 7 paged per [DG98] — and the reason torn or
// corrupt writes surface as Result<> errors instead of silently decoding
// garbage. Byte-level layout: docs/STORAGE_FORMAT.md.
//
// Reads go through a BufferPool, so a cold value costs one device read
// per page and a warm one costs none. A typed value round-trips as
// SpillBlob(SerializeFlat(ToFlat(v))) → ReadSpilledBlob → ParseFlat →
// FlatCodec<M>::FromFlat, the path recovery (storage/recovery.h) reads
// every root through.

#ifndef MODB_STORAGE_SPILL_H_
#define MODB_STORAGE_SPILL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/status.h"
#include "storage/buffer_pool.h"
#include "storage/flat.h"
#include "storage/page_store.h"

namespace modb {

// -- page layout constants (see docs/STORAGE_FORMAT.md) ----------------------

inline constexpr std::uint32_t kSpillMagic = 0x4d4f5350;  // "MOSP" (LE)
inline constexpr std::uint8_t kSpillVersion = 1;
/// flags bit 0: set on the first page of a value.
inline constexpr std::uint8_t kSpillFlagFirstPage = 1;
inline constexpr std::size_t kSpillHeaderSize = 16;
inline constexpr std::size_t kSpillPayloadSize = kPageSize - kSpillHeaderSize;

/// Root pointer to one spilled value: `num_bytes` of serialized flat blob
/// in `num_pages` consecutive pages starting at `first_page`.
struct SpillLocator {
  std::uint32_t first_page = 0;
  std::uint32_t num_pages = 0;
  std::uint32_t num_bytes = 0;
};

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over `n` bytes.
std::uint32_t Crc32(const char* data, std::size_t n);

/// Pages needed to spill a blob of `num_bytes` (an empty blob still
/// roots one page).
std::uint32_t SpillPagesNeeded(std::size_t num_bytes);

/// Writes `blob` into freshly allocated pages of `device`, each prefixed
/// with a checksummed header.
Result<SpillLocator> SpillBlob(PageDevice* device, std::string_view blob);

/// Writes `blob` into `SpillPagesNeeded(blob.size())` consecutive
/// already-allocated pages starting at `first_page`, going through the
/// pool (pages are pinned, overwritten, and marked dirty — durable after
/// the pool flushes). This is the shadow-paging write path: the
/// versioned store stages new value versions into free pages with it and
/// the cache stays coherent because the pool sees every byte.
Result<SpillLocator> SpillBlobToPages(BufferPool* pool,
                                      std::uint32_t first_page,
                                      std::string_view blob);

/// Reads a spilled blob back through the pool, verifying every page's
/// magic, version, sequence number, payload length, and checksum. Any
/// mismatch — including a torn write that persisted only a prefix of a
/// page — is an error; no corrupt bytes are ever returned.
Result<std::string> ReadSpilledBlob(BufferPool* pool, const SpillLocator& loc);

// -- typed layer -------------------------------------------------------------

namespace spill_internal {

/// Unifies the two ToFlat return shapes (FlatValue and Result<FlatValue>).
template <typename M>
Result<FlatValue> EncodeToFlat(const M& value) {
  return ToFlat(value);
}

}  // namespace spill_internal

/// Per-type decoder; specialized for every flat-codable moving type.
template <typename M>
struct FlatCodec;

#define MODB_SPILL_CODEC(M, FromFn)                  \
  template <>                                        \
  struct FlatCodec<M> {                              \
    static Result<M> FromFlat(const FlatView& f) {   \
      return FromFn(f);                              \
    }                                                \
  }
MODB_SPILL_CODEC(MovingBool, MovingBoolFromFlat);
MODB_SPILL_CODEC(MovingInt, MovingIntFromFlat);
MODB_SPILL_CODEC(MovingString, MovingStringFromFlat);
MODB_SPILL_CODEC(MovingReal, MovingRealFromFlat);
MODB_SPILL_CODEC(MovingPoint, MovingPointFromFlat);
MODB_SPILL_CODEC(MovingPoints, MovingPointsFromFlat);
MODB_SPILL_CODEC(MovingLine, MovingLineFromFlat);
MODB_SPILL_CODEC(MovingRegion, MovingRegionFromFlat);
// Non-mapping attribute types the versioned store can also root.
MODB_SPILL_CODEC(Periods, PeriodsFromFlat);
MODB_SPILL_CODEC(Line, LineFromFlat);
MODB_SPILL_CODEC(Region, RegionFromFlat);
#undef MODB_SPILL_CODEC

}  // namespace modb

#endif  // MODB_STORAGE_SPILL_H_
