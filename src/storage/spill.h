// The spill format: a serialized flat attribute value (root record +
// database arrays, storage/flat.h) laid out across device pages, each
// page carrying a checksummed, versioned header. This is the durable,
// self-verifying shape of the paper's Section-4 representation — the
// database arrays of Figure 7 paged per [DG98] — and the reason torn or
// corrupt writes surface as Result<> errors instead of silently decoding
// garbage. Byte-level layout: docs/STORAGE_FORMAT.md.
//
// Reads go through a BufferPool, so a cold value costs one device read
// per page and a warm one costs none; Spilled<M> additionally memoizes
// the decoded value, the load-on-demand handle the paged query readers
// (temporal/paged_ops.h) evaluate AtInstantBatch/Present against. The
// memoized value is exactly what was decoded: no side structure is
// built at load.

#ifndef MODB_STORAGE_SPILL_H_
#define MODB_STORAGE_SPILL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

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

/// A load-on-demand handle to one spilled value. Holds only the locator
/// (12 bytes) until Load() is called; Load pins the value's pages through
/// the pool, verifies them, decodes, and memoizes the result until
/// Release(). A relation of Spilled<M> handles therefore occupies RAM
/// proportional to what queries actually touch, not to its total size.
template <typename M>
class Spilled {
 public:
  Spilled() = default;
  explicit Spilled(SpillLocator loc) : loc_(loc) {}

  /// Serializes `value` and writes it to `device`.
  static Result<Spilled> Spill(const M& value, PageDevice* device) {
    Result<FlatValue> flat = spill_internal::EncodeToFlat(value);
    if (!flat.ok()) return flat.status();
    Result<SpillLocator> loc = SpillBlob(device, SerializeFlat(*flat));
    if (!loc.ok()) return loc.status();
    return Spilled(*loc);
  }

  /// The decoded value, loading through `pool` on first call.
  Result<const M*> Load(BufferPool* pool) {
    if (!cached_) {
      Result<std::string> blob = ReadSpilledBlob(pool, loc_);
      if (!blob.ok()) return blob.status();
      Result<FlatView> flat = ParseFlat(*blob);
      if (!flat.ok()) return flat.status();
      Result<M> value = FlatCodec<M>::FromFlat(*flat);
      if (!value.ok()) return value.status();
      cached_.emplace(std::move(*value));
    }
    return &*cached_;
  }

  /// Load with a structural validation pass (e.g.
  /// validate::MappingValidator from src/validate/validate.h) run over
  /// the decoded value before it is memoized: a value that violates the
  /// Section-3 invariants is never served. `validator` is any callable
  /// `const M& -> Status`. Costs one extra pass at decode time only —
  /// warm calls return the memoized value untouched.
  template <typename Validator>
  Result<const M*> LoadValidated(BufferPool* pool, Validator&& validator) {
    const bool was_loaded = cached_.has_value();
    Result<const M*> loaded = Load(pool);
    if (!loaded.ok()) return loaded;
    if (!was_loaded) {
      Status valid = validator(**loaded);
      if (!valid.ok()) {
        cached_.reset();  // never serve (or cache) an invalid value
        return valid;
      }
    }
    return loaded;
  }

  /// Drops the decoded value (the pages stay on the device, and possibly
  /// in the pool). The next Load decodes again.
  void Release() { cached_.reset(); }

  bool IsLoaded() const { return cached_.has_value(); }
  const SpillLocator& locator() const { return loc_; }

 private:
  SpillLocator loc_;
  std::optional<M> cached_;
};

}  // namespace modb

#endif  // MODB_STORAGE_SPILL_H_
