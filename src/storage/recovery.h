// Crash-consistent commits for spilled attribute values: shadow paging
// plus an atomically switched, versioned root record.
//
// The paged storage layer (spill.h) writes a value once and never
// moves it; what was missing is a story for *updating* a store without
// a window where a crash loses both the old and the new state. The
// protocol here closes that window:
//
//   1. Staged writes go only to *shadow pages* — pages no committed
//      root references (the in-memory free list, or fresh allocation).
//      Committed bytes are never overwritten.
//   2. Commit makes the staged pages durable (buffer-pool flush), then
//      writes a new root record — epoch, CRC, and one locator per
//      root value — into the root slot the *previous* epoch does not
//      occupy (page `epoch % 2`, alternating between pages 0 and 1),
//      and flushes again. The root-record write is the commit point:
//      a single page write, last-wins by highest intact epoch.
//
// Every crash prefix of that sequence leaves the device with at least
// one intact root record whose pages were never touched afterwards, so
// Open() always lands on a complete committed state — the old epoch or
// the new one, never a blend. Open() re-derives the free list (it is
// deliberately not persisted; pages unreachable from the chosen root
// are reclaimed as orphans), heals phantom pages a torn file growth
// left unreadable, retries transient read errors under a bounded
// backoff (storage/retry.h), and refuses to serve any root whose
// decoded value violates the Section-3 invariants (validate/validate.h).
//
// Concurrent snapshot readers: shadow paging is MVCC for free. A
// reader calls PinEpoch() to take an immutable snapshot of the current
// committed epoch (its number and root table), then resolves blobs
// against the pin — lock-free and unaffected by a writer staging and
// committing the next epoch, because committed pages are never
// overwritten. The one thing a commit does reclaim is the pages a
// *replaced* root occupied; with pins outstanding those runs are
// parked on a retired list and only drain back into the free list when
// every pin on an epoch that could reference them is released —
// deferred reclamation, accounted by VerifyAccounting.
//
// Byte-level layout of the root record: docs/STORAGE_FORMAT.md.

#ifndef MODB_STORAGE_RECOVERY_H_
#define MODB_STORAGE_RECOVERY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/retry.h"
#include "storage/spill.h"

namespace modb {

// -- root record layout constants (see docs/STORAGE_FORMAT.md) ---------------

inline constexpr std::uint32_t kRootMagic = 0x4d4f5352;  // "MOSR" (LE)
inline constexpr std::uint8_t kRootVersion = 1;
/// Fixed page ids of the two root slots; epoch e lives in slot e % 2.
inline constexpr std::uint32_t kRootSlotPages[2] = {0, 1};
inline constexpr std::size_t kRootHeaderSize = 20;
inline constexpr std::size_t kRootEntrySize = 16;
/// Roots one record can hold: (4096 - 20) / 16.
inline constexpr std::size_t kMaxRootsPerStore =
    (kPageSize - kRootHeaderSize) / kRootEntrySize;

/// Type tag stored with each root entry so recovery knows how to decode
/// and validate the blob without out-of-band schema knowledge.
enum class SpillValueType : std::uint32_t {
  kOpaque = 0,  // checksummed bytes; no decode/validation possible
  kMovingBool = 1,
  kMovingInt = 2,
  kMovingString = 3,
  kMovingReal = 4,
  kMovingPoint = 5,
  kMovingPoints = 6,
  kMovingLine = 7,
  kMovingRegion = 8,
  kPeriods = 9,
  kLine = 10,
  kRegion = 11,
};

/// Maps a flat-codable type to its root-entry tag.
template <typename M>
struct SpillTypeOf;
#define MODB_SPILL_TYPE_OF(M, tag)                             \
  template <>                                                  \
  struct SpillTypeOf<M> {                                      \
    static constexpr SpillValueType value = SpillValueType::tag; \
  }
MODB_SPILL_TYPE_OF(MovingBool, kMovingBool);
MODB_SPILL_TYPE_OF(MovingInt, kMovingInt);
MODB_SPILL_TYPE_OF(MovingString, kMovingString);
MODB_SPILL_TYPE_OF(MovingReal, kMovingReal);
MODB_SPILL_TYPE_OF(MovingPoint, kMovingPoint);
MODB_SPILL_TYPE_OF(MovingPoints, kMovingPoints);
MODB_SPILL_TYPE_OF(MovingLine, kMovingLine);
MODB_SPILL_TYPE_OF(MovingRegion, kMovingRegion);
MODB_SPILL_TYPE_OF(Periods, kPeriods);
MODB_SPILL_TYPE_OF(Line, kLine);
MODB_SPILL_TYPE_OF(Region, kRegion);
#undef MODB_SPILL_TYPE_OF

/// One committed value: where its bytes live and how to decode them.
struct VersionedRoot {
  SpillLocator locator;
  SpillValueType type = SpillValueType::kOpaque;
};

/// Decodes `blob` according to `type` and checks the Section-3
/// structural invariants of the decoded value (validate/validate.h).
/// kOpaque blobs pass trivially — their integrity is the page CRCs'.
Status DecodeAndValidateRootBlob(SpillValueType type, std::string_view blob);

/// A page-device-backed store of versioned spilled values with
/// crash-consistent commits. Staging and Commit are single-writer;
/// any number of concurrent readers run against pinned epochs.
class VersionedSpillStore {
 public:
  struct Options {
    std::size_t pool_capacity = 64;
    /// Backoff for transient read errors during Open/ReadRootBlob.
    RetryPolicy retry;
    /// When false, Open() serves roots on CRC trust alone (skips the
    /// decode + invariant pass). The validated path is the default;
    /// benches use this to measure its cost.
    bool validate_on_open = true;
  };

  /// What Open()'s recovery pass did — exposed for tests, tools, and
  /// the crash campaign's leak accounting.
  struct RecoveryInfo {
    std::uint64_t epoch = 0;
    std::uint32_t num_roots = 0;
    /// Root-slot candidates rejected (bad magic/CRC, out-of-bounds or
    /// overlapping locators, or values failing decode/validation).
    std::uint32_t roots_rejected = 0;
    /// Unreachable pages reclaimed into the free list. The free list is
    /// not persisted, so this counts every non-root, non-slot page not
    /// referenced by the chosen epoch — orphaned shadow pages included.
    std::uint32_t orphans_reclaimed = 0;
    /// Phantom pages (admitted by the device header but unreadable
    /// after a torn growth) re-materialized as zero pages.
    std::uint32_t pages_healed = 0;
  };

  /// An immutable view of one committed epoch: its number and root
  /// table, snapshotted at pin time.
  struct EpochSnapshot {
    std::uint64_t epoch = 0;
    std::vector<VersionedRoot> roots;
  };

 private:
  /// A run of pages the commit of `last_epoch + 1` un-referenced; free
  /// to reuse only once no pin on any epoch <= last_epoch remains.
  struct RetiredRun {
    std::uint64_t last_epoch = 0;
    std::vector<std::uint32_t> pages;
  };

  /// Reader-visible bookkeeping, heap-shared so pins survive moves of
  /// the store object itself.
  struct SharedState {
    std::mutex mu;
    std::vector<std::uint32_t> free;
    std::vector<RetiredRun> retired;
    std::map<std::uint64_t, std::uint32_t> pins;  // epoch -> pin count
    std::shared_ptr<const EpochSnapshot> snapshot;
  };

 public:
  /// An RAII pin on one committed epoch. While alive, every page run
  /// the pinned epoch references stays untouched on the device — a
  /// writer may stage and commit later epochs concurrently, but
  /// reclamation of the pinned epoch's pages is deferred until the
  /// last pin on it drains. Reads through the pin (ReadRootBlob /
  /// LoadRoot overloads) never take the store's metadata lock.
  class EpochPin {
   public:
    EpochPin() = default;
    EpochPin(EpochPin&& o) noexcept { *this = std::move(o); }
    EpochPin& operator=(EpochPin&& o) noexcept {
      if (this != &o) {
        Release();
        state_ = std::move(o.state_);
        snapshot_ = std::move(o.snapshot_);
      }
      return *this;
    }
    EpochPin(const EpochPin&) = delete;
    EpochPin& operator=(const EpochPin&) = delete;
    ~EpochPin() { Release(); }

    explicit operator bool() const { return snapshot_ != nullptr; }
    std::uint64_t epoch() const { return snapshot_->epoch; }
    const std::vector<VersionedRoot>& roots() const {
      return snapshot_->roots;
    }
    std::size_t NumRoots() const { return snapshot_->roots.size(); }

    /// Early release; the pin becomes empty. Dropping the last pin on
    /// an epoch drains any page runs whose reclamation it deferred.
    void Release();

   private:
    friend class VersionedSpillStore;
    EpochPin(std::shared_ptr<SharedState> state,
             std::shared_ptr<const EpochSnapshot> snapshot)
        : state_(std::move(state)), snapshot_(std::move(snapshot)) {}

    std::shared_ptr<SharedState> state_;
    std::shared_ptr<const EpochSnapshot> snapshot_;
  };

  /// Creates an empty store at `path` (truncating) and commits epoch 0.
  static Result<VersionedSpillStore> Create(const std::string& path,
                                            Options options);
  static Result<VersionedSpillStore> Create(const std::string& path);

  /// Opens and recovers a store: picks the newest intact root record,
  /// verifies and (by default) validates every root value, reclaims
  /// orphans, and heals phantom pages. After a crash at *any* point of
  /// a previous commit, this lands on the old or the new committed
  /// state — never a blend, never corrupt bytes.
  static Result<VersionedSpillStore> Open(const std::string& path,
                                          Options options);
  static Result<VersionedSpillStore> Open(const std::string& path);

  VersionedSpillStore(VersionedSpillStore&&) = default;
  VersionedSpillStore& operator=(VersionedSpillStore&&) = default;

  // -- staging (shadow writes; invisible until Commit) -----------------------

  /// Appends a new root holding `blob`; returns its root index.
  Result<std::size_t> StageBlob(std::string_view blob, SpillValueType type);

  /// Replaces root `root_index` with `blob`. The old version's pages
  /// stay untouched until the commit that abandons them succeeds.
  Status RestageBlob(std::size_t root_index, std::string_view blob,
                     SpillValueType type);

  /// Typed flavors: serialize `value` and stage it under its type tag.
  template <typename M>
  Result<std::size_t> StageValue(const M& value) {
    Result<FlatValue> flat = spill_internal::EncodeToFlat(value);
    if (!flat.ok()) return flat.status();
    return StageBlob(SerializeFlat(*flat), SpillTypeOf<M>::value);
  }
  template <typename M>
  Status RestageValue(std::size_t root_index, const M& value) {
    Result<FlatValue> flat = spill_internal::EncodeToFlat(value);
    if (!flat.ok()) return flat.status();
    return RestageBlob(root_index, SerializeFlat(*flat),
                       SpillTypeOf<M>::value);
  }

  /// Makes every staged change durable and atomically switches to the
  /// next epoch. On failure the previous epoch remains the committed
  /// state (and is what a subsequent Open recovers). Readers pinned on
  /// older epochs are unaffected: the page runs this commit replaces
  /// are parked until their pins drain.
  Status Commit();

  // -- reading committed state -----------------------------------------------

  /// The current committed epoch. Safe to read from any thread, even
  /// while a writer commits (it reads the published snapshot).
  std::uint64_t epoch() const;
  std::size_t NumRoots() const { return committed_.size(); }
  const std::vector<VersionedRoot>& roots() const { return committed_; }

  /// Pins the current committed epoch. Safe to call from any thread;
  /// the returned pin's reads run concurrently with a committing
  /// writer.
  EpochPin PinEpoch();

  /// The committed bytes of root `i`, CRC-verified, with transient read
  /// errors retried under the store's RetryPolicy. The non-pinned
  /// overload reads the writer's current epoch and must not race a
  /// concurrent Commit; the pinned overload is lock-free against one.
  Result<std::string> ReadRootBlob(std::size_t i);
  Result<std::string> ReadRootBlob(const EpochPin& pin, std::size_t i);

  /// Decodes root `i` as `M` (the stored tag must match).
  template <typename M>
  Result<M> LoadRoot(std::size_t i) {
    if (i >= committed_.size()) {
      return Status::OutOfRange("root index out of range");
    }
    if (committed_[i].type != SpillTypeOf<M>::value) {
      return Status::InvalidArgument("root type tag mismatch");
    }
    Result<std::string> blob = ReadRootBlob(i);
    if (!blob.ok()) return blob.status();
    Result<FlatView> flat = ParseFlat(*blob);
    if (!flat.ok()) return flat.status();
    return FlatCodec<M>::FromFlat(*flat);
  }
  template <typename M>
  Result<M> LoadRoot(const EpochPin& pin, std::size_t i) {
    if (!pin) return Status::InvalidArgument("empty epoch pin");
    if (i >= pin.roots().size()) {
      return Status::OutOfRange("root index out of range");
    }
    if (pin.roots()[i].type != SpillTypeOf<M>::value) {
      return Status::InvalidArgument("root type tag mismatch");
    }
    Result<std::string> blob = ReadRootBlob(pin, i);
    if (!blob.ok()) return blob.status();
    Result<FlatView> flat = ParseFlat(*blob);
    if (!flat.ok()) return flat.status();
    return FlatCodec<M>::FromFlat(*flat);
  }

  // -- crash simulation / introspection --------------------------------------

  /// Drops every cached page *without* flushing — the in-memory half of
  /// "the process died here". The store must not be used afterwards
  /// except to be destroyed; reopen the file with Open() instead.
  Status Abandon();

  BufferPool* pool() { return pool_.get(); }
  PageDevice* device() { return device_.get(); }
  const RecoveryInfo& recovery_info() const { return info_; }
  std::size_t NumFreePages() const;
  std::size_t NumDevicePages() const { return device_->NumPages(); }
  /// Pages parked on the retired list, waiting for epoch pins to drain.
  std::size_t NumRetiredPages() const;
  /// Distinct epochs currently holding at least one pin.
  std::size_t NumPinnedEpochs() const;

  /// The zero-leak invariant: slots + pages reachable from the
  /// committed roots + free pages + retired (pin-deferred) pages
  /// account for every device page.
  Status VerifyAccounting() const;

 private:
  VersionedSpillStore() = default;

  /// Rebuilds the free list as every page not in {0,1}, not referenced
  /// by `committed_`, and not parked on the retired list. Caller holds
  /// state_->mu (or is single-threaded during Create/Open).
  void RecomputeFreeLocked();

  /// Moves retired runs whose pins have drained into the free list.
  static void DrainRetiredLocked(SharedState* s);

  /// Takes `n` consecutive pages from the free list, or grows the
  /// device. Removed from the free list immediately so a later stage in
  /// the same epoch cannot reuse them.
  Result<std::uint32_t> AllocateRun(std::uint32_t n);

  Result<SpillLocator> StageBlobPages(std::string_view blob);

  std::unique_ptr<FilePageDevice> device_;
  std::unique_ptr<BufferPool> pool_;
  Options options_;
  std::uint64_t epoch_ = 0;
  std::vector<VersionedRoot> committed_;
  std::vector<VersionedRoot> staged_;
  std::shared_ptr<SharedState> state_;
  RecoveryInfo info_;
  bool abandoned_ = false;
};

}  // namespace modb

#endif  // MODB_STORAGE_RECOVERY_H_
