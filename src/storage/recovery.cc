#include "storage/recovery.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "obs/metrics.h"
#include "validate/validate.h"

namespace modb {

namespace {

// Root record field offsets (docs/STORAGE_FORMAT.md): magic u32 @0,
// version u8 @4, reserved u8 @5, num_roots u16 @6, epoch u64 @8,
// crc u32 @16, entries @20 (16 bytes each: first_page, num_pages,
// num_bytes, type_tag — all u32 LE).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffNumRoots = 6;
constexpr std::size_t kOffEpoch = 8;
constexpr std::size_t kOffCrc = 16;

template <typename T>
void PutField(char* page, std::size_t off, T value) {
  std::memcpy(page + off, &value, sizeof value);
}

template <typename T>
T GetField(const char* page, std::size_t off) {
  T value;
  std::memcpy(&value, page + off, sizeof value);
  return value;
}

std::size_t RootRecordBytes(std::size_t num_roots) {
  return kRootHeaderSize + num_roots * kRootEntrySize;
}

void EncodeRootRecord(std::uint64_t epoch,
                      const std::vector<VersionedRoot>& roots, char* page) {
  std::memset(page, 0, kPageSize);
  PutField(page, kOffMagic, kRootMagic);
  PutField(page, kOffVersion, kRootVersion);
  PutField(page, kOffNumRoots, std::uint16_t(roots.size()));
  PutField(page, kOffEpoch, epoch);
  std::size_t off = kRootHeaderSize;
  for (const VersionedRoot& r : roots) {
    PutField(page, off + 0, r.locator.first_page);
    PutField(page, off + 4, r.locator.num_pages);
    PutField(page, off + 8, r.locator.num_bytes);
    PutField(page, off + 12, std::uint32_t(r.type));
    off += kRootEntrySize;
  }
  // CRC over the used prefix, computed with the crc field still zero.
  PutField(page, kOffCrc, Crc32(page, RootRecordBytes(roots.size())));
}

struct RootCandidate {
  std::uint64_t epoch = 0;
  std::vector<VersionedRoot> roots;
};

/// Parses and structurally checks one root-slot page against the device
/// geometry. Any defect — bad magic/version/CRC, an out-of-bounds or
/// overlapping locator, a locator touching the slot pages — rejects the
/// whole candidate; commit atomicity means the other slot still holds a
/// usable epoch.
Result<RootCandidate> DecodeRootRecord(const char* page,
                                       std::size_t num_device_pages) {
  if (GetField<std::uint32_t>(page, kOffMagic) != kRootMagic) {
    return Status::InvalidArgument("root slot: bad magic");
  }
  if (GetField<std::uint8_t>(page, kOffVersion) != kRootVersion) {
    return Status::InvalidArgument("root slot: unsupported version");
  }
  const std::uint16_t num_roots = GetField<std::uint16_t>(page, kOffNumRoots);
  if (num_roots > kMaxRootsPerStore) {
    return Status::InvalidArgument("root slot: root count exceeds capacity");
  }
  const std::uint32_t stored_crc = GetField<std::uint32_t>(page, kOffCrc);
  char scratch[kPageSize];
  std::memcpy(scratch, page, kPageSize);
  PutField(scratch, kOffCrc, std::uint32_t(0));
  if (Crc32(scratch, RootRecordBytes(num_roots)) != stored_crc) {
    return Status::InvalidArgument(
        "root slot: checksum mismatch (torn or corrupt root write)");
  }
  RootCandidate cand;
  cand.epoch = GetField<std::uint64_t>(page, kOffEpoch);
  cand.roots.reserve(num_roots);
  std::size_t off = kRootHeaderSize;
  for (std::uint16_t i = 0; i < num_roots; ++i) {
    VersionedRoot r;
    r.locator.first_page = GetField<std::uint32_t>(page, off + 0);
    r.locator.num_pages = GetField<std::uint32_t>(page, off + 4);
    r.locator.num_bytes = GetField<std::uint32_t>(page, off + 8);
    r.type = SpillValueType(GetField<std::uint32_t>(page, off + 12));
    off += kRootEntrySize;
    if (r.locator.first_page < 2 || r.locator.num_pages == 0 ||
        std::size_t(r.locator.first_page) + r.locator.num_pages >
            num_device_pages) {
      return Status::InvalidArgument("root slot: locator outside the device");
    }
    if (r.locator.num_pages != SpillPagesNeeded(r.locator.num_bytes)) {
      return Status::InvalidArgument(
          "root slot: locator page count disagrees with its byte count");
    }
    cand.roots.push_back(r);
  }
  // Committed values must occupy disjoint page runs — overlap would make
  // the free-list derivation (and the zero-leak accounting) ill-defined.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
  runs.reserve(cand.roots.size());
  for (const VersionedRoot& r : cand.roots) {
    runs.emplace_back(r.locator.first_page,
                      r.locator.first_page + r.locator.num_pages);
  }
  std::sort(runs.begin(), runs.end());
  for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
    if (runs[i].second > runs[i + 1].first) {
      return Status::InvalidArgument("root slot: locators overlap");
    }
  }
  return cand;
}

bool PageIsAllZero(const char* page) {
  for (std::size_t i = 0; i < kPageSize; ++i) {
    if (page[i] != 0) return false;
  }
  return true;
}

template <typename M, typename Validator>
Status DecodeThenValidate(const FlatView& flat, Validator&& validator) {
  Result<M> value = FlatCodec<M>::FromFlat(flat);
  if (!value.ok()) return value.status();
  return validator(*value);
}

}  // namespace

Status DecodeAndValidateRootBlob(SpillValueType type, std::string_view blob) {
  if (type == SpillValueType::kOpaque) return Status::OK();
  Result<FlatView> flat = ParseFlat(blob);
  if (!flat.ok()) return flat.status();
  const validate::MappingValidator vmap;
  switch (type) {
    case SpillValueType::kMovingBool:
      return DecodeThenValidate<MovingBool>(*flat, vmap);
    case SpillValueType::kMovingInt:
      return DecodeThenValidate<MovingInt>(*flat, vmap);
    case SpillValueType::kMovingString:
      return DecodeThenValidate<MovingString>(*flat, vmap);
    case SpillValueType::kMovingReal:
      return DecodeThenValidate<MovingReal>(*flat, vmap);
    case SpillValueType::kMovingPoint:
      return DecodeThenValidate<MovingPoint>(*flat, vmap);
    case SpillValueType::kMovingPoints:
      return DecodeThenValidate<MovingPoints>(*flat, vmap);
    case SpillValueType::kMovingLine:
      return DecodeThenValidate<MovingLine>(*flat, vmap);
    case SpillValueType::kMovingRegion:
      return DecodeThenValidate<MovingRegion>(*flat, vmap);
    case SpillValueType::kPeriods:
      return DecodeThenValidate<Periods>(
          *flat, [](const Periods& p) { return validate::ValidateRangeSet(p); });
    case SpillValueType::kLine:
      return DecodeThenValidate<Line>(
          *flat, [](const Line& l) { return validate::ValidateLine(l); });
    case SpillValueType::kRegion:
      return DecodeThenValidate<Region>(
          *flat, [](const Region& r) { return validate::ValidateRegion(r); });
    case SpillValueType::kOpaque:
      return Status::OK();
  }
  return Status::InvalidArgument("unknown root value type tag " +
                                 std::to_string(std::uint32_t(type)));
}

Result<VersionedSpillStore> VersionedSpillStore::Create(
    const std::string& path) {
  return Create(path, Options());
}

Result<VersionedSpillStore> VersionedSpillStore::Open(const std::string& path) {
  return Open(path, Options());
}

Result<VersionedSpillStore> VersionedSpillStore::Create(
    const std::string& path, Options options) {
  Result<FilePageDevice> dev = FilePageDevice::Create(path);
  if (!dev.ok()) return dev.status();
  VersionedSpillStore store;
  store.device_ = std::make_unique<FilePageDevice>(std::move(*dev));
  store.options_ = options;
  store.state_ = std::make_shared<SharedState>();
  Result<std::uint32_t> first = store.device_->AllocatePages(2);
  if (!first.ok()) return first.status();
  // Epoch 0 (the empty state) goes to slot 0; slot 1 stays zeroed. The
  // record write is itself the first commit point: once it is durable,
  // every later crash recovers to at least this empty epoch.
  char page[kPageSize];
  EncodeRootRecord(0, {}, page);
  MODB_RETURN_IF_ERROR(store.device_->WritePage(kRootSlotPages[0], page));
  MODB_RETURN_IF_ERROR(store.device_->Sync());
  store.pool_ =
      std::make_unique<BufferPool>(store.device_.get(), options.pool_capacity);
  store.state_->snapshot = std::make_shared<const EpochSnapshot>();
  store.info_.epoch = 0;
  return store;
}

Result<VersionedSpillStore> VersionedSpillStore::Open(const std::string& path,
                                                      Options options) {
  Result<FilePageDevice> dev = FilePageDevice::Open(path);
  if (!dev.ok()) return dev.status();
  VersionedSpillStore store;
  store.device_ = std::make_unique<FilePageDevice>(std::move(*dev));
  store.options_ = options;
  store.state_ = std::make_shared<SharedState>();
  if (store.device_->NumPages() < 2) {
    return Status::DataLoss(
        "store truncated before its root slots existed: " + path);
  }

  // Scan both root slots. A transient read fault is retried; a short
  // read (DataLoss — the slot page is a phantom from a torn growth) is
  // recorded for healing and the slot treated as empty.
  bool heal_slot[2] = {false, false};
  std::vector<RootCandidate> candidates;
  char page[kPageSize];
  for (int s = 0; s < 2; ++s) {
    Status read = RetryTransient(options.retry, [&] {
      return store.device_->ReadPage(kRootSlotPages[s], page);
    });
    if (!read.ok()) {
      if (read.code() != StatusCode::kDataLoss) return read;
      heal_slot[s] = true;
      continue;
    }
    Result<RootCandidate> cand =
        DecodeRootRecord(page, store.device_->NumPages());
    if (cand.ok()) {
      candidates.push_back(std::move(*cand));
    } else if (!PageIsAllZero(page)) {
      ++store.info_.roots_rejected;
      MODB_COUNTER_INC("storage.recovery.root_rejected");
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const RootCandidate& a, const RootCandidate& b) {
              return a.epoch > b.epoch;
            });

  store.pool_ =
      std::make_unique<BufferPool>(store.device_.get(), options.pool_capacity);

  // Newest intact epoch whose every root reads back clean (and, unless
  // disabled, decodes to a value satisfying the Section-3 invariants)
  // wins. A candidate failing either check is rejected wholesale and
  // the older slot gets its turn — that is the "old or new, never a
  // blend" guarantee.
  const RootCandidate* chosen = nullptr;
  Status last_reject = Status::OK();
  for (const RootCandidate& cand : candidates) {
    Status usable = Status::OK();
    for (const VersionedRoot& r : cand.roots) {
      Result<std::string> blob =
          RetryTransientResult<std::string>(options.retry, [&] {
            return ReadSpilledBlob(store.pool_.get(), r.locator);
          });
      if (!blob.ok()) {
        usable = blob.status();
        break;
      }
      if (options.validate_on_open) {
        usable = DecodeAndValidateRootBlob(r.type, *blob);
        if (!usable.ok()) break;
      }
    }
    if (usable.ok()) {
      chosen = &cand;
      break;
    }
    last_reject = usable;
    ++store.info_.roots_rejected;
    MODB_COUNTER_INC("storage.recovery.root_rejected");
  }
  if (chosen == nullptr) {
    return Status::DataLoss(
        "no intact committed state found in " + path +
        (last_reject.ok() ? std::string()
                          : ": " + last_reject.ToString()));
  }

  store.epoch_ = chosen->epoch;
  store.committed_ = chosen->roots;
  store.staged_ = store.committed_;
  store.state_->snapshot = std::make_shared<const EpochSnapshot>(
      EpochSnapshot{store.epoch_, store.committed_});
  store.RecomputeFreeLocked();

  // The free list is derived, never persisted: every page unreachable
  // from the chosen epoch — including shadow pages a crashed commit
  // orphaned — is reclaimed here.
  store.info_.orphans_reclaimed = std::uint32_t(store.state_->free.size());
  MODB_COUNTER_ADD("storage.recovery.orphans_reclaimed",
                   store.state_->free.size());

  // Heal phantom pages: the device header admits them but a torn growth
  // never wrote their bytes, so reads fail until they are materialized.
  // Both free pages (future shadow targets are pinned, which reads
  // first) and an unreadable root slot (the next commit's target) must
  // be healed or the store could never commit again.
  for (std::uint32_t p : store.state_->free) {
    Status probe = RetryTransient(
        options.retry, [&] { return store.device_->ReadPage(p, page); });
    if (probe.ok()) continue;
    if (probe.code() != StatusCode::kDataLoss) return probe;
    std::memset(page, 0, kPageSize);
    MODB_RETURN_IF_ERROR(store.device_->WritePage(p, page));
    ++store.info_.pages_healed;
    MODB_COUNTER_INC("storage.recovery.pages_healed");
  }
  for (int s = 0; s < 2; ++s) {
    if (!heal_slot[s]) continue;
    std::memset(page, 0, kPageSize);
    MODB_RETURN_IF_ERROR(store.device_->WritePage(kRootSlotPages[s], page));
    ++store.info_.pages_healed;
    MODB_COUNTER_INC("storage.recovery.pages_healed");
  }

  store.info_.epoch = store.epoch_;
  store.info_.num_roots = std::uint32_t(store.committed_.size());
  MODB_COUNTER_INC("storage.recovery.replays");
  return store;
}

void VersionedSpillStore::RecomputeFreeLocked() {
  SharedState& s = *state_;
  s.free.clear();
  std::vector<bool> used(device_->NumPages(), false);
  for (std::uint32_t slot : kRootSlotPages) used[slot] = true;
  for (const VersionedRoot& r : committed_) {
    for (std::uint32_t p = 0; p < r.locator.num_pages; ++p) {
      used[r.locator.first_page + p] = true;
    }
  }
  // Retired pages are spoken for until their epoch pins drain —
  // handing them out as shadow targets would scribble over a pinned
  // reader's view.
  for (const RetiredRun& run : s.retired) {
    for (std::uint32_t p : run.pages) used[p] = true;
  }
  for (std::size_t p = 0; p < used.size(); ++p) {
    if (!used[p]) s.free.push_back(std::uint32_t(p));
  }
}

void VersionedSpillStore::DrainRetiredLocked(SharedState* s) {
  const std::uint64_t min_pinned =
      s->pins.empty() ? std::numeric_limits<std::uint64_t>::max()
                      : s->pins.begin()->first;
  auto keep = s->retired.begin();
  for (auto it = s->retired.begin(); it != s->retired.end(); ++it) {
    if (it->last_epoch < min_pinned) {
      MODB_COUNTER_ADD("storage.recovery.retired_reclaimed",
                       it->pages.size());
      s->free.insert(s->free.end(), it->pages.begin(), it->pages.end());
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  s->retired.erase(keep, s->retired.end());
}

Result<std::uint32_t> VersionedSpillStore::AllocateRun(std::uint32_t n) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    std::vector<std::uint32_t>& free = state_->free;
    if (n > 0 && free.size() >= n) {
      std::sort(free.begin(), free.end());
      std::size_t start = 0;
      for (std::size_t i = 1; i <= free.size(); ++i) {
        if (i == free.size() || free[i] != free[i - 1] + 1) {
          if (i - start >= n) {
            std::uint32_t first = free[start];
            free.erase(free.begin() + std::ptrdiff_t(start),
                       free.begin() + std::ptrdiff_t(start + n));
            MODB_COUNTER_ADD("storage.recovery.pages_reused", n);
            return first;
          }
          start = i;
        }
      }
    }
  }
  return device_->AllocatePages(n);
}

Result<SpillLocator> VersionedSpillStore::StageBlobPages(
    std::string_view blob) {
  if (blob.size() > std::size_t(std::uint32_t(-1))) {
    return Status::InvalidArgument("blob too large to spill");
  }
  Result<std::uint32_t> first = AllocateRun(SpillPagesNeeded(blob.size()));
  if (!first.ok()) return first.status();
  return SpillBlobToPages(pool_.get(), *first, blob);
}

Result<std::size_t> VersionedSpillStore::StageBlob(std::string_view blob,
                                                   SpillValueType type) {
  if (abandoned_) return Status::FailedPrecondition("store was abandoned");
  if (staged_.size() >= kMaxRootsPerStore) {
    return Status::FailedPrecondition("root record is full");
  }
  Result<SpillLocator> loc = StageBlobPages(blob);
  if (!loc.ok()) return loc.status();
  staged_.push_back(VersionedRoot{*loc, type});
  return staged_.size() - 1;
}

Status VersionedSpillStore::RestageBlob(std::size_t root_index,
                                        std::string_view blob,
                                        SpillValueType type) {
  if (abandoned_) return Status::FailedPrecondition("store was abandoned");
  if (root_index >= staged_.size()) {
    return Status::OutOfRange("root index out of range");
  }
  Result<SpillLocator> loc = StageBlobPages(blob);
  if (!loc.ok()) return loc.status();
  staged_[root_index] = VersionedRoot{*loc, type};
  return Status::OK();
}

Status VersionedSpillStore::Commit() {
  if (abandoned_) return Status::FailedPrecondition("store was abandoned");
  // Phase 1: every staged data page durable. Only then may the root
  // record mention them — flushing in the other order could persist a
  // root that points at pages the crash never wrote.
  MODB_RETURN_IF_ERROR(pool_->FlushAll());
  const std::uint64_t next = epoch_ + 1;
  {
    Result<BufferPool::PageRef> slot =
        pool_->Pin(kRootSlotPages[next % 2]);
    if (!slot.ok()) return slot.status();
    EncodeRootRecord(next, staged_, slot->mutable_data());
  }
  // Phase 2: the root record is the only dirty page left; this flush is
  // the single-page commit point.
  MODB_RETURN_IF_ERROR(pool_->FlushAll());

  // Pages the outgoing epoch referenced but the new one does not were
  // last needed by epoch `epoch_`; readers pinned there (or earlier)
  // may still be resolving blobs out of them, so they retire instead of
  // freeing and drain when the pins do.
  std::vector<std::uint32_t> new_pages;
  for (const VersionedRoot& r : staged_) {
    for (std::uint32_t p = 0; p < r.locator.num_pages; ++p) {
      new_pages.push_back(r.locator.first_page + p);
    }
  }
  std::sort(new_pages.begin(), new_pages.end());
  RetiredRun retiring;
  retiring.last_epoch = epoch_;
  for (const VersionedRoot& r : committed_) {
    for (std::uint32_t p = 0; p < r.locator.num_pages; ++p) {
      const std::uint32_t page = r.locator.first_page + p;
      if (!std::binary_search(new_pages.begin(), new_pages.end(), page)) {
        retiring.pages.push_back(page);
      }
    }
  }

  epoch_ = next;
  committed_ = staged_;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!retiring.pages.empty()) {
      MODB_COUNTER_ADD("storage.recovery.pages_retired",
                       retiring.pages.size());
      state_->retired.push_back(std::move(retiring));
    }
    RecomputeFreeLocked();
    state_->snapshot = std::make_shared<const EpochSnapshot>(
        EpochSnapshot{epoch_, committed_});
    DrainRetiredLocked(state_.get());
  }
  MODB_COUNTER_INC("storage.recovery.commits");
  return Status::OK();
}

VersionedSpillStore::EpochPin VersionedSpillStore::PinEpoch() {
  std::lock_guard<std::mutex> lock(state_->mu);
  std::shared_ptr<const EpochSnapshot> snap = state_->snapshot;
  ++state_->pins[snap->epoch];
  MODB_COUNTER_INC("storage.recovery.epoch_pins");
  return EpochPin(state_, std::move(snap));
}

void VersionedSpillStore::EpochPin::Release() {
  // Take the reference out first and drop it only after the lock scope:
  // when the store is gone this may be the last SharedState owner, and
  // destroying it inside the lock_guard would unlock a freed mutex.
  if (std::shared_ptr<SharedState> state = std::move(state_)) {
    std::lock_guard<std::mutex> lock(state->mu);
    auto it = state->pins.find(snapshot_->epoch);
    if (it != state->pins.end() && --(it->second) == 0) {
      state->pins.erase(it);
      DrainRetiredLocked(state.get());
    }
  }
  snapshot_.reset();
}

Result<std::string> VersionedSpillStore::ReadRootBlob(std::size_t i) {
  if (abandoned_) return Status::FailedPrecondition("store was abandoned");
  if (i >= committed_.size()) {
    return Status::OutOfRange("root index out of range");
  }
  const SpillLocator loc = committed_[i].locator;
  return RetryTransientResult<std::string>(
      options_.retry, [&] { return ReadSpilledBlob(pool_.get(), loc); });
}

Result<std::string> VersionedSpillStore::ReadRootBlob(const EpochPin& pin,
                                                      std::size_t i) {
  if (!pin) return Status::InvalidArgument("empty epoch pin");
  if (i >= pin.roots().size()) {
    return Status::OutOfRange("root index out of range");
  }
  // No store lock here: the pin's page runs cannot be reused while it
  // lives, and the buffer pool tolerates concurrent pins, so this runs
  // lock-free against a writer committing the next epoch.
  const SpillLocator loc = pin.roots()[i].locator;
  return RetryTransientResult<std::string>(
      options_.retry, [&] { return ReadSpilledBlob(pool_.get(), loc); });
}

Status VersionedSpillStore::Abandon() {
  abandoned_ = true;
  return pool_->DiscardAll();
}

std::uint64_t VersionedSpillStore::epoch() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->snapshot->epoch;
}

std::size_t VersionedSpillStore::NumFreePages() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->free.size();
}

std::size_t VersionedSpillStore::NumRetiredPages() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  std::size_t n = 0;
  for (const RetiredRun& run : state_->retired) n += run.pages.size();
  return n;
}

std::size_t VersionedSpillStore::NumPinnedEpochs() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->pins.size();
}

Status VersionedSpillStore::VerifyAccounting() const {
  std::size_t reachable = 0;
  for (const VersionedRoot& r : committed_) reachable += r.locator.num_pages;
  std::size_t free_pages = 0, retired = 0;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    free_pages = state_->free.size();
    for (const RetiredRun& run : state_->retired) retired += run.pages.size();
  }
  const std::size_t total = device_->NumPages();
  if (2 + reachable + free_pages + retired != total) {
    return Status::Internal(
        "page accounting broken: 2 slots + " + std::to_string(reachable) +
        " reachable + " + std::to_string(free_pages) + " free + " +
        std::to_string(retired) + " retired != " + std::to_string(total) +
        " device pages");
  }
  return Status::OK();
}

}  // namespace modb
