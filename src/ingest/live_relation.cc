#include "ingest/live_relation.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "storage/flat.h"

namespace modb {
namespace ingest {

namespace {

// Manifest (store root 0), hand-encoded little-endian:
//   "MOLV" u32 version  u32 count
//   per object, in row order:
//     u32 id_len  id bytes  u8 kind  f64 last_t  f64 last_x  f64 last_y
//   v2 appends the ingest dedup window:
//     u32 num_clients
//     per client, ascending id: u32 id_len  id bytes  u32 num_acks
//       per ack, ascending seq: u64 seq  u64 ack fields x7
//         (accepted objects mem_units delta_entries base_entries
//          merges epoch)
//   v3 appends the fix log, every fix absorbed since the checkpoint in
//   commit order:
//     u32 num_fixes  per fix: u32 row  f64 t  f64 x  f64 y
// kind: 0 = root i+1 is the 1-byte placeholder (a single fix, no
// units), 1 = root i+1 is the trajectory, 2 (v3 only) = no root yet —
// the object was first seen after the checkpoint and lives in the log
// alone; kind-2 objects follow every rooted one. (last_t, last_x,
// last_y) is the object's exact last fix as of the checkpoint (v1/v2:
// as of the commit — they have no log), zero for kind 2. It is
// persisted verbatim: re-deriving it from the final unit's motion
// coefficients would round, and bitwise resume needs the exact anchor
// the next Absorb extends from. v1 and v2 manifests still recover — v1
// with an empty dedup window, both with an empty log.
constexpr char kManifestMagic[4] = {'M', 'O', 'L', 'V'};
constexpr std::uint32_t kManifestVersion = 3;
constexpr std::uint32_t kMinManifestVersion = 1;
constexpr std::uint8_t kKindPlaceholder = 0;
constexpr std::uint8_t kKindTrail = 1;
constexpr std::uint8_t kKindLogOnly = 2;
// Encoded size of one log fix: u32 row + 3 f64.
constexpr std::size_t kLogFixBytes = 4 + 3 * 8;
// Root slot for an object that has an anchor but no units yet: a 1-byte
// opaque placeholder keeps root i+1 <-> row i alignment.
constexpr std::string_view kPlaceholderBlob = std::string_view("\0", 1);

void AppendU32(std::string* out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, sizeof v);
  out->append(b, sizeof v);
}

void AppendF64(std::string* out, double v) {
  char b[8];
  std::memcpy(b, &v, sizeof v);
  out->append(b, sizeof v);
}

void AppendU64(std::string* out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, sizeof v);
  out->append(b, sizeof v);
}

bool ReadU32(std::string_view s, std::size_t* off, std::uint32_t* v) {
  if (s.size() - *off < sizeof *v) return false;
  std::memcpy(v, s.data() + *off, sizeof *v);
  *off += sizeof *v;
  return true;
}

bool ReadF64(std::string_view s, std::size_t* off, double* v) {
  if (s.size() - *off < sizeof *v) return false;
  std::memcpy(v, s.data() + *off, sizeof *v);
  *off += sizeof *v;
  return true;
}

bool ReadU64(std::string_view s, std::size_t* off, std::uint64_t* v) {
  if (s.size() - *off < sizeof *v) return false;
  std::memcpy(v, s.data() + *off, sizeof *v);
  *off += sizeof *v;
  return true;
}

Status BadManifest(const std::string& what) {
  return Status::DataLoss("live relation manifest: " + what);
}

}  // namespace

LiveRelation::LiveRelation(std::string name, LiveOptions options)
    : options_(options),
      rel_(std::move(name),
           Schema({{"id", AttributeType::kString},
                   {"trail", AttributeType::kMovingPoint}})) {
  if (options_.seal_units == 0) options_.seal_units = 1;
  if (options_.merge_threshold == 0) options_.merge_threshold = 1;
}

std::optional<std::size_t> LiveRelation::RowOf(
    const std::string& object_id) const {
  auto it = rows_.find(object_id);
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

Result<std::size_t> LiveRelation::AddObject(const std::string& object_id) {
  const std::size_t row = objects_.size();
  Tuple tuple;
  tuple.emplace_back(StringValue(object_id));
  tuple.emplace_back(MovingPoint());
  MODB_RETURN_IF_ERROR(rel_.Insert(std::move(tuple)));
  objects_.emplace_back();
  rows_.emplace(object_id, row);
  return row;
}

Status LiveRelation::Ingest(const std::vector<IngestFix>& fixes) {
  // Validation pass: nothing below may mutate state until the whole
  // batch is known good, so a rejected batch is a no-op.
  std::unordered_map<std::string, Instant> batch_last;
  std::size_t new_objects = 0;
  for (const IngestFix& fix : fixes) {
    if (!std::isfinite(fix.t) || !std::isfinite(fix.x) ||
        !std::isfinite(fix.y)) {
      return Status::InvalidArgument("ingest fix for object '" +
                                     fix.object_id +
                                     "' has a non-finite field");
    }
    auto it = batch_last.find(fix.object_id);
    if (it != batch_last.end()) {
      if (!(fix.t > it->second)) {
        return Status::OutOfRange(
            "ingest batch for object '" + fix.object_id +
            "' is not strictly increasing in time");
      }
      it->second = fix.t;
      continue;
    }
    auto rit = rows_.find(fix.object_id);
    if (rit != rows_.end()) {
      const TailSeries& tail = objects_[rit->second].tail;
      if (tail.has_fix() && !(fix.t > tail.last_time())) {
        return Status::OutOfRange("ingest fix for object '" + fix.object_id +
                                  "' at t=" + std::to_string(fix.t) +
                                  " is not after the tail frontier t=" +
                                  std::to_string(tail.last_time()));
      }
    } else {
      ++new_objects;
    }
    batch_last.emplace(fix.object_id, fix.t);
  }
  if (store_ != nullptr && objects_.size() + new_objects > kMaxStoredObjects) {
    return Status::ResourceExhausted(
        "live relation " + rel_.name() + " is store-backed and capped at " +
        std::to_string(kMaxStoredObjects) + " objects");
  }

  // Mutation pass: every Absorb below must succeed (validation mirrored
  // the tail's only rejection rule), so state stays consistent.
  std::vector<std::size_t> touched;
  touched.reserve(batch_last.size());
  for (const IngestFix& fix : fixes) {
    std::size_t row;
    auto rit = rows_.find(fix.object_id);
    if (rit != rows_.end()) {
      row = rit->second;
    } else {
      Result<std::size_t> added = AddObject(fix.object_id);
      MODB_RETURN_IF_ERROR(added.status());
      row = *added;
    }
    ObjectState& st = objects_[row];
    const Point p(fix.x, fix.y);
    MODB_RETURN_IF_ERROR(st.tail.Absorb(fix.t, p, &TrailOf(row)));
    st.dirty = true;
    if (store_ != nullptr) log_.push_back({std::uint32_t(row), fix.t, p});
    touched.push_back(row);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Seal + mem pass over the touched rows only, ascending row order for
  // determinism.
  std::vector<RTree3D::Entry> sealed_entries;
  for (std::size_t row : touched) {
    TailSeries& tail = objects_[row].tail;
    const MovingPoint& mp = trail(row);
    if (mp.NumUnits() - tail.sealed() > options_.seal_units) {
      const std::size_t old_frontier = tail.sealed();
      const std::size_t frontier = tail.Seal(mp);
      for (std::size_t u = old_frontier; u < frontier; ++u) {
        sealed_entries.push_back(
            {mp.unit(u).BoundingCube(), std::int64_t(row)});
      }
    }
    UpdateMem(row);
  }
  if (!sealed_entries.empty()) {
    index_.AppendToDelta(sealed_entries, options_.fanout);
  }
  if (index_.DeltaEntries() >= options_.merge_threshold) {
    index_.MergeInline(options_.fanout);
  }
  MODB_COUNTER_ADD("ingest.fixes", fixes.size());
  MODB_COUNTER_INC("ingest.batches");
  return Status::OK();
}

void LiveRelation::SealAll() {
  std::vector<RTree3D::Entry> sealed_entries;
  for (std::size_t row = 0; row < objects_.size(); ++row) {
    TailSeries& tail = objects_[row].tail;
    const MovingPoint& mp = trail(row);
    const std::size_t old_frontier = tail.sealed();
    const std::size_t frontier = tail.Seal(mp);
    for (std::size_t u = old_frontier; u < frontier; ++u) {
      sealed_entries.push_back({mp.unit(u).BoundingCube(), std::int64_t(row)});
    }
    UpdateMem(row);
  }
  if (!sealed_entries.empty()) {
    index_.AppendToDelta(sealed_entries, options_.fanout);
  }
  index_.MergeInline(options_.fanout);
}

void LiveRelation::UpdateMem(std::size_t row) {
  const std::vector<UPoint>& units = trail(row).units();
  std::vector<RTree3D::Entry> mem;
  for (std::size_t u = objects_[row].tail.sealed(); u < units.size(); ++u) {
    mem.push_back({units[u].BoundingCube(), std::int64_t(row)});
  }
  index_.SetMemRow(std::int64_t(row), mem);
}

std::size_t LiveRelation::CheckpointBytes() const {
  std::size_t bytes = 0;
  for (std::size_t row = 0; row < objects_.size(); ++row) {
    if (row < rooted_objects_ && !objects_[row].dirty) continue;
    const MovingPoint& mp = trail(row);
    bytes += mp.IsEmpty() ? kPlaceholderBlob.size() : SerializedFlatSize(mp);
  }
  return bytes;
}

std::string LiveRelation::EncodeManifest(bool checkpoint) const {
  std::string out;
  out.append(kManifestMagic, sizeof kManifestMagic);
  AppendU32(&out, kManifestVersion);
  AppendU32(&out, std::uint32_t(objects_.size()));
  for (std::size_t row = 0; row < objects_.size(); ++row) {
    const std::string& id =
        std::get<StringValue>(rel_.tuple(row)[std::size_t(kIdSlot)]).value();
    const ObjectState& st = objects_[row];
    // A checkpoint records the current anchors; a log-only commit keeps
    // the last checkpoint's, which the roots it leaves alone match.
    const bool rooted = checkpoint || row < rooted_objects_;
    const Anchor anchor =
        checkpoint ? Anchor{st.tail.last_time(), st.tail.last_point(),
                            !trail(row).IsEmpty()}
        : rooted   ? st.checkpoint
                   : Anchor();
    const std::uint8_t kind = !rooted            ? kKindLogOnly
                              : anchor.has_units ? kKindTrail
                                                 : kKindPlaceholder;
    AppendU32(&out, std::uint32_t(id.size()));
    out += id;
    out.push_back(char(kind));
    AppendF64(&out, anchor.t);
    AppendF64(&out, anchor.p.x);
    AppendF64(&out, anchor.p.y);
  }
  // v2: the dedup window, in map order (ascending client id / seq) so
  // the manifest bytes — and the commit they ride in — are
  // deterministic for a given window state.
  {
    std::lock_guard<std::mutex> dedup_lock(dedup_mu_);
    AppendU32(&out, std::uint32_t(dedup_.size()));
    for (const auto& [client, window] : dedup_) {
      AppendU32(&out, std::uint32_t(client.size()));
      out += client;
      AppendU32(&out, std::uint32_t(window.acks.size()));
      for (const auto& [seq, ack] : window.acks) {
        AppendU64(&out, seq);
        AppendU64(&out, ack.accepted);
        AppendU64(&out, ack.objects);
        AppendU64(&out, ack.mem_units);
        AppendU64(&out, ack.delta_entries);
        AppendU64(&out, ack.base_entries);
        AppendU64(&out, ack.merges);
        AppendU64(&out, ack.epoch);
      }
    }
  }
  // v3: the fix log (empty at a checkpoint).
  if (checkpoint) {
    AppendU32(&out, 0);
    return out;
  }
  AppendU32(&out, std::uint32_t(log_.size()));
  for (const LoggedFix& fix : log_) {
    AppendU32(&out, fix.row);
    AppendF64(&out, fix.t);
    AppendF64(&out, fix.p.x);
    AppendF64(&out, fix.p.y);
  }
  return out;
}

std::optional<IngestAck> LiveRelation::DedupLookup(
    const std::string& client_id, std::uint64_t batch_seq) const {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  auto it = dedup_.find(client_id);
  if (it == dedup_.end()) return std::nullopt;
  auto ack = it->second.acks.find(batch_seq);
  if (ack == it->second.acks.end()) return std::nullopt;
  return ack->second;
}

void LiveRelation::RecordAck(const std::string& client_id,
                             std::uint64_t batch_seq, const IngestAck& ack) {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  auto it = dedup_.find(client_id);
  if (it == dedup_.end()) {
    if (dedup_.size() >= kDedupMaxClients) {
      // Evict the least recently recording client (deterministic: the
      // stamp is a plain counter under this mutex).
      auto victim = dedup_.begin();
      for (auto c = dedup_.begin(); c != dedup_.end(); ++c) {
        if (c->second.last_stamp < victim->second.last_stamp) victim = c;
      }
      dedup_.erase(victim);
    }
    it = dedup_.emplace(client_id, ClientWindow()).first;
  }
  it->second.last_stamp = ++dedup_stamp_;
  it->second.acks[batch_seq] = ack;
  while (it->second.acks.size() > kDedupMaxSeqsPerClient) {
    it->second.acks.erase(it->second.acks.begin());
  }
}

std::size_t LiveRelation::DedupEntries() const {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  std::size_t total = 0;
  for (const auto& [client, window] : dedup_) total += window.acks.size();
  return total;
}

Status LiveRelation::AttachStore(VersionedSpillStore* store) {
  if (store_ != nullptr) {
    return Status::FailedPrecondition("live relation " + rel_.name() +
                                      " already has a store attached");
  }
  if (store->NumRoots() == 0) {
    if (objects_.size() > kMaxStoredObjects) {
      return Status::ResourceExhausted(
          "live relation " + rel_.name() + " exceeds the store cap of " +
          std::to_string(kMaxStoredObjects) + " objects");
    }
    store_ = store;
    // Fixes absorbed before the attach are in no log: the first commit
    // checkpoints every object.
    checkpoint_pending_ = true;
    return Status::OK();
  }
  if (!objects_.empty()) {
    return Status::FailedPrecondition(
        "a non-empty store can only be attached to a fresh live relation");
  }
  return RecoverFrom(store);
}

Status LiveRelation::RecoverFrom(VersionedSpillStore* store) {
  Result<std::string> manifest = store->ReadRootBlob(0);
  MODB_RETURN_IF_ERROR(manifest.status());
  std::string_view s = *manifest;
  if (s.size() < sizeof kManifestMagic ||
      std::memcmp(s.data(), kManifestMagic, sizeof kManifestMagic) != 0) {
    return BadManifest("bad magic");
  }
  std::size_t off = sizeof kManifestMagic;
  std::uint32_t version = 0, count = 0;
  if (!ReadU32(s, &off, &version)) return BadManifest("truncated version");
  if (version < kMinManifestVersion || version > kManifestVersion) {
    return BadManifest("unknown version " + std::to_string(version));
  }
  if (!ReadU32(s, &off, &count)) return BadManifest("truncated object count");
  if (count > kMaxStoredObjects) {
    return BadManifest("object count " + std::to_string(count) +
                       " exceeds the store cap");
  }

  // Objects: ids and checkpoint anchors. Rooted objects (kinds 0 and 1)
  // are a prefix of the rows, one root each after the manifest.
  std::size_t rooted = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t id_len = 0;
    if (!ReadU32(s, &off, &id_len)) return BadManifest("truncated id length");
    if (s.size() - off < std::size_t(id_len) + 1) {
      return BadManifest("truncated object");
    }
    std::string id(s.substr(off, id_len));
    off += id_len;
    const std::uint8_t kind = std::uint8_t(s[off++]);
    Anchor anchor;
    if (!ReadF64(s, &off, &anchor.t) || !ReadF64(s, &off, &anchor.p.x) ||
        !ReadF64(s, &off, &anchor.p.y)) {
      return BadManifest("truncated last fix");
    }
    if (kind > (version >= 3 ? kKindLogOnly : kKindTrail)) {
      return BadManifest("object " + id + " has unknown kind " +
                         std::to_string(kind));
    }
    if (kind != kKindLogOnly && rooted != i) {
      return BadManifest("rooted object " + id + " follows a log-only one");
    }
    if (rows_.count(id) != 0) return BadManifest("duplicate object id " + id);
    if (kind != kKindLogOnly && store->NumRoots() <= std::size_t(i) + 1) {
      return BadManifest("object " + id + " has no store root");
    }

    const std::size_t row = objects_.size();
    ObjectState st;
    MovingPoint mp;
    if (kind == kKindTrail) {
      Result<MovingPoint> loaded = store->LoadRoot<MovingPoint>(i + 1);
      MODB_RETURN_IF_ERROR(loaded.status());
      Result<TailSeries> tail = TailSeries::Resume(*loaded, anchor.t, anchor.p);
      MODB_RETURN_IF_ERROR(tail.status());
      st.tail = std::move(*tail);
      mp = std::move(*loaded);
    } else if (kind == kKindPlaceholder) {
      MODB_RETURN_IF_ERROR(st.tail.Absorb(anchor.t, anchor.p, &mp));
    }
    anchor.has_units = kind == kKindTrail;
    st.checkpoint = anchor;
    Tuple tuple;
    tuple.emplace_back(StringValue(id));
    tuple.emplace_back(std::move(mp));
    MODB_RETURN_IF_ERROR(rel_.Insert(std::move(tuple)));
    objects_.push_back(std::move(st));
    rows_.emplace(std::move(id), row);
    if (kind != kKindLogOnly) ++rooted;
  }
  if (store->NumRoots() != rooted + 1) {
    return BadManifest(std::to_string(rooted) +
                       " rooted objects disagree with " +
                       std::to_string(store->NumRoots()) + " store roots");
  }

  if (version >= 2) {
    std::uint32_t num_clients = 0;
    if (!ReadU32(s, &off, &num_clients)) {
      return BadManifest("truncated dedup client count");
    }
    if (num_clients > kDedupMaxClients) {
      return BadManifest("dedup window claims " +
                         std::to_string(num_clients) + " clients, cap is " +
                         std::to_string(kDedupMaxClients));
    }
    std::lock_guard<std::mutex> dedup_lock(dedup_mu_);
    for (std::uint32_t c = 0; c < num_clients; ++c) {
      std::uint32_t id_len = 0;
      if (!ReadU32(s, &off, &id_len)) {
        return BadManifest("truncated dedup client id length");
      }
      if (s.size() - off < std::size_t(id_len)) {
        return BadManifest("truncated dedup client id");
      }
      std::string client(s.substr(off, id_len));
      off += id_len;
      if (dedup_.count(client) != 0) {
        return BadManifest("duplicate dedup client " + client);
      }
      std::uint32_t num_acks = 0;
      if (!ReadU32(s, &off, &num_acks)) {
        return BadManifest("truncated dedup ack count");
      }
      if (num_acks > kDedupMaxSeqsPerClient) {
        return BadManifest("dedup client " + client + " claims " +
                           std::to_string(num_acks) + " acks, cap is " +
                           std::to_string(kDedupMaxSeqsPerClient));
      }
      ClientWindow window;
      window.last_stamp = ++dedup_stamp_;
      std::uint64_t prev_seq = 0;
      for (std::uint32_t a = 0; a < num_acks; ++a) {
        std::uint64_t seq = 0;
        IngestAck ack;
        if (!ReadU64(s, &off, &seq) || !ReadU64(s, &off, &ack.accepted) ||
            !ReadU64(s, &off, &ack.objects) ||
            !ReadU64(s, &off, &ack.mem_units) ||
            !ReadU64(s, &off, &ack.delta_entries) ||
            !ReadU64(s, &off, &ack.base_entries) ||
            !ReadU64(s, &off, &ack.merges) || !ReadU64(s, &off, &ack.epoch)) {
          return BadManifest("truncated dedup ack");
        }
        if (a > 0 && seq <= prev_seq) {
          return BadManifest("dedup acks for client " + client +
                             " are not ascending");
        }
        prev_seq = seq;
        window.acks.emplace(seq, ack);
      }
      dedup_.emplace(std::move(client), std::move(window));
    }
  }

  // v3: replay the fix log through Absorb, in commit order — the same
  // deterministic steps that built the trails before the crash.
  if (version >= 3) {
    std::uint32_t num_fixes = 0;
    if (!ReadU32(s, &off, &num_fixes)) {
      return BadManifest("truncated log fix count");
    }
    if (std::size_t(num_fixes) > (s.size() - off) / kLogFixBytes) {
      return BadManifest("log claims " + std::to_string(num_fixes) +
                         " fixes but is truncated");
    }
    log_.reserve(num_fixes);
    for (std::uint32_t f = 0; f < num_fixes; ++f) {
      LoggedFix fix;
      if (!ReadU32(s, &off, &fix.row) || !ReadF64(s, &off, &fix.t) ||
          !ReadF64(s, &off, &fix.p.x) || !ReadF64(s, &off, &fix.p.y)) {
        return BadManifest("truncated log fix");
      }
      if (fix.row >= count) {
        return BadManifest("log fix " + std::to_string(f) +
                           " names unknown row " + std::to_string(fix.row));
      }
      if (!std::isfinite(fix.t) || !std::isfinite(fix.p.x) ||
          !std::isfinite(fix.p.y)) {
        return BadManifest("log fix " + std::to_string(f) +
                           " has a non-finite field");
      }
      ObjectState& st = objects_[fix.row];
      if (st.tail.has_fix() && !(fix.t > st.tail.last_time())) {
        return BadManifest("log fix " + std::to_string(f) + " at t=" +
                           std::to_string(fix.t) + " is not after row " +
                           std::to_string(fix.row) + "'s last fix");
      }
      Status absorbed = st.tail.Absorb(fix.t, fix.p, &TrailOf(fix.row));
      if (!absorbed.ok()) {
        return BadManifest("log fix " + std::to_string(f) + ": " +
                           absorbed.ToString());
      }
      st.dirty = true;
      log_.push_back(fix);
    }
  }
  if (off != s.size()) return BadManifest("trailing bytes");

  // Fully compacted: everything below each trail's newest unit goes
  // straight into base, the newest units form mem.
  std::vector<RTree3D::Entry> base;
  for (std::size_t row = 0; row < objects_.size(); ++row) {
    if (!objects_[row].tail.has_fix()) {
      return BadManifest("object in row " + std::to_string(row) +
                         " has no fix");
    }
    const MovingPoint& mp = trail(row);
    const std::size_t frontier = objects_[row].tail.Seal(mp);
    for (std::size_t u = 0; u < frontier; ++u) {
      base.push_back({mp.unit(u).BoundingCube(), std::int64_t(row)});
    }
  }
  index_.ResetBase(std::move(base), options_.fanout);
  for (std::size_t row = 0; row < objects_.size(); ++row) UpdateMem(row);
  store_ = store;
  manifest_root_exists_ = true;
  rooted_objects_ = rooted;
  MODB_COUNTER_INC("ingest.recoveries");
  return Status::OK();
}

Status LiveRelation::Persist() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition("live relation " + rel_.name() +
                                      " has no store attached");
  }
  std::lock_guard<std::mutex> persist_lock(persist_mu_);
  // The checkpoint rule: every commit restages the whole log, so
  // checkpoint once the log bytes restaged since the last checkpoint
  // would reach what the checkpoint writes. Log restaging then never
  // costs more than the checkpoints, and both amortize to O(sqrt(batch
  // bytes x checkpoint bytes)) per commit.
  const std::size_t log_bytes = log_.size() * kLogFixBytes;
  const bool checkpoint = checkpoint_pending_ ||
                          log_restaged_bytes_ + log_bytes >= CheckpointBytes();
  if (checkpoint) checkpoint_pending_ = true;

  const std::string manifest = EncodeManifest(checkpoint);
  if (!manifest_root_exists_) {
    MODB_RETURN_IF_ERROR(
        store_->StageBlob(manifest, SpillValueType::kOpaque).status());
    manifest_root_exists_ = true;
  } else {
    MODB_RETURN_IF_ERROR(
        store_->RestageBlob(0, manifest, SpillValueType::kOpaque));
  }
  if (checkpoint) {
    for (std::size_t row = 0; row < objects_.size(); ++row) {
      const bool is_new_root = row >= rooted_objects_;
      if (!is_new_root && !objects_[row].dirty) continue;
      const MovingPoint& mp = trail(row);
      if (is_new_root) {
        MODB_RETURN_IF_ERROR(
            (mp.IsEmpty()
                 ? store_->StageBlob(kPlaceholderBlob, SpillValueType::kOpaque)
                 : store_->StageValue(mp))
                .status());
        rooted_objects_ = row + 1;
      } else if (mp.IsEmpty()) {
        MODB_RETURN_IF_ERROR(store_->RestageBlob(row + 1, kPlaceholderBlob,
                                                 SpillValueType::kOpaque));
      } else {
        MODB_RETURN_IF_ERROR(store_->RestageValue(row + 1, mp));
      }
    }
  }
  MODB_RETURN_IF_ERROR(store_->Commit());

  if (!checkpoint) {
    log_restaged_bytes_ += log_bytes;
    MODB_COUNTER_INC("ingest.log_commits");
  } else {
    // Only now, with the checkpoint durable, may the log go.
    for (std::size_t row = 0; row < objects_.size(); ++row) {
      ObjectState& st = objects_[row];
      st.dirty = false;
      st.checkpoint = {st.tail.last_time(), st.tail.last_point(),
                       !trail(row).IsEmpty()};
    }
    log_.clear();
    log_restaged_bytes_ = 0;
    checkpoint_pending_ = false;
    ++checkpoints_;
    MODB_COUNTER_INC("ingest.checkpoints");
  }
  MODB_COUNTER_INC("ingest.persists");
  return Status::OK();
}

}  // namespace ingest
}  // namespace modb
