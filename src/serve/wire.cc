#include "serve/wire.h"

#include <cstring>
#include <functional>
#include <limits>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "db/relation_io.h"
#include "obs/exec_stats.h"
#include "storage/flat.h"  // the little-endian host assertion

namespace modb {
namespace serve {
namespace {

constexpr std::uint8_t kMaxQueryKind =
    std::uint8_t(QueryRequest::Kind::kWindowAggregate);
constexpr std::uint8_t kMaxFilterKind =
    std::uint8_t(FilterSpec::Kind::kDeftimeIntersects);
constexpr std::uint8_t kMaxPayloadKind =
    std::uint8_t(QueryResult::Payload::kPresent);
constexpr std::uint8_t kMaxMutationKind =
    std::uint8_t(MutationRequest::Kind::kIngest);
constexpr std::uint32_t kMaxStatusCode =
    std::uint32_t(StatusCode::kDeadlineExceeded);
constexpr std::uint8_t kMaxAttributeType =
    std::uint8_t(AttributeType::kMovingRegion);
/// Result-block kind of a mutation ack: first value outside the
/// QueryResult::Payload range, so DecodeResultBlock rejects it.
constexpr std::uint8_t kAckBlockKind = 3;
/// First byte of a reference cell in a rows block (v4): outside the
/// attribute type tags, then u32 row and u32 column of the earlier cell
/// whose value this one repeats.
constexpr std::uint8_t kRefCellTag = 0xff;
constexpr std::size_t kRefCellBytes = 1 + 2 * sizeof(std::uint32_t);

template <typename T>
constexpr bool kIsMapping = false;
template <typename U>
constexpr bool kIsMapping<Mapping<U>> = true;

bool IsMappingType(AttributeType type) {
  return type >= AttributeType::kMovingBool &&
         type <= AttributeType::kMovingRegion;
}

// A column of n f64s: one bounds check, one copy.
Status ReadF64Column(WireReader* r, std::uint64_t n,
                     std::vector<double>* out) {
  std::string_view bytes;
  MODB_RETURN_IF_ERROR(r->View(sizeof(double) * n, &bytes));
  out->resize(n);
  if (n > 0) std::memcpy(out->data(), bytes.data(), bytes.size());
  return Status::OK();
}

void PutFrameHeader(FrameType type, std::uint32_t payload_len,
                    std::uint8_t version, char* out) {
  std::memcpy(out, kMagic, 4);
  out[4] = char(version);
  out[5] = char(std::uint8_t(type));
  out[6] = 0;
  out[7] = 0;
  std::memcpy(out + 8, &payload_len, sizeof payload_len);
}

}  // namespace

std::string EncodeFrameHeader(FrameType type, std::uint32_t payload_len,
                              std::uint8_t version) {
  std::string h(kFrameHeaderBytes, '\0');
  PutFrameHeader(type, payload_len, version, h.data());
  return h;
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes) {
  if (bytes.size() != kFrameHeaderBytes) {
    return Status::InvalidArgument("frame header must be " +
                                   std::to_string(kFrameHeaderBytes) +
                                   " bytes, got " +
                                   std::to_string(bytes.size()));
  }
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return Status::DataLoss("bad frame magic (not a MODB stream)");
  }
  const std::uint8_t version = std::uint8_t(bytes[4]);
  if (version < kMinWireVersion || version > kWireVersion) {
    return Status::InvalidArgument(
        "unsupported protocol version " + std::to_string(version) +
        ", expected " + std::to_string(kMinWireVersion) + ".." +
        std::to_string(kWireVersion));
  }
  const std::uint8_t type = std::uint8_t(bytes[5]);
  if (type != std::uint8_t(FrameType::kQuery) &&
      type != std::uint8_t(FrameType::kReply) &&
      type != std::uint8_t(FrameType::kMutation)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  if (bytes[6] != 0 || bytes[7] != 0) {
    return Status::InvalidArgument("reserved frame header bytes must be 0");
  }
  std::uint32_t len;
  std::memcpy(&len, bytes.data() + 8, sizeof len);
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload length " + std::to_string(len) +
        " exceeds the " + std::to_string(kMaxFramePayload) + "-byte cap");
  }
  return FrameHeader{FrameType(type), version, len};
}

void StartFrame(std::string* frame) {
  frame->assign(kFrameHeaderBytes, '\0');
}

Status SealFrame(FrameType type, std::uint8_t version, std::string* frame) {
  const std::size_t payload = frame->size() - kFrameHeaderBytes;
  if (payload > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte cap");
  }
  PutFrameHeader(type, std::uint32_t(payload), version, frame->data());
  return Status::OK();
}

Status WireReader::Need(std::size_t n) const {
  if (remaining() < n) {
    return Status::InvalidArgument(
        "truncated payload: need " + std::to_string(n) + " bytes at offset " +
        std::to_string(pos_) + ", have " + std::to_string(remaining()));
  }
  return Status::OK();
}

Status WireReader::View(std::size_t n, std::string_view* v) {
  MODB_RETURN_IF_ERROR(Need(n));
  *v = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status WireReader::StrView(std::string_view* v) {
  std::uint32_t len;
  MODB_RETURN_IF_ERROR(U32(&len));
  return View(len, v);
}

Status WireReader::Str(std::string* v) {
  std::string_view view;
  MODB_RETURN_IF_ERROR(StrView(&view));
  v->assign(view.data(), view.size());
  return Status::OK();
}

Status WireReader::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::InvalidArgument(std::to_string(remaining()) +
                                   " trailing bytes after payload");
  }
  return Status::OK();
}

std::string EncodeQueryRequest(const QueryRequest& req) {
  WireWriter w;
  w.U8(std::uint8_t(req.kind));
  w.Str(req.relation);
  w.U32(std::uint32_t(req.filters.size()));
  for (const FilterSpec& f : req.filters) {
    w.U8(std::uint8_t(f.kind));
    w.Str(f.attr);
    w.Str(f.value);
    w.F64(f.threshold);
    w.F64(f.t0);
    w.F64(f.t1);
  }
  w.U32(std::uint32_t(req.project.size()));
  for (const std::string& name : req.project) w.Str(name);
  w.Str(req.join_relation);
  w.Str(req.attr);
  w.Str(req.join_attr);
  w.F64(req.distance);
  w.U8(req.distinct_pairs ? 1 : 0);
  w.U32(std::uint32_t(req.instants.size()));
  w.Bytes(req.instants.data(), sizeof(Instant) * req.instants.size());
  w.I64(req.num_threads);
  // The window-aggregate fields ride at the end of every query payload
  // (fixed size, defaults for the other kinds).
  w.F64(req.window_t0);
  w.F64(req.window_t1);
  w.F64(req.window_width);
  w.F64(req.window_step);
  w.F64(req.min_x);
  w.F64(req.min_y);
  w.F64(req.max_x);
  w.F64(req.max_y);
  // Execution deadline in milliseconds (0 = none).
  w.I64(req.deadline_ms);
  return w.Take();
}

// Every accepted version has the v3 field set (v4 and v5 changed only
// result blocks); a later version's trailing fields would be read here
// under `version >= 6`.
Result<QueryRequest> DecodeQueryRequest(std::string_view payload,
                                        [[maybe_unused]] std::uint8_t version) {
  WireReader r(payload);
  QueryRequest req;
  std::uint8_t kind;
  MODB_RETURN_IF_ERROR(r.U8(&kind));
  if (kind > kMaxQueryKind) {
    return Status::InvalidArgument("unknown query kind " +
                                   std::to_string(kind));
  }
  req.kind = QueryRequest::Kind(kind);
  MODB_RETURN_IF_ERROR(r.Str(&req.relation));
  std::uint32_t num_filters;
  MODB_RETURN_IF_ERROR(r.U32(&num_filters));
  for (std::uint32_t i = 0; i < num_filters; ++i) {
    FilterSpec f;
    std::uint8_t fk;
    MODB_RETURN_IF_ERROR(r.U8(&fk));
    if (fk > kMaxFilterKind) {
      return Status::InvalidArgument("unknown filter kind " +
                                     std::to_string(fk));
    }
    f.kind = FilterSpec::Kind(fk);
    MODB_RETURN_IF_ERROR(r.Str(&f.attr));
    MODB_RETURN_IF_ERROR(r.Str(&f.value));
    MODB_RETURN_IF_ERROR(r.F64(&f.threshold));
    MODB_RETURN_IF_ERROR(r.F64(&f.t0));
    MODB_RETURN_IF_ERROR(r.F64(&f.t1));
    req.filters.push_back(std::move(f));
  }
  std::uint32_t num_project;
  MODB_RETURN_IF_ERROR(r.U32(&num_project));
  for (std::uint32_t i = 0; i < num_project; ++i) {
    std::string name;
    MODB_RETURN_IF_ERROR(r.Str(&name));
    req.project.push_back(std::move(name));
  }
  MODB_RETURN_IF_ERROR(r.Str(&req.join_relation));
  MODB_RETURN_IF_ERROR(r.Str(&req.attr));
  MODB_RETURN_IF_ERROR(r.Str(&req.join_attr));
  MODB_RETURN_IF_ERROR(r.F64(&req.distance));
  std::uint8_t distinct;
  MODB_RETURN_IF_ERROR(r.U8(&distinct));
  if (distinct > 1) {
    return Status::InvalidArgument("distinct_pairs must be 0 or 1, got " +
                                   std::to_string(distinct));
  }
  req.distinct_pairs = distinct != 0;
  std::uint32_t num_instants;
  MODB_RETURN_IF_ERROR(r.U32(&num_instants));
  MODB_RETURN_IF_ERROR(ReadF64Column(&r, num_instants, &req.instants));
  MODB_RETURN_IF_ERROR(r.I64(&req.num_threads));
  MODB_RETURN_IF_ERROR(r.F64(&req.window_t0));
  MODB_RETURN_IF_ERROR(r.F64(&req.window_t1));
  MODB_RETURN_IF_ERROR(r.F64(&req.window_width));
  MODB_RETURN_IF_ERROR(r.F64(&req.window_step));
  MODB_RETURN_IF_ERROR(r.F64(&req.min_x));
  MODB_RETURN_IF_ERROR(r.F64(&req.min_y));
  MODB_RETURN_IF_ERROR(r.F64(&req.max_x));
  MODB_RETURN_IF_ERROR(r.F64(&req.max_y));
  MODB_RETURN_IF_ERROR(r.I64(&req.deadline_ms));
  MODB_RETURN_IF_ERROR(r.ExpectEnd());
  return req;
}

std::string EncodeMutationRequest(const MutationRequest& req) {
  WireWriter w;
  w.U8(std::uint8_t(req.kind));
  w.Str(req.relation);
  w.U32(std::uint32_t(req.fixes.size()));
  for (const MutationRequest::Fix& f : req.fixes) {
    w.Str(f.object_id);
    w.F64(f.t);
    w.F64(f.x);
    w.F64(f.y);
  }
  w.U64(req.seal_units);
  // The idempotency key (empty client_id = unkeyed, no dedup).
  w.Str(req.client_id);
  w.U64(req.batch_seq);
  return w.Take();
}

Result<MutationRequest> DecodeMutationRequest(
    std::string_view payload, [[maybe_unused]] std::uint8_t version) {
  WireReader r(payload);
  MutationRequest req;
  std::uint8_t kind;
  MODB_RETURN_IF_ERROR(r.U8(&kind));
  if (kind > kMaxMutationKind) {
    return Status::InvalidArgument("unknown mutation kind " +
                                   std::to_string(kind));
  }
  req.kind = MutationRequest::Kind(kind);
  MODB_RETURN_IF_ERROR(r.Str(&req.relation));
  std::uint32_t num_fixes;
  MODB_RETURN_IF_ERROR(r.U32(&num_fixes));
  for (std::uint32_t i = 0; i < num_fixes; ++i) {
    MutationRequest::Fix f;
    MODB_RETURN_IF_ERROR(r.Str(&f.object_id));
    MODB_RETURN_IF_ERROR(r.F64(&f.t));
    MODB_RETURN_IF_ERROR(r.F64(&f.x));
    MODB_RETURN_IF_ERROR(r.F64(&f.y));
    req.fixes.push_back(std::move(f));
  }
  MODB_RETURN_IF_ERROR(r.U64(&req.seal_units));
  MODB_RETURN_IF_ERROR(r.Str(&req.client_id));
  MODB_RETURN_IF_ERROR(r.U64(&req.batch_seq));
  MODB_RETURN_IF_ERROR(r.ExpectEnd());
  return req;
}

namespace {

constexpr std::size_t kAckBlockBytes = 1 + 7 * sizeof(std::uint64_t);

void WriteMutationAck(const MutationResult& ack, WireWriter* w) {
  w->U8(kAckBlockKind);
  w->U64(ack.accepted);
  w->U64(ack.objects);
  w->U64(ack.mem_units);
  w->U64(ack.delta_entries);
  w->U64(ack.base_entries);
  w->U64(ack.merges);
  w->U64(ack.epoch);
}

}  // namespace

std::string EncodeMutationAck(const MutationResult& ack) {
  WireWriter w;
  w.Reserve(kAckBlockBytes);
  WriteMutationAck(ack, &w);
  return w.Take();
}

Result<MutationResult> DecodeMutationAck(std::string_view block) {
  WireReader r(block);
  MutationResult ack;
  std::uint8_t kind;
  MODB_RETURN_IF_ERROR(r.U8(&kind));
  if (kind != kAckBlockKind) {
    return Status::InvalidArgument("not a mutation ack block (kind " +
                                   std::to_string(kind) + ")");
  }
  MODB_RETURN_IF_ERROR(r.U64(&ack.accepted));
  MODB_RETURN_IF_ERROR(r.U64(&ack.objects));
  MODB_RETURN_IF_ERROR(r.U64(&ack.mem_units));
  MODB_RETURN_IF_ERROR(r.U64(&ack.delta_entries));
  MODB_RETURN_IF_ERROR(r.U64(&ack.base_entries));
  MODB_RETURN_IF_ERROR(r.U64(&ack.merges));
  MODB_RETURN_IF_ERROR(r.U64(&ack.epoch));
  MODB_RETURN_IF_ERROR(r.ExpectEnd());
  return ack;
}

namespace {

// The repeated-value rule of a rows block (v4): a mapping-typed cell
// whose serialisation equals that of an earlier cell of the same type,
// in row-major order, is written as a reference to the first such cell.
// The rule is by value, so the block stays a function of the relation's
// values; sharing only makes it cheap. Every cell is keyed by its type,
// unit count and first and last units (O(1)); a cell whose key and unit
// array are those of an earlier cell is a repeat outright. Cells that
// share a key but not an array are compared by a hash of their whole
// serialisation and then byte for byte: every cell is serialised at
// most a bounded number of times, never once per earlier cell.
class RepeatFinder {
 public:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  /// `mapping_cells` sizes the table: the number of cells that will be
  /// offered.
  RepeatFinder(const Relation& rel, std::size_t mapping_cells)
      : rel_(rel), arity_(rel.schema().NumAttributes()) {
    // At most half full, so a probe ends within a few slots.
    std::size_t slots = 16;
    shift_ = 60;
    while (slots < 2 * mapping_cells) {
      slots *= 2;
      --shift_;
    }
    firsts_.assign(slots, First{});
  }

  /// The earlier cell that `v`, cell `cell` (row-major), repeats, or
  /// kNone. Cells must be offered in row-major order.
  Result<std::size_t> Offer(std::size_t cell, const AttributeValue& v) {
    const void* array = nullptr;
    const std::uint64_t key = Key(v, &array);
    if (array == nullptr) return kNone;
    First& first = Slot(key);
    if (first.cell == kNone) {
      first = First{key, cell, array, false};
      return kNone;
    }
    if (first.array == array) return first.cell;
    // Same key, another array: compare whole serialisations, by hash
    // first. A key's first cell is hashed when such a cell comes.
    if (!first.hashed) {
      Result<std::uint64_t> h = FullHash(Cell(first.cell), &other_);
      MODB_RETURN_IF_ERROR(h.status());
      by_blob_.emplace(*h, first.cell);
      first.hashed = true;
    }
    Result<std::uint64_t> hash = FullHash(v, &bytes_);
    MODB_RETURN_IF_ERROR(hash.status());
    auto [lo, hi] = by_blob_.equal_range(*hash);
    for (auto it = lo; it != hi; ++it) {
      other_.clear();
      MODB_RETURN_IF_ERROR(SerializeAttribute(Cell(it->second), &other_));
      if (other_ == bytes_) return it->second;
    }
    by_blob_.emplace(*hash, cell);
    return kNone;
  }

 private:
  /// The first cell offered with a key; cell == kNone marks a free
  /// slot.
  struct First {
    std::uint64_t key = 0;
    std::size_t cell = kNone;
    const void* array = nullptr;  // its unit array
    bool hashed = false;          // its whole-blob hash is in by_blob_
  };

  // The slot holding `key`, or the free slot where it goes: open
  // addressing with linear probing, Fibonacci-hashed from the key.
  First& Slot(std::uint64_t key) {
    const std::size_t mask = firsts_.size() - 1;
    std::size_t i = std::size_t((key * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (firsts_[i].cell != kNone && firsts_[i].key != key) {
      i = (i + 1) & mask;
    }
    return firsts_[i];
  }

  const AttributeValue& Cell(std::size_t cell) const {
    return rel_.tuple(cell / arity_)[cell % arity_];
  }

  // Mixes `v` into the hash `h`.
  static void Mix(std::uint64_t* h, std::uint64_t v) {
    *h ^= v + 0x9e3779b97f4a7c15ULL + (*h << 6) + (*h >> 2);
  }
  static std::uint64_t Bits(double d) {
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    return b;
  }

  // The unit's interval and, for a moving point, its motion: trails
  // sampled at the same ticks differ only there. Other unit types add
  // their interval alone and fall back to the whole-blob comparison
  // more often.
  template <typename U>
  static void MixUnit(std::uint64_t* h, const U& u) {
    const TimeInterval& iv = u.interval();
    Mix(h, Bits(iv.start()));
    Mix(h, Bits(iv.end()));
    Mix(h, (iv.left_closed() ? 1 : 0) | (iv.right_closed() ? 2 : 0));
    if constexpr (std::is_same_v<U, UPoint>) {
      Mix(h, Bits(u.motion().x0));
      Mix(h, Bits(u.motion().x1));
      Mix(h, Bits(u.motion().y0));
      Mix(h, Bits(u.motion().y1));
    }
  }

  // Type, unit count, and the first and last units: equal values have
  // equal keys. Allocation-free. `*array` is set to the unit array of a
  // mapping and left null for any other value.
  static std::uint64_t Key(const AttributeValue& v, const void** array) {
    std::uint64_t h = v.index();
    std::visit(
        [&h, array](const auto& m) {
          if constexpr (kIsMapping<std::decay_t<decltype(m)>>) {
            *array = &m.units();
            Mix(&h, m.NumUnits());
            if (!m.IsEmpty()) {
              MixUnit(&h, m.units().front());
              MixUnit(&h, m.units().back());
            }
          }
        },
        v);
    return h;
  }

  static Result<std::uint64_t> FullHash(const AttributeValue& v,
                                        std::string* buf) {
    buf->clear();
    MODB_RETURN_IF_ERROR(SerializeAttribute(v, buf));
    return std::uint64_t(std::hash<std::string_view>{}(*buf));
  }

  const Relation& rel_;
  const std::size_t arity_;
  // First cell per key: one flat table, no allocation per cell.
  std::vector<First> firsts_;
  int shift_;  // 64 - log2(firsts_.size())
  // Whole-blob hash -> the first cell of each distinct value hashed.
  std::unordered_multimap<std::uint64_t, std::size_t> by_blob_;
  std::string bytes_;  // the offered cell's blob, on a key collision
  std::string other_;  // an earlier cell's blob
};

// The block as the size pass settled it: its exact byte count, and for
// a rows block the reference target of every cell (row-major; kNone
// for a cell written in full, and empty when no column is a mapping).
struct BlockPlan {
  std::size_t bytes = 0;
  std::vector<std::size_t> refs;
};

// The size pass: exactly the bytes WriteResultBlock appends, so a reply
// reserves its buffer once and an oversized one is refused before any
// of it is written. It also decides which cells are references.
Result<BlockPlan> PlanResultBlock(const QueryResult& result) {
  BlockPlan plan;
  std::size_t& n = plan.bytes;
  n = 1;  // payload kind
  switch (result.payload) {
    case QueryResult::Payload::kRows: {
      const Relation& rel = result.rows;
      const std::size_t arity = rel.schema().NumAttributes();
      if (arity == 0 && rel.NumTuples() > 0) {
        return Status::InvalidArgument(
            "a rows block cannot carry tuples without attributes");
      }
      n += 4 + rel.name().size() + 4;
      std::size_t mapping_columns = 0;
      for (const AttributeDef& attr : rel.schema().attributes()) {
        n += 4 + attr.name.size() + 1;
        if (IsMappingType(attr.type)) ++mapping_columns;
      }
      n += 4;
      const bool has_mapping = mapping_columns > 0;
      if (has_mapping) {
        plan.refs.assign(arity * rel.NumTuples(), RepeatFinder::kNone);
      }
      RepeatFinder repeats(rel, mapping_columns * rel.NumTuples());
      std::size_t cell = 0;
      for (const Tuple& t : rel.tuples()) {
        for (const AttributeValue& v : t) {
          if (has_mapping) {
            Result<std::size_t> ref = repeats.Offer(cell, v);
            MODB_RETURN_IF_ERROR(ref.status());
            plan.refs[cell] = *ref;
          }
          if (has_mapping && plan.refs[cell] != RepeatFinder::kNone) {
            n += 4 + kRefCellBytes;
          } else {
            Result<std::size_t> blob = SerializedAttributeSize(v);
            MODB_RETURN_IF_ERROR(blob.status());
            n += 4 + *blob;
          }
          ++cell;
        }
      }
      return plan;
    }
    case QueryResult::Payload::kXY: {
      // Compact columns: one coordinate pair per set flag, and nothing
      // a decoder would refuse.
      std::size_t set = 0;
      std::uint8_t high = 0;
      for (std::uint8_t d : result.defined) {
        set += d;
        high |= d & 0xfe;
      }
      if (high != 0) {
        return Status::InvalidArgument("defined byte must be 0 or 1");
      }
      if (result.xs.size() != set || result.ys.size() != set) {
        return Status::InvalidArgument(
            "xy result carries " + std::to_string(result.xs.size()) +
            " xs and " + std::to_string(result.ys.size()) + " ys for " +
            std::to_string(set) + " defined cells");
      }
      n += 2 * sizeof(std::uint64_t) + result.defined.size() +
           sizeof(double) * 2 * set;
      return plan;
    }
    case QueryResult::Payload::kPresent:
      n += 2 * sizeof(std::uint64_t) + result.present.size();
      return plan;
  }
  return Status::Internal("unknown result payload kind");
}

// Writes the block: each attribute serialized straight into the buffer
// behind a patched length prefix (or a reference cell where the plan
// found a repeat), each xy / present column one copy.
Status WriteResultBlock(const QueryResult& result, const BlockPlan& plan,
                        WireWriter* w) {
  w->U8(std::uint8_t(result.payload));
  switch (result.payload) {
    case QueryResult::Payload::kRows: {
      const Relation& rel = result.rows;
      const std::size_t arity = rel.schema().NumAttributes();
      w->Str(rel.name());
      w->U32(std::uint32_t(arity));
      for (const AttributeDef& attr : rel.schema().attributes()) {
        w->Str(attr.name);
        w->U8(std::uint8_t(attr.type));
      }
      w->U32(std::uint32_t(rel.NumTuples()));
      std::size_t cell = 0;
      for (const Tuple& t : rel.tuples()) {
        for (const AttributeValue& v : t) {
          const std::size_t ref =
              plan.refs.empty() ? RepeatFinder::kNone : plan.refs[cell];
          ++cell;
          if (ref != RepeatFinder::kNone) {
            w->U32(std::uint32_t(kRefCellBytes));
            w->U8(kRefCellTag);
            w->U32(std::uint32_t(ref / arity));
            w->U32(std::uint32_t(ref % arity));
            continue;
          }
          const std::size_t at = w->BeginLength();
          MODB_RETURN_IF_ERROR(SerializeAttribute(v, w->buffer()));
          w->PatchLength(at);
        }
      }
      break;
    }
    case QueryResult::Payload::kXY:
      w->U64(result.batch_tuples);
      w->U64(result.batch_instants);
      w->Bytes(result.defined.data(), result.defined.size());
      w->Bytes(result.xs.data(), sizeof(double) * result.xs.size());
      w->Bytes(result.ys.data(), sizeof(double) * result.ys.size());
      break;
    case QueryResult::Payload::kPresent:
      w->U64(result.batch_tuples);
      w->U64(result.batch_instants);
      w->Bytes(result.present.data(), result.present.size());
      break;
  }
  return Status::OK();
}

// A reference cell of the rows block (row `i`, column `a`): checks that
// it names a strictly earlier cell of the same mapping type and returns
// that cell's value, which shares its unit array with the copy.
Result<AttributeValue> ReadRefCell(std::string_view blob,
                                   const std::vector<AttributeDef>& attrs,
                                   const Relation& rel, const Tuple& row,
                                   std::uint32_t i, std::uint32_t a,
                                   std::uint32_t num_tuples) {
  if (blob.size() != kRefCellBytes) {
    return Status::InvalidArgument(
        "reference cell must be " + std::to_string(kRefCellBytes) +
        " bytes, got " + std::to_string(blob.size()));
  }
  std::uint32_t ref_row, ref_col;
  std::memcpy(&ref_row, blob.data() + 1, sizeof ref_row);
  std::memcpy(&ref_col, blob.data() + 1 + sizeof ref_row, sizeof ref_col);
  auto refuse = [&](const std::string& why) {
    return Status::InvalidArgument(
        "reference cell (" + std::to_string(i) + ", " + std::to_string(a) +
        ") -> (" + std::to_string(ref_row) + ", " + std::to_string(ref_col) +
        ") " + why);
  };
  if (!IsMappingType(attrs[a].type)) {
    return refuse(std::string("in non-mapping column of type ") +
                  AttributeTypeName(attrs[a].type));
  }
  if (ref_row >= num_tuples || ref_col >= attrs.size()) {
    return refuse("is out of range");
  }
  if (ref_row == i && ref_col == a) return refuse("refers to itself");
  if (ref_row > i || (ref_row == i && ref_col > a)) {
    return refuse("refers to a later cell");
  }
  if (attrs[ref_col].type != attrs[a].type) {
    return refuse(std::string("refers to a cell of type ") +
                  AttributeTypeName(attrs[ref_col].type) + ", not " +
                  AttributeTypeName(attrs[a].type));
  }
  return ref_row == i ? row[ref_col] : rel.tuple(ref_row)[ref_col];
}

// The xy / present geometry header. The cell count is overflow-checked
// against the frame cap, so the column reads below can neither wrap
// nor size an allocation the block could not possibly back.
Status ReadGeometry(WireReader* r, const char* what, QueryResult* result,
                    std::uint64_t* cells) {
  MODB_RETURN_IF_ERROR(r->U64(&result->batch_tuples));
  MODB_RETURN_IF_ERROR(r->U64(&result->batch_instants));
  if (result->batch_instants != 0 &&
      result->batch_tuples > kMaxFramePayload / result->batch_instants) {
    return Status::InvalidArgument(std::string(what) +
                                   " payload geometry overflows");
  }
  *cells = result->batch_tuples * result->batch_instants;
  return Status::OK();
}

// A column of n flag bytes, each 0 or 1: one bounds check, one
// validating and counting pass, one copy. `*set` gets the count of
// 1s.
Status ReadFlagColumn(WireReader* r, std::uint64_t n, const char* what,
                      std::vector<std::uint8_t>* out,
                      std::uint64_t* set = nullptr) {
  std::string_view bytes;
  MODB_RETURN_IF_ERROR(r->View(n, &bytes));
  std::uint8_t high = 0;
  std::uint64_t ones = 0;
  for (char c : bytes) {
    high |= std::uint8_t(c) & 0xfe;
    ones += std::uint8_t(c) & 1;
  }
  if (high != 0) {
    return Status::InvalidArgument(std::string(what) +
                                   " byte must be 0 or 1");
  }
  out->assign(bytes.begin(), bytes.end());
  if (set != nullptr) *set = ones;
  return Status::OK();
}

}  // namespace

Result<std::string> EncodeResultBlock(const QueryResult& result) {
  Result<BlockPlan> plan = PlanResultBlock(result);
  MODB_RETURN_IF_ERROR(plan.status());
  WireWriter w;
  w.Reserve(plan->bytes);
  MODB_RETURN_IF_ERROR(WriteResultBlock(result, *plan, &w));
  return w.Take();
}

Result<QueryResult> DecodeResultBlock(std::string_view block) {
  WireReader r(block);
  QueryResult result;
  std::uint8_t payload;
  MODB_RETURN_IF_ERROR(r.U8(&payload));
  if (payload > kMaxPayloadKind) {
    return Status::InvalidArgument("unknown result payload kind " +
                                   std::to_string(payload));
  }
  result.payload = QueryResult::Payload(payload);
  switch (result.payload) {
    case QueryResult::Payload::kRows: {
      std::string name;
      MODB_RETURN_IF_ERROR(r.Str(&name));
      std::uint32_t num_attrs;
      MODB_RETURN_IF_ERROR(r.U32(&num_attrs));
      std::vector<AttributeDef> attrs;
      for (std::uint32_t i = 0; i < num_attrs; ++i) {
        AttributeDef attr;
        MODB_RETURN_IF_ERROR(r.Str(&attr.name));
        std::uint8_t type;
        MODB_RETURN_IF_ERROR(r.U8(&type));
        if (type > kMaxAttributeType) {
          return Status::InvalidArgument("unknown attribute type " +
                                         std::to_string(type));
        }
        attr.type = AttributeType(type);
        attrs.push_back(std::move(attr));
      }
      Relation rel(std::move(name), Schema(std::move(attrs)));
      std::uint32_t num_tuples;
      MODB_RETURN_IF_ERROR(r.U32(&num_tuples));
      // Tuples without attributes take no bytes, so their count would be
      // unbounded by the block: a 13-byte block could ask for 2^32 rows.
      if (num_attrs == 0 && num_tuples > 0) {
        return Status::InvalidArgument(
            "rows block without attributes carries " +
            std::to_string(num_tuples) + " tuples");
      }
      const std::vector<AttributeDef>& defs = rel.schema().attributes();
      std::string_view blob;
      for (std::uint32_t i = 0; i < num_tuples; ++i) {
        Tuple t;
        t.reserve(num_attrs);
        for (std::uint32_t a = 0; a < num_attrs; ++a) {
          MODB_RETURN_IF_ERROR(r.StrView(&blob));
          Result<AttributeValue> v =
              !blob.empty() && std::uint8_t(blob[0]) == kRefCellTag
                  ? ReadRefCell(blob, defs, rel, t, i, a, num_tuples)
                  : DeserializeAttribute(blob);
          MODB_RETURN_IF_ERROR(v.status());
          t.push_back(*std::move(v));
        }
        // Insert re-checks arity and types against the decoded schema.
        MODB_RETURN_IF_ERROR(rel.Insert(std::move(t)));
      }
      result.rows = std::move(rel);
      break;
    }
    case QueryResult::Payload::kXY: {
      std::uint64_t cells;
      MODB_RETURN_IF_ERROR(ReadGeometry(&r, "xy", &result, &cells));
      // Compact: the coordinates of the defined cells alone, so their
      // count comes from the flags and each column is bounds-checked
      // against the block before it is sized.
      std::uint64_t set;
      MODB_RETURN_IF_ERROR(
          ReadFlagColumn(&r, cells, "defined", &result.defined, &set));
      MODB_RETURN_IF_ERROR(ReadF64Column(&r, set, &result.xs));
      MODB_RETURN_IF_ERROR(ReadF64Column(&r, set, &result.ys));
      break;
    }
    case QueryResult::Payload::kPresent: {
      std::uint64_t cells;
      MODB_RETURN_IF_ERROR(ReadGeometry(&r, "present", &result, &cells));
      MODB_RETURN_IF_ERROR(
          ReadFlagColumn(&r, cells, "present", &result.present));
      break;
    }
  }
  MODB_RETURN_IF_ERROR(r.ExpectEnd());
  return result;
}

namespace {

// The shared reply layout around a result block of `block_size` bytes
// that `write_block` appends: u32 code, string message, string block,
// string stats JSON. Errors always carry empty block and stats.
template <typename WriteBlock>
Status AppendReplyFrom(const Status& status, std::size_t block_size,
                       const WriteBlock& write_block,
                       std::string_view stats_json, std::string* out) {
  const bool ok = status.ok();
  if (!ok) {
    block_size = 0;
    stats_json = {};
  }
  const std::size_t payload = 4 + 4 + status.message().size() + 4 +
                              block_size + 4 + stats_json.size();
  if (payload > kMaxFramePayload) {
    return Status::OutOfRange(
        "reply of " + std::to_string(payload) + " bytes exceeds the " +
        std::to_string(kMaxFramePayload) +
        "-byte frame cap; narrow the query (fewer tuples or instants)");
  }
  const std::size_t start = out->size();
  WireWriter w(std::move(*out));
  w.Reserve(payload);
  w.U32(std::uint32_t(status.code()));
  w.Str(status.message());
  w.U32(std::uint32_t(block_size));
  Status written = ok ? write_block(&w) : Status::OK();
  if (written.ok()) w.Str(stats_json);
  *out = w.Take();
  if (written.ok() && out->size() - start != payload) {
    written = Status::Internal("reply encoder wrote " +
                               std::to_string(out->size() - start) +
                               " bytes, its size pass " +
                               std::to_string(payload));
  }
  if (!written.ok()) out->resize(start);
  return written;
}

}  // namespace

Status AppendReply(const Status& status, const QueryResult* result,
                   std::string* out) {
  if (!status.ok() || result == nullptr) {
    return AppendReplyFrom(
        status, 0, [](WireWriter*) { return Status::OK(); }, "", out);
  }
  Result<BlockPlan> plan = PlanResultBlock(*result);
  MODB_RETURN_IF_ERROR(plan.status());
  return AppendReplyFrom(
      status, plan->bytes,
      [&](WireWriter* w) { return WriteResultBlock(*result, *plan, w); },
      result->stats.ToJson(), out);
}

Status AppendMutationReply(const Status& status, const MutationResult* ack,
                           std::string* out) {
  return AppendReplyFrom(
      status, ack != nullptr ? kAckBlockBytes : 0,
      [&](WireWriter* w) {
        if (ack != nullptr) WriteMutationAck(*ack, w);
        return Status::OK();
      },
      "", out);
}

Result<std::string> EncodeReply(const Status& status,
                                const QueryResult* result) {
  std::string payload;
  MODB_RETURN_IF_ERROR(AppendReply(status, result, &payload));
  return payload;
}

Result<std::string> EncodeMutationReply(const Status& status,
                                        const MutationResult* ack) {
  std::string payload;
  MODB_RETURN_IF_ERROR(AppendMutationReply(status, ack, &payload));
  return payload;
}

Result<WireReply> DecodeReply(std::string payload) {
  WireReader r(payload);
  WireReply reply;
  std::uint32_t code;
  MODB_RETURN_IF_ERROR(r.U32(&code));
  if (code > kMaxStatusCode) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(code));
  }
  std::string message;
  MODB_RETURN_IF_ERROR(r.Str(&message));
  reply.status = Status(StatusCode(code), std::move(message));
  std::string_view block;
  MODB_RETURN_IF_ERROR(r.StrView(&block));
  MODB_RETURN_IF_ERROR(r.Str(&reply.stats_json));
  MODB_RETURN_IF_ERROR(r.ExpectEnd());
  if (reply.status.ok() && block.empty()) {
    return Status::InvalidArgument("OK reply carries no result block");
  }
  if (!reply.status.ok() && !(block.empty() && reply.stats_json.empty())) {
    return Status::InvalidArgument("error reply carries a result block");
  }
  const std::size_t at = std::size_t(block.data() - payload.data());
  const std::size_t len = block.size();
  payload.erase(0, at);
  payload.resize(len);
  reply.result_block = std::move(payload);
  return reply;
}

}  // namespace serve
}  // namespace modb
