#include "serve/wire.h"

#include <cstring>
#include <utility>
#include <vector>

#include "db/relation_io.h"
#include "obs/exec_stats.h"

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

}  // namespace

std::string EncodeFrameHeader(FrameType type, std::uint32_t payload_len,
                              std::uint8_t version) {
  std::string h(kFrameHeaderBytes, '\0');
  std::memcpy(h.data(), kMagic, 4);
  h[4] = char(version);
  h[5] = char(std::uint8_t(type));
  h[6] = 0;
  h[7] = 0;
  h[8] = char(payload_len & 0xff);
  h[9] = char((payload_len >> 8) & 0xff);
  h[10] = char((payload_len >> 16) & 0xff);
  h[11] = char((payload_len >> 24) & 0xff);
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
  const std::uint32_t len = std::uint32_t(std::uint8_t(bytes[8])) |
                            std::uint32_t(std::uint8_t(bytes[9])) << 8 |
                            std::uint32_t(std::uint8_t(bytes[10])) << 16 |
                            std::uint32_t(std::uint8_t(bytes[11])) << 24;
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload length " + std::to_string(len) +
        " exceeds the " + std::to_string(kMaxFramePayload) + "-byte cap");
  }
  return FrameHeader{FrameType(type), version, len};
}

void WireWriter::U8(std::uint8_t v) { buf_.push_back(char(v)); }

void WireWriter::U16(std::uint16_t v) {
  U8(std::uint8_t(v & 0xff));
  U8(std::uint8_t(v >> 8));
}

void WireWriter::U32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) U8(std::uint8_t((v >> (8 * i)) & 0xff));
}

void WireWriter::U64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) U8(std::uint8_t((v >> (8 * i)) & 0xff));
}

void WireWriter::I64(std::int64_t v) { U64(std::uint64_t(v)); }

void WireWriter::F64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  U64(bits);
}

void WireWriter::Str(std::string_view v) {
  U32(std::uint32_t(v.size()));
  buf_.append(v.data(), v.size());
}

Status WireReader::Need(std::size_t n) const {
  if (remaining() < n) {
    return Status::InvalidArgument(
        "truncated payload: need " + std::to_string(n) + " bytes at offset " +
        std::to_string(pos_) + ", have " + std::to_string(remaining()));
  }
  return Status::OK();
}

Status WireReader::U8(std::uint8_t* v) {
  MODB_RETURN_IF_ERROR(Need(1));
  *v = std::uint8_t(data_[pos_++]);
  return Status::OK();
}

Status WireReader::U16(std::uint16_t* v) {
  MODB_RETURN_IF_ERROR(Need(2));
  *v = std::uint16_t(std::uint8_t(data_[pos_])) |
       std::uint16_t(std::uint8_t(data_[pos_ + 1])) << 8;
  pos_ += 2;
  return Status::OK();
}

Status WireReader::U32(std::uint32_t* v) {
  MODB_RETURN_IF_ERROR(Need(4));
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= std::uint32_t(std::uint8_t(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 4;
  return Status::OK();
}

Status WireReader::U64(std::uint64_t* v) {
  MODB_RETURN_IF_ERROR(Need(8));
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= std::uint64_t(std::uint8_t(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 8;
  return Status::OK();
}

Status WireReader::I64(std::int64_t* v) {
  std::uint64_t u;
  MODB_RETURN_IF_ERROR(U64(&u));
  *v = std::int64_t(u);
  return Status::OK();
}

Status WireReader::F64(double* v) {
  std::uint64_t bits;
  MODB_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(v, &bits, sizeof *v);
  return Status::OK();
}

Status WireReader::Str(std::string* v) {
  std::uint32_t len;
  MODB_RETURN_IF_ERROR(U32(&len));
  MODB_RETURN_IF_ERROR(Need(len));
  v->assign(data_.data() + pos_, len);
  pos_ += len;
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
  for (Instant t : req.instants) w.F64(t);
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

// Every accepted version has the v3 field set; a later version's
// trailing fields would be read here under `version >= 4`.
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
  for (std::uint32_t i = 0; i < num_instants; ++i) {
    double t;
    MODB_RETURN_IF_ERROR(r.F64(&t));
    req.instants.push_back(t);
  }
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

std::string EncodeMutationAck(const MutationResult& ack) {
  WireWriter w;
  w.U8(kAckBlockKind);
  w.U64(ack.accepted);
  w.U64(ack.objects);
  w.U64(ack.mem_units);
  w.U64(ack.delta_entries);
  w.U64(ack.base_entries);
  w.U64(ack.merges);
  w.U64(ack.epoch);
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

Result<std::string> EncodeResultBlock(const QueryResult& result) {
  WireWriter w;
  w.U8(std::uint8_t(result.payload));
  switch (result.payload) {
    case QueryResult::Payload::kRows: {
      const Relation& rel = result.rows;
      w.Str(rel.name());
      w.U32(std::uint32_t(rel.schema().NumAttributes()));
      for (const AttributeDef& attr : rel.schema().attributes()) {
        w.Str(attr.name);
        w.U8(std::uint8_t(attr.type));
      }
      w.U32(std::uint32_t(rel.NumTuples()));
      for (const Tuple& t : rel.tuples()) {
        for (const AttributeValue& v : t) {
          Result<std::string> blob = SerializeAttribute(v);
          MODB_RETURN_IF_ERROR(blob.status());
          w.Str(*blob);
        }
      }
      break;
    }
    case QueryResult::Payload::kXY: {
      w.U64(result.batch_tuples);
      w.U64(result.batch_instants);
      for (double x : result.xs) w.F64(x);
      for (double y : result.ys) w.F64(y);
      for (std::uint8_t d : result.defined) w.U8(d);
      break;
    }
    case QueryResult::Payload::kPresent: {
      w.U64(result.batch_tuples);
      w.U64(result.batch_instants);
      for (std::uint8_t p : result.present) w.U8(p);
      break;
    }
  }
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
      std::string blob;
      for (std::uint32_t i = 0; i < num_tuples; ++i) {
        Tuple t;
        for (std::size_t a = 0; a < rel.schema().NumAttributes(); ++a) {
          MODB_RETURN_IF_ERROR(r.Str(&blob));
          Result<AttributeValue> v = DeserializeAttribute(blob);
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
      MODB_RETURN_IF_ERROR(r.U64(&result.batch_tuples));
      MODB_RETURN_IF_ERROR(r.U64(&result.batch_instants));
      if (result.batch_instants != 0 &&
          result.batch_tuples > kMaxFramePayload / result.batch_instants) {
        return Status::InvalidArgument("xy payload geometry overflows");
      }
      const std::uint64_t cells = result.batch_tuples * result.batch_instants;
      double v;
      for (std::uint64_t i = 0; i < cells; ++i) {
        MODB_RETURN_IF_ERROR(r.F64(&v));
        result.xs.push_back(v);
      }
      for (std::uint64_t i = 0; i < cells; ++i) {
        MODB_RETURN_IF_ERROR(r.F64(&v));
        result.ys.push_back(v);
      }
      std::uint8_t d;
      for (std::uint64_t i = 0; i < cells; ++i) {
        MODB_RETURN_IF_ERROR(r.U8(&d));
        if (d > 1) {
          return Status::InvalidArgument("defined byte must be 0 or 1");
        }
        result.defined.push_back(d);
      }
      break;
    }
    case QueryResult::Payload::kPresent: {
      MODB_RETURN_IF_ERROR(r.U64(&result.batch_tuples));
      MODB_RETURN_IF_ERROR(r.U64(&result.batch_instants));
      if (result.batch_instants != 0 &&
          result.batch_tuples > kMaxFramePayload / result.batch_instants) {
        return Status::InvalidArgument("present payload geometry overflows");
      }
      const std::uint64_t cells = result.batch_tuples * result.batch_instants;
      std::uint8_t p;
      for (std::uint64_t i = 0; i < cells; ++i) {
        MODB_RETURN_IF_ERROR(r.U8(&p));
        if (p > 1) {
          return Status::InvalidArgument("present byte must be 0 or 1");
        }
        result.present.push_back(p);
      }
      break;
    }
  }
  MODB_RETURN_IF_ERROR(r.ExpectEnd());
  return result;
}

namespace {

// Shared reply layout: u32 code, string message, string block, string
// stats JSON. Errors always carry empty block and stats.
std::string EncodeReplyFrom(const Status& status, std::string_view block,
                            std::string_view stats_json) {
  WireWriter w;
  w.U32(std::uint32_t(status.code()));
  w.Str(status.message());
  if (status.ok()) {
    w.Str(block);
    w.Str(stats_json);
  } else {
    w.Str("");
    w.Str("");
  }
  return w.Take();
}

}  // namespace

Result<std::string> EncodeReply(const Status& status,
                                const QueryResult* result) {
  if (status.ok() && result != nullptr) {
    Result<std::string> block = EncodeResultBlock(*result);
    MODB_RETURN_IF_ERROR(block.status());
    return EncodeReplyFrom(status, *block, result->stats.ToJson());
  }
  return EncodeReplyFrom(status, "", "");
}

Result<std::string> EncodeMutationReply(const Status& status,
                                        const MutationResult* ack) {
  if (status.ok() && ack != nullptr) {
    return EncodeReplyFrom(status, EncodeMutationAck(*ack), "");
  }
  return EncodeReplyFrom(status, "", "");
}

Result<WireReply> DecodeReply(std::string_view payload) {
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
  MODB_RETURN_IF_ERROR(r.Str(&reply.result_block));
  MODB_RETURN_IF_ERROR(r.Str(&reply.stats_json));
  MODB_RETURN_IF_ERROR(r.ExpectEnd());
  if (reply.status.ok() && reply.result_block.empty()) {
    return Status::InvalidArgument("OK reply carries no result block");
  }
  if (!reply.status.ok() &&
      !(reply.result_block.empty() && reply.stats_json.empty())) {
    return Status::InvalidArgument("error reply carries a result block");
  }
  return reply;
}

}  // namespace serve
}  // namespace modb
