// Wire protocol codec tests: round-trips for every frame / request /
// result-block / reply shape, plus the fuzz contract — truncated,
// oversized, and garbage bytes must yield a typed error, never a crash,
// an over-read, or an accepted message with trailing bytes.

#include "serve/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "db/modb.h"
#include "db/relation.h"
#include "spatial/point.h"
#include "temporal/moving.h"

namespace modb {
namespace serve {
namespace {

TimeInterval TI(double s, double e) {
  return *TimeInterval::Make(s, e, true, true);
}

MovingPoint MP(double t0, double t1, Point p0, Point p1) {
  return *MovingPoint::Make({*UPoint::FromEndpoints(TI(t0, t1), p0, p1)});
}

// ---------------------------------------------------------------------------
// Frame header.
// ---------------------------------------------------------------------------

TEST(FrameHeader, RoundTrip) {
  const std::string h = EncodeFrameHeader(FrameType::kQuery, 1234);
  ASSERT_EQ(h.size(), kFrameHeaderBytes);
  Result<struct FrameHeader> d = DecodeFrameHeader(h);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->type, FrameType::kQuery);
  EXPECT_EQ(d->payload_len, 1234u);

  Result<struct FrameHeader> r =
      DecodeFrameHeader(EncodeFrameHeader(FrameType::kReply, 0));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->type, FrameType::kReply);
  EXPECT_EQ(r->payload_len, 0u);
}

TEST(FrameHeader, BadMagicIsDataLoss) {
  std::string h = EncodeFrameHeader(FrameType::kQuery, 8);
  h[0] = 'X';
  Result<struct FrameHeader> d = DecodeFrameHeader(h);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kDataLoss);
}

TEST(FrameHeader, WrongSizeVersionTypeReservedAreInvalidArgument) {
  const std::string good = EncodeFrameHeader(FrameType::kQuery, 8);

  EXPECT_EQ(DecodeFrameHeader(good.substr(0, 11)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeFrameHeader(good + "x").status().code(),
            StatusCode::kInvalidArgument);

  std::string bad_version = good;
  bad_version[4] = char(kWireVersion + 1);
  EXPECT_EQ(DecodeFrameHeader(bad_version).status().code(),
            StatusCode::kInvalidArgument);

  std::string bad_type = good;
  bad_type[5] = 7;
  EXPECT_EQ(DecodeFrameHeader(bad_type).status().code(),
            StatusCode::kInvalidArgument);

  std::string bad_reserved = good;
  bad_reserved[6] = 1;
  EXPECT_EQ(DecodeFrameHeader(bad_reserved).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameHeader, OversizedLengthRejectedBeforeAllocation) {
  // A length field just past the cap must be rejected from the 12 header
  // bytes alone.
  std::string h = EncodeFrameHeader(FrameType::kQuery, kMaxFramePayload);
  EXPECT_TRUE(DecodeFrameHeader(h).ok());
  h = EncodeFrameHeader(FrameType::kQuery, kMaxFramePayload + 1);
  Result<struct FrameHeader> d = DecodeFrameHeader(h);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// QueryRequest round-trips.
// ---------------------------------------------------------------------------

QueryRequest FullRequest() {
  QueryRequest req;
  req.kind = QueryRequest::Kind::kIndexJoin;
  req.relation = "planes";
  FilterSpec eq;
  eq.kind = FilterSpec::Kind::kStringEquals;
  eq.attr = "airline";
  eq.value = "Lufthansa";
  FilterSpec len;
  len.kind = FilterSpec::Kind::kTrajectoryLengthAtLeast;
  len.attr = "flight";
  len.threshold = 5000.0;
  FilterSpec present;
  present.kind = FilterSpec::Kind::kPresentAt;
  present.attr = "flight";
  present.t0 = 12.5;
  FilterSpec deftime;
  deftime.kind = FilterSpec::Kind::kDeftimeIntersects;
  deftime.attr = "flight";
  deftime.t0 = 1.0;
  deftime.t1 = 9.0;
  req.filters = {eq, len, present, deftime};
  req.project = {"airline", "id"};
  req.join_relation = "planes";
  req.attr = "flight";
  req.join_attr = "flight";
  req.distance = 50.0;
  req.distinct_pairs = false;
  req.instants = {0.0, 0.5, 1.0};
  req.window_t0 = 1.0;
  req.window_t1 = 25.0;
  req.window_width = 4.0;
  req.window_step = 2.0;
  req.min_x = -10.0;
  req.min_y = -20.0;
  req.max_x = 30.0;
  req.max_y = 40.0;
  req.num_threads = 7;
  req.deadline_ms = 1500;  // v3 field
  return req;
}

void ExpectRequestsEqual(const QueryRequest& a, const QueryRequest& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.relation, b.relation);
  ASSERT_EQ(a.filters.size(), b.filters.size());
  for (std::size_t i = 0; i < a.filters.size(); ++i) {
    EXPECT_EQ(a.filters[i].kind, b.filters[i].kind);
    EXPECT_EQ(a.filters[i].attr, b.filters[i].attr);
    EXPECT_EQ(a.filters[i].value, b.filters[i].value);
    EXPECT_EQ(a.filters[i].threshold, b.filters[i].threshold);
    EXPECT_EQ(a.filters[i].t0, b.filters[i].t0);
    EXPECT_EQ(a.filters[i].t1, b.filters[i].t1);
  }
  EXPECT_EQ(a.project, b.project);
  EXPECT_EQ(a.join_relation, b.join_relation);
  EXPECT_EQ(a.attr, b.attr);
  EXPECT_EQ(a.join_attr, b.join_attr);
  EXPECT_EQ(a.distance, b.distance);
  EXPECT_EQ(a.distinct_pairs, b.distinct_pairs);
  EXPECT_EQ(a.instants, b.instants);
  EXPECT_EQ(a.window_t0, b.window_t0);
  EXPECT_EQ(a.window_t1, b.window_t1);
  EXPECT_EQ(a.window_width, b.window_width);
  EXPECT_EQ(a.window_step, b.window_step);
  EXPECT_EQ(a.min_x, b.min_x);
  EXPECT_EQ(a.min_y, b.min_y);
  EXPECT_EQ(a.max_x, b.max_x);
  EXPECT_EQ(a.max_y, b.max_y);
  EXPECT_EQ(a.num_threads, b.num_threads);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
}

TEST(QueryRequestCodec, RoundTripsEveryField) {
  const QueryRequest req = FullRequest();
  Result<QueryRequest> back = DecodeQueryRequest(EncodeQueryRequest(req));
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectRequestsEqual(req, *back);
}

TEST(QueryRequestCodec, RoundTripsEveryKind) {
  for (std::uint8_t k = 0;
       k <= std::uint8_t(QueryRequest::Kind::kWindowAggregate); ++k) {
    QueryRequest req;
    req.kind = QueryRequest::Kind(k);
    req.relation = "r";
    req.num_threads = -1;  // <= 0 selects one worker per pool thread
    Result<QueryRequest> back = DecodeQueryRequest(EncodeQueryRequest(req));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->kind, req.kind);
    EXPECT_EQ(back->num_threads, -1);
  }
}

TEST(QueryRequestCodec, RejectsUnknownKinds) {
  std::string bytes = EncodeQueryRequest(FullRequest());
  bytes[0] = char(9);  // query kind past kPresentBatch
  Result<QueryRequest> d = DecodeQueryRequest(bytes);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);

  // Filter kind lives right after the kind byte, the relation string,
  // and the filter count: 1 + (4 + 6) + 4.
  bytes = EncodeQueryRequest(FullRequest());
  bytes[1 + 4 + 6 + 4] = char(4);
  d = DecodeQueryRequest(bytes);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryRequestCodec, RejectsTrailingBytes) {
  const std::string bytes =
      EncodeQueryRequest(FullRequest()) + std::string(1, '\0');
  Result<QueryRequest> d = DecodeQueryRequest(bytes);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(d.status().message().find("trailing"), std::string::npos)
      << d.status();
}

TEST(QueryRequestCodec, EveryStrictPrefixFailsTyped) {
  // The decoder consumed every byte of the full encoding (ExpectEnd), so
  // any strict prefix cuts a required field and must fail — typed, not
  // crash.
  const std::string bytes = EncodeQueryRequest(FullRequest());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    Result<QueryRequest> d = DecodeQueryRequest(bytes.substr(0, n));
    ASSERT_FALSE(d.ok()) << "prefix length " << n;
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(QueryRequestCodec, HugeStringLengthFailsWithoutOverread) {
  // A string length prefix claiming ~4 GiB in a tiny payload must fail
  // the bounds check, not allocate or read past the end.
  WireWriter w;
  w.U8(0);                  // kind = kSelect
  w.U32(0xfffffff0u);       // relation length: absurd
  Result<QueryRequest> d = DecodeQueryRequest(w.bytes());
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Result blocks.
// ---------------------------------------------------------------------------

TEST(ResultBlockCodec, RowsRoundTrip) {
  Relation rel("answer", Schema({{"airline", AttributeType::kString},
                                 {"flight", AttributeType::kMovingPoint}}));
  ASSERT_TRUE(
      rel.Insert({StringValue{"LH"}, MP(0, 10, Point(0, 0), Point(10, 5))})
          .ok());
  ASSERT_TRUE(
      rel.Insert({StringValue{"BA"}, MP(2, 6, Point(1, 1), Point(3, 3))})
          .ok());

  QueryResult result;
  result.payload = QueryResult::Payload::kRows;
  result.rows = rel;
  Result<std::string> block = EncodeResultBlock(result);
  ASSERT_TRUE(block.ok()) << block.status();

  Result<QueryResult> back = DecodeResultBlock(*block);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->payload, QueryResult::Payload::kRows);
  EXPECT_EQ(back->rows.name(), "answer");
  ASSERT_EQ(back->rows.schema().NumAttributes(), 2u);
  EXPECT_EQ(back->rows.schema().attribute(0).name, "airline");
  EXPECT_EQ(back->rows.schema().attribute(1).type,
            AttributeType::kMovingPoint);
  ASSERT_EQ(back->rows.NumTuples(), 2u);
  EXPECT_EQ(std::get<StringValue>(back->rows.tuple(1)[0]).value(), "BA");

  // Re-encoding the decoded block reproduces the bytes — the identity
  // the determinism contract compares.
  Result<std::string> again = EncodeResultBlock(*back);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *block);
}

TEST(ResultBlockCodec, XYRoundTrip) {
  QueryResult result;
  result.payload = QueryResult::Payload::kXY;
  result.batch_tuples = 2;
  result.batch_instants = 3;
  result.xs = {1, 2, 3, 4, 5, 6};
  result.ys = {6, 5, 4, 3, 2, 1};
  result.defined = {1, 1, 0, 0, 1, 1};
  Result<std::string> block = EncodeResultBlock(result);
  ASSERT_TRUE(block.ok());
  Result<QueryResult> back = DecodeResultBlock(*block);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->payload, QueryResult::Payload::kXY);
  EXPECT_EQ(back->batch_tuples, 2u);
  EXPECT_EQ(back->batch_instants, 3u);
  EXPECT_EQ(back->xs, result.xs);
  EXPECT_EQ(back->ys, result.ys);
  EXPECT_EQ(back->defined, result.defined);
}

TEST(ResultBlockCodec, PresentRoundTrip) {
  QueryResult result;
  result.payload = QueryResult::Payload::kPresent;
  result.batch_tuples = 3;
  result.batch_instants = 2;
  result.present = {1, 0, 0, 1, 1, 1};
  Result<std::string> block = EncodeResultBlock(result);
  ASSERT_TRUE(block.ok());
  Result<QueryResult> back = DecodeResultBlock(*block);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->payload, QueryResult::Payload::kPresent);
  EXPECT_EQ(back->present, result.present);
}

TEST(ResultBlockCodec, RejectsGeometryOverflowAndBadFlagBytes) {
  // Geometry whose product overflows the frame cap must be rejected
  // before any element loop runs.
  WireWriter w;
  w.U8(std::uint8_t(QueryResult::Payload::kXY));
  w.U64(std::uint64_t(1) << 60);
  w.U64(std::uint64_t(1) << 60);
  Result<QueryResult> d = DecodeResultBlock(w.bytes());
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);

  // A defined byte outside {0, 1}.
  QueryResult xy;
  xy.payload = QueryResult::Payload::kXY;
  xy.batch_tuples = 1;
  xy.batch_instants = 1;
  xy.xs = {1};
  xy.ys = {2};
  xy.defined = {1};
  Result<std::string> block = EncodeResultBlock(xy);
  ASSERT_TRUE(block.ok());
  std::string bytes = *block;
  bytes.back() = char(2);
  d = DecodeResultBlock(bytes);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultBlockCodec, EveryStrictPrefixFailsTyped) {
  QueryResult xy;
  xy.payload = QueryResult::Payload::kXY;
  xy.batch_tuples = 2;
  xy.batch_instants = 2;
  xy.xs = {1, 2, 3, 4};
  xy.ys = {4, 3, 2, 1};
  xy.defined = {1, 0, 1, 0};
  Result<std::string> block = EncodeResultBlock(xy);
  ASSERT_TRUE(block.ok());
  for (std::size_t n = 0; n < block->size(); ++n) {
    Result<QueryResult> d = DecodeResultBlock(block->substr(0, n));
    ASSERT_FALSE(d.ok()) << "prefix length " << n;
  }
}

// ---------------------------------------------------------------------------
// Replies.
// ---------------------------------------------------------------------------

TEST(ReplyCodec, OkReplyRoundTrips) {
  QueryResult result;
  result.payload = QueryResult::Payload::kPresent;
  result.batch_tuples = 1;
  result.batch_instants = 1;
  result.present = {1};
  result.stats.op = "present_batch";
  result.stats.tuples_in = 1;

  Result<std::string> payload = EncodeReply(Status::OK(), &result);
  ASSERT_TRUE(payload.ok()) << payload.status();
  Result<WireReply> reply = DecodeReply(*payload);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->status.ok());
  EXPECT_EQ(reply->result_block, *EncodeResultBlock(result));
  Result<ExecStats> stats = ExecStats::FromJson(reply->stats_json);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->op, "present_batch");
}

TEST(ReplyCodec, ErrorReplyRoundTripsCodeAndMessage) {
  const Status rejected = Status::ResourceExhausted(
      "query needs 8 worker threads but the server budget is 4");
  Result<std::string> payload = EncodeReply(rejected, nullptr);
  ASSERT_TRUE(payload.ok());
  Result<WireReply> reply = DecodeReply(*payload);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(reply->status.message(), rejected.message());
  EXPECT_TRUE(reply->result_block.empty());
}

TEST(ReplyCodec, RejectsInconsistentReplies) {
  // OK with no result block.
  WireWriter ok_no_block;
  ok_no_block.U32(std::uint32_t(StatusCode::kOk));
  ok_no_block.Str("");
  ok_no_block.Str("");
  ok_no_block.Str("");
  EXPECT_FALSE(DecodeReply(ok_no_block.bytes()).ok());

  // Error carrying a result block.
  WireWriter err_with_block;
  err_with_block.U32(std::uint32_t(StatusCode::kNotFound));
  err_with_block.Str("nope");
  err_with_block.Str("stale block");
  err_with_block.Str("");
  EXPECT_FALSE(DecodeReply(err_with_block.bytes()).ok());

  // Unknown status code.
  WireWriter bad_code;
  bad_code.U32(99);
  bad_code.Str("");
  bad_code.Str("");
  bad_code.Str("");
  EXPECT_FALSE(DecodeReply(bad_code.bytes()).ok());
}

// ---------------------------------------------------------------------------
// Mutations: the request payload and its ack block.
// ---------------------------------------------------------------------------

MutationRequest FullMutation() {
  MutationRequest req;
  req.kind = MutationRequest::Kind::kIngest;
  req.relation = "fleet";
  req.fixes.push_back({"obj00001", 1.5, -3.25, 4.75});
  req.fixes.push_back({"obj00002", 2.0, 0.0, -0.0});
  req.fixes.push_back({"", 3.0, 1e9, -1e-9});
  req.seal_units = 12;
  req.client_id = "tracker-07";  // v3 idempotency key
  req.batch_seq = 42;
  return req;
}

void ExpectMutationsEqual(const MutationRequest& a, const MutationRequest& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.relation, b.relation);
  ASSERT_EQ(a.fixes.size(), b.fixes.size());
  for (std::size_t i = 0; i < a.fixes.size(); ++i) {
    EXPECT_EQ(a.fixes[i].object_id, b.fixes[i].object_id) << "fix " << i;
    EXPECT_EQ(a.fixes[i].t, b.fixes[i].t) << "fix " << i;
    EXPECT_EQ(a.fixes[i].x, b.fixes[i].x) << "fix " << i;
    EXPECT_EQ(a.fixes[i].y, b.fixes[i].y) << "fix " << i;
  }
  EXPECT_EQ(a.seal_units, b.seal_units);
  EXPECT_EQ(a.client_id, b.client_id);
  EXPECT_EQ(a.batch_seq, b.batch_seq);
}

TEST(MutationCodec, RoundTripsEveryFieldAndKind) {
  for (std::uint8_t k = 0;
       k <= std::uint8_t(MutationRequest::Kind::kIngest); ++k) {
    MutationRequest req = FullMutation();
    req.kind = MutationRequest::Kind(k);
    Result<MutationRequest> d = DecodeMutationRequest(EncodeMutationRequest(req));
    ASSERT_TRUE(d.ok()) << "kind " << int(k) << ": " << d.status();
    ExpectMutationsEqual(req, *d);
  }
}

TEST(MutationCodec, RejectsUnknownKinds) {
  std::string bytes = EncodeMutationRequest(FullMutation());
  bytes[0] = char(3);  // one past kIngest
  Result<MutationRequest> d = DecodeMutationRequest(bytes);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

TEST(MutationCodec, RejectsTrailingBytes) {
  std::string bytes = EncodeMutationRequest(FullMutation());
  bytes.push_back('\0');
  EXPECT_FALSE(DecodeMutationRequest(bytes).ok());
}

TEST(MutationCodec, EveryStrictPrefixFailsTyped) {
  const std::string bytes = EncodeMutationRequest(FullMutation());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    Result<MutationRequest> d = DecodeMutationRequest(bytes.substr(0, n));
    ASSERT_FALSE(d.ok()) << "prefix length " << n;
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument)
        << "prefix length " << n;
  }
}

TEST(MutationCodec, HugeStringLengthFailsWithoutOverread) {
  // A fix-count far beyond the payload must be rejected by arithmetic,
  // not by allocating or walking 2^32 entries.
  std::string bytes = EncodeMutationRequest(FullMutation());
  const std::size_t count_at = 1 + 4 + 5;  // kind, relation len, "fleet"
  bytes[count_at] = char(0xff);
  bytes[count_at + 1] = char(0xff);
  bytes[count_at + 2] = char(0xff);
  bytes[count_at + 3] = char(0xff);
  EXPECT_FALSE(DecodeMutationRequest(bytes).ok());
}

MutationResult FullAck() {
  MutationResult ack;
  ack.accepted = 64;
  ack.objects = 8;
  ack.mem_units = 3;
  ack.delta_entries = 40;
  ack.base_entries = 512;
  ack.merges = 2;
  ack.epoch = 65;
  return ack;
}

void ExpectAcksEqual(const MutationResult& a, const MutationResult& b) {
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.objects, b.objects);
  EXPECT_EQ(a.mem_units, b.mem_units);
  EXPECT_EQ(a.delta_entries, b.delta_entries);
  EXPECT_EQ(a.base_entries, b.base_entries);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.epoch, b.epoch);
}

TEST(MutationAckCodec, RoundTrips) {
  const MutationResult ack = FullAck();
  Result<MutationResult> d = DecodeMutationAck(EncodeMutationAck(ack));
  ASSERT_TRUE(d.ok()) << d.status();
  ExpectAcksEqual(ack, *d);
}

TEST(MutationAckCodec, EveryStrictPrefixFailsTyped) {
  const std::string bytes = EncodeMutationAck(FullAck());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    ASSERT_FALSE(DecodeMutationAck(bytes.substr(0, n)).ok())
        << "prefix length " << n;
  }
  std::string trailing = bytes;
  trailing.push_back('\0');
  EXPECT_FALSE(DecodeMutationAck(trailing).ok());
}

TEST(MutationAckCodec, AckBlockIsNotAQueryResult) {
  // The ack block kind (3) sits outside the QueryResult payload range,
  // so a client that sent a query cannot mistake an ack for rows.
  const std::string block = EncodeMutationAck(FullAck());
  Result<QueryResult> d = DecodeResultBlock(block);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

TEST(MutationAckCodec, ReplyRoundTripsOkAndError) {
  const MutationResult ack = FullAck();
  Result<std::string> payload = EncodeMutationReply(Status::OK(), &ack);
  ASSERT_TRUE(payload.ok()) << payload.status();
  Result<WireReply> reply = DecodeReply(*payload);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->status.ok());
  Result<MutationResult> decoded = DecodeMutationAck(reply->result_block);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectAcksEqual(ack, *decoded);

  const Status not_found =
      Status::NotFound("ingest into unknown relation 'ghost'");
  payload = EncodeMutationReply(not_found, nullptr);
  ASSERT_TRUE(payload.ok());
  reply = DecodeReply(*payload);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(reply->status.message(), not_found.message());
  EXPECT_TRUE(reply->result_block.empty());
}

// ---------------------------------------------------------------------------
// Versioning: the header's version range is the only gate; v3 is the
// one version spoken.
// ---------------------------------------------------------------------------

TEST(Versioning, FrameHeaderRoundTripsEveryAcceptedVersion) {
  for (std::uint8_t v = kMinWireVersion; v <= kWireVersion; ++v) {
    Result<struct FrameHeader> d =
        DecodeFrameHeader(EncodeFrameHeader(FrameType::kMutation, 99, v));
    ASSERT_TRUE(d.ok()) << "version " << int(v) << ": " << d.status();
    EXPECT_EQ(d->version, v);
    EXPECT_EQ(d->type, FrameType::kMutation);
    EXPECT_EQ(d->payload_len, 99u);
  }
  // One below the floor and one above the ceiling are both rejected.
  EXPECT_FALSE(DecodeFrameHeader(EncodeFrameHeader(
                   FrameType::kQuery, 0, kMinWireVersion - 1))
                   .ok());
  EXPECT_FALSE(DecodeFrameHeader(EncodeFrameHeader(
                   FrameType::kQuery, 0, kWireVersion + 1))
                   .ok());
}

// v2 is retired: its header is a typed error naming the accepted range,
// not a payload decoded with defaults.
TEST(Versioning, V2HeaderIsRejectedWithATypedError) {
  Result<struct FrameHeader> d =
      DecodeFrameHeader(EncodeFrameHeader(FrameType::kQuery, 0, 2));
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(d.status().message().find("version 2"), std::string::npos)
      << d.status();
  EXPECT_NE(d.status().message().find("3..3"), std::string::npos)
      << d.status();
}

// ---------------------------------------------------------------------------
// Fuzz: random garbage through every decoder. The contract is "typed
// error or a valid decode", never a crash, hang, or over-read.
// ---------------------------------------------------------------------------

TEST(WireFuzz, RandomBytesNeverCrashAnyDecoder) {
  std::mt19937_64 rng(20260809);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 200);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string bytes(len(rng), '\0');
    for (char& c : bytes) c = char(byte(rng));
    // Exercise all four decoders on the same garbage; only their status
    // matters.
    (void)DecodeFrameHeader(std::string_view(bytes).substr(
        0, std::min<std::size_t>(bytes.size(), kFrameHeaderBytes)));
    (void)DecodeQueryRequest(bytes);
    (void)DecodeResultBlock(bytes);
    (void)DecodeReply(bytes);
    (void)DecodeMutationRequest(bytes);
    (void)DecodeMutationAck(bytes);
  }
}

TEST(WireFuzz, MutatedValidMutationsNeverCrash) {
  const std::string base = EncodeMutationRequest(FullMutation());
  std::mt19937_64 rng(1331);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = base;
    bytes[pos(rng)] = char(byte(rng));
    Result<MutationRequest> d = DecodeMutationRequest(bytes);
    if (d.ok()) {
      Result<MutationRequest> again =
          DecodeMutationRequest(EncodeMutationRequest(*d));
      EXPECT_TRUE(again.ok()) << again.status();
    }
  }
}

TEST(WireFuzz, MutatedValidRequestsNeverCrash) {
  // Single-byte mutations of a valid encoding: decoders must stay total
  // and, when they do accept, re-encode to something decodable.
  const std::string base = EncodeQueryRequest(FullRequest());
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = base;
    bytes[pos(rng)] = char(byte(rng));
    Result<QueryRequest> d = DecodeQueryRequest(bytes);
    if (d.ok()) {
      Result<QueryRequest> again =
          DecodeQueryRequest(EncodeQueryRequest(*d));
      EXPECT_TRUE(again.ok()) << again.status();
    }
  }
}

TEST(WireFuzz, MutatedValidRepliesNeverCrash) {
  QueryResult result;
  result.payload = QueryResult::Payload::kXY;
  result.batch_tuples = 2;
  result.batch_instants = 2;
  result.xs = {1, 2, 3, 4};
  result.ys = {4, 3, 2, 1};
  result.defined = {1, 1, 1, 0};
  Result<std::string> payload = EncodeReply(Status::OK(), &result);
  ASSERT_TRUE(payload.ok());
  const std::string base = *payload;
  std::mt19937_64 rng(777);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = base;
    bytes[pos(rng)] = char(byte(rng));
    Result<WireReply> d = DecodeReply(bytes);
    if (d.ok() && d->status.ok()) {
      // An accepted OK reply must carry a decodable-or-rejected block —
      // decoding it must not crash either way.
      (void)DecodeResultBlock(d->result_block);
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace modb
