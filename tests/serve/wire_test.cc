// Wire protocol codec tests: round-trips for every frame / request /
// result-block / reply shape, plus the fuzz contract — truncated,
// oversized, and garbage bytes must yield a typed error, never a crash,
// an over-read, or an accepted message with trailing bytes.

#include "serve/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "db/modb.h"
#include "db/relation.h"
#include "gen/region_gen.h"
#include "gen/trajectory_gen.h"
#include "obs/exec_stats.h"
#include "spatial/point.h"
#include "storage/flat.h"
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
  // Compact: coordinates for the four defined cells alone.
  result.xs = {1, 2, 5, 6};
  result.ys = {6, 5, 2, 1};
  result.defined = {1, 1, 0, 0, 1, 1};
  Result<std::string> block = EncodeResultBlock(result);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->size(), 1 + 16 + 6 + 2 * 4 * sizeof(double));
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
  constexpr std::size_t kFlagsAt = 1 + 2 * sizeof(std::uint64_t);
  bytes[kFlagsAt] = char(2);
  d = DecodeResultBlock(bytes);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);

  auto expect_typed_failure = [](const std::string& bytes,
                                 const std::string& why) {
    Result<QueryResult> d = DecodeResultBlock(bytes);
    ASSERT_FALSE(d.ok()) << why;
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument)
        << why << ": " << d.status();
  };

  // The bulk flag check must cover the whole column: a bad flag in the
  // last of six defined cells.
  QueryResult wide;
  wide.payload = QueryResult::Payload::kXY;
  wide.batch_tuples = 2;
  wide.batch_instants = 3;
  wide.xs = {1, 3, 4, 6};
  wide.ys = {6, 4, 3, 1};
  wide.defined = {1, 0, 1, 1, 0, 1};
  block = EncodeResultBlock(wide);
  ASSERT_TRUE(block.ok());
  bytes = *block;
  bytes[kFlagsAt + 5] = char(0xff);
  expect_typed_failure(bytes, "bad flag in the last defined cell");

  // ... and from its first byte: a bad flag in the first present cell.
  QueryResult present;
  present.payload = QueryResult::Payload::kPresent;
  present.batch_tuples = 2;
  present.batch_instants = 2;
  present.present = {1, 0, 0, 1};
  block = EncodeResultBlock(present);
  ASSERT_TRUE(block.ok());
  bytes = *block;
  bytes[kFlagsAt] = char(2);
  expect_typed_failure(bytes, "bad flag in the first present cell");

  // A block one byte short of its geometry, and one byte long.
  for (const QueryResult* r : {&wide, &present}) {
    block = EncodeResultBlock(*r);
    ASSERT_TRUE(block.ok());
    expect_typed_failure(block->substr(0, block->size() - 1),
                         "one byte short");
    expect_typed_failure(*block + '\0', "one byte long");
  }
}

TEST(ResultBlockCodec, EveryStrictPrefixFailsTyped) {
  QueryResult xy;
  xy.payload = QueryResult::Payload::kXY;
  xy.batch_tuples = 2;
  xy.batch_instants = 2;
  xy.xs = {1, 3};
  xy.ys = {4, 2};
  xy.defined = {1, 0, 1, 0};
  Result<std::string> block = EncodeResultBlock(xy);
  ASSERT_TRUE(block.ok());
  for (std::size_t n = 0; n < block->size(); ++n) {
    Result<QueryResult> d = DecodeResultBlock(block->substr(0, n));
    ASSERT_FALSE(d.ok()) << "prefix length " << n;
  }
}

// The compact xy block (v5): the flags fix how many coordinates follow,
// so a block whose coordinate columns disagree with its set count is
// refused with a typed error (flag bytes other than 0 and 1 are
// RejectsGeometryOverflowAndBadFlagBytes' cases).
QueryResult CompactXY() {
  QueryResult xy;
  xy.payload = QueryResult::Payload::kXY;
  xy.batch_tuples = 2;
  xy.batch_instants = 3;
  xy.defined = {0, 1, 1, 0, 0, 1};
  xy.xs = {10, 20, 30};
  xy.ys = {-1, -2, -3};
  return xy;
}

TEST(ResultBlockCodec, MalformedCompactXYBlocksFailTyped) {
  const std::string good = *EncodeResultBlock(CompactXY());
  constexpr std::size_t kFlagsAt = 1 + 2 * sizeof(std::uint64_t);
  auto expect_refused = [](const std::string& bytes, const std::string& why) {
    Result<QueryResult> d = DecodeResultBlock(bytes);
    ASSERT_FALSE(d.ok()) << why;
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument)
        << why << ": " << d.status();
  };
  // The ys column one double short of the three set cells.
  expect_refused(good.substr(0, good.size() - sizeof(double)),
                 "ys column shorter than the set count");
  // Both columns sized for two cells, not three.
  expect_refused(good.substr(0, good.size() - 2 * sizeof(double)),
                 "coordinate columns shorter than the set count");
  // One more set flag than coordinates: the columns now run short.
  std::string extra = good;
  extra[kFlagsAt] = char(1);
  expect_refused(extra, "a set flag without coordinates");
  // One set flag fewer: the last double is left over as trailing bytes.
  std::string fewer = good;
  fewer[kFlagsAt + 5] = char(0);
  expect_refused(fewer, "coordinates beyond the set count");
  // Trailing bytes after a well-formed block.
  expect_refused(good + std::string(sizeof(double), '\0'),
                 "a trailing coordinate");
  expect_refused(good + '\0', "one trailing byte");
  // The unmodified block still decodes.
  Result<QueryResult> back = DecodeResultBlock(good);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->xs, CompactXY().xs);
  EXPECT_EQ(back->ys, CompactXY().ys);
  EXPECT_EQ(back->defined, CompactXY().defined);
}

TEST(ResultBlockCodec, EncoderRefusesColumnsThatDisagreeWithTheSetCount) {
  auto expect_refused = [](const QueryResult& r, const std::string& why) {
    Result<std::string> block = EncodeResultBlock(r);
    ASSERT_FALSE(block.ok()) << why;
    EXPECT_EQ(block.status().code(), StatusCode::kInvalidArgument)
        << why << ": " << block.status();
    Result<std::string> reply = EncodeReply(Status::OK(), &r);
    ASSERT_FALSE(reply.ok()) << why;
    EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument) << why;
  };
  QueryResult dense = CompactXY();
  dense.xs = {0, 10, 20, 0, 0, 30};  // the pre-v5 dense form
  dense.ys = {0, -1, -2, 0, 0, -3};
  expect_refused(dense, "dense columns");
  QueryResult short_x = CompactXY();
  short_x.xs.pop_back();
  expect_refused(short_x, "xs one short");
  QueryResult long_y = CompactXY();
  long_y.ys.push_back(7);
  expect_refused(long_y, "ys one long");
  QueryResult two = CompactXY();
  two.defined[0] = 2;
  expect_refused(two, "a flag byte of 2");
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
// Versioning: the header's version range is the only gate; v5 is the
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
  EXPECT_NE(d.status().message().find("5..5"), std::string::npos)
      << d.status();
}

// v3 is retired too: a v3 peer would misread a rows block carrying
// reference cells, so its header is refused before any payload.
TEST(Versioning, V3HeaderIsRejectedWithATypedError) {
  for (FrameType type :
       {FrameType::kQuery, FrameType::kReply, FrameType::kMutation}) {
    Result<struct FrameHeader> d =
        DecodeFrameHeader(EncodeFrameHeader(type, 0, 3));
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(d.status().message().find("version 3"), std::string::npos)
        << d.status();
    EXPECT_NE(d.status().message().find("5..5"), std::string::npos)
        << d.status();
  }
}

// v4 is retired as well: a v4 peer would read the compact xy block as
// dense columns, so its header is refused before any payload.
TEST(Versioning, V4HeaderIsRejectedWithATypedError) {
  for (FrameType type :
       {FrameType::kQuery, FrameType::kReply, FrameType::kMutation}) {
    Result<struct FrameHeader> d =
        DecodeFrameHeader(EncodeFrameHeader(type, 0, 4));
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(d.status().message().find("version 4"), std::string::npos)
        << d.status();
    EXPECT_NE(d.status().message().find("5..5"), std::string::npos)
        << d.status();
  }
}

// ---------------------------------------------------------------------------
// Golden bytes: replies assembled by hand from docs/PROTOCOL.md §5, and
// a per-field reference encoder. The round-trip tests above (and
// loadgen --verify) check the codec against itself, so a layout drift
// made symmetrically in encoder and decoder would pass them; these
// pin the layout itself.
// ---------------------------------------------------------------------------

// "0a ff 3f" -> the three bytes; whitespace is ignored.
std::string Hex(std::string_view hex) {
  std::string out;
  int nibbles = 0;
  unsigned byte = 0;
  for (char c : hex) {
    if (c == ' ' || c == '\n') continue;
    byte = byte * 16 + unsigned(c <= '9' ? c - '0' : c - 'a' + 10);
    if (++nibbles == 2) {
      out.push_back(char(byte));
      nibbles = 0;
      byte = 0;
    }
  }
  return out;
}

// The stats JSON string field that ends every OK query reply.
std::string StatsField(const QueryResult& result) {
  const std::string json = result.stats.ToJson();
  const std::uint32_t n = std::uint32_t(json.size());
  std::string out;
  for (int i = 0; i < 4; ++i) out.push_back(char((n >> (8 * i)) & 0xff));
  return out + json;
}

// Little-endian f64 bit patterns used below.
constexpr std::string_view k0_0 = "00 00 00 00 00 00 00 00";
constexpr std::string_view k0_5 = "00 00 00 00 00 00 e0 3f";
constexpr std::string_view k1_0 = "00 00 00 00 00 00 f0 3f";
constexpr std::string_view k1_5 = "00 00 00 00 00 00 f8 3f";
constexpr std::string_view k2_0 = "00 00 00 00 00 00 00 40";
constexpr std::string_view kMinus1_0 = "00 00 00 00 00 00 f0 bf";
// The flat blob magic "MODB" as a little-endian u32.
constexpr std::string_view kFlatMagic = "42 44 4f 4d";

void ExpectReplyBytes(const Result<std::string>& encoded,
                      const std::string& golden) {
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  EXPECT_EQ(*encoded, golden);
  Result<WireReply> decoded = DecodeReply(golden);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
}

TEST(WireGolden, RowsReplyWithIntRealStringAndMPointColumns) {
  Relation rel("r", Schema({{"i", AttributeType::kInt},
                            {"x", AttributeType::kReal},
                            {"s", AttributeType::kString},
                            {"m", AttributeType::kMovingPoint}}));
  const LinearMotion motion{1.0, 2.0, 0.5, -1.0};
  const MovingPoint m =
      *MovingPoint::Make({*UPoint::Make(TI(0, 2), motion)});
  ASSERT_TRUE(
      rel.Insert({IntValue(7), RealValue(1.5), StringValue{"LH"}, m}).ok());
  QueryResult result;
  result.payload = QueryResult::Payload::kRows;
  result.rows = rel;

  const std::string block =
      Hex("00"                          // payload kind: rows
          "01 00 00 00 72"              // relation name "r"
          "04 00 00 00"                 // 4 attributes
          "01 00 00 00 69 00"           // "i" int
          "01 00 00 00 78 01"           // "x" real
          "01 00 00 00 73 03"           // "s" string
          "01 00 00 00 6d 0d"           // "m" mpoint
          "01 00 00 00") +              // 1 tuple
      // int 7: tag, flat header (magic, root 9 bytes, 0 arrays), root.
      Hex("16 00 00 00 00") + Hex(kFlatMagic) +
      Hex("09 00 00 00 00 00 00 00 01 07 00 00 00 00 00 00 00") +
      // real 1.5
      Hex("16 00 00 00 01") + Hex(kFlatMagic) +
      Hex("09 00 00 00 00 00 00 00 01") + Hex(k1_5) +
      // string "LH": defined, length, 48-byte padded character array.
      Hex("3f 00 00 00 03") + Hex(kFlatMagic) +
      Hex("32 00 00 00 00 00 00 00 01 02 4c 48") +
      std::string(kMaxStringLength - 2, '\0') +
      // mpoint: root = unit count, one units array of 50-byte units
      // (interval start, end, closedness; motion x0, x1, y0, y1).
      Hex("47 00 00 00 0d") + Hex(kFlatMagic) +
      Hex("04 00 00 00 01 00 00 00 01 00 00 00 32 00 00 00") + Hex(k0_0) +
      Hex(k2_0) + Hex("01 01") + Hex(k1_0) + Hex(k2_0) + Hex(k0_5) +
      Hex(kMinus1_0);
  ASSERT_EQ(block.size(), 0xe8u);
  Result<std::string> encoded = EncodeResultBlock(result);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  EXPECT_EQ(*encoded, block);

  const std::string reply = Hex("00 00 00 00"     // status code kOk
                                "00 00 00 00"     // empty message
                                "e8 00 00 00") +  // block length
                            block + StatsField(result);
  ExpectReplyBytes(EncodeReply(Status::OK(), &result), reply);
  Result<QueryResult> back = DecodeResultBlock(block);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->rows.NumTuples(), 1u);
  EXPECT_EQ(std::get<IntValue>(back->rows.tuple(0)[0]).value(), 7);
  EXPECT_EQ(std::get<StringValue>(back->rows.tuple(0)[2]).value(), "LH");
  const MovingPoint& m_back = std::get<MovingPoint>(back->rows.tuple(0)[3]);
  EXPECT_EQ(m_back.units()[0].motion().y1, -1.0);
}

TEST(WireGolden, XYReply) {
  QueryResult result;
  result.payload = QueryResult::Payload::kXY;
  result.batch_tuples = 1;
  result.batch_instants = 3;
  result.xs = {1.0, 2.0};
  result.ys = {-1.0, 0.5};
  result.defined = {1, 0, 1};
  const std::string block = Hex("01"                         // xy
                                "01 00 00 00 00 00 00 00"    // 1 tuple
                                "03 00 00 00 00 00 00 00"    // 3 instants
                                "01 00 01") +                // defined
                            Hex(k1_0) + Hex(k2_0) +          // xs, set cells
                            Hex(kMinus1_0) + Hex(k0_5);      // ys, set cells
  const std::string reply =
      Hex("00 00 00 00 00 00 00 00 34 00 00 00") + block + StatsField(result);
  ExpectReplyBytes(EncodeReply(Status::OK(), &result), reply);
}

TEST(WireGolden, PresentReply) {
  QueryResult result;
  result.payload = QueryResult::Payload::kPresent;
  result.batch_tuples = 2;
  result.batch_instants = 2;
  result.present = {1, 0, 0, 1};
  const std::string block = Hex("02"                        // present
                                "02 00 00 00 00 00 00 00"   // 2 tuples
                                "02 00 00 00 00 00 00 00"   // 2 instants
                                "01 00 00 01");
  const std::string reply =
      Hex("00 00 00 00 00 00 00 00 15 00 00 00") + block + StatsField(result);
  ExpectReplyBytes(EncodeReply(Status::OK(), &result), reply);
}

TEST(WireGolden, ErrorReply) {
  const Status missing = Status::NotFound("no relation 'ships'");
  const std::string reply = Hex("03 00 00 00"      // kNotFound
                                "13 00 00 00") +   // message length 19
                            "no relation 'ships'" +
                            Hex("00 00 00 00"      // no block
                                "00 00 00 00");    // no stats
  ExpectReplyBytes(EncodeReply(missing, nullptr), reply);
}

TEST(WireGolden, MutationAckReply) {
  MutationResult ack;
  ack.accepted = 5;
  ack.objects = 2;
  ack.mem_units = 7;
  ack.delta_entries = 3;
  ack.base_entries = 11;
  ack.merges = 1;
  ack.epoch = 9;
  const std::string reply = Hex(
      "00 00 00 00 00 00 00 00"   // kOk, empty message
      "39 00 00 00"               // 57-byte block
      "03"                        // block kind: mutation ack
      "05 00 00 00 00 00 00 00 02 00 00 00 00 00 00 00"
      "07 00 00 00 00 00 00 00 03 00 00 00 00 00 00 00"
      "0b 00 00 00 00 00 00 00 01 00 00 00 00 00 00 00"
      "09 00 00 00 00 00 00 00"
      "00 00 00 00");             // no stats
  ExpectReplyBytes(EncodeMutationReply(Status::OK(), &ack), reply);
}

// The per-field reference encoder: one byte at a time, from the
// protocol text, sharing nothing with the codec but ToFlat (the value
// decomposition itself).
class RefWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(char(v)); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(std::uint8_t((v >> (8 * i)) & 0xff));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(std::uint8_t((v >> (8 * i)) & 0xff));
  }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(std::string_view v) {
    U32(std::uint32_t(v.size()));
    for (char c : v) U8(std::uint8_t(c));
  }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

std::string RefAttribute(const AttributeValue& value) {
  const FlatValue flat = std::visit(
      [](const auto& v) -> FlatValue {
        auto f = ToFlat(v);
        if constexpr (std::is_same_v<decltype(f), FlatValue>) {
          return f;
        } else {
          return *std::move(f);
        }
      },
      value);
  RefWriter w;
  w.U8(std::uint8_t(TypeOf(value)));
  w.U32(0x4d4f4442);  // flat blob magic
  w.U32(std::uint32_t(flat.root.size()));
  w.U32(std::uint32_t(flat.arrays.size()));
  for (char c : flat.root) w.U8(std::uint8_t(c));
  for (const std::string& a : flat.arrays) w.Str(a);
  return w.Take();
}

bool IsMapping(AttributeType type) {
  return type >= AttributeType::kMovingBool &&
         type <= AttributeType::kMovingRegion;
}

// A v4 reference cell: tag 0xff, row, column.
std::string RefCell(std::uint32_t row, std::uint32_t col) {
  RefWriter w;
  w.U8(0xff);
  w.U32(row);
  w.U32(col);
  return w.Take();
}

std::string RefResultBlock(const QueryResult& result) {
  RefWriter w;
  w.U8(std::uint8_t(result.payload));
  switch (result.payload) {
    case QueryResult::Payload::kRows: {
      w.Str(result.rows.name());
      w.U32(std::uint32_t(result.rows.schema().NumAttributes()));
      for (const AttributeDef& attr : result.rows.schema().attributes()) {
        w.Str(attr.name);
        w.U8(std::uint8_t(attr.type));
      }
      w.U32(std::uint32_t(result.rows.NumTuples()));
      // §5's repeat rule, by brute force: a mapping cell whose bytes
      // equal an earlier full cell's of the same type is a reference to
      // it (the earlier full cells are the first occurrences).
      struct Full {
        AttributeType type;
        std::string bytes;
        std::uint32_t row, col;
      };
      std::vector<Full> firsts;
      for (std::uint32_t i = 0; i < result.rows.NumTuples(); ++i) {
        const Tuple& t = result.rows.tuple(i);
        for (std::uint32_t a = 0; a < t.size(); ++a) {
          const AttributeType type = TypeOf(t[a]);
          const std::string bytes = RefAttribute(t[a]);
          const Full* first = nullptr;
          for (const Full& f : firsts) {
            if (IsMapping(type) && f.type == type && f.bytes == bytes) {
              first = &f;
              break;
            }
          }
          if (first != nullptr) {
            w.Str(RefCell(first->row, first->col));
          } else {
            w.Str(bytes);
            if (IsMapping(type)) firsts.push_back({type, bytes, i, a});
          }
        }
      }
      break;
    }
    case QueryResult::Payload::kXY:
      w.U64(result.batch_tuples);
      w.U64(result.batch_instants);
      for (std::uint8_t d : result.defined) w.U8(d);
      for (double x : result.xs) w.F64(x);
      for (double y : result.ys) w.F64(y);
      break;
    case QueryResult::Payload::kPresent:
      w.U64(result.batch_tuples);
      w.U64(result.batch_instants);
      for (std::uint8_t p : result.present) w.U8(p);
      break;
  }
  return w.Take();
}

std::string RefReply(const QueryResult& result) {
  RefWriter w;
  w.U32(std::uint32_t(StatusCode::kOk));
  w.Str("");
  w.Str(RefResultBlock(result));
  w.Str(result.stats.ToJson());
  return w.Take();
}

AttributeValue RandomValue(std::mt19937_64& rng, AttributeType type) {
  std::uniform_real_distribution<double> coord(-1e4, 1e4);
  const bool undefined = rng() % 8 == 0;
  switch (type) {
    case AttributeType::kInt:
      return undefined ? IntValue::Undefined()
                       : IntValue(std::int64_t(rng()));
    case AttributeType::kReal:
      return undefined ? RealValue::Undefined() : RealValue(coord(rng));
    case AttributeType::kBool:
      return undefined ? BoolValue::Undefined() : BoolValue(rng() % 2 == 0);
    case AttributeType::kString:
      return undefined ? StringValue::Undefined()
                       : StringValue{std::string(rng() % (kMaxStringLength + 1),
                                                 char('a' + rng() % 26))};
    case AttributeType::kPoint:
      return Point(coord(rng), coord(rng));
    case AttributeType::kRegion: {
      RegionGenOptions opts;
      opts.num_vertices = 3 + int(rng() % 12);
      opts.with_hole = rng() % 2 == 0;
      return *GenerateRegion(rng, opts);
    }
    default: {
      TrajectoryOptions opts;
      opts.num_units = int(rng() % 40);
      opts.stop_probability = 0.2;
      return *RandomWalkPoint(rng, opts);
    }
  }
}

QueryResult RandomRows(std::mt19937_64& rng) {
  constexpr AttributeType kTypes[] = {
      AttributeType::kInt,    AttributeType::kReal,  AttributeType::kBool,
      AttributeType::kString, AttributeType::kPoint, AttributeType::kRegion,
      AttributeType::kMovingPoint};
  std::vector<AttributeDef> attrs;
  const int arity = 1 + int(rng() % 5);
  for (int a = 0; a < arity; ++a) {
    attrs.push_back({"a" + std::to_string(a),
                     kTypes[rng() % std::size(kTypes)]});
  }
  Relation rel("rel" + std::to_string(rng() % 100), Schema(attrs));
  const int tuples = int(rng() % 12);
  for (int i = 0; i < tuples; ++i) {
    Tuple t;
    for (const AttributeDef& attr : attrs) {
      t.push_back(RandomValue(rng, attr.type));
    }
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  QueryResult result;
  result.payload = QueryResult::Payload::kRows;
  result.rows = std::move(rel);
  result.stats.op = "select";
  result.stats.tuples_out = std::uint64_t(tuples);
  return result;
}

QueryResult RandomBatch(std::mt19937_64& rng) {
  QueryResult result;
  result.payload = rng() % 2 == 0 ? QueryResult::Payload::kXY
                                  : QueryResult::Payload::kPresent;
  result.batch_tuples = rng() % 40;
  result.batch_instants = rng() % 60;
  const std::size_t cells = result.batch_tuples * result.batch_instants;
  std::uniform_real_distribution<double> coord(-1e4, 1e4);
  for (std::size_t i = 0; i < cells; ++i) {
    const std::uint8_t flag = std::uint8_t(rng() % 2);
    if (result.payload == QueryResult::Payload::kXY) {
      if (flag != 0) {
        result.xs.push_back(coord(rng));
        result.ys.push_back(coord(rng));
      }
      result.defined.push_back(flag);
    } else {
      result.present.push_back(flag);
    }
  }
  return result;
}

TEST(WireGolden, EncoderMatchesPerFieldReferenceOnRandomResults) {
  std::mt19937_64 rng(20261017);
  for (int iter = 0; iter < 200; ++iter) {
    const QueryResult result =
        iter % 2 == 0 ? RandomRows(rng) : RandomBatch(rng);
    const std::string expected = RefResultBlock(result);
    Result<std::string> block = EncodeResultBlock(result);
    ASSERT_TRUE(block.ok()) << block.status();
    ASSERT_EQ(*block, expected) << "iteration " << iter;
    Result<std::string> reply = EncodeReply(Status::OK(), &result);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(*reply, RefReply(result)) << "iteration " << iter;

    // The reply also appends after bytes already in the buffer (a frame
    // header), leaving them untouched.
    std::string frame = "prefix";
    ASSERT_TRUE(AppendReply(Status::OK(), &result, &frame).ok());
    EXPECT_EQ(frame, "prefix" + *reply);

    // The bulk decoder reads back what the reference wrote.
    Result<QueryResult> back = DecodeResultBlock(expected);
    ASSERT_TRUE(back.ok()) << back.status();
    Result<std::string> again = EncodeResultBlock(*back);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, expected) << "iteration " << iter;
  }
}

// ---------------------------------------------------------------------------
// Repeated values (v4): a mapping cell whose serialisation equals an
// earlier cell's of the same type travels as a reference to the first.
// ---------------------------------------------------------------------------

MovingPoint OneUnitMP(const LinearMotion& motion) {
  return *MovingPoint::Make({*UPoint::Make(TI(0, 2), motion)});
}

// A join-shaped block: the two trails of every pair, each trail sent in
// full once. Row 2's first cell is an equal value built separately (no
// shared array), and still becomes a reference: the rule is by value.
TEST(WireGolden, JoinRowsWithRepeatedMPointCells) {
  const LinearMotion ma{1.0, 2.0, 0.5, -1.0};
  const LinearMotion mb{0.0, 1.0, 2.0, 0.5};
  const MovingPoint a = OneUnitMP(ma);
  const MovingPoint b = OneUnitMP(mb);
  Relation rel("j", Schema({{"p", AttributeType::kMovingPoint},
                            {"q", AttributeType::kMovingPoint}}));
  ASSERT_TRUE(rel.Insert({a, b}).ok());
  ASSERT_TRUE(rel.Insert({b, a}).ok());
  ASSERT_TRUE(rel.Insert({OneUnitMP(ma), a}).ok());
  QueryResult result;
  result.payload = QueryResult::Payload::kRows;
  result.rows = rel;

  auto full = [](std::string_view x0, std::string_view x1,
                 std::string_view y0, std::string_view y1) {
    return Hex("47 00 00 00 0d") + Hex(kFlatMagic) +
           Hex("04 00 00 00 01 00 00 00 01 00 00 00 32 00 00 00") +
           Hex(k0_0) + Hex(k2_0) + Hex("01 01") + Hex(x0) + Hex(x1) +
           Hex(y0) + Hex(y1);
  };
  const std::string block =
      Hex("00"                    // payload kind: rows
          "01 00 00 00 6a"        // relation name "j"
          "02 00 00 00"           // 2 attributes
          "01 00 00 00 70 0d"     // "p" mpoint
          "01 00 00 00 71 0d"     // "q" mpoint
          "03 00 00 00") +        // 3 tuples
      full(k1_0, k2_0, k0_5, kMinus1_0) +           // (0, 0): a
      full(k0_0, k1_0, k2_0, k0_5) +                // (0, 1): b
      Hex("09 00 00 00 ff 00 00 00 00 01 00 00 00"  // (1, 0) -> (0, 1)
          "09 00 00 00 ff 00 00 00 00 00 00 00 00"  // (1, 1) -> (0, 0)
          "09 00 00 00 ff 00 00 00 00 00 00 00 00"  // (2, 0) -> (0, 0)
          "09 00 00 00 ff 00 00 00 00 00 00 00 00"  // (2, 1) -> (0, 0)
      );
  ASSERT_EQ(block.size(), 0xe4u);
  Result<std::string> encoded = EncodeResultBlock(result);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  EXPECT_EQ(*encoded, block);
  EXPECT_EQ(RefResultBlock(result), block);
  const std::string reply = Hex("00 00 00 00 00 00 00 00 e4 00 00 00") +
                            block + StatsField(result);
  ExpectReplyBytes(EncodeReply(Status::OK(), &result), reply);

  // Decoded repeats are the values they name, sharing one unit array.
  Result<QueryResult> back = DecodeResultBlock(block);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->rows.NumTuples(), 3u);
  auto trail = [&](std::size_t i, std::size_t j) -> const MovingPoint& {
    return std::get<MovingPoint>(back->rows.tuple(i)[j]);
  };
  EXPECT_EQ(trail(1, 0).units()[0].motion().y0, 2.0);
  EXPECT_EQ(trail(2, 0).units()[0].motion().y1, -1.0);
  EXPECT_EQ(&trail(1, 0).units(), &trail(0, 1).units());
  EXPECT_EQ(&trail(1, 1).units(), &trail(0, 0).units());
  EXPECT_EQ(&trail(2, 0).units(), &trail(0, 0).units());
  EXPECT_EQ(&trail(2, 1).units(), &trail(0, 0).units());
  EXPECT_NE(&trail(0, 1).units(), &trail(0, 0).units());
  Result<std::string> again = EncodeResultBlock(*back);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, block);
}

// Only mapping cells are references: equal ints and strings are sent in
// full every time.
TEST(WireRepeats, NonMappingCellsAreNeverReferences) {
  Relation rel("r", Schema({{"i", AttributeType::kInt},
                            {"s", AttributeType::kString}}));
  ASSERT_TRUE(rel.Insert({IntValue(7), StringValue{"LH"}}).ok());
  ASSERT_TRUE(rel.Insert({IntValue(7), StringValue{"LH"}}).ok());
  QueryResult result;
  result.payload = QueryResult::Payload::kRows;
  result.rows = rel;
  Result<std::string> block = EncodeResultBlock(result);
  ASSERT_TRUE(block.ok()) << block.status();
  EXPECT_EQ(*block, RefResultBlock(result));
  EXPECT_EQ(block->find(RefCell(0, 0)), std::string::npos);
}

// A rows block assembled by hand: attribute i is named "a<i>" and has
// type types[i]; `cells` are the cell strings, row-major.
std::string HandRowsBlock(const std::vector<AttributeType>& types,
                          std::uint32_t tuples,
                          const std::vector<std::string>& cells) {
  RefWriter w;
  w.U8(0);
  w.Str("h");
  w.U32(std::uint32_t(types.size()));
  for (std::size_t i = 0; i < types.size(); ++i) {
    w.Str("a" + std::to_string(i));
    w.U8(std::uint8_t(types[i]));
  }
  w.U32(tuples);
  for (const std::string& c : cells) w.Str(c);
  return w.Take();
}

// Tuples without attributes occupy no bytes, so their count is not
// bounded by the block: both directions refuse such a rows block.
TEST(ResultBlockCodec, RowsWithoutAttributesCarryNoTuples) {
  const std::string block = HandRowsBlock({}, 0xffffffffu, {});
  Result<QueryResult> d = DecodeResultBlock(block);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(DecodeResultBlock(HandRowsBlock({}, 0, {})).ok());

  Relation rel("r", Schema(std::vector<AttributeDef>{}));
  ASSERT_TRUE(rel.Insert(Tuple{}).ok());
  QueryResult result;
  result.payload = QueryResult::Payload::kRows;
  result.rows = rel;
  EXPECT_EQ(EncodeResultBlock(result).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireRepeats, DecoderRefusesBadReferencesTyped) {
  const std::string mp = RefAttribute(MP(0, 1, Point(0, 0), Point(1, 1)));
  const std::string mr =
      RefAttribute(*MovingReal::Make({*UReal::Constant(TI(0, 1), 3.0)}));
  const std::string one = RefAttribute(IntValue(1));
  constexpr AttributeType kMP = AttributeType::kMovingPoint;
  constexpr AttributeType kMR = AttributeType::kMovingReal;
  constexpr AttributeType kInt = AttributeType::kInt;

  // The hand-built shape itself decodes: a repeat of the cell above.
  Result<QueryResult> ok =
      DecodeResultBlock(HandRowsBlock({kMP}, 2, {mp, RefCell(0, 0)}));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(&std::get<MovingPoint>(ok->rows.tuple(1)[0]).units(),
            &std::get<MovingPoint>(ok->rows.tuple(0)[0]).units());

  struct Case {
    const char* what;
    std::string block;
    const char* message;
  };
  const Case cases[] = {
      {"itself", HandRowsBlock({kMP}, 1, {RefCell(0, 0)}), "itself"},
      {"later column", HandRowsBlock({kMP, kMP}, 1, {RefCell(0, 1), mp}),
       "later cell"},
      {"later row", HandRowsBlock({kMP}, 2, {RefCell(1, 0), mp}),
       "later cell"},
      {"row out of range", HandRowsBlock({kMP}, 2, {mp, RefCell(5, 0)}),
       "out of range"},
      {"column out of range", HandRowsBlock({kMP}, 2, {mp, RefCell(0, 3)}),
       "out of range"},
      {"another type", HandRowsBlock({kMR, kMP}, 1, {mr, RefCell(0, 0)}),
       "of type mreal, not mpoint"},
      {"non-mapping column",
       HandRowsBlock({kInt, kInt}, 1, {one, RefCell(0, 0)}),
       "non-mapping column"},
      {"short reference",
       HandRowsBlock({kMP}, 2, {mp, RefCell(0, 0).substr(0, 5)}),
       "reference cell must be 9 bytes"},
      {"long reference", HandRowsBlock({kMP}, 2, {mp, RefCell(0, 0) + "x"}),
       "reference cell must be 9 bytes"},
  };
  for (const Case& c : cases) {
    Result<QueryResult> d = DecodeResultBlock(c.block);
    ASSERT_FALSE(d.ok()) << c.what;
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument) << c.what;
    EXPECT_NE(d.status().message().find(c.message), std::string::npos)
        << c.what << ": " << d.status();
  }
}

// An equal value with its own unit array.
AttributeValue Unshared(const AttributeValue& v) {
  return std::visit(
      [](const auto& x) -> AttributeValue {
        using V = std::decay_t<decltype(x)>;
        if constexpr (requires { typename V::UnitType; }) {
          using U = typename V::UnitType;
          return V::MakeTrusted(std::vector<U>(x.units()));
        } else {
          return x;
        }
      },
      v);
}

// Random relations whose mapping cells repeat, as shared copies and as
// equal values with their own arrays: the block is the brute-force
// reference's, it decodes to the input values with every repeat sharing
// its first occurrence's array, re-encodes to the same bytes, and does
// not depend on which equal cells happened to share an array.
TEST(WireRepeats, RandomRelationsWithRepeatsRoundTrip) {
  std::mt19937_64 rng(20261018);
  constexpr AttributeType kTypes[] = {
      AttributeType::kInt, AttributeType::kString,
      AttributeType::kMovingPoint, AttributeType::kMovingReal};
  auto fresh = [&rng](AttributeType type) -> AttributeValue {
    switch (type) {
      case AttributeType::kInt:
        return IntValue(std::int64_t(rng() % 3));
      case AttributeType::kString:
        return StringValue{"s" + std::to_string(rng() % 3)};
      case AttributeType::kMovingReal: {
        std::vector<UReal> units;
        const int n = int(rng() % 4);
        for (int k = 0; k < n; ++k) {
          units.push_back(
              *UReal::Constant(TI(2 * k, 2 * k + 1), double(rng() % 2)));
        }
        return *MovingReal::Make(std::move(units));
      }
      default: {
        TrajectoryOptions opts;
        opts.num_units = int(rng() % 6);
        return *RandomWalkPoint(rng, opts);
      }
    }
  };
  int references = 0;
  for (int iter = 0; iter < 150; ++iter) {
    std::vector<AttributeDef> attrs;
    const int arity = 1 + int(rng() % 4);
    for (int a = 0; a < arity; ++a) {
      attrs.push_back({"a" + std::to_string(a),
                       kTypes[rng() % std::size(kTypes)]});
    }
    Relation shared("rel", Schema(attrs));
    Relation unshared("rel", Schema(attrs));
    std::vector<AttributeValue> earlier;  // every cell so far
    const int tuples = int(rng() % 10);
    for (int i = 0; i < tuples; ++i) {
      Tuple t, u;
      for (const AttributeDef& attr : attrs) {
        // Repeat an earlier cell of this type half the time, as a
        // shared copy or as an equal value with its own array.
        std::vector<const AttributeValue*> same;
        for (const AttributeValue& e : earlier) {
          if (TypeOf(e) == attr.type) same.push_back(&e);
        }
        AttributeValue v = !same.empty() && rng() % 2 == 0
                               ? *same[rng() % same.size()]
                               : fresh(attr.type);
        if (rng() % 3 == 0) v = Unshared(v);
        t.push_back(v);
        u.push_back(Unshared(v));
        earlier.push_back(v);
      }
      ASSERT_TRUE(shared.Insert(std::move(t)).ok());
      ASSERT_TRUE(unshared.Insert(std::move(u)).ok());
    }
    QueryResult result;
    result.payload = QueryResult::Payload::kRows;
    result.rows = shared;
    Result<std::string> block = EncodeResultBlock(result);
    ASSERT_TRUE(block.ok()) << block.status();
    ASSERT_EQ(*block, RefResultBlock(result)) << "iteration " << iter;

    QueryResult deep;
    deep.payload = QueryResult::Payload::kRows;
    deep.rows = unshared;
    Result<std::string> deep_block = EncodeResultBlock(deep);
    ASSERT_TRUE(deep_block.ok());
    EXPECT_EQ(*deep_block, *block) << "iteration " << iter;

    Result<QueryResult> back = DecodeResultBlock(*block);
    ASSERT_TRUE(back.ok()) << back.status();
    ASSERT_EQ(back->rows.NumTuples(), shared.NumTuples());
    const std::size_t cells = shared.NumTuples() * std::size_t(arity);
    std::vector<std::string> bytes(cells);
    for (std::size_t c = 0; c < cells; ++c) {
      const AttributeValue& want = shared.tuple(c / arity)[c % arity];
      const AttributeValue& got = back->rows.tuple(c / arity)[c % arity];
      bytes[c] = RefAttribute(want);
      ASSERT_EQ(RefAttribute(got), bytes[c]) << "iteration " << iter;
      if (!IsMapping(TypeOf(got))) continue;
      // A repeat shares the array of the first equal cell.
      for (std::size_t e = 0; e < c; ++e) {
        const AttributeValue& first = back->rows.tuple(e / arity)[e % arity];
        if (TypeOf(first) != TypeOf(got) || bytes[e] != bytes[c]) continue;
        ++references;
        std::visit(
            [&](const auto& g) {
              using V = std::decay_t<decltype(g)>;
              if constexpr (requires { typename V::UnitType; }) {
                EXPECT_EQ(&g.units(), &std::get<V>(first).units())
                    << "iteration " << iter << " cell " << c;
              }
            },
            got);
        break;
      }
    }
    Result<std::string> again = EncodeResultBlock(*back);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *block) << "iteration " << iter;
  }
  EXPECT_GT(references, 100);
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
  result.xs = {1, 2, 3};
  result.ys = {4, 3, 2};
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

// Reference cells under mutation: a join-shaped block (trails repeated
// across rows and columns) with random bytes flipped decodes or fails
// typed, and whatever decodes re-encodes.
TEST(WireFuzz, MutatedRowsBlocksWithReferencesNeverCrash) {
  Relation rel("j", Schema({{"p", AttributeType::kMovingPoint},
                            {"q", AttributeType::kMovingPoint}}));
  const MovingPoint a = MP(0, 4, Point(0, 0), Point(4, 4));
  const MovingPoint b = MP(1, 3, Point(2, 0), Point(0, 2));
  ASSERT_TRUE(rel.Insert({a, b}).ok());
  ASSERT_TRUE(rel.Insert({b, a}).ok());
  ASSERT_TRUE(rel.Insert({a, a}).ok());
  QueryResult result;
  result.payload = QueryResult::Payload::kRows;
  result.rows = rel;
  Result<std::string> block = EncodeResultBlock(result);
  ASSERT_TRUE(block.ok());
  ASSERT_NE(block->find(RefCell(0, 0)), std::string::npos);
  const std::string base = *block;
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string bytes = base;
    for (int k = 0; k < 1 + iter % 3; ++k) bytes[pos(rng)] = char(byte(rng));
    Result<QueryResult> d = DecodeResultBlock(bytes);
    if (d.ok()) {
      EXPECT_TRUE(EncodeResultBlock(*d).ok());
    } else {
      EXPECT_NE(d.status().code(), StatusCode::kOk);
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace modb
