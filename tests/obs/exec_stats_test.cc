#include "obs/exec_stats.h"

#include <gtest/gtest.h>

#include "obs/json.h"

namespace modb {
namespace obs {
namespace {

ExecStats SampleTree() {
  ExecStats root;
  root.op = "index_join_on_moving_point";
  root.tuples_in = 64;
  root.tuples_out = 7;
  root.predicate_evals = 30;
  root.index_candidates = 30;
  root.index_hits = 7;
  root.index_builds = 1;
  root.units_scanned = 256;
  root.workers = 2;
  root.morsels = 9;
  root.materializations = 1;
  root.wall_ns = 123456789;
  for (int c = 0; c < 2; ++c) {
    ExecStats child;
    child.op = "chunk[" + std::to_string(c) + "]";
    child.tuples_in = 32;
    child.tuples_out = c == 0 ? 3 : 4;
    child.predicate_evals = 15;
    child.index_candidates = 15;
    child.index_hits = child.tuples_out;
    child.units_scanned = 128;
    root.children.push_back(child);
  }
  return root;
}

TEST(ExecStats, JsonRoundTripIsExact) {
  ExecStats root = SampleTree();
  const std::string json = root.ToJson();
  auto parsed = ExecStats::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->op, root.op);
  EXPECT_EQ(parsed->tuples_in, root.tuples_in);
  EXPECT_EQ(parsed->tuples_out, root.tuples_out);
  EXPECT_EQ(parsed->predicate_evals, root.predicate_evals);
  EXPECT_EQ(parsed->index_candidates, root.index_candidates);
  EXPECT_EQ(parsed->index_hits, root.index_hits);
  EXPECT_EQ(parsed->index_builds, root.index_builds);
  EXPECT_EQ(parsed->units_scanned, root.units_scanned);
  EXPECT_EQ(parsed->workers, root.workers);
  EXPECT_EQ(parsed->morsels, root.morsels);
  EXPECT_EQ(parsed->materializations, root.materializations);
  EXPECT_EQ(parsed->wall_ns, root.wall_ns);
  ASSERT_EQ(parsed->children.size(), 2u);
  EXPECT_EQ(parsed->children[1].op, "chunk[1]");
  EXPECT_EQ(parsed->children[1].tuples_out, 4u);
  // Serialize-parse-serialize is a fixed point.
  EXPECT_EQ(parsed->ToJson(), json);
}

TEST(ExecStats, ZeroFieldsAreOmittedAndDefaulted) {
  ExecStats s;
  s.op = "select";
  const std::string json = s.ToJson();
  // Only the op should appear; counters at zero stay out of the dump.
  EXPECT_EQ(json.find("tuples_in"), std::string::npos);
  EXPECT_EQ(json.find("wall_ns"), std::string::npos);
  EXPECT_EQ(json.find("children"), std::string::npos);
  auto parsed = ExecStats::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->op, "select");
  EXPECT_EQ(parsed->tuples_in, 0u);
  EXPECT_EQ(parsed->workers, 0u);
  EXPECT_TRUE(parsed->children.empty());
}

TEST(ExecStats, FromJsonRejectsGarbage) {
  EXPECT_FALSE(ExecStats::FromJson("").ok());
  EXPECT_FALSE(ExecStats::FromJson("[]").ok());
  EXPECT_FALSE(ExecStats::FromJson("{\"op\":\"x\",\"bogus\":1}").ok());
  EXPECT_FALSE(ExecStats::FromJson("{\"op\":7}").ok());
  EXPECT_FALSE(ExecStats::FromJson("{\"children\":{}}").ok());
}

TEST(ExecStats, MergeCountersSumsEverythingButWallTime) {
  ExecStats a = SampleTree();
  ExecStats b;
  b.op = "ignored";
  b.tuples_in = 1;
  b.tuples_out = 2;
  b.predicate_evals = 3;
  b.index_candidates = 4;
  b.index_hits = 5;
  b.index_builds = 2;
  b.units_scanned = 6;
  b.workers = 1;
  b.morsels = 7;
  b.materializations = 1;
  b.wall_ns = 999;
  ExecStats child;
  child.op = "chunk[9]";
  b.children.push_back(child);
  a.MergeCountersFrom(b);
  EXPECT_EQ(a.op, "index_join_on_moving_point");  // label untouched
  EXPECT_EQ(a.tuples_in, 65u);
  EXPECT_EQ(a.tuples_out, 9u);
  EXPECT_EQ(a.predicate_evals, 33u);
  EXPECT_EQ(a.index_candidates, 34u);
  EXPECT_EQ(a.index_hits, 12u);
  EXPECT_EQ(a.index_builds, 3u);
  EXPECT_EQ(a.units_scanned, 262u);
  EXPECT_EQ(a.workers, 3u);
  EXPECT_EQ(a.morsels, 16u);
  EXPECT_EQ(a.materializations, 2u);
  EXPECT_EQ(a.wall_ns, 123456789u);       // wall time is not additive
  EXPECT_EQ(a.children.size(), 2u);       // children untouched
}

// The obs JSON layer underneath: spot-check parse strictness the stats
// round-trip depends on.
TEST(ObsJson, ParserIsStrict) {
  EXPECT_TRUE(JsonValue::Parse("{\"a\":[1,2.5,-3e2,true,null,\"s\"]}").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").ok());   // trailing comma
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} x").ok());  // trailing junk
  EXPECT_FALSE(JsonValue::Parse("{'a':1}").ok());      // wrong quotes
  EXPECT_FALSE(JsonValue::Parse("+1").ok());
  auto esc = JsonValue::Parse("\"a\\u0041\\n\\\"b\"");
  ASSERT_TRUE(esc.ok());
  EXPECT_EQ(esc->string_value(), "aA\n\"b");
  auto num = JsonValue::Parse("9007199254740992");  // 2^53 round-trips
  ASSERT_TRUE(num.ok());
  EXPECT_EQ(num->uint_value(), 9007199254740992ull);
}

}  // namespace
}  // namespace obs
}  // namespace modb
