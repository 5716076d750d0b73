#include "storage/flat.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <random>

#include "db/relation_io.h"
#include "gen/region_gen.h"
#include "gen/trajectory_gen.h"
#include "spatial/region_builder.h"

namespace modb {
namespace {

TimeInterval TI(double s, double e, bool lc = true, bool rc = true) {
  return *TimeInterval::Make(s, e, lc, rc);
}

TEST(FlatBlob, SerializeParseRoundTrip) {
  FlatValue v{"rootbytes", {"array-one", std::string(1000, 'z')}};
  std::string blob = SerializeFlat(v);
  auto back = ParseFlat(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->root, v.root);
  ASSERT_EQ(back->arrays.size(), 2u);
  EXPECT_EQ(back->arrays[0], "array-one");
  EXPECT_EQ(back->arrays[1].size(), 1000u);
}

TEST(FlatBlob, RejectsGarbage) {
  EXPECT_FALSE(ParseFlat("nonsense").ok());
  FlatValue v{"root", {}};
  std::string blob = SerializeFlat(v);
  blob.push_back('x');  // Trailing byte.
  EXPECT_FALSE(ParseFlat(blob).ok());
}

TEST(FlatBase, IntRealBoolRoundTrip) {
  EXPECT_EQ(*IntFromFlat(ToFlat(IntValue(-42))), IntValue(-42));
  EXPECT_EQ(*IntFromFlat(ToFlat(IntValue::Undefined())),
            IntValue::Undefined());
  EXPECT_EQ(*RealFromFlat(ToFlat(RealValue(3.25))), RealValue(3.25));
  EXPECT_EQ(*BoolFromFlat(ToFlat(BoolValue(true))), BoolValue(true));
  EXPECT_EQ(*BoolFromFlat(ToFlat(BoolValue::Undefined())),
            BoolValue::Undefined());
}

TEST(FlatString, FixedLengthRoundTrip) {
  auto f = ToFlat(StringValue(std::string("Lufthansa")));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*StringFromFlat(*f), StringValue(std::string("Lufthansa")));
  EXPECT_FALSE(ToFlat(StringValue(std::string(100, 'x'))).ok());
  auto undef = ToFlat(StringValue::Undefined());
  ASSERT_TRUE(undef.ok());
  EXPECT_EQ(*StringFromFlat(*undef), StringValue::Undefined());
}

TEST(FlatSpatial, PointAndPoints) {
  Point p(1.5, -2.5);
  EXPECT_EQ(*PointFromFlat(ToFlat(p)), p);
  Points ps = Points::FromVector({{1, 2}, {3, 4}, {0, 0}});
  EXPECT_EQ(*PointsFromFlat(ToFlat(ps)), ps);
  EXPECT_EQ(*PointsFromFlat(ToFlat(Points())), Points());
}

TEST(FlatSpatial, LineRoundTrip) {
  Line l = *Line::Make({*Seg::Make(Point(0, 0), Point(1, 1)),
                        *Seg::Make(Point(2, 0), Point(3, 5))});
  auto back = LineFromFlat(ToFlat(l));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, l);
  EXPECT_DOUBLE_EQ(back->Length(), l.Length());
}

TEST(FlatSpatial, RegionRoundTripWithHoles) {
  Region r = *Region::FromRings(
      {Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)},
      {{Point(2, 2), Point(4, 2), Point(4, 4), Point(2, 4)},
       {Point(6, 6), Point(8, 6), Point(8, 8), Point(6, 8)}});
  auto back = RegionFromFlat(ToFlat(r));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(*back == r);
  EXPECT_DOUBLE_EQ(back->Area(), r.Area());
  EXPECT_EQ(back->NumCycles(), 3u);
  EXPECT_EQ(back->faces()[0].num_holes, 2);
  // The reconstructed structure still answers queries.
  EXPECT_FALSE(back->Contains(Point(3, 3)));
  EXPECT_TRUE(back->Contains(Point(5, 5)));
}

TEST(FlatSpatial, EmptyRegion) {
  auto back = RegionFromFlat(ToFlat(Region()));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->IsEmpty());
}

TEST(FlatRange, PeriodsRoundTrip) {
  Periods p = Periods::FromIntervals(
      {TI(0, 1, true, false), TI(2, 3, false, true), TimeInterval::At(9)});
  auto back = PeriodsFromFlat(ToFlat(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(FlatMoving, BoolIntStringRoundTrip) {
  MovingBool mb = *MovingBool::Make({*UBool::Make(TI(0, 1, true, false), true),
                                     *UBool::Make(TI(1, 2), false)});
  EXPECT_EQ(MovingBoolFromFlat(ToFlat(mb))->NumUnits(), 2u);
  EXPECT_TRUE(MovingBoolFromFlat(ToFlat(mb))->AtInstant(0.5).val());

  MovingInt mi = *MovingInt::Make({*UInt::Make(TI(0, 5), 7)});
  EXPECT_EQ(MovingIntFromFlat(ToFlat(mi))->AtInstant(3).val(), 7);

  MovingString ms = *MovingString::Make(
      {*UString::Make(TI(0, 1, true, false), "taxi"),
       *UString::Make(TI(1, 2), "idle")});
  auto f = ToFlat(ms);
  ASSERT_TRUE(f.ok());
  auto back = MovingStringFromFlat(*f);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->AtInstant(1.5).val(), "idle");
}

TEST(FlatMoving, RealRoundTrip) {
  MovingReal mr = *MovingReal::Make(
      {*UReal::Make(TI(0, 1, true, false), 1, 2, 3, false),
       *UReal::Make(TI(1, 2), 0, 0, 9, true)});
  auto back = MovingRealFromFlat(ToFlat(mr));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->NumUnits(), 2u);
  EXPECT_DOUBLE_EQ(back->AtInstant(0.5).val(), 1 * 0.25 + 2 * 0.5 + 3);
  EXPECT_DOUBLE_EQ(back->AtInstant(1.5).val(), 3);  // √9.
}

TEST(FlatMoving, PointRoundTrip) {
  std::mt19937_64 rng(4);
  TrajectoryOptions opts;
  opts.num_units = 20;
  MovingPoint mp = *RandomWalkPoint(rng, opts);
  auto back = MovingPointFromFlat(ToFlat(mp));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->NumUnits(), mp.NumUnits());
  for (double t = 0; t < 20; t += 0.5) {
    EXPECT_EQ(back->Present(t), mp.Present(t));
    if (mp.Present(t)) {
      EXPECT_TRUE(ApproxEqual(back->AtInstant(t).val(),
                              mp.AtInstant(t).val()));
    }
  }
}

TEST(FlatMoving, PointsSharedSubarray) {
  MovingPoints mps = *MovingPoints::Make(
      {*UPoints::Make(TI(0, 1, true, false),
                      {LinearMotion{0, 1, 0, 0}, LinearMotion{5, 0, 5, 0}}),
       *UPoints::Make(TI(1, 2), {LinearMotion{0, 2, 0, 0}})});
  FlatValue f = ToFlat(mps);
  EXPECT_EQ(f.arrays.size(), 2u);  // units + shared motions (Figure 7).
  auto back = MovingPointsFromFlat(f);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->NumUnits(), 2u);
  EXPECT_EQ(back->AtInstant(0.5).val().Size(), 2u);
  EXPECT_EQ(back->AtInstant(1.5).val().Size(), 1u);
}

TEST(FlatMoving, LineRoundTrip) {
  MSeg a = *MSeg::FromEndSegments(0, *Seg::Make(Point(0, 0), Point(1, 0)), 10,
                                  *Seg::Make(Point(5, 5), Point(6, 5)));
  MovingLine ml = *MovingLine::Make({*ULine::Make(TI(0, 10), {a})});
  auto back = MovingLineFromFlat(ToFlat(ml));
  ASSERT_TRUE(back.ok()) << back.status();
  Line l5 = back->AtInstant(5).val();
  ASSERT_EQ(l5.NumSegments(), 1u);
  EXPECT_TRUE(ApproxEqual(l5.segment(0).a(), Point(2.5, 2.5)));
}

TEST(FlatMoving, RegionRoundTripWithHoles) {
  std::mt19937_64 rng(8);
  MovingRegionOptions opts;
  opts.shape.num_vertices = 8;
  opts.shape.radius = 20;
  opts.shape.center = Point(0, 0);
  opts.shape.with_hole = true;
  opts.num_units = 3;
  opts.unit_duration = 5;
  opts.drift = Point(10, 0);
  opts.drift_alternation = Point(0, 2);
  MovingRegion mr = *GenerateMovingRegion(rng, opts);
  FlatValue f = ToFlat(mr);
  EXPECT_EQ(f.arrays.size(), 4u);  // units, mfaces, mcycles, msegments.
  auto back = MovingRegionFromFlat(f);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->NumUnits(), mr.NumUnits());
  for (double t = 0.5; t < 15; t += 1.7) {
    double oa = mr.unit(*mr.FindUnit(t)).ValueAt(t).Area();
    double ba = back->unit(*back->FindUnit(t)).ValueAt(t).Area();
    EXPECT_NEAR(ba, oa, 1e-9);
  }
}

// -- count-driven database arrays --------------------------------------------

// A flat value one of whose database arrays holds exactly the record
// count its root names, and the decoder that must hold it to that.
struct CountedArraySample {
  std::string name;
  FlatValue flat;
  std::size_t array;
  std::function<Status(const FlatView&)> decode;
};

template <typename Fn>
std::function<Status(const FlatView&)> StatusOf(Fn from_flat) {
  return [from_flat](const FlatView& f) { return from_flat(f).status(); };
}

std::vector<CountedArraySample> CountedArraySamples() {
  std::vector<CountedArraySample> out;
  std::mt19937_64 rng(17);
  TrajectoryOptions walk;
  walk.num_units = 12;
  out.push_back({"mpoint", ToFlat(*RandomWalkPoint(rng, walk)), 0,
                 StatusOf(MovingPointFromFlat)});
  out.push_back({"mbool",
                 ToFlat(*MovingBool::Make(
                     {*UBool::Make(TI(0, 1, true, false), true),
                      *UBool::Make(TI(1, 2), false)})),
                 0, StatusOf(MovingBoolFromFlat)});
  out.push_back({"mint", ToFlat(*MovingInt::Make({*UInt::Make(TI(0, 5), 7)})),
                 0, StatusOf(MovingIntFromFlat)});
  out.push_back({"mstring",
                 *ToFlat(*MovingString::Make(
                     {*UString::Make(TI(0, 1, true, false), "taxi"),
                      *UString::Make(TI(1, 2), "idle")})),
                 0, StatusOf(MovingStringFromFlat)});
  out.push_back({"mreal",
                 ToFlat(*MovingReal::Make(
                     {*UReal::Make(TI(0, 1), 1, 2, 3, false)})),
                 0, StatusOf(MovingRealFromFlat)});
  out.push_back({"periods",
                 ToFlat(Periods::FromIntervals(
                     {TI(0, 1, true, false), TimeInterval::At(9)})),
                 0, StatusOf(PeriodsFromFlat)});
  out.push_back({"points", ToFlat(Points::FromVector({{1, 2}, {3, 4}})), 0,
                 StatusOf(PointsFromFlat)});
  out.push_back({"line",
                 ToFlat(*Line::Make({*Seg::Make(Point(0, 0), Point(1, 1)),
                                     *Seg::Make(Point(2, 0), Point(3, 5))})),
                 0, StatusOf(LineFromFlat)});
  const Region region = *Region::FromRings(
      {Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)},
      {{Point(2, 2), Point(4, 2), Point(4, 4), Point(2, 4)}});
  for (std::size_t a = 0; a < 3; ++a) {
    out.push_back({"region array " + std::to_string(a), ToFlat(region), a,
                   StatusOf(RegionFromFlat)});
  }
  out.push_back({"mpoints",
                 ToFlat(*MovingPoints::Make({*UPoints::Make(
                     TI(0, 1), {LinearMotion{0, 1, 0, 0},
                                LinearMotion{5, 0, 5, 0}})})),
                 0, StatusOf(MovingPointsFromFlat)});
  MSeg mseg = *MSeg::FromEndSegments(0, *Seg::Make(Point(0, 0), Point(1, 0)),
                                     10, *Seg::Make(Point(5, 5), Point(6, 5)));
  out.push_back({"mline",
                 ToFlat(*MovingLine::Make({*ULine::Make(TI(0, 10), {mseg})})),
                 0, StatusOf(MovingLineFromFlat)});
  MovingRegionOptions mr;
  mr.shape.num_vertices = 6;
  mr.num_units = 2;
  out.push_back({"mregion", ToFlat(*GenerateMovingRegion(rng, mr)), 0,
                 StatusOf(MovingRegionFromFlat)});
  return out;
}

TEST(FlatArrays, BytesAfterTheLastCountedRecordAreRejected) {
  for (const CountedArraySample& sample : CountedArraySamples()) {
    SCOPED_TRACE(sample.name);
    ASSERT_TRUE(sample.decode(sample.flat).ok());
    for (std::size_t extra : {1, 7, 50}) {
      FlatValue padded = sample.flat;
      padded.arrays[sample.array].append(extra, '\0');
      EXPECT_EQ(sample.decode(padded).code(), StatusCode::kInvalidArgument)
          << extra << " trailing bytes";
      // The blob path reads the same arrays in place.
      const std::string blob = SerializeFlat(padded);
      Result<FlatView> view = ParseFlat(blob);
      ASSERT_TRUE(view.ok()) << view.status();
      EXPECT_EQ(sample.decode(*view).code(), StatusCode::kInvalidArgument)
          << extra << " trailing bytes";
    }
  }
}

// -- in-place decode and encode ----------------------------------------------

// One value of every attribute type.
std::vector<AttributeValue> OneOfEveryType() {
  std::mt19937_64 rng(23);
  TrajectoryOptions walk;
  walk.num_units = 40;
  std::vector<AttributeValue> out;
  out.emplace_back(IntValue(-42));
  out.emplace_back(RealValue(3.25));
  out.emplace_back(BoolValue(true));
  out.emplace_back(StringValue(std::string("Lufthansa")));
  out.emplace_back(StringValue::Undefined());
  out.emplace_back(Point(1.5, -2.5));
  out.emplace_back(Points::FromVector({{1, 2}, {3, 4}}));
  out.emplace_back(*Line::Make({*Seg::Make(Point(0, 0), Point(1, 1))}));
  out.emplace_back(*Region::FromRings(
      {Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)}, {}));
  out.emplace_back(Periods::FromIntervals({TI(0, 1), TI(2, 3)}));
  out.emplace_back(*MovingBool::Make({*UBool::Make(TI(0, 1), true)}));
  out.emplace_back(*MovingInt::Make({*UInt::Make(TI(0, 5), 7)}));
  out.emplace_back(*MovingString::Make(
      {*UString::Make(TI(0, 1, true, false), "taxi"),
       *UString::Make(TI(1, 2), "idle")}));
  out.emplace_back(*MovingReal::Make({*UReal::Make(TI(0, 1), 1, 2, 3, true)}));
  out.emplace_back(*RandomWalkPoint(rng, walk));
  out.emplace_back(MovingPoint());
  out.emplace_back(*MovingPoints::Make(
      {*UPoints::Make(TI(0, 1), {LinearMotion{0, 1, 0, 0}})}));
  MSeg mseg = *MSeg::FromEndSegments(0, *Seg::Make(Point(0, 0), Point(1, 0)),
                                     10, *Seg::Make(Point(5, 5), Point(6, 5)));
  out.emplace_back(*MovingLine::Make({*ULine::Make(TI(0, 10), {mseg})}));
  MovingRegionOptions mr;
  mr.num_units = 2;
  out.emplace_back(*GenerateMovingRegion(rng, mr));
  return out;
}

// Decoders read the blob in place but the values they return own their
// bytes: overwriting and then freeing the blob leaves them intact (and
// AddressSanitizer silent).
TEST(FlatInPlace, DecodedValuesOwnTheirBytes) {
  for (const AttributeValue& v : OneOfEveryType()) {
    const std::string want = *SerializeAttribute(v);
    auto blob = std::make_unique<std::string>(want);
    Result<AttributeValue> back = DeserializeAttribute(*blob);
    ASSERT_TRUE(back.ok()) << back.status();
    std::fill(blob->begin(), blob->end(), char(0xa5));
    blob.reset();
    EXPECT_EQ(*SerializeAttribute(*back), want)
        << "type " << int(TypeOf(v));
  }
}

// The types written straight into the caller's buffer produce the
// bytes their FlatValue would, appended after what the buffer holds.
TEST(FlatInPlace, AppendFlatMatchesSerializeFlat) {
  auto check = [](const auto& v, const FlatValue& flat) {
    std::string out = "prefix";
    ASSERT_TRUE(AppendFlat(v, &out).ok());
    EXPECT_EQ(out, "prefix" + SerializeFlat(flat));
  };
  for (const AttributeValue& value : OneOfEveryType()) {
    std::visit(
        [&](const auto& v) {
          if constexpr (requires(std::string* o) { AppendFlat(v, o); }) {
            Result<FlatValue> flat = ToFlat(v);
            ASSERT_TRUE(flat.ok());
            check(v, *flat);
          }
        },
        value);
  }
  // Too-long strings are refused without touching the buffer.
  std::string out = "prefix";
  EXPECT_FALSE(AppendFlat(StringValue(std::string(100, 'x')), &out).ok());
  EXPECT_FALSE(AppendFlat(*MovingString::Make({*UString::Make(
                              TI(0, 1), std::string(100, 'x'))}),
                          &out)
                   .ok());
  EXPECT_EQ(out, "prefix");
}

TEST(AttributeStoreTest, SmallArraysInline) {
  AttributeStore store(256);
  FlatValue v{"root", {"tiny"}};
  std::string tuple = store.Put(v);
  EXPECT_EQ(store.page_store().NumPages(), 0u);  // Nothing paged.
  auto back = store.Get(tuple);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->arrays[0], "tiny");
}

TEST(AttributeStoreTest, LargeArraysPaged) {
  AttributeStore store(256);
  FlatValue v{"root", {std::string(10000, 'q'), "small"}};
  std::string tuple = store.Put(v);
  EXPECT_GT(store.page_store().NumPages(), 0u);
  // The tuple itself stays compact (the paper's requirement that the root
  // record live inside the tuple).
  EXPECT_LT(tuple.size(), 200u);
  auto back = store.Get(tuple);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->arrays[0].size(), 10000u);
  EXPECT_EQ(back->arrays[1], "small");
}

TEST(AttributeStoreTest, RealMovingPointAttribute) {
  std::mt19937_64 rng(6);
  TrajectoryOptions opts;
  opts.num_units = 500;  // Big enough to page out.
  MovingPoint mp = *RandomWalkPoint(rng, opts);
  AttributeStore store(256);
  std::string tuple = store.Put(ToFlat(mp));
  EXPECT_GT(store.page_store().NumPages(), 1u);
  auto f = store.Get(tuple);
  ASSERT_TRUE(f.ok());
  auto back = MovingPointFromFlat(*f);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumUnits(), mp.NumUnits());
}

}  // namespace
}  // namespace modb
