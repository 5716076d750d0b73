#include "core/status.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

namespace modb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorFactories) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_FALSE(Status::Internal("x").ok());
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::NotFound("missing widget");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing widget");
  std::ostringstream os;
  os << s;
  EXPECT_EQ(os.str(), "NOT_FOUND: missing widget");
}

TEST(StatusTest, CodeNamesStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// `*std::move(r)` binds the rvalue operator* and moves the value out: a
// move-only type compiles, and a copy-counting one is never copied.
TEST(ResultTest, DereferencedRvalueMovesTheValueOut) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  std::unique_ptr<int> v = *std::move(r);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 9);

  struct Counted {
    int* copies;
    explicit Counted(int* c) : copies(c) {}
    Counted(const Counted& o) : copies(o.copies) { ++*copies; }
    Counted(Counted&& o) noexcept = default;
    Counted& operator=(const Counted& o) {
      copies = o.copies;
      ++*copies;
      return *this;
    }
    Counted& operator=(Counted&&) noexcept = default;
  };
  int copies = 0;
  Result<Counted> c = Counted(&copies);
  EXPECT_EQ(copies, 0);
  Counted moved = *std::move(c);
  EXPECT_EQ(copies, 0);
  Counted assigned(&copies);
  Result<Counted> d = Counted(&copies);
  assigned = *std::move(d);
  EXPECT_EQ(copies, 0);
  // An lvalue still copies.
  Result<Counted> e = Counted(&copies);
  Counted copied = *e;
  EXPECT_EQ(copies, 1);
  (void)moved;
  (void)copied;
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("abc");
  EXPECT_EQ(r->size(), 3u);
}

TEST(ReturnIfErrorMacro, PropagatesAndPasses) {
  auto fails = [] { return Status::Internal("boom"); };
  auto passes = [] { return Status::OK(); };
  auto run = [&](bool fail) -> Status {
    MODB_RETURN_IF_ERROR(passes());
    if (fail) MODB_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(run(false).ok());
  EXPECT_EQ(run(true).code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace modb
