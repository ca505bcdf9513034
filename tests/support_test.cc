#include <gtest/gtest.h>

#include "support/intrusive_list.h"
#include "support/rng.h"
#include "support/status.h"
#include "support/strings.h"

namespace flexos {
namespace {

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status status(ErrorCode::kNotFound, "missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing thing");
}

TEST(Status, EveryCodeHasAName) {
  for (int code = 0; code <= static_cast<int>(ErrorCode::kInternal); ++code) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(code)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> result(Status(ErrorCode::kOutOfMemory, "oom"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ErrorCode::kOutOfMemory);
  EXPECT_EQ(result.value_or(7), 7);
}

Result<int> Doubler(Result<int> input) {
  FLEXOS_ASSIGN_OR_RETURN(int value, input);
  return value * 2;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_EQ(Doubler(Status(ErrorCode::kUnavailable)).code(),
            ErrorCode::kUnavailable);
}

TEST(Strings, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(Strings, SplitKeepsEmptyPieces) {
  const auto pieces = SplitString("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[1], "");
}

TEST(Strings, SplitAndTrimDropsEmpties) {
  const auto pieces = SplitAndTrim(" a , , b ", ',');
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(ParseU64("0").value(), 0u);
  EXPECT_EQ(ParseU64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_FALSE(ParseU64("18446744073709551616").has_value());  // Overflow.
  EXPECT_FALSE(ParseU64("12x").has_value());
  EXPECT_FALSE(ParseU64("").has_value());
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%s", std::string(500, 'y').c_str()).size(), 500u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, NextBelowInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

struct Node {
  int value = 0;
  ListNode link{};
  static constexpr ListNode Node::* kLink = &Node::link;
};

TEST(IntrusiveList, PushPopFifo) {
  IntrusiveList<Node, Node::kLink> list;
  Node a{.value = 1}, b{.value = 2}, c{.value = 3};
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushFront(&c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.PopFront()->value, 3);
  EXPECT_EQ(list.PopFront()->value, 1);
  EXPECT_EQ(list.PopFront()->value, 2);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.PopFront(), nullptr);
}

TEST(IntrusiveList, RemoveFromMiddle) {
  IntrusiveList<Node, Node::kLink> list;
  Node a{.value = 1}, b{.value = 2}, c{.value = 3};
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  list.Remove(&b);
  EXPECT_FALSE(list.Contains(&b));
  EXPECT_TRUE(list.Contains(&a));
  EXPECT_EQ(list.size(), 2u);
  EXPECT_FALSE(b.link.linked());
}

}  // namespace
}  // namespace flexos
