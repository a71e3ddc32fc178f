#include "core/snake.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "support/check.hpp"

namespace dlb {
namespace {

using Matrix = std::vector<std::vector<std::int64_t>>;

std::int64_t row_total(const Matrix& m, std::size_t r) {
  return std::accumulate(m[r].begin(), m[r].end(), std::int64_t{0});
}

std::int64_t column_total(const Matrix& m, std::size_t j) {
  std::int64_t total = 0;
  for (const auto& row : m) total += row[j];
  return total;
}

void expect_s1_s2(const Matrix& m) {
  const std::size_t rows = m.size();
  const std::size_t cols = m[0].size();
  // (S1) per-class spread <= 1
  for (std::size_t j = 0; j < cols; ++j) {
    std::int64_t lo = m[0][j];
    std::int64_t hi = m[0][j];
    for (std::size_t r = 1; r < rows; ++r) {
      lo = std::min(lo, m[r][j]);
      hi = std::max(hi, m[r][j]);
    }
    EXPECT_LE(hi - lo, 1) << "class " << j;
  }
  // (S2) row-total spread <= 1
  std::int64_t lo = row_total(m, 0);
  std::int64_t hi = lo;
  for (std::size_t r = 1; r < rows; ++r) {
    lo = std::min(lo, row_total(m, r));
    hi = std::max(hi, row_total(m, r));
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(Snake, SimpleTwoPartyEqualization) {
  Matrix counts{{10, 0}, {0, 0}};
  snake_redistribute(counts);
  expect_s1_s2(counts);
  EXPECT_EQ(column_total(counts, 0), 10);
  EXPECT_EQ(column_total(counts, 1), 0);
}

TEST(Snake, ConservesEveryClass) {
  Matrix counts{{3, 7, 1}, {0, 2, 9}, {5, 5, 5}};
  const Matrix before = counts;
  snake_redistribute(counts);
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_EQ(column_total(counts, j), column_total(before, j));
  expect_s1_s2(counts);
}

TEST(Snake, AlreadyBalancedIsStable) {
  Matrix counts{{2, 2}, {2, 2}, {2, 2}};
  const Matrix before = counts;
  snake_redistribute(counts);
  EXPECT_EQ(counts, before);
}

TEST(Snake, SingleParticipantIsIdentity) {
  Matrix counts{{4, 9, 0}};
  const Matrix before = counts;
  snake_redistribute(counts);
  EXPECT_EQ(counts, before);
}

TEST(Snake, StartPointerRotatesRemainder) {
  Matrix a{{5, 0}, {0, 0}};
  Matrix b = a;
  SnakeOptions o1;
  o1.start = 0;
  SnakeOptions o2;
  o2.start = 1;
  snake_redistribute(a, o1);
  snake_redistribute(b, o2);
  // Pool of 5 over 2: one side gets 3, the other 2; the start pointer
  // decides which.
  EXPECT_EQ(a[0][0] + a[1][0], 5);
  EXPECT_EQ(b[0][0] + b[1][0], 5);
  EXPECT_NE(a[0][0], b[0][0]);
}

TEST(Snake, ReturnsContinuationPointer) {
  Matrix counts{{5, 4}, {0, 0}, {0, 0}};
  SnakeOptions opts;
  opts.start = 0;
  const std::size_t ptr = snake_redistribute(counts, opts);
  // 5 % 3 = 2 remainder deals + 4 % 3 = 1 -> pointer advanced 3 (mod 3).
  EXPECT_EQ(ptr, 0u);
  expect_s1_s2(counts);
}

TEST(Snake, ExclusionKeepsExcludedRowUntouched) {
  Matrix counts{{9, 0}, {0, 0}, {3, 0}};
  std::vector<std::size_t> excluded{0, static_cast<std::size_t>(-1)};
  SnakeOptions opts;
  opts.excluded_participant_per_class = &excluded;
  snake_redistribute(counts, opts);
  // Row 0 keeps its 9 packets of class 0; rows 1 and 2 share the 3.
  EXPECT_EQ(counts[0][0], 9);
  EXPECT_EQ(counts[1][0] + counts[2][0], 3);
  EXPECT_LE(std::abs(counts[1][0] - counts[2][0]), 1);
}

TEST(Snake, RejectsBadInputs) {
  Matrix empty;
  EXPECT_THROW(snake_redistribute(empty), contract_error);
  Matrix ragged{{1, 2}, {1}};
  EXPECT_THROW(snake_redistribute(ragged), contract_error);
  Matrix negative{{-1}};
  EXPECT_THROW(snake_redistribute(negative), contract_error);
  Matrix ok{{1}, {2}};
  SnakeOptions opts;
  opts.start = 5;
  EXPECT_THROW(snake_redistribute(ok, opts), contract_error);
}

}  // namespace
}  // namespace dlb
