#include "core/snake.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dlb {

std::size_t snake_redistribute(
    std::vector<std::vector<std::int64_t>>& counts,
    const SnakeOptions& options) {
  const std::size_t m = counts.size();
  DLB_REQUIRE(m >= 1, "snake_redistribute needs participants");
  const std::size_t classes = counts[0].size();
  for (const auto& row : counts)
    DLB_REQUIRE(row.size() == classes, "ragged count matrix");
  DLB_REQUIRE(options.start < m || m == 0, "dealing start out of range");
  const auto* excluded = options.excluded_participant_per_class;
  DLB_REQUIRE(excluded == nullptr || excluded->size() == classes,
              "exclusion vector must have one entry per class");

  std::size_t ptr = options.start;
  for (std::size_t j = 0; j < classes; ++j) {
    const std::size_t skip =
        excluded ? (*excluded)[j] : static_cast<std::size_t>(-1);
    // Pool the class over the participating (non-excluded) rows.
    std::int64_t pool = 0;
    std::size_t dealt_to = 0;
    for (std::size_t p = 0; p < m; ++p) {
      if (p == skip) continue;
      DLB_REQUIRE(counts[p][j] >= 0, "negative packet count");
      pool += counts[p][j];
      ++dealt_to;
    }
    if (dealt_to == 0) continue;  // every participant excluded (m==1 case)
    const std::int64_t base = pool / static_cast<std::int64_t>(dealt_to);
    std::int64_t remainder = pool % static_cast<std::int64_t>(dealt_to);
    for (std::size_t p = 0; p < m; ++p) {
      if (p == skip) continue;
      counts[p][j] = base;
    }
    // Deal the remainder with the circulating pointer, skipping the
    // excluded row without advancing the global deal for it.
    while (remainder > 0) {
      if (ptr != skip) {
        counts[ptr][j] += 1;
        --remainder;
      }
      ptr = (ptr + 1) % m;
    }
  }
  return ptr;
}

namespace {

// Reports one column's pair flows: its surplus rows (old count above the
// dealt one) are greedily matched against its deficit rows, both sides
// scanned in ascending row order — the same matching, and therefore the
// same flow sequence, a before/after diff of the column produces.  `col`
// still holds the old counts; `now(p)` is row p's dealt count.
template <class Now>
void report_pair_flows(const std::int64_t* col, std::size_t rows,
                       std::size_t c, const Now& now, SnakeFlowSink& sink) {
  const auto next_giver = [&](std::size_t p) {
    while (p < rows && col[p] <= now(p)) ++p;
    return p;
  };
  const auto next_taker = [&](std::size_t p) {
    while (p < rows && now(p) <= col[p]) ++p;
    return p;
  };
  std::size_t give = next_giver(0);
  std::size_t take = next_taker(0);
  std::int64_t surplus = give < rows ? col[give] - now(give) : 0;
  std::int64_t deficit = take < rows ? now(take) - col[take] : 0;
  while (give < rows && take < rows) {
    const std::int64_t amount = std::min(surplus, deficit);
    sink.on_flow(c, give, take, amount);
    surplus -= amount;
    deficit -= amount;
    if (surplus == 0) {
      give = next_giver(give + 1);
      if (give < rows) surplus = col[give] - now(give);
    }
    if (deficit == 0) {
      take = next_taker(take + 1);
      if (take < rows) deficit = now(take) - col[take];
    }
  }
}

// The compact deal, compiled once per exclusion mode: without
// exclusions (every balancing operation outside analysis mode) no row
// test survives in the per-row loops.
template <bool kExclusion>
SnakeDeal deal_columns(std::int64_t* counts, std::size_t rows,
                       std::size_t columns,
                       const SnakeCompactOptions& options) {
  constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);
  std::int64_t* const row_delta = options.row_delta;
  SnakeFlowSink* const flows = options.flows;
  std::uint64_t moved = 0;
  std::size_t ptr = options.start;
  for (std::size_t c = 0; c < columns; ++c) {
    std::int64_t* const col = counts + c * rows;
    const std::size_t skip =
        kExclusion ? options.excluded_row_per_column[c] : kNoRow;
    const auto dealt = [&](std::size_t p) { return !kExclusion || p != skip; };
    // Pool the class over the dealt (non-excluded) rows.
    std::int64_t pool = 0;
    for (std::size_t p = 0; p < rows; ++p) {
      if (!dealt(p)) continue;
      DLB_REQUIRE(col[p] >= 0, "negative packet count");
      pool += col[p];
    }
    // No special case for an empty pool: dealing it writes zeros over
    // zeros and leaves the pointer where it is, exactly like skipping the
    // column (rows == 1 with that row excluded has no dealt rows and an
    // empty pool, hence the clamp).
    const auto parties = std::max<std::int64_t>(
        static_cast<std::int64_t>(rows - (skip < rows ? 1 : 0)), 1);
    // Common sparse case pool < parties needs no division at all.
    const std::int64_t base = pool < parties ? 0 : pool / parties;
    const auto remainder = static_cast<std::size_t>(pool - base * parties);
    // The circulating pointer hands one remainder packet each to the next
    // `remainder` dealt rows from ptr on; its walk spans one more row when
    // it steps over the excluded one on the way.  So the dealt count of a
    // row follows from its circular offset from ptr alone.
    const std::size_t skip_at =
        skip < rows ? (skip >= ptr ? skip - ptr : skip + rows - ptr) : rows;
    const std::size_t span = remainder + (skip_at < remainder ? 1 : 0);
    const auto now = [&](std::size_t p) -> std::int64_t {
      const std::size_t at = p >= ptr ? p - ptr : p + rows - ptr;
      return dealt(p) ? base + (at < span ? 1 : 0) : col[p];
    };
    if (flows != nullptr) report_pair_flows(col, rows, c, now, *flows);
    for (std::size_t p = 0; p < rows; ++p) {
      const std::int64_t delta = now(p) - col[p];
      col[p] += delta;
      if (row_delta != nullptr) row_delta[p] += delta;
      moved += static_cast<std::uint64_t>(delta < 0 ? -delta : 0);
    }
    ptr += span;
    if (ptr >= rows) ptr -= rows;
  }
  return {ptr, moved};
}

}  // namespace

SnakeDeal snake_redistribute(std::int64_t* counts, std::size_t rows,
                             std::size_t columns,
                             const SnakeCompactOptions& options) {
  DLB_REQUIRE(counts != nullptr || columns == 0,
              "null compact count matrix");
  DLB_REQUIRE(rows >= 1, "snake_redistribute needs participants");
  DLB_REQUIRE(options.start < rows, "dealing start out of range");
  return options.excluded_row_per_column != nullptr
             ? deal_columns<true>(counts, rows, columns, options)
             : deal_columns<false>(counts, rows, columns, options);
}

}  // namespace dlb
