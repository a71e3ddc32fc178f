#include "core/snake.hpp"

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

}  // namespace dlb
