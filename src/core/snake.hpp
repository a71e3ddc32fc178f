// Snake-like redistribution (the appendix's "snake like distribution of
// packets").
//
// A balancing operation must reassign the participants' packets so that,
// simultaneously,
//   (S1) for every load class j the per-participant counts differ by <= 1,
//   (S2) the per-participant row totals differ by <= 1.
// Dealing each class's remainder with a *circulating* pointer achieves
// both: concatenated over classes, the remainder assignments form one
// round-robin deal of R = sum_j r_j extra packets over m participants, so
// each participant receives floor(R/m) or ceil(R/m) extras — which is
// exactly (S2), while each class individually satisfies (S1) by
// construction.  (Property-tested in tests/core/balance_test.cpp.)
//
// This dense implementation over an m x n matrix is the reference: tests
// check the balancing kernel (deal_participants, core/balance.hpp), which
// deals only the participants' class union column by column from its
// pools, against it.  A column that is all zero never advances the
// circulating pointer (its pool and remainder are zero), so dealing over
// the nonzero subset is bit-identical to dealing over all n classes.
#pragma once

#include <cstdint>
#include <vector>

namespace dlb {

/// Options for snake_redistribute.
struct SnakeOptions {
  /// Initial dealing position in [0, participants).  Callers pass a
  /// random start so the remainder packets do not systematically favor
  /// low-indexed participants.
  std::size_t start = 0;

  /// [D7] Analysis-mode exclusion: if non-null, entry j holds the index
  /// (into the participant array) of a participant excluded from the
  /// dealing of class j — its class-j packets stay put and it receives
  /// none — or SIZE_MAX for "no exclusion".  With exclusions active, (S2)
  /// is not guaranteed (the §4 proof does not need it for excluded
  /// classes).
  const std::vector<std::size_t>* excluded_participant_per_class = nullptr;
};

/// Redistributes counts[p][j] (participant p, class j) in place subject to
/// (S1)/(S2).  All rows must have equal length; counts must be
/// non-negative.  Returns the final dealing pointer (useful when chaining
/// two matrices, e.g. real packets then borrow markers, so their combined
/// deal stays balanced).
std::size_t snake_redistribute(std::vector<std::vector<std::int64_t>>& counts,
                               const SnakeOptions& options = {});

}  // namespace dlb
