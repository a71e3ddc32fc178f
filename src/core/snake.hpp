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
// construction.  (Property-tested in tests/core/snake_test.cpp.)
//
// Two entry points share that dealing logic:
//   * the dense overload takes an m x n matrix over every load class —
//     the reference implementation, kept for tests and small callers;
//   * the compact overload takes a flat column-major k x m matrix (the m
//     counts of one class are contiguous) whose k columns are an
//     arbitrary (ascending) subset of the classes — the balancing hot
//     path passes only the classes actually populated by some
//     participant.  A column that is all zero never advances the
//     circulating pointer (its pool and remainder are zero), so dealing
//     over the nonzero subset is bit-identical to dealing over all n
//     classes.
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

/// Receives the per-pair packet flows of a compact deal: after each
/// column is dealt, its surplus rows are greedily matched (both sides in
/// ascending row order) against its deficit rows and each resulting flow
/// is reported once.  Only callers that attribute traffic to processor
/// pairs (a MigrationSink, hop-weighted costs) attach one; the
/// aggregate accounting (row deltas, gross moves) needs no sink.
class SnakeFlowSink {
 public:
  virtual ~SnakeFlowSink() = default;
  /// `amount` (> 0) packets of column `col`'s class move from participant
  /// row `from` to participant row `to`.
  virtual void on_flow(std::size_t col, std::size_t from, std::size_t to,
                       std::int64_t amount) = 0;
};

/// Options for the compact overload.
struct SnakeCompactOptions {
  /// Initial dealing position in [0, rows).
  std::size_t start = 0;

  /// [D7] per-column exclusion, SIZE_MAX = none; length = columns when
  /// non-null.
  const std::size_t* excluded_row_per_column = nullptr;

  /// When non-null (length = rows), row_delta[p] accumulates the signed
  /// change of participant row p's total over the dealt columns.
  std::int64_t* row_delta = nullptr;

  /// Optional per-pair flow observer.
  SnakeFlowSink* flows = nullptr;
};

/// Outcome of a compact deal.
struct SnakeDeal {
  /// Final dealing pointer (the start of a chained deal, e.g. borrow
  /// markers after real packets, so their combined deal stays balanced).
  std::size_t ptr = 0;
  /// Gross moves: the summed surplus every column dealt away (equal to
  /// the sum of the reported pair flows).
  std::uint64_t moved = 0;
};

/// Redistributes counts[p][j] (participant p, class j) in place subject to
/// (S1)/(S2).  All rows must have equal length; counts must be
/// non-negative.  Returns the final dealing pointer (useful when chaining
/// two matrices, e.g. real packets then borrow markers, so their combined
/// deal stays balanced).
std::size_t snake_redistribute(std::vector<std::vector<std::int64_t>>& counts,
                               const SnakeOptions& options = {});

/// Compact overload: `counts` is a flat column-major `columns` x `rows`
/// matrix — the `rows` counts of column c are counts[c * rows + p] — whose
/// columns are the active-class subset.  Deals each column in place in one
/// pass, adding up row deltas and gross moves as it goes, and reports pair
/// flows through options.flows (if set).  Bit-identical to the dense
/// overload restricted to the nonzero columns (see the header comment).
SnakeDeal snake_redistribute(std::int64_t* counts, std::size_t rows,
                             std::size_t columns,
                             const SnakeCompactOptions& options);

}  // namespace dlb
