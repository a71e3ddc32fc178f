// The balancing kernel: one operation's snake deal over its participants'
// ledgers (§4 and the appendix's snake-like distribution).
//
// A balancing operation equalizes the per-class counts of its delta + 1
// participants.  The kernel does that in three streaming passes over
// small, cache-resident buffers:
//   1. gather — a k-way merge of the participants' ascending active
//      lists writes the class union and, in the same pass, a
//      column-major k x m count matrix (column c holds the m
//      participants' counts of the c-th union class, zeros included);
//   2. deal — snake_redistribute deals the real packets column by
//      column with the circulating pointer, adding up row deltas and
//      gross moves inline, then (only when some participant holds a
//      marker) deals the borrow markers from where the pointer stopped;
//   3. write-back — each participant's row is installed through the
//      strided Ledger::replace_dealt, straight out of the matrix.
// Classes outside the union are zero in every participant's ledger:
// dealing them would move nothing and never advance the snake pointer,
// so restricting the deal to the union is bit-identical to dealing over
// all n classes.  The cost is O((delta + 1) * k), independent of n.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ledger.hpp"
#include "core/snake.hpp"
#include "metrics/recorder.hpp"
#include "net/cost_model.hpp"

namespace dlb {

/// The buffers of one thread's balancing operations, reused across them
/// (the sequential drivers use one set, each async shard its own).  The
/// caller fills `participants` and the parallel `ledgers` — row 0 is the
/// initiator — and deal_participants does the rest.
struct BalanceScratch {
  // Read position in one participant's active list during the gather.
  struct Cursor {
    const std::uint32_t* cls;
    const std::uint32_t* end;
    const std::int64_t* d;
    const std::int64_t* b;
  };

  std::vector<ProcId> participants;
  std::vector<Ledger*> ledgers;
  std::vector<Cursor> cursors;
  std::vector<std::uint32_t> classes;  // the ascending class union
  std::vector<std::int64_t> d;         // column-major k x m real counts
  std::vector<std::int64_t> b;         // column-major k x m markers
  std::vector<std::size_t> excluded;   // [D7] excluded row per column
  std::vector<std::int64_t> row_delta;

  /// Reserves every buffer to its worst case for an m-participant deal
  /// over n classes: the union holds at most n classes and the matrices
  /// m x n (the gather sizes them by min(sum of active-list lengths, n)).
  /// Growing to the bound up front, instead of tracking the occupancy
  /// high-water mark, is what keeps a deal allocation-free for the rest
  /// of the run even while class occupancy is still rising.
  void reserve_bounds(std::size_t m, std::size_t n);
};

/// Options of one deal.
struct DealOptions {
  /// Dealing start in [0, m): the caller draws it uniformly, so the
  /// remainder packets do not systematically favour low rows.
  std::size_t start = 0;
  /// [D7] analysis mode: a non-initiating participant's own class is
  /// dealt only among the other participants.
  bool analysis_mode = false;
  /// Optional: receives the per-pair migrations.
  MigrationSink* sink = nullptr;
};

/// Deals the packets and borrow markers of scratch.ledgers (ledger r
/// belongs to processor scratch.participants[r]) in place and books the
/// migration traffic in `costs`: per-pair migrations when a sink or
/// hop-weighted costs need the attribution, one bulk record otherwise,
/// plus the net flow.  Returns the final dealing pointer and the gross
/// packet moves.
SnakeDeal deal_participants(BalanceScratch& scratch, CostLedger& costs,
                            const DealOptions& options);

}  // namespace dlb
