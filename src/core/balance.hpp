// The balancing kernel: one operation's snake deal over its participants'
// ledgers (§4 and the appendix's snake-like distribution).
//
// A balancing operation equalizes the per-class counts of its delta + 1
// participants, dealing each class's remainder with one circulating
// pointer.  So a column's result depends only on its pool and on where
// the pointer enters it, and the kernel splits the deal accordingly, in
// passes over small, cache-resident buffers:
//   1. gather — a k-way merge of the participants' ascending active
//      lists writes the class union and, in the same pass, a row-major
//      m x k count matrix (row r holds participant r's counts over the
//      union, zeros included) and each column's real and marker pools;
//   2. pointer walk — one scalar walk over the k real pools fixes each
//      column's base, remainder span and entry pointer; the marker walk
//      continues from where it stopped over only the columns holding a
//      marker (a zero pool never moves the pointer);
//   3. row pass — each participant's new counts follow branch-free from
//      (base, entry, span, excluded row) and are written over its row,
//      which Ledger::replace_dealt then installs with stride 1.
// Classes outside the union are zero in every participant's ledger:
// dealing them would move nothing and never advance the snake pointer,
// so restricting the deal to the union is bit-identical to dealing over
// all n classes (the dense snake_redistribute, kept as the reference).
// The cost is O((delta + 1) * k), independent of n.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ledger.hpp"
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

  // One column's deal, fixed by the pointer walk: every dealt row gets
  // `base`, plus one for the `span` rows from `entry` on (circularly);
  // the excluded row, if any, keeps its count.  Until the walk, `base`
  // holds the column's pool.
  struct ColumnDeal {
    std::int64_t base;
    std::uint32_t entry;
    std::uint32_t span;
  };

  std::vector<ProcId> participants;
  std::vector<Ledger*> ledgers;
  std::vector<Cursor> cursors;
  std::vector<std::uint32_t> classes;      // the ascending class union
  std::vector<std::int64_t> d;             // row-major m x k real counts
  std::vector<std::int64_t> b;             // row-major m x k markers
  std::vector<ColumnDeal> deals;           // per column: real packets
  std::vector<std::uint32_t> marked;       // columns holding a marker
  std::vector<std::int64_t> marker_pools;  // per marked column
  std::vector<std::uint32_t> excluded;     // [D7] excluded row per column

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

/// Outcome of a deal.
struct SnakeDeal {
  /// Final dealing pointer (after the real packets and then the markers).
  std::size_t ptr = 0;
  /// Gross moves: the summed surplus every column dealt away (equal to
  /// the sum of the per-pair migrations).
  std::uint64_t moved = 0;
};

/// Deals the packets and borrow markers of scratch.ledgers (ledger r
/// belongs to processor scratch.participants[r]) in place and books the
/// migration traffic in `costs`: per-pair migrations when a sink or
/// hop-weighted costs need the attribution — each column's surplus rows
/// greedily matched to its deficit rows, both ascending, column by
/// column — one bulk record otherwise, plus the net flow.
SnakeDeal deal_participants(BalanceScratch& scratch, CostLedger& costs,
                            const DealOptions& options);

}  // namespace dlb
