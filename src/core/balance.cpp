#include "core/balance.hpp"

#include <algorithm>
#include <span>

#include "support/check.hpp"

namespace dlb {

namespace {

// The sentinel entry an exhausted cursor rests on: a class above every
// real one (it never matches, and the merge stops once every head is
// it) with zero counts.
constexpr std::uint32_t kNoClass = static_cast<std::uint32_t>(-1);
constexpr std::uint32_t kSentinelClass[1] = {kNoClass};
constexpr std::int64_t kSentinelCount[1] = {0};

void park(BalanceScratch::Cursor& cur) {
  cur.cls = kSentinelClass;
  cur.end = nullptr;
  cur.d = kSentinelCount;
  cur.b = kSentinelCount;
}

// Grows `v` to at least `n` elements, never shrinking: the gather writes
// every cell it uses, so keeping the high-water size avoids re-filling
// the grown tail on every operation.
template <class T>
T* grown(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

// Books the per-pair flows of the real-packet deal: hop-weighted costs
// and the migration sink attribute traffic to processor pairs.
class PairFlows final : public SnakeFlowSink {
 public:
  PairFlows(CostLedger& costs, MigrationSink* sink,
            const std::vector<ProcId>& participants)
      : costs_(costs), sink_(sink), participants_(participants) {}

  void on_flow(std::size_t col, std::size_t from, std::size_t to,
               std::int64_t amount) override {
    (void)col;
    const auto count = static_cast<std::uint64_t>(amount);
    costs_.record_migration(participants_[from], participants_[to], count);
    if (sink_ != nullptr)
      sink_->on_migration(participants_[from], participants_[to], count);
  }

 private:
  CostLedger& costs_;
  MigrationSink* sink_;
  const std::vector<ProcId>& participants_;
};

}  // namespace

void BalanceScratch::reserve_bounds(std::size_t m, std::size_t n) {
  participants.reserve(m);
  ledgers.reserve(m);
  cursors.reserve(m);
  classes.reserve(n);
  d.reserve(m * n);
  b.reserve(m * n);
  excluded.reserve(n);
  row_delta.reserve(m);
}

SnakeDeal deal_participants(BalanceScratch& scratch, CostLedger& costs,
                            const DealOptions& options) {
  const std::size_t m = scratch.participants.size();
  DLB_REQUIRE(m >= 1 && scratch.ledgers.size() == m,
              "a deal needs one ledger per participant");

  // Pass 1: gather.  The participants' ledgers are cold (random
  // partners): request every line of each ledger object at once, so the
  // misses overlap instead of surfacing one by one in the merge.
  for (const Ledger* ledger : scratch.ledgers) {
    const auto* bytes = reinterpret_cast<const char*>(ledger);
    for (std::size_t at = 0; at < sizeof(Ledger); at += 64)
      __builtin_prefetch(bytes + at);
    __builtin_prefetch(bytes + sizeof(Ledger) - 1);
  }
  // Open a cursor on every participant's active list; the union has at
  // most min(sum of list lengths, n) classes, which sizes the scratch.
  std::size_t listed = 0;
  bool any_markers = false;
  scratch.cursors.resize(m);
  BalanceScratch::Cursor* const cursors = scratch.cursors.data();
  for (std::size_t r = 0; r < m; ++r) {
    const Ledger& ledger = *scratch.ledgers[r];
    const std::span<const std::uint32_t> active = ledger.active_classes();
    // A spilled ledger keeps its counts in a heap block: start those
    // loads too.
    __builtin_prefetch(ledger.active_d().data());
    __builtin_prefetch(ledger.active_b().data());
    cursors[r] = {active.data(), active.data() + active.size(),
                  ledger.active_d().data(), ledger.active_b().data()};
    if (active.empty()) park(cursors[r]);
    listed += active.size();
    any_markers = any_markers || ledger.borrowed_total() > 0;
  }
  // (At least one column's room, so the matrices are never null.)
  const std::size_t bound = std::max<std::size_t>(
      std::min<std::size_t>(listed, scratch.ledgers[0]->classes()), 1);
  std::uint32_t* const classes = grown(scratch.classes, bound);
  std::int64_t* const d = grown(scratch.d, bound * m);
  std::int64_t* const b = grown(scratch.b, bound * m);

  // k-way merge: each round emits the smallest head class as the next
  // union column, fills that column's m cells — the participant's counts
  // where its head matches, zero elsewhere — and finds the next round's
  // smallest head on the way.  Whether a head matches is data-dependent,
  // so the cells are filled with selects, not branches: every cursor
  // reads its current entry (an exhausted one is parked on a sentinel
  // entry that never matches) and advances by the match flag.
  std::uint32_t j = kNoClass;
  for (std::size_t r = 0; r < m; ++r) j = std::min(j, *cursors[r].cls);
  std::size_t k = 0;
  for (; j != kNoClass; ++k) {
    classes[k] = j;
    std::int64_t* const d_col = d + k * m;
    std::int64_t* const b_col = b + k * m;
    std::uint32_t next = kNoClass;
    for (std::size_t r = 0; r < m; ++r) {
      BalanceScratch::Cursor& cur = cursors[r];
      const std::size_t hit = *cur.cls == j ? 1 : 0;
      const auto mask = static_cast<std::int64_t>(0 - hit);  // ~0 on a hit
      d_col[r] = *cur.d & mask;
      b_col[r] = *cur.b & mask;
      cur.cls += hit;
      cur.d += hit;
      cur.b += hit;
      if (cur.cls == cur.end) park(cur);
      next = std::min(next, *cur.cls);
    }
    j = next;
  }

  // [D7] analysis mode: a non-initiating participant's own class is dealt
  // only among the other participants.
  SnakeCompactOptions opts;
  opts.start = options.start;
  if (options.analysis_mode) {
    std::size_t* const excluded = grown(scratch.excluded, k);
    std::fill_n(excluded, k, static_cast<std::size_t>(-1));
    for (std::size_t r = 1; r < m; ++r) {
      const std::uint32_t own = scratch.participants[r];
      const std::uint32_t* const at = std::lower_bound(classes, classes + k,
                                                       own);
      if (at != classes + k && *at == own)
        excluded[static_cast<std::size_t>(at - classes)] = r;
    }
    opts.excluded_row_per_column = excluded;
  }

  // Pass 2: deal.  Pair attribution is only needed for hop weighting and
  // a migration sink; without either, the gross moves are booked in one
  // bulk record (same totals).
  scratch.row_delta.assign(m, 0);
  opts.row_delta = scratch.row_delta.data();
  PairFlows pair_flows(costs, options.sink, scratch.participants);
  const bool per_pair = options.sink != nullptr || costs.hop_weighted();
  if (per_pair) opts.flows = &pair_flows;
  const SnakeDeal dealt = snake_redistribute(d, m, k, opts);
  if (!per_pair && dealt.moved > 0) costs.record_migration_bulk(dealt.moved);

  // Marker deal, chained through the dealing pointer; marker moves are
  // not migration traffic.  Skipped when no participant holds a marker:
  // the matrix is all zero, so the deal would move nothing and leave the
  // pointer where it is.
  SnakeDeal result = dealt;
  if (any_markers) {
    SnakeCompactOptions marker_opts;
    marker_opts.start = dealt.ptr;
    marker_opts.excluded_row_per_column = opts.excluded_row_per_column;
    result.ptr = snake_redistribute(b, m, k, marker_opts).ptr;
  }

  // Net physical flow: positive row-total changes (what a label-free
  // implementation would actually ship).
  std::uint64_t net_moves = 0;
  for (const std::int64_t delta : scratch.row_delta)
    if (delta > 0) net_moves += static_cast<std::uint64_t>(delta);
  costs.record_net_migration(net_moves);

  // Pass 3: write-back, row r read with stride m out of the matrices.
  for (std::size_t r = 0; r < m; ++r)
    scratch.ledgers[r]->replace_dealt(classes, k, d + r, b + r, m);
  return result;
}

}  // namespace dlb
