#include "core/balance.hpp"

#include <algorithm>
#include <span>

#include "support/check.hpp"

namespace dlb {

namespace {

using ColumnDeal = BalanceScratch::ColumnDeal;

// The sentinel entry an exhausted cursor rests on: a class above every
// real one (it never matches, and the merge stops once every head is
// it) with zero counts.
constexpr std::uint32_t kNoClass = static_cast<std::uint32_t>(-1);
constexpr std::uint32_t kSentinelClass[1] = {kNoClass};
constexpr std::int64_t kSentinelCount[1] = {0};
// No excluded row in a column.
constexpr std::uint32_t kNoRow = static_cast<std::uint32_t>(-1);

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

// Fixes one column's deal from its pool (deal.base, less the excluded
// row's `kept` count) and advances the circulating pointer past it.  The
// pointer hands one remainder packet each to the next `remainder` dealt
// rows from ptr on; its walk spans one more row when it steps over the
// excluded one.  An empty pool leaves the pointer where it is.
void walk(ColumnDeal& deal, std::size_t skip, std::int64_t kept,
          std::size_t m, std::size_t& ptr) {
  const std::int64_t pool = deal.base - kept;
  const auto parties = static_cast<std::int64_t>(m - (skip < m ? 1 : 0));
  // Common sparse case pool < parties needs no division at all.
  const std::int64_t base = pool < parties ? 0 : pool / parties;
  const auto remainder = static_cast<std::size_t>(pool - base * parties);
  const std::size_t skip_at =
      skip < m ? (skip >= ptr ? skip - ptr : skip + m - ptr) : m;
  const std::size_t span = remainder + (skip_at < remainder ? 1 : 0);
  deal = {base, static_cast<std::uint32_t>(ptr),
          static_cast<std::uint32_t>(span)};
  ptr += span;
  if (ptr >= m) ptr -= m;
}

// Row r's dealt count under `deal` (r not excluded): the base, plus one
// when r lies within the span from the entry pointer.
inline std::int64_t dealt(const ColumnDeal& deal, std::size_t r,
                          std::size_t m) {
  const std::size_t at =
      r >= deal.entry ? r - deal.entry : r + m - deal.entry;
  return deal.base + (at < deal.span ? 1 : 0);
}

// Overwrites row r (k real counts) with its dealt counts, adds its gross
// moves to `moved` and returns its new total.  Compiled once per
// exclusion mode: outside analysis mode no row test survives.
template <bool kExclusion>
std::int64_t deal_row(std::int64_t* row, std::size_t r, std::size_t m,
                      std::size_t k, const ColumnDeal* deals,
                      const std::uint32_t* excluded, std::uint64_t& moved) {
  std::int64_t total = 0;
  std::uint64_t gone = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const std::int64_t old = row[c];
    std::int64_t now = dealt(deals[c], r, m);
    if constexpr (kExclusion) now = excluded[c] == r ? old : now;
    gone += static_cast<std::uint64_t>(old > now ? old - now : 0);
    total += now;
    row[c] = now;
  }
  moved += gone;
  return total;
}

// Books the per-pair flows of the real-packet deal, before the row pass
// overwrites the old counts: column by column, its surplus rows (old
// count above the dealt one) are greedily matched against its deficit
// rows, both sides in ascending row order — the flow sequence a
// before/after diff of each column produces.  Hop-weighted costs and the
// migration sink attribute traffic to processor pairs.
void book_pair_flows(const BalanceScratch& s, std::size_t m, std::size_t k,
                     std::size_t stride, const std::uint32_t* excluded,
                     CostLedger& costs, MigrationSink* sink) {
  for (std::size_t c = 0; c < k; ++c) {
    const std::int64_t* const col = s.d.data() + c;
    const auto old = [&](std::size_t p) { return col[p * stride]; };
    const auto now = [&](std::size_t p) {
      return excluded != nullptr && excluded[c] == p ? old(p)
                                                     : dealt(s.deals[c], p, m);
    };
    const auto next_giver = [&](std::size_t p) {
      while (p < m && old(p) <= now(p)) ++p;
      return p;
    };
    const auto next_taker = [&](std::size_t p) {
      while (p < m && now(p) <= old(p)) ++p;
      return p;
    };
    std::size_t give = next_giver(0);
    std::size_t take = next_taker(0);
    std::int64_t surplus = give < m ? old(give) - now(give) : 0;
    std::int64_t deficit = take < m ? now(take) - old(take) : 0;
    while (give < m && take < m) {
      const std::int64_t amount = std::min(surplus, deficit);
      const ProcId from = s.participants[give];
      const ProcId to = s.participants[take];
      const auto count = static_cast<std::uint64_t>(amount);
      costs.record_migration(from, to, count);
      if (sink != nullptr) sink->on_migration(from, to, count);
      surplus -= amount;
      deficit -= amount;
      if (surplus == 0) {
        give = next_giver(give + 1);
        if (give < m) surplus = old(give) - now(give);
      }
      if (deficit == 0) {
        take = next_taker(take + 1);
        if (take < m) deficit = now(take) - old(take);
      }
    }
  }
}

}  // namespace

void BalanceScratch::reserve_bounds(std::size_t m, std::size_t n) {
  participants.reserve(m);
  ledgers.reserve(m);
  cursors.reserve(m);
  classes.reserve(n);
  d.reserve(m * n);
  b.reserve(m * n);
  deals.reserve(n);
  marked.reserve(n);
  marker_pools.reserve(n);
  excluded.reserve(n);
}

SnakeDeal deal_participants(BalanceScratch& scratch, CostLedger& costs,
                            const DealOptions& options) {
  const std::size_t m = scratch.participants.size();
  DLB_REQUIRE(m >= 1 && scratch.ledgers.size() == m,
              "a deal needs one ledger per participant");
  DLB_REQUIRE(options.start < m, "dealing start out of range");

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
  // most min(sum of list lengths, n) classes, which sizes the scratch
  // and is the matrices' row stride.
  std::size_t listed = 0;
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
  }
  // (At least one column's room, so the buffers are never null.)
  const std::size_t n = scratch.ledgers[0]->classes();
  const std::size_t stride =
      std::max<std::size_t>(std::min<std::size_t>(listed, n), 1);
  std::uint32_t* const classes = grown(scratch.classes, stride);
  std::int64_t* const d = grown(scratch.d, stride * m);
  std::int64_t* const b = grown(scratch.b, stride * m);
  ColumnDeal* const deals = grown(scratch.deals, stride);
  std::uint32_t* const marked = grown(scratch.marked, stride);
  std::int64_t* const marker_pools = grown(scratch.marker_pools, stride);

  // k-way merge: each round emits the smallest head class as the next
  // union column, fills that column's m cells — the participant's counts
  // where its head matches, zero elsewhere — sums its pools and finds
  // the next round's smallest head on the way.  Whether a head matches
  // is data-dependent, so the cells are filled with selects, not
  // branches: every cursor reads its current entry (an exhausted one is
  // parked on a sentinel entry that never matches) and advances by the
  // match flag.  A column with a marker is appended to `marked` the same
  // way: written unconditionally, kept by the count.
  std::uint32_t j = kNoClass;
  for (std::size_t r = 0; r < m; ++r) j = std::min(j, *cursors[r].cls);
  std::size_t k = 0;
  std::size_t nm = 0;
  for (; j != kNoClass; ++k) {
    classes[k] = j;
    std::int64_t pool = 0;
    std::int64_t markers = 0;
    std::uint32_t next = kNoClass;
    for (std::size_t r = 0; r < m; ++r) {
      BalanceScratch::Cursor& cur = cursors[r];
      const std::size_t hit = *cur.cls == j ? 1 : 0;
      const auto mask = static_cast<std::int64_t>(0 - hit);  // ~0 on a hit
      const std::int64_t dv = *cur.d & mask;
      const std::int64_t bv = *cur.b & mask;
      d[r * stride + k] = dv;
      b[r * stride + k] = bv;
      pool += dv;
      markers += bv;
      cur.cls += hit;
      cur.d += hit;
      cur.b += hit;
      if (cur.cls == cur.end) park(cur);
      next = std::min(next, *cur.cls);
    }
    deals[k].base = pool;
    marked[nm] = static_cast<std::uint32_t>(k);
    marker_pools[nm] = markers;
    nm += markers != 0 ? 1 : 0;
    j = next;
  }

  // [D7] analysis mode: a non-initiating participant's own class is dealt
  // only among the other participants.
  const std::uint32_t* excluded = nullptr;
  if (options.analysis_mode) {
    std::uint32_t* const out = grown(scratch.excluded, k);
    std::fill_n(out, k, kNoRow);
    for (std::size_t r = 1; r < m; ++r) {
      const std::uint32_t own = scratch.participants[r];
      const std::uint32_t* const at = std::lower_bound(classes, classes + k,
                                                       own);
      if (at != classes + k && *at == own)
        out[static_cast<std::size_t>(at - classes)] =
            static_cast<std::uint32_t>(r);
    }
    excluded = out;
  }

  // Pass 2: the pointer walk, the deal's only sequential dependency.
  // Real packets first, then the markers from where the pointer stopped;
  // columns without a marker have an empty marker pool, which would
  // leave the pointer put, so the marker walk visits only `marked`.
  std::size_t ptr = options.start;
  if (excluded == nullptr) {
    for (std::size_t c = 0; c < k; ++c) walk(deals[c], kNoRow, 0, m, ptr);
  } else {
    for (std::size_t c = 0; c < k; ++c) {
      const std::size_t skip = excluded[c];
      walk(deals[c], skip, skip < m ? d[skip * stride + c] : 0, m, ptr);
    }
  }
  // Marker moves are not migration traffic: each marked column is dealt
  // in place as soon as it is walked (every other marker cell is zero and
  // stays zero).
  for (std::size_t i = 0; i < nm; ++i) {
    const std::size_t c = marked[i];
    const std::size_t skip = excluded != nullptr ? excluded[c] : kNoRow;
    ColumnDeal deal{marker_pools[i], 0, 0};
    walk(deal, skip, skip < m ? b[skip * stride + c] : 0, m, ptr);
    for (std::size_t r = 0; r < m; ++r)
      if (r != skip) b[r * stride + c] = dealt(deal, r, m);
  }

  // Pair attribution is only needed for hop weighting and a migration
  // sink; it reads the old counts, so it runs before the row pass.
  const bool per_pair = options.sink != nullptr || costs.hop_weighted();
  if (per_pair)
    book_pair_flows(scratch, m, k, stride, excluded, costs, options.sink);

  // Pass 3: each participant's row, dealt and installed.  The net
  // physical flow is the positive row-total changes (what a label-free
  // implementation would actually ship); the old total is the ledger's
  // real load, since the union covers every active class.
  std::uint64_t moved = 0;
  std::uint64_t net_moves = 0;
  for (std::size_t r = 0; r < m; ++r) {
    std::int64_t* const row = d + r * stride;
    const std::int64_t total =
        excluded != nullptr
            ? deal_row<true>(row, r, m, k, deals, excluded, moved)
            : deal_row<false>(row, r, m, k, deals, excluded, moved);
    Ledger& ledger = *scratch.ledgers[r];
    const std::int64_t gain = total - ledger.real_load();
    net_moves += static_cast<std::uint64_t>(gain > 0 ? gain : 0);
    ledger.replace_dealt(classes, k, row, b + r * stride, 1);
  }
  if (!per_pair && moved > 0) costs.record_migration_bulk(moved);
  costs.record_net_migration(net_moves);
  return {ptr, moved};
}

}  // namespace dlb
