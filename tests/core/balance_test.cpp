#include "core/balance.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/snake.hpp"
#include "net/topology.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dlb {
namespace {

using Matrix = std::vector<std::vector<std::int64_t>>;

struct Flow {
  ProcId from;
  ProcId to;
  std::uint64_t count;
  bool operator==(const Flow& o) const {
    return from == o.from && to == o.to && count == o.count;
  }
};

struct MigrationLog final : MigrationSink {
  std::vector<Flow> flows;
  void on_migration(std::uint32_t from, std::uint32_t to,
                    std::uint64_t count) override {
    flows.push_back({from, to, count});
  }
};

std::int64_t row_total(const Matrix& m, std::size_t r) {
  return std::accumulate(m[r].begin(), m[r].end(), std::int64_t{0});
}

std::int64_t column_total(const Matrix& m, std::size_t j) {
  std::int64_t total = 0;
  for (const auto& row : m) total += row[j];
  return total;
}

// The positive row-total changes from `before` to `after`: the net flow.
std::uint64_t net_flow(const Matrix& before, const Matrix& after) {
  std::uint64_t net = 0;
  for (std::size_t r = 0; r < before.size(); ++r) {
    const std::int64_t change = row_total(after, r) - row_total(before, r);
    if (change > 0) net += static_cast<std::uint64_t>(change);
  }
  return net;
}

// The dense reference of one deal: the dense snake overload over all n
// classes on dense_d()/dense_b() (real packets, then markers from where
// the pointer stopped), and the flows as the greedy surplus-to-deficit
// matching of each column's before/after diff, both sides ascending.
struct DenseDeal {
  Matrix d;
  Matrix b;
  std::size_t ptr = 0;
  std::vector<Flow> flows;
  CostTotals totals;
};

DenseDeal dense_reference(const std::vector<Ledger>& ledgers,
                          const std::vector<ProcId>& ids, std::size_t start,
                          bool analysis_mode, const Topology* topology) {
  const std::size_t m = ledgers.size();
  const std::uint32_t n = ledgers[0].classes();
  DenseDeal out;
  for (const Ledger& ledger : ledgers) {
    out.d.push_back(ledger.dense_d());
    out.b.push_back(ledger.dense_b());
  }
  const Matrix before = out.d;
  std::vector<std::size_t> excluded(n, static_cast<std::size_t>(-1));
  if (analysis_mode)
    for (std::size_t r = 1; r < m; ++r) excluded[ids[r]] = r;
  SnakeOptions opts;
  opts.start = start;
  opts.excluded_participant_per_class = &excluded;
  opts.start = snake_redistribute(out.d, opts);
  out.ptr = snake_redistribute(out.b, opts);

  CostLedger costs(topology);
  for (std::uint32_t j = 0; j < n; ++j) {
    std::vector<std::int64_t> left(m);
    for (std::size_t r = 0; r < m; ++r) left[r] = before[r][j] - out.d[r][j];
    std::size_t give = 0;
    std::size_t take = 0;
    while (true) {
      while (give < m && left[give] <= 0) ++give;
      while (take < m && left[take] >= 0) ++take;
      if (give == m || take == m) break;
      const std::int64_t amount = std::min(left[give], -left[take]);
      out.flows.push_back({ids[give], ids[take],
                           static_cast<std::uint64_t>(amount)});
      costs.record_migration(ids[give], ids[take],
                             static_cast<std::uint64_t>(amount));
      left[give] -= amount;
      left[take] += amount;
    }
  }
  std::uint64_t net = 0;
  for (std::size_t r = 0; r < m; ++r) {
    std::int64_t change = 0;
    for (std::uint32_t j = 0; j < n; ++j) change += out.d[r][j] - before[r][j];
    if (change > 0) net += static_cast<std::uint64_t>(change);
  }
  costs.record_net_migration(net);
  out.totals = costs.totals();
  return out;
}

// One ledger per row of `d` and `b`, over as many classes as they have
// columns.
std::vector<Ledger> ledgers_of(const Matrix& d, const Matrix& b) {
  std::vector<Ledger> ledgers;
  for (std::size_t r = 0; r < d.size(); ++r) {
    ledgers.emplace_back(static_cast<std::uint32_t>(d[r].size()));
    ledgers.back().replace(d[r], b[r]);
  }
  return ledgers;
}

Matrix zeros_like(const Matrix& m) {
  return Matrix(m.size(), std::vector<std::int64_t>(m[0].size(), 0));
}

// One run of the kernel over (copies of) `ledgers`: the dealt ledgers
// as dense rows, the result, the cost totals and the flows a sink took.
struct KernelRun {
  Matrix d;
  Matrix b;
  SnakeDeal deal;
  CostTotals totals;
  std::vector<Flow> flows;
};

KernelRun run_kernel(std::vector<Ledger> ledgers,
                     const std::vector<ProcId>& ids, std::size_t start,
                     bool analysis_mode = false) {
  BalanceScratch scratch;
  scratch.participants = ids;
  for (Ledger& ledger : ledgers) scratch.ledgers.push_back(&ledger);
  CostLedger costs;
  MigrationLog log;
  DealOptions options;
  options.start = start;
  options.analysis_mode = analysis_mode;
  options.sink = &log;
  KernelRun out;
  out.deal = deal_participants(scratch, costs, options);
  for (const Ledger& ledger : ledgers) {
    ledger.check(ledger.classes());
    out.d.push_back(ledger.dense_d());
    out.b.push_back(ledger.dense_b());
  }
  out.totals = costs.totals();
  out.flows = log.flows;
  return out;
}

// The kernel agrees with the dense reference: every cell, the pointer,
// the gross and net traffic and the flows.
void expect_matches(const KernelRun& got, const DenseDeal& want) {
  for (std::size_t r = 0; r < want.d.size(); ++r) {
    EXPECT_EQ(got.d[r], want.d[r]) << "row " << r;
    EXPECT_EQ(got.b[r], want.b[r]) << "row " << r;
  }
  EXPECT_EQ(got.deal.ptr, want.ptr);
  EXPECT_EQ(got.deal.moved, want.totals.packets_moved);
  EXPECT_EQ(got.totals.packets_moved, want.totals.packets_moved);
  EXPECT_EQ(got.totals.packets_moved_net, want.totals.packets_moved_net);
  EXPECT_EQ(got.flows, want.flows);
}

// The kernel's aggregate accounting: the gross moves are the flows'
// total and the net flow is the positive row-total changes.
void expect_accounting(const KernelRun& run, const Matrix& before) {
  std::uint64_t flowed = 0;
  for (const Flow& f : run.flows) flowed += f.count;
  EXPECT_EQ(run.deal.moved, flowed);
  EXPECT_EQ(run.totals.packets_moved, flowed);
  EXPECT_EQ(run.totals.packets_moved_net, net_flow(before, run.d));
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

std::vector<ProcId> first_ids(std::size_t m) {
  std::vector<ProcId> ids(m);
  std::iota(ids.begin(), ids.end(), ProcId{0});
  return ids;
}

// A random ledger over n classes.  `wide` ledgers list more classes than
// fit inline (they spill); `markers` lets some classes carry a marker.
Ledger random_ledger(Rng& rng, std::uint32_t n, bool wide, bool markers) {
  std::vector<std::int64_t> d(n, 0);
  std::vector<std::int64_t> b(n, 0);
  const std::uint64_t classes =
      wide ? Ledger::kInlineClasses + 1 + rng.below(8)
           : rng.below(Ledger::kInlineClasses + 1);
  for (std::uint64_t i = 0; i < classes; ++i) {
    const auto j = static_cast<std::uint32_t>(rng.below(n));
    d[j] = static_cast<std::int64_t>(rng.below(7));
    if (markers && rng.below(3) == 0) b[j] = 1;
  }
  Ledger ledger(n);
  ledger.replace(d, b);
  return ledger;
}

// Deals 400 random participant sets under one mode and checks each
// against the dense reference.
void check_mode(bool analysis_mode, bool with_sink,
                const Topology* topology, std::uint64_t seed) {
  constexpr std::uint32_t kClasses = 24;
  Rng rng(seed);
  BalanceScratch scratch;  // reused across deals, like a thread's own
  int spilled = 0;
  int marked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t m = 2 + static_cast<std::size_t>(trial) % 8;  // 2..9
    std::vector<ProcId> ids;
    rng.sample_distinct_into(ids, kClasses, static_cast<std::uint32_t>(m),
                             kClasses);
    const bool markers = rng.below(2) == 0;
    std::vector<Ledger> ledgers;
    for (std::size_t r = 0; r < m; ++r) {
      ledgers.push_back(random_ledger(rng, kClasses, rng.below(3) == 0,
                                      markers));
      spilled += ledgers.back().memory_bytes() > sizeof(Ledger) ? 1 : 0;
      marked += ledgers.back().borrowed_total() > 0 ? 1 : 0;
    }
    const auto start = static_cast<std::size_t>(rng.below(m));
    const DenseDeal want =
        dense_reference(ledgers, ids, start, analysis_mode, topology);

    scratch.participants = ids;
    scratch.ledgers.clear();
    for (Ledger& ledger : ledgers) scratch.ledgers.push_back(&ledger);
    CostLedger costs(topology);
    MigrationLog log;
    DealOptions options;
    options.start = start;
    options.analysis_mode = analysis_mode;
    options.sink = with_sink ? &log : nullptr;
    const SnakeDeal got = deal_participants(scratch, costs, options);

    SCOPED_TRACE("trial " + std::to_string(trial));
    for (std::size_t r = 0; r < m; ++r) {
      ledgers[r].check(kClasses);
      EXPECT_EQ(ledgers[r].dense_d(), want.d[r]) << "row " << r;
      EXPECT_EQ(ledgers[r].dense_b(), want.b[r]) << "row " << r;
    }
    EXPECT_EQ(got.ptr, want.ptr);
    EXPECT_EQ(got.moved, want.totals.packets_moved);
    EXPECT_EQ(costs.totals().packets_moved, want.totals.packets_moved);
    EXPECT_EQ(costs.totals().packets_moved_net,
              want.totals.packets_moved_net);
    EXPECT_EQ(costs.totals().packet_hops, want.totals.packet_hops);
    if (with_sink) {
      EXPECT_EQ(log.flows, want.flows);
    }
  }
  // The sweep reached both ledger layouts and the marker deal.
  EXPECT_GT(spilled, 100);
  EXPECT_GT(marked, 100);
}

// Every mode of the kernel: analysis-mode exclusion, the migration
// sink and hop-weighted costs (both need per-pair flows), each on and
// off, over m = 2..9 participants whose ledgers are inline or spilled,
// with and without markers.
TEST(BalanceDeal, MatchesDenseSnakeReference) {
  const Topology ring = Topology::ring(24);
  for (int mode = 0; mode < 8; ++mode) {
    SCOPED_TRACE("mode " + std::to_string(mode));
    check_mode((mode & 1) != 0, (mode & 2) != 0,
               (mode & 4) != 0 ? &ring : nullptr,
               0xba1a + static_cast<std::uint64_t>(mode));
  }
}

// [D7] A marker held only by the excluded row: the marker pool of that
// column is empty, so the marker stays put and the pointer does not move
// for it.
TEST(BalanceDeal, MarkerHeldOnlyByTheExcludedRow) {
  // Participants 0, 2, 3; row 1 (processor 2) holds class 2's only marker.
  const Matrix d{{3, 1, 0, 0}, {0, 0, 2, 1}, {1, 0, 0, 4}};
  const Matrix b{{0, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}};
  const std::vector<ProcId> ids{0, 2, 3};
  for (std::size_t start = 0; start < 3; ++start) {
    SCOPED_TRACE("start " + std::to_string(start));
    const std::vector<Ledger> ledgers = ledgers_of(d, b);
    const KernelRun got = run_kernel(ledgers, ids, start, true);
    expect_matches(got, dense_reference(ledgers, ids, start, true, nullptr));
    EXPECT_EQ(got.b[1][2], 1);
    EXPECT_EQ(got.d[1][2], 2);  // its own class stays with it too
    expect_accounting(got, d);
  }
}

// A column whose pool is below the participant count: the pool's
// packets go one each to the rows from the start pointer on.
TEST(BalanceDeal, PoolSmallerThanParticipants) {
  const Matrix d{{0, 0}, {2, 0}, {0, 0}, {0, 0}, {0, 1}};
  const Matrix b = zeros_like(d);
  const std::vector<ProcId> ids = first_ids(5);
  const KernelRun got = run_kernel(ledgers_of(d, b), ids, 3);
  // Class 0: rows 3 and 4; class 1's single packet: row 0, where the
  // pointer stopped.
  const Matrix want{{0, 1}, {0, 0}, {0, 0}, {1, 0}, {1, 0}};
  EXPECT_EQ(got.d, want);
  EXPECT_EQ(got.deal.ptr, 1u);
  expect_matches(got, dense_reference(ledgers_of(d, b), ids, 3, false,
                                     nullptr));
  expect_accounting(got, d);
}

// One participant: nothing to deal, the pointer stays at 0.
TEST(BalanceDeal, SingleParticipantIsIdentity) {
  const Matrix d{{4, 9, 0, 1}};
  const Matrix b{{0, 1, 0, 1}};
  const KernelRun got = run_kernel(ledgers_of(d, b), {2}, 0);
  EXPECT_EQ(got.d, d);
  EXPECT_EQ(got.b, b);
  EXPECT_EQ(got.deal.ptr, 0u);
  EXPECT_EQ(got.deal.moved, 0u);
  EXPECT_EQ(got.totals.packets_moved_net, 0u);
  EXPECT_TRUE(got.flows.empty());
}

// A class union wider than the ledgers' inline slots: every participant
// comes out holding more classes than fit inline, so its ledger spills.
TEST(BalanceDeal, UnionWiderThanInlineSlots) {
  constexpr std::uint32_t kClasses = 16;
  Matrix d(3, std::vector<std::int64_t>(kClasses, 0));
  Matrix b = zeros_like(d);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      d[r][r * 4 + c] = static_cast<std::int64_t>(3 + 3 * c + r);
  b[2][9] = 1;
  const std::vector<Ledger> ledgers = ledgers_of(d, b);
  for (const Ledger& ledger : ledgers)
    ASSERT_LE(ledger.active_classes().size(), Ledger::kInlineClasses);
  const std::vector<ProcId> ids{5, 1, 12};
  for (std::size_t start = 0; start < 3; ++start) {
    SCOPED_TRACE("start " + std::to_string(start));
    const KernelRun got = run_kernel(ledgers, ids, start);
    expect_matches(got, dense_reference(ledgers, ids, start, false, nullptr));
    std::vector<Ledger> dealt = ledgers_of(got.d, got.b);
    for (const Ledger& ledger : dealt)
      EXPECT_GT(ledger.active_classes().size(), Ledger::kInlineClasses);
    expect_accounting(got, d);
  }
}

TEST(BalanceDealContract, RejectsMismatchedParticipants) {
  Ledger a(4);
  BalanceScratch scratch;
  CostLedger costs;
  EXPECT_THROW(deal_participants(scratch, costs, {}), contract_error);
  scratch.participants = {0, 1};
  scratch.ledgers = {&a};
  EXPECT_THROW(deal_participants(scratch, costs, {}), contract_error);
}

TEST(SnakeFlows, ReportsReceivedPackets) {
  // {4,0} / {0,2} with start 0 deals class 0 as 2/2 and class 1 as 1/1:
  // 2 class-0 packets flow row0 -> row1 and 1 class-1 packet row1 -> row0.
  const Matrix before{{4, 0}, {0, 2}};
  const KernelRun run =
      run_kernel(ledgers_of(before, zeros_like(before)), {7, 3}, 0);
  ASSERT_EQ(run.flows.size(), 2u);
  EXPECT_EQ(run.flows[0], (Flow{7, 3, 2}));
  EXPECT_EQ(run.flows[1], (Flow{3, 7, 1}));
  EXPECT_EQ(run.deal.moved, 3u);
  EXPECT_EQ(run.d, (Matrix{{2, 1}, {2, 1}}));
  EXPECT_EQ(run.totals.packets_moved_net, 1u);
  expect_accounting(run, before);
  // Balanced input reports no flows.
  const Matrix balanced{{2, 2}, {2, 2}, {2, 2}};
  const KernelRun still =
      run_kernel(ledgers_of(balanced, zeros_like(balanced)), {0, 1, 2}, 1);
  EXPECT_TRUE(still.flows.empty());
  EXPECT_EQ(still.deal.moved, 0u);
  EXPECT_EQ(still.d, balanced);
}

TEST(SnakeFlows, CompactRejectsBadInputs) {
  Ledger a(2);
  Ledger b(2);
  BalanceScratch scratch;
  CostLedger costs;
  DealOptions options;
  // No participants.
  EXPECT_THROW(deal_participants(scratch, costs, options), contract_error);
  // Start out of range.
  scratch.participants = {0, 1};
  scratch.ledgers = {&a, &b};
  options.start = 2;
  EXPECT_THROW(deal_participants(scratch, costs, options), contract_error);
  // A deal over empty ledgers has no columns: nothing moves and the
  // pointer stays at the start.
  options.start = 1;
  const SnakeDeal deal = deal_participants(scratch, costs, options);
  EXPECT_EQ(deal.ptr, 1u);
  EXPECT_EQ(deal.moved, 0u);
  EXPECT_EQ(costs.totals().packets_moved, 0u);
  EXPECT_EQ(a.active_classes().size() + b.active_classes().size(), 0u);
}

// Classes no participant holds must be invisible to the deal: the same
// result, continuation pointer and flows whatever the class count and
// wherever the held classes sit.  This is what restricting the deal to
// the union of the participants' active classes relies on.
TEST(SnakeFlows, ZeroColumnsDoNotAffectDealOrPointer) {
  const Matrix dense{{0, 4, 0, 0, 1}, {0, 0, 0, 2, 0}, {0, 7, 0, 0, 0}};
  const Matrix compact{{4, 0, 1}, {0, 2, 0}, {7, 0, 0}};  // columns 1, 3, 4
  const std::vector<std::size_t> col_map{1, 3, 4};
  const std::vector<ProcId> ids{0, 1, 2};
  for (std::size_t start = 0; start < 3; ++start) {
    SCOPED_TRACE("start " + std::to_string(start));
    const std::vector<Ledger> dense_ledgers =
        ledgers_of(dense, zeros_like(dense));
    const KernelRun dense_run = run_kernel(dense_ledgers, ids, start);
    const KernelRun compact_run =
        run_kernel(ledgers_of(compact, zeros_like(compact)), ids, start);
    expect_matches(dense_run,
                   dense_reference(dense_ledgers, ids, start, false, nullptr));
    EXPECT_EQ(dense_run.deal.ptr, compact_run.deal.ptr);
    EXPECT_EQ(dense_run.flows, compact_run.flows);
    EXPECT_EQ(dense_run.deal.moved, compact_run.deal.moved);
    EXPECT_EQ(dense_run.totals.packets_moved_net,
              compact_run.totals.packets_moved_net);
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(dense_run.d[r][col_map[c]], compact_run.d[r][c]);
      for (const std::size_t j : {std::size_t{0}, std::size_t{2}})
        EXPECT_EQ(dense_run.d[r][j], 0);
    }
    expect_accounting(dense_run, dense);
  }
}

// ---- Property sweep: random matrices, all sizes ------------------------

struct SnakeCase {
  std::size_t participants;
  std::size_t classes;
  std::uint64_t seed;
};

class SnakeProperty : public ::testing::TestWithParam<SnakeCase> {};

TEST_P(SnakeProperty, S1AndS2HoldAndMassIsConserved) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  Matrix counts(param.participants,
                std::vector<std::int64_t>(param.classes, 0));
  for (auto& row : counts)
    for (auto& cell : row)
      cell = static_cast<std::int64_t>(rng.below(40));
  const Matrix before = counts;
  SnakeOptions opts;
  opts.start = static_cast<std::size_t>(rng.below(param.participants));
  const std::size_t dense_ptr = snake_redistribute(counts, opts);
  for (std::size_t j = 0; j < param.classes; ++j)
    EXPECT_EQ(column_total(counts, j), column_total(before, j));
  expect_s1_s2(counts);

  // The kernel must agree cell-for-cell with the dense snake, hand back
  // the same continuation pointer, and report flows whose total matches
  // the packets actually received.  (Participant ids label the flows.)
  const KernelRun run = run_kernel(ledgers_of(before, zeros_like(before)),
                                   first_ids(param.participants),
                                   opts.start);
  EXPECT_EQ(run.deal.ptr, dense_ptr);
  EXPECT_EQ(run.d, counts);
  std::uint64_t received = 0;
  for (std::size_t r = 0; r < param.participants; ++r)
    for (std::size_t j = 0; j < param.classes; ++j)
      if (counts[r][j] > before[r][j])
        received += static_cast<std::uint64_t>(counts[r][j] - before[r][j]);
  EXPECT_EQ(run.deal.moved, received);
  expect_accounting(run, before);
}

// Exclusion ([D7]) property sweep: with random participant ids in
// analysis mode, every non-initiating row keeps its own class, the rest
// balance to ±1, and per-class mass is conserved.
class SnakeExclusionProperty : public ::testing::TestWithParam<SnakeCase> {};

TEST_P(SnakeExclusionProperty, ExcludedRowsUntouchedAndMassConserved) {
  const auto& param = GetParam();
  if (param.participants < 2) GTEST_SKIP();
  Rng rng(param.seed ^ 0xe8c1);
  const auto n = static_cast<std::uint32_t>(param.classes);
  Matrix counts(param.participants, std::vector<std::int64_t>(n, 0));
  for (auto& row : counts)
    for (auto& cell : row)
      cell = static_cast<std::int64_t>(rng.below(25));
  std::vector<ProcId> ids;
  rng.sample_distinct_into(ids, n,
                           static_cast<std::uint32_t>(param.participants), n);
  const auto start = static_cast<std::size_t>(rng.below(param.participants));
  const std::vector<Ledger> ledgers = ledgers_of(counts, zeros_like(counts));
  const DenseDeal want = dense_reference(ledgers, ids, start, true, nullptr);
  const KernelRun run = run_kernel(ledgers, ids, start, true);
  expect_matches(run, want);
  expect_accounting(run, counts);

  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(column_total(run.d, j), column_total(counts, j));
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    for (std::size_t r = 0; r < param.participants; ++r) {
      if (r > 0 && ids[r] == j) {
        EXPECT_EQ(run.d[r][j], counts[r][j]) << "excluded row moved";
        continue;
      }
      lo = std::min(lo, run.d[r][j]);
      hi = std::max(hi, run.d[r][j]);
    }
    EXPECT_LE(hi - lo, 1) << "class " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SnakeExclusionProperty,
    ::testing::Values(SnakeCase{2, 8, 21}, SnakeCase{3, 16, 22},
                      SnakeCase{5, 32, 23}, SnakeCase{8, 8, 24},
                      SnakeCase{4, 64, 25}),
    [](const ::testing::TestParamInfo<SnakeCase>& ti) {
      return "m" + std::to_string(ti.param.participants) + "_c" +
             std::to_string(ti.param.classes) + "_s" +
             std::to_string(ti.param.seed);
    });

INSTANTIATE_TEST_SUITE_P(
    Sweep, SnakeProperty,
    ::testing::Values(
        SnakeCase{2, 1, 1}, SnakeCase{2, 5, 2}, SnakeCase{3, 3, 3},
        SnakeCase{4, 10, 4}, SnakeCase{5, 64, 5}, SnakeCase{8, 8, 6},
        SnakeCase{7, 33, 7}, SnakeCase{2, 64, 8}, SnakeCase{16, 16, 9},
        SnakeCase{3, 100, 10}, SnakeCase{6, 2, 11}, SnakeCase{9, 40, 12}),
    [](const ::testing::TestParamInfo<SnakeCase>& ti) {
      return "m" + std::to_string(ti.param.participants) + "_c" +
             std::to_string(ti.param.classes) + "_s" +
             std::to_string(ti.param.seed);
    });

}  // namespace
}  // namespace dlb
