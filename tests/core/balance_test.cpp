#include "core/balance.hpp"

#include <gtest/gtest.h>

#include <cstdint>
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

TEST(BalanceDealContract, RejectsMismatchedParticipants) {
  Ledger a(4);
  BalanceScratch scratch;
  CostLedger costs;
  EXPECT_THROW(deal_participants(scratch, costs, {}), contract_error);
  scratch.participants = {0, 1};
  scratch.ledgers = {&a};
  EXPECT_THROW(deal_participants(scratch, costs, {}), contract_error);
}

}  // namespace
}  // namespace dlb
