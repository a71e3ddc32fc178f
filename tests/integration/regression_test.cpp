// Golden regression fixtures: fixed seeds must keep producing exactly
// these results.  A change here means the algorithm's observable
// behaviour changed — intentional changes must update the fixtures (and
// the experiment records in EXPERIMENTS.md, whose numbers would shift
// too).  Unintentional changes are caught before they silently alter
// every figure.
#include <gtest/gtest.h>

#include <array>

#include "core/one_processor.hpp"
#include "core/system.hpp"
#include "support/rng.hpp"
#include "workload/serving.hpp"

namespace dlb {
namespace {

TEST(GoldenRegression, RngStream) {
  Rng rng(123);
  const std::uint64_t expected[] = {
      3628370374969813497ull, 17885451940711451998ull,
      8622752019489400367ull, 2342437615205057030ull,
      6230968350287952094ull};
  for (std::uint64_t e : expected) EXPECT_EQ(rng.next(), e);
}

TEST(GoldenRegression, UniformWorkloadRun) {
  System sys(8, BalancerConfig{}, 2024);
  sys.run(Workload::uniform(8, 200, 0.6, 0.4));
  EXPECT_EQ(sys.loads(),
            (std::vector<std::int64_t>{36, 35, 36, 36, 37, 36, 36, 36}));
  EXPECT_EQ(sys.balance_operations(), 1423u);
  EXPECT_EQ(sys.total_generated(), 929u);
  EXPECT_EQ(sys.total_consumed(), 641u);
}

TEST(GoldenRegression, PaperWorkloadRun) {
  BalancerConfig cfg;
  cfg.f = 1.5;
  cfg.delta = 3;
  cfg.borrow_cap = 2;
  System sys(12, cfg, 777);
  Rng wl_rng(55);
  sys.run(Workload::paper_benchmark(12, 300, WorkloadParams{}, wl_rng));
  EXPECT_EQ(sys.loads(), (std::vector<std::int64_t>{13, 13, 12, 12, 12, 12,
                                                    14, 12, 13, 13, 12, 12}));
  EXPECT_EQ(sys.balance_operations(), 1610u);
}

// The serving schedule (Zipf traffic, diurnal envelope, flash crowd) at
// a size where the borrow path dominates and some ledgers hold more
// classes than fit inline, so the fixture pins the ledger storage across
// its spill boundary as well as the schedule and the sampling loop.
TEST(GoldenRegression, ServingWorkloadRun) {
  BalancerConfig cfg;
  cfg.f = 1.1;
  cfg.delta = 2;
  cfg.borrow_cap = 4;
  System sys(512, cfg, 4242);
  sys.set_post_step_check(true);
  sys.run(ServingWorkload::build(512, 200, ServingParams{}, 31));
  const std::vector<std::int64_t> expected_loads = {
      0, 1, 0, 1, 0, 0, 2, 1, 1, 1, 0, 0, 2, 3, 0, 2, 0, 0, 0, 0,
      0, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0,
      0, 0, 0, 1, 2, 0, 1, 1, 0, 0, 0, 3, 2, 0, 2, 1, 0, 0, 0, 3,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 2, 0, 0, 1, 1,
      0, 0, 0, 0, 0, 1, 2, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0,
      1, 0, 3, 3, 0, 2, 0, 0, 0, 2, 1, 1, 0, 0, 0, 1, 0, 0, 0, 3,
      1, 3, 2, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 4, 0, 2,
      1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 3, 2, 0, 0,
      0, 1, 1, 0, 2, 0, 0, 0, 0, 0, 4, 2, 2, 0, 0, 0, 2, 0, 0, 0,
      0, 0, 1, 0, 0, 0, 1, 1, 4, 1, 3, 1, 2, 0, 0, 3, 0, 0, 0, 0,
      0, 0, 0, 0, 2, 2, 2, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0,
      0, 1, 1, 3, 1, 1, 0, 0, 0, 4, 0, 0, 0, 1, 1, 1, 0, 0, 4, 2,
      2, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 2, 0, 1, 0, 0, 0, 1, 0,
      0, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0,
      0, 0, 1, 1, 1, 0, 1, 2, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1,
      0, 4, 0, 0, 0, 0, 2, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 2,
      0, 0, 2, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 3, 0, 1, 0, 3, 0, 0,
      0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0, 0, 1, 2, 3, 1, 3,
      1, 0, 1, 0, 2, 0, 0, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 0, 1, 0, 0, 0, 0, 0,
      0, 1, 0, 1, 1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 1, 0, 0,
      2, 2, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0,
      0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 3, 4, 3, 0, 0, 0, 1, 0,
      0, 1, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 2, 1, 0, 0, 1, 0, 1,
      0, 2, 1, 0, 1, 0, 3, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0,
      0, 0, 0, 1, 1, 0, 2, 0, 0, 0, 0, 0};
  EXPECT_EQ(sys.loads(), expected_loads);
  EXPECT_EQ(sys.balance_operations(), 4594u);
  EXPECT_EQ(sys.total_generated(), 44152u);
  EXPECT_EQ(sys.total_consumed(), 43862u);
  EXPECT_EQ(sys.rng().state(),
            (std::array<std::uint64_t, 4>{11602168102830354761ull,
                                          5145424524824495945ull,
                                          9246323656953548078ull,
                                          4700550208825490964ull}));
}

TEST(GoldenRegression, OneProcessorModelRun) {
  OneProcessorModel::Params p;
  p.n = 10;
  p.delta = 2;
  p.f = 1.3;
  OneProcessorModel model(p, 99);
  model.run_grow(30);
  EXPECT_EQ(model.loads(),
            (std::vector<std::int64_t>{3, 3, 3, 2, 3, 2, 3, 3, 4, 4}));
}

}  // namespace
}  // namespace dlb
