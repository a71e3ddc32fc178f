#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "support/check.hpp"
#include "workload/serving.hpp"

namespace dlb {
namespace {

TEST(Trace, SetAndGetRoundTrip) {
  Trace trace(3, 5);
  trace.set(1, 2, WorkEvent{true, false});
  trace.set(2, 4, WorkEvent{true, true});
  EXPECT_TRUE(trace.at(1, 2).generate);
  EXPECT_FALSE(trace.at(1, 2).consume);
  EXPECT_TRUE(trace.at(2, 4).generate);
  EXPECT_TRUE(trace.at(2, 4).consume);
  EXPECT_FALSE(trace.at(0, 0).generate);
}

TEST(Trace, RecordResolvesWorkloadDeterministically) {
  const auto wl = Workload::uniform(4, 100, 0.5, 0.3);
  Rng a(11);
  Rng b(11);
  const Trace ta = Trace::record(wl, a);
  const Trace tb = Trace::record(wl, b);
  EXPECT_EQ(ta, tb);
}

// Phases separated by idle gaps, some silent (both probabilities zero)
// and some certain (probability one), none on processor 0: the factories
// above all tile each processor's horizon without gaps.
Workload gappy_workload(std::uint32_t n, std::uint32_t horizon,
                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Phase>> phases(n);
  for (std::uint32_t p = 1; p < n; ++p) {
    std::uint32_t t = static_cast<std::uint32_t>(rng.below(20));
    while (t < horizon) {
      Phase ph;
      ph.start = t;
      ph.end = std::min<std::uint32_t>(
          horizon - 1, t + static_cast<std::uint32_t>(rng.below(30)));
      const std::uint64_t kind = rng.below(4);
      ph.generate_prob = kind == 0 ? 0.0 : kind == 1 ? 1.0 : rng.uniform01();
      ph.consume_prob = kind == 0 ? 0.0 : rng.uniform01();
      phases[p].push_back(ph);
      t = ph.end + 1 + static_cast<std::uint32_t>(rng.below(25));
    }
  }
  return Workload(n, horizon, std::move(phases), "gappy");
}

// Trace::record walks each processor's phases with a cursor; it must pin
// the same demand as sampling every (t, p) cell with Workload::sample.
TEST(Trace, RecordMatchesPerCellSampling) {
  Rng paper_rng(5);
  ServingParams serving;
  serving.sessions = 20'000;
  const Workload workloads[] = {
      Workload::paper_benchmark(64, 500, WorkloadParams{}, paper_rng),
      ServingWorkload::build(48, 300, serving, 2027),
      Workload::uniform(6, 120, 0.5, 0.3),
      Workload::hotspot(16, 200, 3, 0.9, 0.2),
      Workload::sparse_hotspot(64, 150, 5, 0.7, 0.4),
      Workload::wave(32, 240, 8),
      Workload::bursty(12, 200, 25, 0.8, 0.6),
      Workload::flip_flop(10, 180, 30, 0.9, 0.7),
      Workload::one_producer(9, 80),
      gappy_workload(24, 300, 8),
  };
  for (const Workload& wl : workloads) {
    SCOPED_TRACE(wl.name());
    for (const std::uint64_t seed : {1u, 99u, 2026u}) {
      Rng per_cell_rng(seed);
      Trace want(wl.processors(), wl.horizon());
      for (std::uint32_t t = 0; t < wl.horizon(); ++t)
        for (std::uint32_t p = 0; p < wl.processors(); ++p)
          want.set(p, t, wl.sample(p, t, per_cell_rng));
      Rng rng(seed);
      EXPECT_EQ(Trace::record(wl, rng), want);
      // Both consumed the same draws, too.
      EXPECT_EQ(rng.next(), per_cell_rng.next());
    }
  }
}

TEST(Trace, CountsMatchProbabilities) {
  const auto wl = Workload::uniform(8, 1000, 0.5, 0.25);
  Rng rng(21);
  const Trace trace = Trace::record(wl, rng);
  const double cells = 8.0 * 1000.0;
  EXPECT_NEAR(static_cast<double>(trace.total_generations()) / cells, 0.5,
              0.02);
  EXPECT_NEAR(static_cast<double>(trace.total_consume_attempts()) / cells,
              0.25, 0.02);
  EXPECT_EQ(trace.net_demand(),
            static_cast<std::int64_t>(trace.total_generations()) -
                static_cast<std::int64_t>(trace.total_consume_attempts()));
}

TEST(Trace, SaveLoadRoundTrip) {
  const auto wl = Workload::uniform(5, 37, 0.4, 0.4);
  Rng rng(33);
  const Trace original = Trace::record(wl, rng);
  std::stringstream buffer;
  original.save(buffer);
  const Trace loaded = Trace::load(buffer);
  EXPECT_EQ(original, loaded);
}

TEST(Trace, LoadRejectsMalformedInput) {
  std::stringstream bad("2 2\n01\n4x\n");
  EXPECT_THROW(Trace::load(bad), contract_error);
  std::stringstream truncated("2 2\n01\n");
  EXPECT_THROW(Trace::load(truncated), contract_error);
}

TEST(Trace, OutOfRangeAccessThrows) {
  Trace trace(2, 3);
  EXPECT_THROW(trace.at(2, 0), contract_error);
  EXPECT_THROW(trace.at(0, 3), contract_error);
  EXPECT_THROW(trace.set(5, 0, WorkEvent{}), contract_error);
}

TEST(Trace, OneProducerTraceShape) {
  const auto wl = Workload::one_producer(4, 50);
  Rng rng(44);
  const Trace trace = Trace::record(wl, rng);
  EXPECT_EQ(trace.total_generations(), 50u);  // probability 1 on proc 0
  EXPECT_EQ(trace.total_consume_attempts(), 0u);
  for (std::uint32_t t = 0; t < 50; ++t) {
    EXPECT_TRUE(trace.at(0, t).generate);
    EXPECT_FALSE(trace.at(1, t).generate);
  }
}

}  // namespace
}  // namespace dlb
