// Bit-for-bit pin of AsyncSystem: one paper_benchmark trace per
// topology, replayed at three hop latencies with global and local
// partner draws.  Every field a run exposes is compared exactly, so
// any change to the event order, the RNG stream, the share split or
// the statistics shows up here.  A refactor of the engine or of
// core/txn_protocol must reproduce these values, not re-bless them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/async_system.hpp"

namespace dlb {
namespace {

struct GoldenRun {
  int topology;  // 0: torus2d(8, 8), 1: hypercube(6)
  double hop_latency;
  unsigned partner_radius;
  std::vector<std::int64_t> loads;
  // balance_ops, aborted_ops, refusals, messages, packets_moved,
  // consume_failures, deferred_events, generated, consumed
  std::vector<std::uint64_t> stats;
  double end_time;
};

const std::vector<GoldenRun>& golden_runs() {
  static const std::vector<GoldenRun> runs = {
    {0, 0.0, 0,
     {21, 21, 19, 22, 22, 21, 20, 21, 23, 21, 23, 24, 19, 22, 21, 21,
      19, 24, 25, 23, 26, 21, 23, 24, 25, 22, 23, 21, 24, 21, 22, 19,
      21, 22, 24, 20, 24, 21, 24, 25, 21, 24, 24, 21, 18, 20, 20, 23,
      23, 23, 21, 23, 21, 23, 21, 26, 21, 21, 21, 20, 24, 23, 22, 23},
     {2404, 1334, 4220, 18208, 3041, 70, 0, 6570, 5159},
     199},
    {0, 0.0, 2,
     {22, 22, 25, 24, 22, 22, 19, 22, 22, 22, 21, 20, 21, 19, 22, 20,
      20, 22, 24, 25, 25, 22, 19, 23, 19, 22, 20, 21, 24, 21, 20, 20,
      25, 25, 26, 24, 21, 23, 22, 21, 23, 23, 25, 21, 22, 22, 22, 20,
      22, 22, 22, 25, 22, 26, 22, 26, 22, 22, 21, 26, 24, 21, 22, 20},
     {2374, 1283, 4043, 17899, 3148, 81, 0, 6570, 5148},
     199},
    {0, 0.5, 0,
     {24, 31, 26, 25, 18, 20, 27, 25, 24, 18, 23, 50, 26, 25, 30, 23,
      24, 28, 33, 28, 28, 23, 23, 28, 25, 24, 30, 24, 29, 20, 17, 24,
      19, 28, 22, 24, 23, 20, 24, 27, 28, 26, 31, 19, 28, 22, 24, 31,
      22, 17, 27, 30, 18, 25, 19, 26, 21, 31, 27, 31, 28, 27, 28, 23},
     {529, 605, 1646, 5158, 2155, 278, 2199, 6570, 4951},
     208},
    {0, 0.5, 2,
     {18, 28, 29, 25, 21, 20, 20, 23, 22, 22, 25, 23, 25, 17, 25, 18,
      16, 27, 24, 26, 20, 18, 18, 24, 21, 15, 24, 24, 22, 22, 20, 18,
      26, 26, 28, 25, 26, 20, 23, 21, 23, 23, 25, 18, 22, 21, 30, 25,
      24, 23, 24, 21, 21, 29, 26, 30, 24, 23, 27, 26, 24, 21, 25, 26},
     {1161, 841, 2542, 9470, 2617, 135, 1938, 6570, 5094},
     202},
    {0, 8.0, 0,
     {14, 14, 26, 34, 26, 6, 14, 0, 35, 67, 4, 68, 39, 2, 57, 0,
      0, 30, 45, 14, 21, 0, 17, 52, 69, 53, 41, 14, 46, 28, 5, 64,
      22, 35, 38, 19, 4, 1, 26, 27, 57, 27, 52, 45, 75, 27, 14, 35,
      1, 42, 42, 38, 1, 78, 65, 87, 28, 88, 17, 68, 60, 115, 79, 3},
     {29, 138, 301, 701, 559, 880, 478, 6570, 4349},
     372},
    {0, 8.0, 2,
     {14, 16, 47, 47, 38, 6, 14, 1, 8, 40, 17, 103, 0, 2, 36, 12,
      6, 21, 47, 37, 26, 15, 13, 38, 35, 11, 53, 47, 48, 11, 12, 24,
      39, 42, 31, 22, 12, 22, 23, 37, 50, 17, 32, 18, 47, 17, 21, 33,
      62, 43, 37, 47, 0, 94, 34, 91, 4, 13, 37, 76, 48, 73, 72, 32},
     {70, 266, 593, 1423, 887, 730, 1140, 6570, 4499},
     272},
    {1, 0.0, 0,
     {12, 11, 11, 11, 13, 14, 13, 11, 15, 12, 13, 10, 11, 13, 11, 12,
      12, 13, 13, 12, 12, 13, 11, 12, 12, 12, 12, 12, 13, 14, 14, 11,
      12, 13, 12, 13, 11, 12, 12, 13, 11, 13, 13, 12, 10, 13, 15, 12,
      12, 13, 11, 11, 12, 11, 11, 12, 14, 12, 11, 13, 11, 11, 11, 12},
     {3183, 1883, 6060, 24336, 3174, 94, 0, 5450, 4674},
     199},
    {1, 0.0, 2,
     {13, 14, 12, 13, 12, 14, 12, 11, 14, 13, 12, 11, 11, 14, 12, 14,
      12, 12, 11, 10, 11, 13, 11, 11, 11, 13, 11, 12, 12, 13, 15, 11,
      12, 11, 11, 15, 10, 14, 14, 14, 12, 11, 12, 13, 11, 11, 14, 14,
      11, 11, 12, 11, 11, 13, 11, 11, 13, 12, 12, 13, 12, 11, 11, 11},
     {3187, 1901, 6056, 24472, 3250, 94, 0, 5450, 4674},
     199},
    {1, 0.5, 0,
     {11, 19, 15, 13, 18, 14, 15, 15, 18, 18, 13, 7, 13, 19, 12, 26,
      14, 15, 11, 14, 16, 16, 10, 8, 13, 16, 18, 11, 16, 10, 19, 19,
      17, 20, 19, 13, 13, 14, 22, 12, 15, 22, 18, 14, 8, 15, 18, 15,
      10, 17, 17, 12, 13, 18, 15, 15, 17, 14, 16, 17, 14, 12, 16, 11},
     {743, 809, 2238, 7074, 2119, 279, 1863, 5450, 4489},
     209},
    {1, 0.5, 2,
     {9, 10, 13, 12, 16, 17, 16, 15, 15, 14, 13, 10, 17, 18, 14, 12,
      12, 16, 11, 9, 14, 11, 11, 11, 15, 15, 13, 15, 12, 12, 14, 13,
      14, 14, 14, 16, 17, 17, 18, 14, 15, 20, 13, 12, 13, 19, 17, 13,
      13, 16, 16, 12, 13, 14, 14, 13, 17, 10, 10, 14, 17, 13, 11, 10},
     {1288, 1070, 3172, 10976, 2514, 202, 1784, 5450, 4566},
     203.5},
    {1, 8.0, 0,
     {48, 41, 0, 48, 43, 9, 5, 34, 11, 18, 0, 0, 8, 24, 0, 52,
      1, 1, 0, 0, 28, 25, 1, 11, 53, 40, 34, 68, 18, 0, 49, 23,
      29, 24, 29, 13, 51, 52, 46, 38, 12, 37, 38, 26, 12, 25, 48, 32,
      37, 34, 33, 19, 28, 38, 0, 34, 49, 0, 52, 31, 76, 25, 5, 0},
     {45, 157, 353, 859, 669, 984, 796, 5450, 3784},
     372},
    {1, 8.0, 2,
     {18, 3, 22, 8, 21, 12, 20, 43, 39, 27, 18, 0, 5, 13, 13, 32,
      1, 28, 34, 6, 22, 21, 0, 25, 6, 2, 34, 28, 20, 23, 54, 3,
      46, 18, 31, 42, 46, 42, 56, 25, 25, 45, 38, 26, 41, 51, 47, 17,
      13, 46, 55, 8, 22, 26, 16, 5, 38, 13, 13, 30, 73, 25, 14, 17},
     {76, 255, 578, 1408, 893, 929, 979, 5450, 3839},
     276}};
  return runs;
}

TEST(AsyncSystemGolden, PaperBenchmarkRunsAreBitIdentical) {
  for (const GoldenRun& g : golden_runs()) {
    SCOPED_TRACE("topology " + std::to_string(g.topology) + " latency " +
                 std::to_string(g.hop_latency) + " radius " +
                 std::to_string(g.partner_radius));
    const Topology topo =
        g.topology == 0 ? Topology::torus2d(8, 8) : Topology::hypercube(6);
    Rng wl_rng(static_cast<std::uint64_t>(100 + g.topology));
    Rng trace_rng(static_cast<std::uint64_t>(200 + g.topology));
    const Trace trace = Trace::record(
        Workload::paper_benchmark(topo.size(), 200, WorkloadParams{},
                                  wl_rng),
        trace_rng);
    AsyncConfig cfg;
    cfg.f = 1.1;
    cfg.delta = 2;
    cfg.hop_latency = g.hop_latency;
    cfg.partner_radius = g.partner_radius;
    cfg.seed = 7;
    AsyncSystem sys(topo, cfg);
    sys.run(trace);
    EXPECT_EQ(sys.loads(), g.loads);
    const AsyncStats& s = sys.stats();
    const std::vector<std::uint64_t> stats = {
        s.balance_ops,      s.aborted_ops,     s.refusals,
        s.messages,         s.packets_moved,   s.consume_failures,
        s.deferred_events,  s.generated,       s.consumed};
    EXPECT_EQ(stats, g.stats);
    EXPECT_EQ(sys.end_time(), g.end_time);
  }
}

}  // namespace
}  // namespace dlb
