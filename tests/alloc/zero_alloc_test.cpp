// Steady-state allocation proof for the serial, async (both modes) and
// threaded drivers.
//
// Each engine samples the global counting operator-new hook around every
// step (obs/alloc.hpp) and publishes `<prefix>.alloc.warmup_end_step`:
// one past the last step that performed any heap allocation (0 = never).
// These tests run each driver on the default ledger and scratch sizing —
// no capacity option exists — over a steady workload, dense (uniform
// n=64, where every ledger fills its class universe) and sparse
// (sparse_hotspot n=16384, a few classes per ledger), and assert that
// all allocation activity dies out in the first half of the run: pools,
// rings, ledger blocks and scratch leases have warmed, and the remaining
// steps are allocation-free (DESIGN.md §11).
//
// The bound is horizon/2 rather than an exact warmup length because the
// warmup is workload-shaped: a scratch vector is first leased at the
// first balancing operation, a mailbox ring grows until the in-flight
// high-water mark, and those points depend on seed and schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "runtime/threaded_system.hpp"
#include "support/rng.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace dlb {
namespace {

std::int64_t gauge(const obs::MetricsRegistry& registry,
                   const std::string& name) {
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricValue* v = snap.find(name);
  EXPECT_NE(v, nullptr) << name << " not published";
  return v != nullptr ? v->value : -1;
}

BalancerConfig steady_config() {
  BalancerConfig cfg;
  cfg.f = 1.2;
  cfg.delta = 2;
  return cfg;
}

TEST(ZeroAllocSteadyState, SerialRun) {
  constexpr std::uint32_t kN = 64;
  constexpr std::uint32_t kHorizon = 400;
  System sys(kN, steady_config(), 17);
  obs::MetricsRegistry registry;
  sys.attach_metrics(&registry);
  sys.run(Workload::uniform(kN, kHorizon, 0.7, 0.5));
  EXPECT_LT(gauge(registry, "system.alloc.warmup_end_step"),
            static_cast<std::int64_t>(kHorizon / 2));
}

TEST(ZeroAllocSteadyState, AsyncDeterministicRun) {
  constexpr std::uint32_t kN = 64;
  constexpr std::uint32_t kHorizon = 400;
  AsyncOptions options;
  options.epoch_steps = 8;  // det mode tallies per epoch, not per step
  const std::uint32_t epochs = kHorizon / options.epoch_steps;
  System sys(kN, steady_config(), 29);
  obs::MetricsRegistry registry;
  sys.attach_metrics(&registry);
  sys.run_async(Workload::uniform(kN, kHorizon, 0.7, 0.5), 4, options);
  EXPECT_LT(gauge(registry, "async.alloc.warmup_end_step"),
            static_cast<std::int64_t>(epochs / 2));
}

TEST(ZeroAllocSteadyState, AsyncRelaxedRun) {
  constexpr std::uint32_t kN = 64;
  constexpr std::uint32_t kHorizon = 400;
  AsyncOptions options;
  options.relaxed_order = true;
  System sys(kN, steady_config(), 31);
  obs::MetricsRegistry registry;
  sys.attach_metrics(&registry);
  sys.run_async(Workload::uniform(kN, kHorizon, 0.7, 0.5), 4, options);
  // Relaxed workers note the final quiescence/termination phase against
  // the last step index, so a dirty termination would fail this bound.
  EXPECT_LT(gauge(registry, "async.alloc.warmup_end_step"),
            static_cast<std::int64_t>(kHorizon / 2));
}

// The sparse regime: 64 producers among 16384 processors.  Ledgers hold
// a handful of classes, and n is past the one-block spill size, so a
// ledger that outgrows its inline slots doubles.
TEST(ZeroAllocSteadyState, SparseHotspotSerialAndAsyncRuns) {
  constexpr std::uint32_t kN = 16384;
  constexpr std::uint32_t kHorizon = 200;
  const Workload workload =
      Workload::sparse_hotspot(kN, kHorizon, 64, 0.8, 0.5);
  {
    System sys(kN, steady_config(), 43);
    obs::MetricsRegistry registry;
    sys.attach_metrics(&registry);
    sys.run(workload);
    EXPECT_LT(gauge(registry, "system.alloc.warmup_end_step"),
              static_cast<std::int64_t>(kHorizon / 2));
  }
  {
    AsyncOptions options;
    options.epoch_steps = 8;
    const std::uint32_t epochs = kHorizon / options.epoch_steps;
    System sys(kN, steady_config(), 47);
    obs::MetricsRegistry registry;
    sys.attach_metrics(&registry);
    sys.run_async(workload, 4, options);
    EXPECT_LT(gauge(registry, "async.alloc.warmup_end_step"),
              static_cast<std::int64_t>(epochs / 2));
  }
  {
    AsyncOptions options;
    options.relaxed_order = true;
    System sys(kN, steady_config(), 53);
    obs::MetricsRegistry registry;
    sys.attach_metrics(&registry);
    sys.run_async(workload, 4, options);
    EXPECT_LT(gauge(registry, "async.alloc.warmup_end_step"),
              static_cast<std::int64_t>(kHorizon / 2));
  }
}

TEST(ZeroAllocSteadyState, ThreadedRun) {
  constexpr std::uint32_t kN = 8;
  constexpr std::uint32_t kHorizon = 1000;
  Rng rng(1234);
  const Trace trace =
      Trace::record(Workload::uniform(kN, kHorizon, 0.7, 0.5), rng);
  ThreadedConfig cfg;
  cfg.f = 1.2;
  cfg.delta = 2;
  cfg.seed = 37;
  ThreadedSystem sys(kN, cfg);
  obs::MetricsRegistry registry;
  sys.attach_metrics(&registry);
  sys.run(trace);
  // Workers also charge the post-horizon serve/shutdown phase to the
  // final step, so the whole drain must be allocation-free too.
  EXPECT_LT(gauge(registry, "threaded.alloc.warmup_end_step"),
            static_cast<std::int64_t>(kHorizon / 2));
}

TEST(ZeroAllocSteadyState, AllocCountersAreConsistent) {
  // Sanity on the published shape: count/bytes/dirty_steps all present,
  // and a dirty tally implies nonzero bytes.
  constexpr std::uint32_t kN = 32;
  System sys(kN, steady_config(), 41);
  obs::MetricsRegistry registry;
  sys.attach_metrics(&registry);
  sys.run(Workload::uniform(kN, 200, 0.7, 0.5));
  const std::int64_t count = gauge(registry, "system.alloc.count");
  const std::int64_t bytes = gauge(registry, "system.alloc.bytes");
  const std::int64_t dirty = gauge(registry, "system.alloc.dirty_steps");
  EXPECT_GE(count, 0);
  EXPECT_GE(dirty, 0);
  if (count > 0) {
    EXPECT_GT(bytes, 0);
  }
  EXPECT_LE(dirty, count);  // a dirty step has at least one allocation
}

}  // namespace
}  // namespace dlb
