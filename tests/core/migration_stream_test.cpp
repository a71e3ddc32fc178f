// Pins the migration stream a System hands its MigrationSink, and checks
// that a recorder without a sink leaves a run untouched.
//
// A deal reports its per-pair flows only to a consumer that exists (a
// MigrationSink, or hop-weighted costs); otherwise it books one bulk
// record.  The golden hashes below fold every (from, to, count) a sink
// receives — deal flows and remote-borrow exchanges, in order — and were
// computed with the engine in which every attached recorder received the
// flows, so they pin the stream bit for bit across that change.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/item_system.hpp"
#include "core/system.hpp"
#include "metrics/recorder.hpp"
#include "net/topology.hpp"
#include "support/rng.hpp"
#include "workload/workload.hpp"

namespace dlb {
namespace {

// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

struct StreamHash final : Recorder, MigrationSink {
  Fnv fnv;
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;

  MigrationSink* migration_sink() override { return this; }
  void on_migration(std::uint32_t from, std::uint32_t to,
                    std::uint64_t count) override {
    fnv.add(from);
    fnv.add(to);
    fnv.add(count);
    ++flows;
    packets += count;
  }
};

struct Golden {
  std::uint64_t hash;
  std::uint64_t flows;
  std::uint64_t packets;
};

Workload paper_workload(std::uint32_t n, std::uint32_t horizon,
                        std::uint64_t seed) {
  Rng rng(seed);
  return Workload::paper_benchmark(n, horizon, WorkloadParams{}, rng);
}

BalancerConfig paper_config(bool analysis_mode) {
  BalancerConfig cfg;
  cfg.f = 1.1;
  cfg.delta = 4;
  cfg.analysis_mode = analysis_mode;
  return cfg;
}

void expect_stream(const StreamHash& got, const Golden& want) {
  EXPECT_EQ(got.fnv.h, want.hash);
  EXPECT_EQ(got.flows, want.flows);
  EXPECT_EQ(got.packets, want.packets);
}

TEST(MigrationStreamGolden, SeededPaperRunBothModes) {
  const Workload wl = paper_workload(64, 500, 7);
  const Golden want[2] = {
      {0xadde3dbf5769a59bull, 308839, 308840},  // practical mode
      {0x87868d46cd786f80ull, 233816, 233818},  // analysis mode
  };
  for (const bool analysis : {false, true}) {
    System sys(64, paper_config(analysis), 1993);
    StreamHash tape;
    sys.attach_recorder(&tape);
    sys.run(wl);
    SCOPED_TRACE(analysis ? "analysis mode" : "practical mode");
    expect_stream(tape, want[analysis ? 1 : 0]);
    EXPECT_EQ(tape.packets, sys.costs().totals().packets_moved);
  }
}

TEST(MigrationStreamGolden, HopWeightedRunOnTorus) {
  const Topology torus = Topology::torus2d(8, 8);
  const Workload wl = paper_workload(64, 400, 11);
  BalancerConfig cfg = paper_config(false);
  cfg.delta = 2;
  System sys(64, cfg, 4242, &torus);
  StreamHash tape;
  sys.attach_recorder(&tape);
  sys.run(wl);
  expect_stream(tape, {0x500f73f081bab19aull, 267580, 267591});
  EXPECT_EQ(sys.costs().totals().packet_hops, 1085176u);
}

// ItemSystem is its own sink: the items it moves between queues are the
// stream, so the queues' contents (and the consumed items) pin it.
TEST(MigrationStreamGolden, ItemSystemQueues) {
  BalancerConfig cfg;
  cfg.f = 1.1;
  cfg.delta = 2;
  ItemSystem<std::uint64_t> items(16, cfg, 77);
  Rng rng(78);
  Fnv consumed;
  std::uint64_t next = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto p = static_cast<std::uint32_t>(rng.below(16));
    if (rng.bernoulli(0.55)) items.produce(p, next++);
    if (rng.bernoulli(0.5))
      if (const auto item = items.consume(p)) consumed.add(*item);
  }
  items.check();
  Fnv queues;
  for (std::uint32_t p = 0; p < 16; ++p) {
    queues.add(p);
    for (const std::uint64_t item : items.queue(p)) queues.add(item);
  }
  EXPECT_EQ(consumed.h, 0x94b88861cdbacadaull);
  EXPECT_EQ(queues.h, 0x921fac41718962dbull);
  EXPECT_EQ(items.total_items(), 259u);
}

// Per-step loads of one run, plus its end state.
struct LoadTape final : Recorder {
  std::vector<std::vector<std::int64_t>> steps;
  void on_loads(std::uint32_t t,
                const std::vector<std::int64_t>& loads) override {
    (void)t;
    steps.push_back(loads);
  }
};

struct RunOutcome {
  std::uint64_t ops;
  std::vector<std::int64_t> loads;
  CostTotals costs;
};

RunOutcome run_with(Recorder* recorder, const Workload& wl) {
  System sys(64, paper_config(false), 515);
  sys.attach_recorder(recorder);
  sys.run(wl);
  return {sys.balance_operations(), sys.loads(), sys.costs().totals()};
}

void expect_same(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.costs.balance_ops, b.costs.balance_ops);
  EXPECT_EQ(a.costs.messages, b.costs.messages);
  EXPECT_EQ(a.costs.packets_moved, b.costs.packets_moved);
  EXPECT_EQ(a.costs.packets_moved_net, b.costs.packets_moved_net);
  EXPECT_EQ(a.costs.packet_hops, b.costs.packet_hops);
  EXPECT_EQ(a.costs.partner_links, b.costs.partner_links);
}

// A MultiRecorder whose children take no migrations has no sink, so its
// deals book the bulk record; that must change nothing observable against
// no recorder at all, nor against a run whose deals report every pair.
TEST(MigrationSink, SinklessMultiRecorderChangesNothing) {
  const Workload wl = paper_workload(64, 300, 23);
  const RunOutcome bare = run_with(nullptr, wl);

  LoadTape silent_tape;
  ActivityRecorder activity;
  MultiRecorder silent;
  silent.attach(&silent_tape);
  silent.attach(&activity);
  ASSERT_EQ(silent.migration_sink(), nullptr);
  const RunOutcome quiet = run_with(&silent, wl);

  LoadTape listening_tape;
  StreamHash flows;
  MultiRecorder listening;
  listening.attach(&listening_tape);
  listening.attach(&flows);
  ASSERT_NE(listening.migration_sink(), nullptr);
  const RunOutcome loud = run_with(&listening, wl);

  expect_same(quiet, bare);
  expect_same(loud, bare);
  EXPECT_EQ(activity.total_operations(), bare.ops);
  EXPECT_EQ(flows.packets, bare.costs.packets_moved);
  ASSERT_EQ(silent_tape.steps.size(), wl.horizon());
  EXPECT_EQ(silent_tape.steps, listening_tape.steps);
  EXPECT_EQ(silent_tape.steps.back(), bare.loads);
}

}  // namespace
}  // namespace dlb
