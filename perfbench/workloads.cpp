#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "baselines/adapter.hpp"
#include "baselines/latency_probe.hpp"
#include "core/experiment.hpp"
#include "core/system.hpp"
#include "metrics/imbalance.hpp"
#include "metrics/recorder.hpp"
#include "net/cost_model.hpp"
#include "obs/alloc.hpp"
#include "workload/serving.hpp"

namespace pb {

using dlb::BalancerConfig;
using dlb::Rng;
using dlb::System;
using dlb::Trace;
using dlb::Workload;

std::vector<std::uint64_t> sub_seeds(std::uint64_t seed, std::size_t count) {
  Rng master(seed);
  std::vector<std::uint64_t> out(count);
  for (auto& s : out) s = master.next();
  return out;
}

namespace {

BalancerConfig config(double f, std::uint32_t delta, std::uint32_t cap) {
  BalancerConfig cfg;
  cfg.f = f;
  cfg.delta = delta;
  cfg.borrow_cap = cap;
  return cfg;
}

dlb::ExperimentSpec paper_spec(std::uint64_t sub_seed) {
  dlb::ExperimentSpec spec;
  spec.processors = kPaperProcs;
  spec.horizon = kPaperHorizon;
  spec.runs = kPaperRunsPerCall;
  spec.config = paper_config();
  spec.seed = sub_seed;
  return spec;
}

std::int64_t sum(const std::vector<std::int64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::int64_t{0});
}

// Order-sensitive digest of a load vector (FNV-1a over the values).
std::uint64_t digest(const std::vector<std::int64_t>& loads) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::int64_t l : loads) {
    h ^= static_cast<std::uint64_t>(l);
    h *= 1099511628211ULL;
  }
  return h;
}

// The deterministic outcome counts of one pass over one input; a second
// pass over the same input must reproduce them exactly.
struct Fingerprint {
  std::uint64_t ops = 0;
  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
  std::uint64_t messages = 0;
  std::uint64_t loads = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const System& sys) {
  return {sys.balance_operations(), sys.total_generated(),
          sys.total_consumed(), sys.costs().totals().messages,
          digest(sys.loads())};
}

}  // namespace

void check_system(Checks& checks, const System& sys,
                  std::int64_t expected_generated, const std::string& what) {
  checks.guard(what + ": invariants", [&] { sys.check_invariants(); });
  check_conservation(
      checks,
      Account{static_cast<std::int64_t>(sys.total_generated()),
              static_cast<std::int64_t>(sys.total_consumed()),
              sum(sys.loads()), expected_generated},
      what);
}

namespace {

// Queueing latency and idle capacity of the paper's algorithm on each
// input's recorded trace, through LatencyProbe over DlbAdapter.
struct LatencyQuality {
  std::vector<double> p50;
  std::vector<double> p999;
  std::vector<double> idle;
  std::uint64_t samples = 0;
};

LatencyQuality latency_pass(const std::vector<const Inputs*>& inputs,
                            const BalancerConfig& cfg, Checks& checks) {
  LatencyQuality q;
  for (const Inputs* in : inputs) {
    const Trace& trace = in->trace;
    dlb::DlbAdapter adapter(trace.processors(), cfg, in->system_seed);
    dlb::LatencyProbe probe(adapter);
    checks.guard("latency replay", [&] { run_trace(probe, trace); });
    const System& sys = adapter.system();
    check_system(checks, sys,
                 static_cast<std::int64_t>(trace.total_generations()),
                 "latency replay");
    const auto attempts = trace.total_consume_attempts();
    checks.expect(sys.total_consumed() + adapter.consume_failures() ==
                      attempts,
                  "latency replay: every consume attempt accounted for");
    const dlb::LatencyTracker& lat = probe.latency();
    q.p50.push_back(lat.percentile(0.5));
    q.p999.push_back(lat.percentile(0.999));
    q.samples += lat.served();
    q.idle.push_back(static_cast<double>(adapter.consume_failures()) /
                     static_cast<double>(std::max<std::uint64_t>(attempts, 1)));
  }
  return q;
}

void add_quality(Report& report, const LatencyQuality& lat,
                 const std::vector<double>& cov, double ops_per_step,
                 double msgs_per_step) {
  report.add("lat_p50_steps", mean(lat.p50), "steps");
  report.add("lat_p999_steps", mean(lat.p999), "steps");
  report.note("latency samples: " + std::to_string(lat.samples) + " over " +
              std::to_string(lat.p50.size()) + " traces");
  report.add("idle_frac", mean(lat.idle), "ratio");
  report.add("final_cov", mean(cov), "ratio");
  report.add("balance_ops_per_step", ops_per_step, "count");
  report.add("msgs_per_step", msgs_per_step, "count");
}

// Per-round timings of a timed pass, reduced to medians.
struct Timings {
  std::vector<double> step_us;
  std::vector<double> cpu_us;
  std::vector<double> allocs;

  void add(double wall_s, double cpu_s, std::uint64_t allocs_count,
           double steps) {
    step_us.push_back(wall_s * 1e6 / steps);
    cpu_us.push_back(cpu_s * 1e6 / steps);
    allocs.push_back(static_cast<double>(allocs_count) / steps);
  }
};

void add_speed(Report& report, const std::vector<double>& setup_s,
               const Timings& t, double peak_rss_mb) {
  report.add("setup_s", median(setup_s), "s");
  report.add("step_us", median(t.step_us), "us");
  report.add("step_cpu_us", median(t.cpu_us), "us");
  report.add("peak_rss_mb", peak_rss_mb, "MB");
  report.add("allocs_per_step", median(t.allocs), "count");
}

// Times `body` (wall, CPU of every thread and reaped child, operator-new
// calls on this thread) into `timings`.
template <class F>
void timed(Timings& timings, double steps, F&& body) {
  const dlb::obs::AllocCounts a0 = dlb::obs::alloc_counts();
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  body();
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - c0;
  timings.add(wall, cpu, (dlb::obs::alloc_counts() - a0).count, steps);
}

// ---- serving ------------------------------------------------------------

void serving_pass(const Options& opts, Report& report, Checks& checks) {
  const BalancerConfig cfg = serving_config();
  const auto seeds = sub_seeds(opts.seed, kServingSeeds);

  std::vector<Inputs> inputs;
  for (const std::uint64_t s : seeds) inputs.push_back(serving_inputs(s));

  std::vector<double> setup_s;
  Timings timings;
  std::vector<Fingerprint> first(kServingSeeds);
  std::vector<double> cov;
  std::uint64_t ops = 0;
  std::uint64_t msgs = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < kServingSeeds || seconds_since(start) < opts.seconds; ++i) {
    const std::size_t k = i % kServingSeeds;
    const Inputs& in = inputs[k];
    {
      // Set-up sample, spread over the pass like the timed rounds: build +
      // record + System construction, rebuilding this round's inputs,
      // which must reproduce the first build exactly.
      const auto t0 = Clock::now();
      const Inputs again = serving_inputs(seeds[k]);
      const System fresh(kServingProcs, cfg, again.system_seed);
      setup_s.push_back(seconds_since(t0));
      checks.expect(again.trace == in.trace,
                    "serving: inputs are a function of the seed");
    }
    System sys(kServingProcs, cfg, in.system_seed);
    timed(timings, kServingHorizon, [&] { sys.run(in.workload); });
    check_system(checks, sys, -1, "serving");
    const Fingerprint fp = fingerprint(sys);
    if (i < kServingSeeds) {
      first[k] = fp;
      cov.push_back(dlb::measure_imbalance(sys.loads()).cov);
      ops += fp.ops;
      msgs += fp.messages;
    } else {
      checks.expect(fp == first[k], "serving: a repeated seed repeats its "
                                    "quality counts exactly");
    }
  }

  std::vector<const Inputs*> all;
  for (const Inputs& in : inputs) all.push_back(&in);
  const LatencyQuality lat = latency_pass(all, cfg, checks);

  const double steps =
      static_cast<double>(kServingSeeds) * kServingHorizon;
  add_speed(report, setup_s, timings, self_peak_rss_mb());
  add_quality(report, lat, cov, static_cast<double>(ops) / steps,
              static_cast<double>(msgs) / steps);
}

// ---- paper --------------------------------------------------------------

// Figure-7/8 style observer plus what the benchmark reads: the CoV of
// every run's final loads and the cost model's count of each balancing
// operation.
class PaperRecorder final : public dlb::Recorder {
 public:
  void on_loads(std::uint32_t t,
                const std::vector<std::int64_t>& loads) override {
    if (t + 1 != kPaperHorizon) return;
    final_cov.push_back(dlb::measure_imbalance(loads).cov);
    final_digest = final_digest * 31 + digest(loads);
  }
  void on_balance_op(std::uint32_t initiator, std::size_t partners,
                     std::uint64_t) override {
    costs.record_operation(initiator, partners);
  }

  std::vector<double> final_cov;
  std::uint64_t final_digest = 0;
  dlb::CostLedger costs;
};

void paper_pass(const Options& opts, Report& report, Checks& checks) {
  const BalancerConfig cfg = paper_config();
  const dlb::WorkloadFactory factory = dlb::paper_workload_factory();

  const auto seeds = sub_seeds(opts.seed, kPaperQualityCalls);
  std::vector<Inputs> inputs;
  for (const std::uint64_t s : seeds)
    for (Inputs& in : paper_inputs(s)) inputs.push_back(std::move(in));

  std::vector<double> setup_s;
  Timings timings;
  std::vector<Fingerprint> first(kPaperQualityCalls);
  std::vector<double> cov;
  std::uint64_t ops = 0;
  std::uint64_t msgs = 0;
  const double steps_per_call =
      static_cast<double>(kPaperRunsPerCall) * kPaperHorizon;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < kPaperQualityCalls || seconds_since(start) < opts.seconds; ++i) {
    const std::size_t k = i % kPaperQualityCalls;
    // Set-up samples, spread over the pass like the timed calls: build +
    // record + System construction per run, rebuilding this call's
    // inputs, which must reproduce the first build exactly.
    const std::vector<Inputs> again = paper_inputs(seeds[k]);
    for (std::size_t r = 0; r < again.size(); ++r) {
      const auto t0 = Clock::now();
      const System fresh(kPaperProcs, cfg, again[r].system_seed);
      setup_s.push_back(again[r].build_s + again[r].record_s +
                        seconds_since(t0));
      checks.expect(again[r].trace ==
                        inputs[k * kPaperRunsPerCall + r].trace,
                    "paper: inputs are a function of the seed");
    }
    dlb::LoadSeriesRecorder series(kPaperHorizon);
    PaperRecorder rec;
    dlb::MultiRecorder both;
    both.attach(&series);
    both.attach(&rec);
    timed(timings, steps_per_call, [&] {
      checks.guard("paper: run_experiment", [&] {
        dlb::run_experiment(paper_spec(seeds[k]), factory, both);
      });
    });
    checks.expect(rec.final_cov.size() == kPaperRunsPerCall,
                  "paper: every run reached the horizon");
    const dlb::CostTotals& c = rec.costs.totals();
    const Fingerprint fp{c.balance_ops, 0, 0, c.messages, rec.final_digest};
    if (i < kPaperQualityCalls) {
      first[k] = fp;
      cov.insert(cov.end(), rec.final_cov.begin(), rec.final_cov.end());
      ops += c.balance_ops;
      msgs += c.messages;
    } else {
      checks.expect(fp == first[k], "paper: a repeated seed repeats its "
                                    "quality counts exactly");
    }
  }

  std::vector<const Inputs*> all;
  for (const Inputs& in : inputs) all.push_back(&in);
  const LatencyQuality lat = latency_pass(all, cfg, checks);

  const double steps = static_cast<double>(kPaperQualityCalls) *
                       steps_per_call;
  add_speed(report, setup_s, timings, self_peak_rss_mb());
  add_quality(report, lat, cov, static_cast<double>(ops) / steps,
              static_cast<double>(msgs) / steps);
}

}  // namespace

BalancerConfig serving_config() { return config(1.1, 2, 4); }
BalancerConfig paper_config() { return config(1.1, 4, 4); }

namespace {

// Times the builder, then records one trace of what it built.
template <class Build>
Inputs make_inputs(Build&& build, std::uint64_t trace_seed,
                   std::uint64_t system_seed) {
  auto t0 = Clock::now();
  Workload wl = build();
  const double build_s = seconds_since(t0);
  t0 = Clock::now();
  Rng trace_rng(trace_seed);
  Trace trace = Trace::record(wl, trace_rng);
  const double record_s = seconds_since(t0);
  return Inputs{std::move(wl), std::move(trace), system_seed, build_s,
                record_s};
}

}  // namespace

Inputs serving_inputs(std::uint64_t sub_seed) {
  Rng r(sub_seed);
  const std::uint64_t wl_seed = r.next();
  const std::uint64_t trace_seed = r.next();
  return make_inputs(
      [&] {
        return dlb::ServingWorkload::build(kServingProcs, kServingHorizon,
                                           dlb::ServingParams{}, wl_seed);
      },
      trace_seed, r.next());
}

std::vector<Inputs> paper_inputs(std::uint64_t sub_seed) {
  const dlb::ExperimentSpec spec = paper_spec(sub_seed);
  const dlb::WorkloadFactory factory = dlb::paper_workload_factory();
  std::vector<Inputs> out;
  for (const dlb::RunSeeds& s : dlb::derive_run_seeds(spec)) {
    Rng wl_rng = s.workload_rng;
    out.push_back(make_inputs(
        [&] { return factory(spec.processors, spec.horizon, wl_rng); },
        s.system_seed ^ 0x7ace5eedULL, s.system_seed));
  }
  return out;
}

dlb::SocketRunOptions socket_options() {
  dlb::SocketRunOptions opts;
  opts.ranks = kSocketRanks;
  opts.params.f = 1.1;
  opts.params.delta = 2;
  // On a clean network a transfer only times out when its sender is
  // descheduled; a generous deadline keeps a loaded machine from failing
  // the run.
  opts.params.recv_timeout = std::chrono::milliseconds(10000);
  return opts;
}

Inputs socket_inputs(std::uint64_t sub_seed) {
  Rng r(sub_seed);
  const std::uint64_t wl_seed = r.next();
  const std::uint64_t trace_seed = r.next();
  // Serving traffic keeps four ranks' loads small, so a balancing round
  // (and most often a transfer) runs in nearly every step.
  return make_inputs(
      [&] {
        return dlb::ServingWorkload::build(kSocketRanks, kSocketHorizon,
                                           dlb::ServingParams{}, wl_seed);
      },
      trace_seed, r.next());
}

void check_socket_run(Checks& checks, const dlb::SocketRunResult& run,
                      const Trace& trace) {
  const dlb::SpmdReport& r = run.report;
  bool clean = run.exit_codes.size() == static_cast<std::size_t>(kSocketRanks);
  for (const int code : run.exit_codes) clean = clean && code == 0;
  checks.expect(clean, "socket run: every rank exited with code 0");
  checks.expect(r.ranks_dead == 0 && r.recv_timeouts == 0,
                "socket run: no rank died and no transfer timed out (" +
                    std::to_string(r.recv_timeouts) + " timeouts)");
  checks.expect(r.conserved && r.transfer_lost == 0 && r.crash_lost == 0,
                "socket run: load conserved with nothing declared lost");
  check_conservation(
      checks,
      Account{r.generated, r.consumed, sum(r.final_loads),
              static_cast<std::int64_t>(trace.total_generations())},
      "socket");
  checks.expect(r.consumed <=
                    static_cast<std::int64_t>(trace.total_consume_attempts()),
                "socket run: no more consumes than the trace attempted");
}

void run_end_to_end(const Options& opts, Report& report, Checks& checks) {
  if (opts.workload == "paper")
    paper_pass(opts, report, checks);
  else
    serving_pass(opts, report, checks);
}

}  // namespace pb
