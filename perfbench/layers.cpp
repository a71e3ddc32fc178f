#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <optional>
#include <string>

#include "core/system.hpp"
#include "mp/process_group.hpp"
#include "mp/remote_comm.hpp"
#include "mp/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "workload/schedule.hpp"

namespace pb {

using dlb::BalancerConfig;
using dlb::System;
using dlb::Trace;

namespace {

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Reports p50, the upper percentile `top` and the sample count.
void add_dist(Report& report, const std::string& name, double p50,
              double top_value, double top, const char* top_name,
              std::uint64_t count, const std::string& unit) {
  report.add(name + ".p50", p50, unit);
  report.add(name + "." + top_name, top_value, unit);
  report.add(name + ".n", static_cast<double>(count), "count");
  // The upper percentile needs ten samples beyond it to mean anything.
  if ((1.0 - top) * static_cast<double>(count) < 10.0)
    report.note(name + "." + top_name + " rests on fewer than 10 samples");
}

// Per-call durations at 1 ns resolution: one plain increment per
// sample, so recording adds little to the call it times.  Durations of
// 64 us and more are kept individually.
class NsHistogram {
 public:
  void record(std::uint64_t ns) {
    ++count_;
    if (ns < counts_.size())
      ++counts_[ns];
    else
      overflow_.push_back(ns);
  }
  std::uint64_t count() const { return count_; }
  // Nearest-rank order statistic.
  double percentile(double q) {
    if (count_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t ns = 0; ns < counts_.size(); ++ns) {
      seen += counts_[ns];
      if (seen >= rank) return static_cast<double>(ns);
    }
    std::sort(overflow_.begin(), overflow_.end());
    return static_cast<double>(overflow_[rank - seen - 1]);
  }

 private:
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(1 << 16);
  std::vector<std::uint64_t> overflow_;
  std::uint64_t count_ = 0;
};

void add_hist(Report& report, const std::string& name, NsHistogram& h,
              double top, const char* top_name) {
  add_dist(report, name, h.percentile(0.5), h.percentile(top), top, top_name,
           h.count(), "ns");
}

// Nearest-rank order statistic of sorted samples.
double order_stat(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[std::min(rank, sorted.size()) - 1];
}

// The demand a workload's layers are measured on: its inputs and the
// engine its untraced pass times.
struct Subject {
  std::uint32_t processors = 0;
  std::uint32_t horizon = 0;
  BalancerConfig config;
  std::vector<Inputs> inputs;
};

Subject make_subject(const Options& opts) {
  Subject s;
  if (opts.workload == "paper") {
    s.processors = kPaperProcs;
    s.horizon = kPaperHorizon;
    s.config = paper_config();
    s.inputs = paper_inputs(sub_seeds(opts.seed, 1)[0]);
    return s;
  }
  s.processors = kServingProcs;
  s.horizon = kServingHorizon;
  s.config = serving_config();
  for (const std::uint64_t seed : sub_seeds(opts.seed, 3))
    s.inputs.push_back(serving_inputs(seed));
  return s;
}

// ---- workload layer -----------------------------------------------------

struct WorkloadLayer {
  double compile_ms = 0.0;
  double sample_us_per_step = 0.0;
};

WorkloadLayer measure_workload(const Subject& s, Report& report) {
  std::vector<double> build_ms;
  std::vector<double> record_ms;
  std::vector<double> compile_ms;
  std::vector<double> sample_us;
  std::uint64_t events = 0;
  for (const Inputs& in : s.inputs) {
    build_ms.push_back(in.build_s * 1e3);
    record_ms.push_back(in.record_s * 1e3);
    auto t0 = Clock::now();
    dlb::ActiveSchedule schedule(in.workload);
    compile_ms.push_back(seconds_since(t0) * 1e3);
    // The advance + sample loop System::run performs, driven from here.
    dlb::Rng rng(in.system_seed);
    t0 = Clock::now();
    for (std::uint32_t t = 0; t < s.horizon; ++t)
      for (const auto& e : schedule.advance(t)) {
        const dlb::WorkEvent ev = in.workload.sample(e.proc, t, rng);
        events += static_cast<std::uint64_t>(ev.generate) + ev.consume;
      }
    sample_us.push_back(seconds_since(t0) * 1e6 / s.horizon);
  }
  report.add("workload.build_ms", median(build_ms), "ms");
  report.add("workload.compile_ms", median(compile_ms), "ms");
  report.add("workload.sample_us_per_step", median(sample_us), "us");
  report.add("workload.record_ms", median(record_ms), "ms");
  report.note("sampled events: " + std::to_string(events));
  return {median(compile_ms), median(sample_us)};
}

// ---- core layer ---------------------------------------------------------

// Per-call timings of a replay, classified by the program's public
// counters.  A consume is an own-class one when the ledger held d(p) > 0
// before it, a borrow when it held only other classes, idle when it held
// nothing; a borrow is a settlement when it left borrowed_total() no
// higher than before (markers were cleared).  Each call counts in its
// path whole, including any balancing it triggered; a call during which
// balance_operations() grew also counts, divided by its operation count,
// in balance_ns.
struct CoreTrace {
  NsHistogram generate_ns;
  NsHistogram own_ns;
  NsHistogram borrow_ns;
  NsHistogram balance_ns;
  NsHistogram idle_ns;
  std::uint64_t consumes = 0;
  std::uint64_t borrows = 0;
  std::uint64_t settles = 0;
  std::uint64_t ops = 0;
  std::uint64_t moved = 0;
  std::uint64_t steps = 0;
  double classes = 0.0;
  std::uint64_t class_samples = 0;
};

void record_call(CoreTrace& ct, std::uint64_t ns, std::uint64_t ops,
                 NsHistogram& path) {
  path.record(ns);
  for (std::uint64_t k = 0; k < ops; ++k) ct.balance_ns.record(ns / ops);
}

// Untraced replay: the same external loop without clocks or counters.
double plain_replay(const Subject& s, const Inputs& in, Checks& checks,
                    std::uint64_t& ops) {
  System sys(s.processors, s.config, in.system_seed);
  const Trace& trace = in.trace;
  const auto t0 = Clock::now();
  for (std::uint32_t t = 0; t < trace.horizon(); ++t)
    for (std::uint32_t p = 0; p < trace.processors(); ++p) {
      const dlb::WorkEvent ev = trace.at(p, t);
      if (ev.generate) sys.generate(p);
      if (ev.consume) sys.consume(p);
    }
  const double wall = seconds_since(t0);
  check_system(checks, sys,
               static_cast<std::int64_t>(trace.total_generations()),
               "untraced replay");
  ops = sys.balance_operations();
  return wall;
}

double traced_replay(const Subject& s, const Inputs& in, CoreTrace& ct,
                     Checks& checks, std::uint64_t& ops) {
  System sys(s.processors, s.config, in.system_seed);
  const Trace& trace = in.trace;
  const auto start = Clock::now();
  for (std::uint32_t t = 0; t < trace.horizon(); ++t) {
    for (std::uint32_t p = 0; p < trace.processors(); ++p) {
      const dlb::WorkEvent ev = trace.at(p, t);
      if (ev.generate) {
        const std::uint64_t ops0 = sys.balance_operations();
        const auto t0 = Clock::now();
        sys.generate(p);
        const auto t1 = Clock::now();
        record_call(ct, ns_between(t0, t1), sys.balance_operations() - ops0,
                    ct.generate_ns);
      }
      if (ev.consume) {
        const dlb::Ledger& ledger = sys.processor(p).ledger;
        const bool holds = ledger.real_load() > 0;
        const bool own = ledger.d(p) > 0;
        const std::int64_t borrowed0 = ledger.borrowed_total();
        const std::uint64_t ops0 = sys.balance_operations();
        const auto t0 = Clock::now();
        sys.consume(p);
        const auto t1 = Clock::now();
        ++ct.consumes;
        const bool borrow = holds && !own;
        if (borrow) {
          ++ct.borrows;
          if (ledger.borrowed_total() <= borrowed0) ++ct.settles;
        }
        record_call(ct, ns_between(t0, t1), sys.balance_operations() - ops0,
                    !holds ? ct.idle_ns : own ? ct.own_ns : ct.borrow_ns);
      }
    }
    if (t % 50 == 49)
      for (std::uint32_t p = 0; p < trace.processors(); ++p) {
        ct.classes += static_cast<double>(
            sys.processor(p).ledger.active_classes().size());
        ++ct.class_samples;
      }
  }
  const double wall = seconds_since(start);
  check_system(checks, sys,
               static_cast<std::int64_t>(trace.total_generations()),
               "traced replay");
  ops = sys.balance_operations();
  ct.ops += ops;
  ct.moved += sys.costs().totals().packets_moved;
  ct.steps += trace.horizon();
  return wall;
}

// ---- mp layer -----------------------------------------------------------

// Per-iteration latencies rank 0 measured (sorted), and the delivered
// traffic on its busiest incoming link.
struct Leg {
  std::vector<double> us;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

// Runs `ranks` forked processes over Unix-domain sockets; rank 0 times
// `iterations` calls of `step` (after a tenth as warm-up) and reports
// through the rendezvous directory.
Leg run_leg(int ranks, int iterations, int busiest_source,
            const std::function<void(dlb::SocketTransport&,
                                     dlb::SocketComm*)>& step,
            bool with_comm, Checks& checks, const std::string& what) {
  const std::string dir = dlb::ProcessGroup::make_rendezvous_dir();
  const std::string out = dir + "/leg";
  auto group = dlb::ProcessGroup::spawn(ranks, [&](int r) {
    dlb::SocketOptions so;
    so.dir = dir;
    dlb::SocketTransport t(r, ranks, so);
    dlb::obs::MetricsRegistry reg;
    if (r == 0) t.attach_obs(dlb::SocketObs{nullptr, &reg});
    std::optional<dlb::SocketComm> comm;
    if (with_comm) comm.emplace(t, dlb::SocketCommConfig{});
    std::vector<std::uint64_t> ns;
    ns.reserve(static_cast<std::size_t>(iterations));
    for (int i = 0; i < iterations / 10 + iterations; ++i) {
      const auto t0 = Clock::now();
      step(t, comm ? &*comm : nullptr);
      if (i >= iterations / 10) ns.push_back(ns_between(t0, Clock::now()));
    }
    if (r == 0) {
      const std::string link =
          "mp.link." + std::to_string(busiest_source) + "->0";
      std::ofstream f(out);
      f << reg.counter(link + ".messages").value() << " "
        << reg.counter(link + ".bytes").value() << " " << ns.size();
      for (const std::uint64_t v : ns) f << " " << v;
      f << "\n";
    }
    if (comm) comm->close();
    else t.close();
    return 0;
  });
  const bool done = group.wait_all(std::chrono::milliseconds(120000));
  bool clean = done;
  for (int r = 0; done && r < ranks; ++r)
    clean = clean && group.exited(r) && group.exit_code(r) == 0;
  checks.expect(clean, what + ": every rank exited with code 0");
  Leg leg;
  std::ifstream in(out);
  std::size_t count = 0;
  const bool read = static_cast<bool>(in >> leg.messages >> leg.bytes >> count);
  for (std::size_t i = 0; read && i < count; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    leg.us.push_back(static_cast<double>(v) / 1e3);
  }
  std::sort(leg.us.begin(), leg.us.end());
  checks.expect(read && leg.us.size() == static_cast<std::size_t>(iterations),
                what + ": rank 0 reported every iteration");
  dlb::ProcessGroup::remove_rendezvous_dir(dir);
  return leg;
}

void measure_mp(const Options& opts, Report& report, Checks& checks) {
  // The first second of socket runs in a process is up to ten times
  // slower than the rest (idle cores waking up): 1.5 s of whole SPMD
  // balancer runs go first.
  const dlb::SocketRunOptions run_opts = socket_options();
  std::vector<Inputs> inputs;
  for (const std::uint64_t seed : sub_seeds(opts.seed, 4))
    inputs.push_back(socket_inputs(seed));
  const auto warm = Clock::now();
  for (std::size_t i = 0; seconds_since(warm) < 1.5; ++i) {
    const Trace& trace = inputs[i % inputs.size()].trace;
    check_socket_run(checks, dlb::run_spmd_balancer_socket(trace, run_opts),
                     trace);
  }

  // Round trip: 2 ranks, one word each way.
  const std::int64_t word[1] = {42};
  const Leg rtt = run_leg(
      2, 2000, 1,
      [&](dlb::SocketTransport& t, dlb::SocketComm*) {
        if (t.rank() == 0) {
          t.send(1, 1, word, 1);
          t.recv(1, 2);
        } else {
          t.recv(0, 1);
          t.send(0, 2, word, 1);
        }
      },
      false, checks, "mp rtt");
  // Balancing transaction as the SPMD round shapes it: two 4-rank
  // gathers (trigger, load) and one deadline-guarded ring transfer.
  dlb::GatherResult gathered;
  const Leg txn = run_leg(
      kSocketRanks, 2000, kSocketRanks - 1,
      [&](dlb::SocketTransport& t, dlb::SocketComm* comm) {
        const int n = t.size();
        comm->allgather_checked(17, gathered);
        comm->allgather_checked(23, gathered);
        comm->send((t.rank() + 1) % n, 100, {1});
        const auto got = comm->recv_for((t.rank() + n - 1) % n, 100,
                                        std::chrono::milliseconds(10000));
        DLB_ENSURE(got.has_value(), "transfer lost on a clean network");
      },
      true, checks, "mp txn");
  for (const auto& [name, leg] : {std::pair{"mp.rtt_us", &rtt},
                                  std::pair{"mp.txn_us", &txn}})
    add_dist(report, name, order_stat(leg->us, 0.5), order_stat(leg->us, 0.99),
             0.99, "p99", leg->us.size(), "us");
  report.add("mp.wire_bytes_per_msg",
             txn.messages == 0 ? 0.0
                               : static_cast<double>(txn.bytes) /
                                     static_cast<double>(txn.messages),
             "bytes");

  // The SPMD balancer over sockets: set-up alone (fork, rendezvous,
  // mesh-up, teardown), whole runs, and one run with the ranks'
  // transport counters merged back.
  const Trace one(kSocketRanks, 1);
  std::vector<double> setup_ms;
  for (int i = 0; i < 25; ++i) {
    const auto t0 = Clock::now();
    const dlb::SocketRunResult run =
        dlb::run_spmd_balancer_socket(one, run_opts);
    setup_ms.push_back(seconds_since(t0) * 1e3);
    check_socket_run(checks, run, one);
  }
  std::vector<double> step_us;
  double wall = 0.0;
  double rank_cpu = 0.0;
  for (std::size_t i = 0; i < 5 * inputs.size(); ++i) {
    const Trace& trace = inputs[i % inputs.size()].trace;
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    const dlb::SocketRunResult run =
        dlb::run_spmd_balancer_socket(trace, run_opts);
    const double w = seconds_since(t0);
    rank_cpu += cpu_seconds() - c0;
    wall += w;
    step_us.push_back(w * 1e6 / kSocketHorizon);
    check_socket_run(checks, run, trace);
  }
  dlb::SocketRunOptions obs_opts = run_opts;
  obs_opts.collect_obs = true;
  const dlb::SocketRunResult observed =
      dlb::run_spmd_balancer_socket(inputs[0].trace, obs_opts);
  check_socket_run(checks, observed, inputs[0].trace);
  const auto counter = [&](const char* name) {
    const dlb::obs::MetricValue* v = observed.merged_metrics.find(name);
    checks.expect(v != nullptr, std::string("merged metrics carry ") + name);
    return v == nullptr ? 0.0 : static_cast<double>(v->value);
  };
  report.add("mp.msgs_per_step", counter("mp.sent") / kSocketHorizon, "count");
  report.add("mp.bytes_per_step", counter("mp.sent_bytes") / kSocketHorizon,
             "bytes");
  report.add("mp.setup_ms", median(setup_ms), "ms");
  report.add("mp.cpu_per_wall", rank_cpu / wall, "ratio");
  report.add("mp.socket_step_us", median(step_us), "us");
}

double clock_read_ns() {
  std::vector<double> per_read;
  for (int batch = 0; batch < 50; ++batch) {
    constexpr int kReads = 20000;
    Clock::time_point last{};
    const auto t0 = Clock::now();
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    per_read.push_back(static_cast<double>(ns_between(t0, last)) / kReads);
  }
  return median(per_read);
}

// Untraced whole runs of an engine over the first two inputs: median
// step time and process CPU over wall.
struct EngineRuns {
  double step_us = 0.0;
  double cpu_per_wall = 0.0;
};

EngineRuns run_engine(const Subject& s, bool async, Checks& checks) {
  std::vector<double> step_us;
  double cpu = 0.0;
  double wall = 0.0;
  for (std::size_t i = 0; i < std::min<std::size_t>(s.inputs.size(), 2); ++i) {
    const Inputs& in = s.inputs[i];
    System sys(s.processors, s.config, in.system_seed);
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    if (async)
      sys.run_async(in.workload, std::min(kWorkers, s.processors));
    else
      sys.run(in.workload);
    const double w = seconds_since(t0);
    cpu += cpu_seconds() - c0;
    wall += w;
    step_us.push_back(w * 1e6 / s.horizon);
    check_system(checks, sys, -1, async ? "run_async" : "run");
  }
  return {median(step_us), cpu / wall};
}

}  // namespace

void run_layers(const Options& opts, Report& report, Checks& checks) {
  // Every per-call interval below contains about one clock read.
  const double clock_ns = clock_read_ns();
  // Forked ranks first, while this process is still small.
  measure_mp(opts, report, checks);
  const Subject s = make_subject(opts);
  const WorkloadLayer wl = measure_workload(s, report);

  // Core: alternate untraced and traced replays of the same inputs for
  // the run's seconds; the pair ratio is the tracing overhead.
  CoreTrace ct;
  std::vector<double> overhead;
  std::vector<double> plain_us;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < s.inputs.size() || seconds_since(start) < opts.seconds; ++i) {
    const Inputs& in = s.inputs[i % s.inputs.size()];
    std::uint64_t plain_ops = 0;
    std::uint64_t traced_ops = 0;
    const double plain = plain_replay(s, in, checks, plain_ops);
    const double traced = traced_replay(s, in, ct, checks, traced_ops);
    checks.expect(plain_ops == traced_ops,
                  "traced replay repeats the untraced one exactly");
    overhead.push_back(traced / plain - 1.0);
    plain_us.push_back(plain * 1e6 / in.trace.horizon());
  }
  const auto per = [](std::uint64_t num, std::uint64_t den) {
    return static_cast<double>(num) /
           static_cast<double>(std::max<std::uint64_t>(den, 1));
  };
  add_hist(report, "core.generate_ns", ct.generate_ns, 0.99, "p99");
  add_hist(report, "core.consume_own_ns", ct.own_ns, 0.99, "p99");
  add_hist(report, "core.consume_borrow_ns", ct.borrow_ns, 0.99, "p99");
  report.add("core.borrow_frac", per(ct.borrows, ct.consumes), "ratio");
  report.add("core.settle_frac", per(ct.settles, ct.consumes), "ratio");
  add_hist(report, "core.balance_ns", ct.balance_ns, 0.999, "p999");
  report.add("core.balance_ops_per_step", per(ct.ops, ct.steps), "count");
  report.add("core.packets_moved_per_op", per(ct.moved, ct.ops), "count");
  report.add("core.classes_per_proc",
             ct.classes / std::max(1.0, static_cast<double>(ct.class_samples)),
             "count");

  const double engine_us = run_engine(s, false, checks).step_us;
  // What the timed layers explain of one untraced step: the sampling
  // loop, the schedule compile run() repeats, and the core calls (timed
  // by the untraced replays: per-call clocks slow the calls they time).
  const double busy_us = median(plain_us) + wl.sample_us_per_step +
                         wl.compile_ms * 1e3 / s.horizon;
  report.add("core.busy_us_per_step", busy_us, "us");
  report.add("core.unattributed_frac", 1.0 - busy_us / engine_us, "ratio");
  // The sharded engine on the same inputs: its speed and how many cores
  // it keeps busy for it.
  const EngineRuns async = run_engine(s, true, checks);
  report.add("core.async.step_us", async.step_us, "us");
  report.add("core.async.cpu_per_wall", async.cpu_per_wall, "ratio");
  report.add("obs.trace_overhead_frac", median(overhead), "ratio");
  report.add("obs.clock_read_ns", clock_ns, "ns");
  report.note("untraced System::run step: " + std::to_string(engine_us) +
              " us");
  report.note("replays: " + std::to_string(overhead.size()) + " traced + " +
              std::to_string(overhead.size()) + " untraced");
}

}  // namespace pb
