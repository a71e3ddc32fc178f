// The benchmark's workloads: how each one's inputs are generated from
// the --seed, and the untraced pass that produces the end-to-end metrics.
// Why each workload exists is in README.md.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/system.hpp"
#include "measure.hpp"
#include "mp/spmd_socket.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace pb {

/// The most threads or forked ranks any pass uses (the 4-core reference
/// machine's nproc).
constexpr std::uint32_t kWorkers = 4;

constexpr std::array<std::string_view, 2> kWorkloads = {"serving", "paper"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One demand realization: the compiled workload, a recorded trace of
/// it (the identical demand every replay sees), and the seed of the
/// System that runs it.
struct Inputs {
  dlb::Workload workload;
  dlb::Trace trace;
  std::uint64_t system_seed = 0;
  double build_s = 0.0;   // time the workload builder took
  double record_s = 0.0;  // time Trace::record took
};

/// `count` sub-seeds derived from the benchmark seed.  Quality metrics
/// are averaged over them; timed rounds cycle through them.
std::vector<std::uint64_t> sub_seeds(std::uint64_t seed, std::size_t count);

// ---- serving ------------------------------------------------------------
constexpr std::uint32_t kServingProcs = 16384;
constexpr std::uint32_t kServingHorizon = 400;  // one diurnal period
constexpr std::size_t kServingSeeds = 4;
dlb::BalancerConfig serving_config();  // f=1.1, delta=2, C=4
Inputs serving_inputs(std::uint64_t sub_seed);

// ---- paper ------------------------------------------------------------
constexpr std::uint32_t kPaperProcs = 64;
constexpr std::uint32_t kPaperHorizon = 500;
constexpr std::uint32_t kPaperRunsPerCall = 8;   // runs per run_experiment
constexpr std::size_t kPaperQualityCalls = 16;   // 128 runs of quality
dlb::BalancerConfig paper_config();  // f=1.1, delta=4, C=4
/// The inputs of every run one run_experiment call with `sub_seed`
/// makes (the same workloads, regenerated through derive_run_seeds).
std::vector<Inputs> paper_inputs(std::uint64_t sub_seed);

// ---- socket runs (the traced pass's mp layer) ---------------------------
constexpr int kSocketRanks = 4;
constexpr std::uint32_t kSocketHorizon = 1000;
dlb::SocketRunOptions socket_options();
Inputs socket_inputs(std::uint64_t sub_seed);
/// Ends an in-process pass: check_invariants() and exact conservation
/// from the public counters (`expected_generated` as in Account).
void check_system(Checks& checks, const dlb::System& sys,
                  std::int64_t expected_generated, const std::string& what);

/// Checks one socket run: clean exits, no deaths or timeouts, exact
/// conservation, and that every generation in `trace` was applied.
void check_socket_run(Checks& checks, const dlb::SocketRunResult& run,
                      const dlb::Trace& trace);

/// Runs the untraced pass of `opts.workload` (one of kWorkloads) and
/// fills `report` with every end-to-end metric.
void run_end_to_end(const Options& opts, Report& report, Checks& checks);

}  // namespace pb
