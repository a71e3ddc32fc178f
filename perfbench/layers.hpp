// The traced pass: per-layer metrics, each taken from outside the
// program with one clock pair around a call into the layer.  It runs
// apart from the untraced pass, so its clocks never touch an end-to-end
// number; README.md maps every metric here to the end-to-end metric and
// workload it should move.
#pragma once

#include "measure.hpp"
#include "workloads.hpp"

namespace pb {

/// Fills `report` with every per-layer metric for `opts.workload` (one of
/// kWorkloads).
void run_layers(const Options& opts, Report& report, Checks& checks);

}  // namespace pb
