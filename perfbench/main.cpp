// Benchmark driver: one workload, one seed, one pass.
//
//   perfbench_driver --workload <serving|paper>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the untraced pass and prints the end-to-end metrics;
// --trace 1 runs the traced pass and prints the per-layer metrics.  The
// last line of stdout is the JSON result.  Exit code 0 when every
// correctness check passed, 1 when one failed, 2 on bad arguments or an
// unexpected error (no result is printed then).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "layers.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

bool parse(int argc, char** argv, pb::Options& opts) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opts.workload = value;
      have_workload = std::find(pb::kWorkloads.begin(), pb::kWorkloads.end(),
                                value) != pb::kWorkloads.end();
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (!(opts.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opts.trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opts;
  if (!parse(argc, argv, opts)) {
    std::cerr << "usage: perfbench_driver --workload "
                 "<serving|paper> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }
  try {
    pb::Report report;
    pb::Checks checks;
    if (opts.trace)
      pb::run_layers(opts, report, checks);
    else
      pb::run_end_to_end(opts, report, checks);
    for (std::size_t i = 0; i < report.names().size(); ++i)
      checks.expect(std::isfinite(report.values()[i]),
                    report.names()[i] + " is a finite number");
    std::cout << opts.workload << " seed " << opts.seed
              << (opts.trace ? " (traced pass)" : " (untraced pass)") << "\n";
    report.print(std::cout, checks);
    return checks.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "benchmark aborted: " << e.what() << "\n";
    return 2;
  }
}
