// Self-test of the benchmark's correctness plumbing: a result corrupted
// in a test double must be reported as an error, in the counts and in
// the printed JSON.  Run by test_perfbench.py; exits non-zero on failure.
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

std::string last_line(const pb::Report& report, const pb::Checks& checks) {
  std::ostringstream os;
  report.print(os, checks);
  std::string text = os.str();
  text.pop_back();  // trailing newline
  return text.substr(text.rfind('\n') + 1);
}

void conservation_mismatch_is_an_error() {
  pb::Checks good;
  pb::check_conservation(good, pb::Account{10, 4, 6, 10}, "balanced");
  expect(good.ok() && good.attempted() == 2, "a conserving account passes");
  pb::Checks live;
  pb::check_conservation(live, pb::Account{10, 4, 6, -1}, "live");
  expect(live.ok() && live.attempted() == 1,
         "an account without an input count checks conservation only");

  // The double: one packet more in the final loads than the counters
  // allow, as a lost write-back would leave it.
  pb::Checks bad;
  pb::check_conservation(bad, pb::Account{10, 4, 7, 10}, "corrupted");
  expect(!bad.ok() && bad.failed() == 1, "a conservation mismatch fails");

  pb::Report report;
  report.add("step_us", 1.5, "us");
  const std::string json = last_line(report, bad);
  expect(json.find("\"correct\": false") != std::string::npos &&
             json.find("\"failed\": 1") != std::string::npos,
         "the JSON result reports the failure: " + json);

  pb::Checks dropped;
  pb::check_conservation(dropped, pb::Account{10, 4, 6, 11}, "dropped");
  expect(dropped.failed() == 1, "an input generation that never ran fails");
}

void broken_socket_run_is_an_error() {
  dlb::Trace trace(pb::kSocketRanks, 2);
  trace.set(0, 0, dlb::WorkEvent{true, false});
  trace.set(1, 1, dlb::WorkEvent{false, true});

  dlb::SocketRunResult run;
  run.exit_codes.assign(pb::kSocketRanks, 0);
  run.report.final_loads = {0, 1, 0, 0};
  run.report.generated = 1;
  run.report.consumed = 0;
  run.report.conserved = true;
  pb::Checks clean;
  pb::check_socket_run(clean, run, trace);
  expect(clean.ok(), "a clean socket run passes");

  dlb::SocketRunResult crashed = run;
  crashed.exit_codes[2] = 70;
  pb::Checks c1;
  pb::check_socket_run(c1, crashed, trace);
  expect(c1.failed() == 1, "a rank exiting non-zero fails");

  dlb::SocketRunResult timed_out = run;
  timed_out.report.recv_timeouts = 1;
  pb::Checks c2;
  pb::check_socket_run(c2, timed_out, trace);
  expect(c2.failed() == 1, "a receive timeout fails");

  dlb::SocketRunResult leaked = run;
  leaked.report.final_loads = {0, 1, 1, 0};
  leaked.report.conserved = false;
  pb::Checks c3;
  pb::check_socket_run(c3, leaked, trace);
  expect(c3.failed() == 2, "a non-conserving run fails both checks");
}

void thrown_contract_error_is_an_error() {
  pb::Checks checks;
  checks.guard("throws", [] { throw std::runtime_error("invariant broken"); });
  checks.guard("returns", [] {});
  expect(checks.attempted() == 2 && checks.failed() == 1,
         "an exception from the program counts as one failed check");
}

}  // namespace

int main() {
  conservation_mismatch_is_an_error();
  broken_socket_run_is_an_error();
  thrown_contract_error_is_an_error();
  if (failures == 0) std::cout << "selftest: all checks behave\n";
  return failures == 0 ? 0 : 1;
}
