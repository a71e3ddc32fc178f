// Measurement plumbing shared by the benchmark passes: clocks, process
// resource readings, order statistics, the correctness ledger and the
// one-line JSON result the benchmark prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// User + system CPU seconds of this process (all threads) plus every
/// child it has reaped (the forked socket ranks).
double cpu_seconds();

/// Peak resident set of this process, and of its largest reaped child,
/// in MB.
double self_peak_rss_mb();
double child_peak_rss_mb();

/// Order statistics over a copy of the samples (empty input reads 0).
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Correctness ledger: every check the benchmark makes is counted, and a
/// failed one is described on stderr.  Exceptions thrown by the program
/// under test (its contract errors) count as failed checks too.
class Checks {
 public:
  /// Records one check; returns `ok`.
  bool expect(bool ok, const std::string& what);

  /// Runs `body`; an escaping exception is one failed check.
  template <class F>
  bool guard(const std::string& what, F&& body) {
    try {
      body();
      return expect(true, what);
    } catch (const std::exception& e) {
      return expect(false, what + ": " + e.what());
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool ok() const { return failed_ == 0; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Packet accounting of one finished pass, as read from the program's
/// public counters.  Kept as plain numbers so the check can be fed a
/// corrupted account in the self-test.
struct Account {
  std::int64_t generated = 0;
  std::int64_t consumed = 0;
  std::int64_t load_sum = 0;           // sum of the final per-processor loads
  // Generations the input contained; -1 when it fixes none (live
  // sampling draws them during the run).
  std::int64_t expected_generated = -1;
};

/// load_sum == generated - consumed, and every generation in the input
/// (when it fixes them) was taken.
void check_conservation(Checks& checks, const Account& account,
                        const std::string& what);

/// The benchmark's result: named metrics with units, printed as a
/// human-readable table followed by the one-line JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// A line for the table only (sample counts, context), not a metric.
  void note(const std::string& line) { notes_.push_back(line); }
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<double>& values() const { return values_; }

  /// Writes the table, then the JSON line (always the last line).
  void print(std::ostream& os, const Checks& checks) const;

 private:
  std::vector<std::string> names_;
  std::vector<double> values_;
  std::vector<std::string> units_;
  std::vector<std::string> notes_;
};

}  // namespace pb
