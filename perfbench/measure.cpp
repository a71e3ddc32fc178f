#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>

namespace pb {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}

rusage usage(int who) {
  rusage u{};
  ::getrusage(who, &u);
  return u;
}

}  // namespace

double cpu_seconds() {
  const rusage self = usage(RUSAGE_SELF);
  const rusage kids = usage(RUSAGE_CHILDREN);
  return tv_seconds(self.ru_utime) + tv_seconds(self.ru_stime) +
         tv_seconds(kids.ru_utime) + tv_seconds(kids.ru_stime);
}

double self_peak_rss_mb() {
  return static_cast<double>(usage(RUSAGE_SELF).ru_maxrss) / 1024.0;
}

double child_peak_rss_mb() {
  return static_cast<double>(usage(RUSAGE_CHILDREN).ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "check failed: " << what << "\n";
  }
  return ok;
}

void check_conservation(Checks& checks, const Account& account,
                        const std::string& what) {
  checks.expect(account.load_sum == account.generated - account.consumed,
                what + ": final loads " + std::to_string(account.load_sum) +
                    " != generated " + std::to_string(account.generated) +
                    " - consumed " + std::to_string(account.consumed));
  if (account.expected_generated < 0) return;
  checks.expect(account.generated == account.expected_generated,
                what + ": generated " + std::to_string(account.generated) +
                    " of " + std::to_string(account.expected_generated) +
                    " input generations");
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  names_.push_back(name);
  values_.push_back(value);
  units_.push_back(unit);
}

void Report::print(std::ostream& os, const Checks& checks) const {
  char buf[160];
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "  %-32s %16.6g %s\n", names_[i].c_str(),
                  values_[i], units_[i].c_str());
    os << buf;
  }
  for (const std::string& line : notes_) os << "  (" << line << ")\n";
  os << "{\"correct\": " << (checks.ok() ? "true" : "false")
     << ", \"attempted\": " << checks.attempted()
     << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    // JSON has no NaN/Inf; a non-finite reading is already a failed
    // check (see main), so it prints as 0 rather than as invalid JSON.
    const double v = std::isfinite(values_[i]) ? values_[i] : 0.0;
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", names_[i].c_str(), v,
                  units_[i].c_str());
    os << buf;
  }
  os << "}}" << std::endl;
}

}  // namespace pb
