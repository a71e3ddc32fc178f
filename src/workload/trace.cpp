#include "workload/trace.hpp"

#include <istream>
#include <ostream>
#include <string>

#include "support/check.hpp"

namespace dlb {

Trace::Trace(std::uint32_t processors, std::uint32_t horizon)
    : processors_(processors),
      horizon_(horizon),
      cells_(static_cast<std::size_t>(processors) * horizon, 0) {
  DLB_REQUIRE(processors >= 1, "trace needs at least one processor");
  DLB_REQUIRE(horizon >= 1, "trace needs a positive horizon");
}

Trace Trace::record(const Workload& workload, Rng& rng) {
  const std::uint32_t n = workload.processors();
  Trace trace(n, workload.horizon());
  // Draws exactly what Workload::sample would, cell by cell, without its
  // per-cell phase search: a processor's phases are sorted and disjoint,
  // so one cursor per processor walks them forward with t.  A cell no
  // phase covers draws nothing and stays zero (see schedule.hpp).
  struct Cursor {
    const Phase* at;
    const Phase* end;
  };
  std::vector<Cursor> cursors(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    const std::vector<Phase>& phases = workload.phases_of(p);
    cursors[p] = {phases.data(), phases.data() + phases.size()};
  }
  for (std::uint32_t t = 0; t < workload.horizon(); ++t) {
    std::uint8_t* const row = trace.cells_.data() + trace.index(0, t);
    for (std::uint32_t p = 0; p < n; ++p) {
      Cursor& cur = cursors[p];
      while (cur.at != cur.end && cur.at->end < t) ++cur.at;
      if (cur.at == cur.end || cur.at->start > t) continue;
      const bool generate = rng.bernoulli(cur.at->generate_prob);
      const bool consume = rng.bernoulli(cur.at->consume_prob);
      row[p] = static_cast<std::uint8_t>((generate ? 1u : 0u) |
                                         (consume ? 2u : 0u));
    }
  }
  return trace;
}

WorkEvent Trace::at(std::uint32_t processor, std::uint32_t t) const {
  DLB_REQUIRE(processor < processors_ && t < horizon_,
              "trace index out of range");
  const std::uint8_t bits = cells_[index(processor, t)];
  return WorkEvent{(bits & 1u) != 0, (bits & 2u) != 0};
}

void Trace::set(std::uint32_t processor, std::uint32_t t, WorkEvent ev) {
  DLB_REQUIRE(processor < processors_ && t < horizon_,
              "trace index out of range");
  cells_[index(processor, t)] = static_cast<std::uint8_t>(
      (ev.generate ? 1u : 0u) | (ev.consume ? 2u : 0u));
}

std::int64_t Trace::net_demand() const {
  return static_cast<std::int64_t>(total_generations()) -
         static_cast<std::int64_t>(total_consume_attempts());
}

std::uint64_t Trace::total_generations() const {
  std::uint64_t total = 0;
  for (std::uint8_t bits : cells_) total += bits & 1u;
  return total;
}

std::uint64_t Trace::total_consume_attempts() const {
  std::uint64_t total = 0;
  for (std::uint8_t bits : cells_) total += (bits >> 1) & 1u;
  return total;
}

void Trace::save(std::ostream& os) const {
  os << processors_ << ' ' << horizon_ << '\n';
  for (std::uint32_t t = 0; t < horizon_; ++t) {
    for (std::uint32_t p = 0; p < processors_; ++p) {
      os << static_cast<char>('0' + cells_[index(p, t)]);
    }
    os << '\n';
  }
}

Trace Trace::load(std::istream& is) {
  std::uint32_t processors = 0;
  std::uint32_t horizon = 0;
  is >> processors >> horizon;
  DLB_REQUIRE(is.good(), "trace header malformed");
  Trace trace(processors, horizon);
  std::string line;
  std::getline(is, line);  // consume end of header line
  for (std::uint32_t t = 0; t < horizon; ++t) {
    std::getline(is, line);
    DLB_REQUIRE(line.size() >= processors, "trace line too short");
    for (std::uint32_t p = 0; p < processors; ++p) {
      const char c = line[p];
      DLB_REQUIRE(c >= '0' && c <= '3', "trace cell malformed");
      trace.cells_[trace.index(p, t)] = static_cast<std::uint8_t>(c - '0');
    }
  }
  return trace;
}

}  // namespace dlb
