#include "workload/schedule.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dlb {

ActiveSchedule::ActiveSchedule(const Workload& workload)
    : horizon_(workload.horizon()) {
  compile(workload, 0, workload.processors(), 1);
}

ActiveSchedule ActiveSchedule::strided(const Workload& workload,
                                       std::uint32_t offset,
                                       std::uint32_t stride) {
  DLB_REQUIRE(stride >= 1, "schedule stride must be at least 1");
  DLB_REQUIRE(offset < stride, "schedule offset must be below the stride");
  ActiveSchedule schedule;
  schedule.horizon_ = workload.horizon();
  schedule.compile(workload, offset, workload.processors(), stride);
  return schedule;
}

namespace {

// Stable counting sort by step: boundaries with step < steps land grouped
// by step, keeping their input order within a step.  O(items + steps);
// the count array is transient, and every run visits all steps anyway.
template <class Boundary>
void bucket_by_step(std::vector<Boundary>& items, std::size_t steps) {
  std::vector<std::size_t> start(steps + 1, 0);
  for (const Boundary& b : items) ++start[b.step + 1];
  for (std::size_t t = 1; t < start.size(); ++t) start[t] += start[t - 1];
  std::vector<Boundary> sorted(items.size());
  for (const Boundary& b : items) sorted[start[b.step]++] = b;
  items.swap(sorted);
}

}  // namespace

void ActiveSchedule::compile(const Workload& workload, std::uint32_t first,
                             std::uint32_t end, std::uint32_t step) {
  for (std::uint32_t p = first; p < end; p += step) {
    for (const Phase& ph : workload.phases_of(p)) {
      if (ph.generate_prob == 0.0 && ph.consume_prob == 0.0)
        continue;  // silent phase: no draws, no events (see header)
      if (ph.start >= horizon_) continue;  // never reached
      adds_.push_back(
          Addition{ph.start, p, ph.generate_prob, ph.consume_prob});
      // The run loop only visits t < horizon, so clamp the removal step
      // to horizon (also avoids end+1 overflow for end == UINT32_MAX).
      const auto rem_step = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(ph.end, horizon_ - 1) + 1);
      rems_.push_back(Removal{rem_step, p});
    }
  }
  // Boundaries were appended in ascending processor order, so a stable
  // bucket pass by step yields (step, proc) order.  The pairs are unique
  // per list: a processor's phases are disjoint, so it contributes at
  // most one add and one remove per step.  Add steps are < horizon,
  // removal steps <= horizon.
  bucket_by_step(adds_, horizon_);
  bucket_by_step(rems_, static_cast<std::size_t>(horizon_) + 1);
}

void ActiveSchedule::reset() {
  add_i_ = 0;
  rem_i_ = 0;
  next_t_ = 0;
  active_.clear();
}

const std::vector<ActiveSchedule::Entry>& ActiveSchedule::advance(
    std::uint32_t t) {
  DLB_REQUIRE(t == next_t_, "schedule must advance one step at a time");
  DLB_REQUIRE(t < horizon_, "step beyond the workload horizon");
  ++next_t_;
  const std::size_t a0 = add_i_;
  const std::size_t r0 = rem_i_;
  while (add_i_ < adds_.size() && adds_[add_i_].step == t) ++add_i_;
  while (rem_i_ < rems_.size() && rems_[rem_i_].step == t) ++rem_i_;
  if (a0 == add_i_ && r0 == rem_i_) return active_;  // no boundary at t

  // Three-way merge (old active \ removals) ∪ additions, all ascending
  // by processor.  A processor in both lists hands off from its ended
  // phase to the one starting this step.
  scratch_.clear();
  std::size_t i = 0;
  std::size_t a = a0;
  std::size_t r = r0;
  while (i < active_.size() || a < add_i_) {
    if (a == add_i_ ||
        (i < active_.size() && active_[i].proc < adds_[a].proc)) {
      if (r < rem_i_ && rems_[r].proc == active_[i].proc) {
        ++r;  // phase ended, nothing starts: drop
      } else {
        scratch_.push_back(active_[i]);
      }
      ++i;
    } else if (i == active_.size() || adds_[a].proc < active_[i].proc) {
      scratch_.push_back(adds_[a].entry());
      ++a;
    } else {
      // Same processor: phases are disjoint, so the old one must end
      // exactly where the new one starts.
      DLB_ENSURE(r < rem_i_ && rems_[r].proc == active_[i].proc,
                 "overlapping phases in the compiled schedule");
      ++r;
      scratch_.push_back(adds_[a].entry());
      ++a;
      ++i;
    }
  }
  DLB_ENSURE(r == rem_i_, "schedule removal without a matching active entry");
  active_.swap(scratch_);
  return active_;
}

}  // namespace dlb
