#include "core/system.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "core/balance.hpp"
#include "core/scratch.hpp"
#include "obs/alloc.hpp"
#include "obs/timer.hpp"
#include "support/check.hpp"
#include "workload/schedule.hpp"

namespace dlb {

System::System(std::uint32_t processors, BalancerConfig config,
               std::uint64_t seed, const Topology* topology)
    : config_(config),
      topology_(topology),
      rng_(seed),
      costs_(topology) {
  config_.validate(processors);
  if (topology_ != nullptr) {
    DLB_REQUIRE(topology_->size() == processors,
                "topology size must match the processor count");
  }
  procs_.reserve(processors);
  for (std::uint32_t p = 0; p < processors; ++p)
    procs_.emplace_back(processors);
}

void System::attach_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    m_ = SystemMetrics{};
    return;
  }
  m_.generated = &registry->counter("system.generated");
  m_.consumed = &registry->counter("system.consumed");
  m_.balance_ops = &registry->counter("system.balance_ops");
  m_.packets_moved = &registry->counter("system.packets_moved");
  m_.borrow_total = &registry->counter("system.borrow.total");
  m_.borrow_remote = &registry->counter("system.borrow.remote");
  m_.borrow_fail = &registry->counter("system.borrow.fail");
  m_.decrease_sim = &registry->counter("system.borrow.decrease_sim");
  m_.settlements = &registry->counter("system.settlements");
  m_.active_procs = &registry->gauge("system.active_procs");
  m_.step_active = &registry->histogram("system.step.active");
  m_.balance_ns = &registry->histogram("system.balance_ns");
}

void System::note_active(std::size_t active) {
  if (metrics_ == nullptr) return;
  m_.active_procs->set(static_cast<std::int64_t>(active));
  m_.step_active->record(static_cast<std::uint64_t>(active));
}

void System::restrict_partners_to_neighborhood(unsigned radius) {
  DLB_REQUIRE(topology_ != nullptr,
              "neighborhood partner choice needs a topology");
  DLB_REQUIRE(radius >= 1, "neighborhood radius must be at least 1");
  partner_radius_ = radius;
}

const ProcessorState& System::processor(std::uint32_t p) const {
  DLB_REQUIRE(p < processors(), "processor id out of range");
  return procs_[p];
}

std::vector<std::int64_t> System::loads() const {
  std::vector<std::int64_t> out;
  loads_into(out);
  return out;
}

void System::loads_into(std::vector<std::int64_t>& out) const {
  out.resize(processors());
  for (std::uint32_t p = 0; p < processors(); ++p)
    out[p] = procs_[p].ledger.real_load();
}

std::int64_t System::load(std::uint32_t p) const {
  DLB_REQUIRE(p < processors(), "processor id out of range");
  return procs_[p].ledger.real_load();
}

std::int64_t System::total_load() const {
  std::int64_t total = 0;
  for (const auto& st : procs_) total += st.ledger.real_load();
  return total;
}

void System::run(const Workload& workload) {
  DLB_REQUIRE(workload.processors() == processors(),
              "workload size must match the system");
  ActiveSchedule schedule(workload);
  // Sampled events of the step's active processors (ascending).  Two
  // passes per step — sample everything, then apply — because the
  // reference loop draws all of a step's workload randomness before any
  // balancing randomness; interleaving would reorder the RNG stream.
  std::vector<std::pair<std::uint32_t, WorkEvent>> events;
  // Pre-sized to the bound (one slot per active processor) so the
  // occupancy high-water mark never grows the vector mid-run.  reserve
  // touches no pages: only the slots a step writes become resident.
  events.reserve(processors());
  warm_thread_scratch();
  // Per-step allocation accounting (DESIGN.md §11): sampled only with
  // metrics attached, so the detached hot loop pays nothing.
  const bool track_allocs = metrics_ != nullptr;
  obs::AllocPhase alloc_phase;
  obs::AllocTally alloc_tally;
  if (track_allocs) alloc_phase.rebase();
  for (std::uint32_t t = 0; t < workload.horizon(); ++t) {
    obs::ScopedTimer step_span(nullptr, trace_, "step", "step", 0, t);
    const std::vector<ActiveSchedule::Entry>& entries = schedule.advance(t);
    note_active(entries.size());
    // Branch-free compaction: every entry is written, and the output index
    // advances only past the ones that drew an event — no data-dependent
    // branch on two coin flips per processor.
    if (events.size() < entries.size()) events.resize(entries.size());
    std::size_t drawn = 0;
    for (const ActiveSchedule::Entry& e : entries) {
      WorkEvent ev;
      ev.generate = rng_.bernoulli(e.generate_prob);
      ev.consume = rng_.bernoulli(e.consume_prob);
      events[drawn] = {e.proc, ev};
      drawn += static_cast<std::size_t>(ev.generate | ev.consume);
    }
    StepCounters counters;
    for (std::size_t i = 0; i < drawn; ++i) {
      const auto& [p, ev] = events[i];
      if (ev.generate) generate(p, rng_, counters);
      if (ev.consume) consume(p, rng_, counters);
    }
    commit(counters);
    if (post_step_check_) check_invariants();
    emit_loads(t);
    if (track_allocs)
      alloc_tally.note(static_cast<std::int64_t>(t), alloc_phase.take());
  }
  if (track_allocs) obs::publish(*metrics_, "system", alloc_tally);
}

void System::run_reference(const Workload& workload) {
  DLB_REQUIRE(workload.processors() == processors(),
              "workload size must match the system");
  std::vector<WorkEvent> events(processors());
  for (std::uint32_t t = 0; t < workload.horizon(); ++t) {
    for (std::uint32_t p = 0; p < processors(); ++p)
      events[p] = workload.sample(p, t, rng_);
    step(t, events);
  }
}

void System::run(const Trace& trace) {
  DLB_REQUIRE(trace.processors() == processors(),
              "trace size must match the system");
  warm_thread_scratch();
  std::vector<WorkEvent> events(processors());
  for (std::uint32_t t = 0; t < trace.horizon(); ++t) {
    for (std::uint32_t p = 0; p < processors(); ++p)
      events[p] = trace.at(p, t);
    step(t, events);
  }
}

void System::step(std::uint32_t t, const std::vector<WorkEvent>& events) {
  DLB_REQUIRE(events.size() == processors(),
              "one event per processor required");
  StepCounters counters;
  for (std::uint32_t p = 0; p < processors(); ++p) {
    if (events[p].generate) generate(p, rng_, counters);
    if (events[p].consume) consume(p, rng_, counters);
  }
  commit(counters);
  if (post_step_check_) check_invariants();
  emit_loads(t);
}

void System::touch_load(std::uint32_t p) {
  if (loads_cache_valid_) loads_cache_[p] = procs_[p].ledger.real_load();
}

void System::emit_loads(std::uint32_t t) {
  if (recorder_ == nullptr) return;
  if (!loads_cache_valid_ || loads_cache_.size() != processors()) {
    // One full rebuild when a recorder first observes this system; from
    // then on touch_load keeps the snapshot current incrementally.
    loads_cache_.resize(processors());
    for (std::uint32_t p = 0; p < processors(); ++p)
      loads_cache_[p] = procs_[p].ledger.real_load();
    loads_cache_valid_ = true;
  }
  // Recorders only observe the loads for the duration of the call (see
  // Recorder::on_loads), so handing them the live cache is safe.
  recorder_->on_loads(t, loads_cache_);
}

void System::commit(const StepCounters& counters) {
  generated_.add(counters.generated);
  consumed_.add(counters.consumed);
  if (metrics_ != nullptr) {
    m_.generated->add(counters.generated);
    m_.consumed->add(counters.consumed);
  }
  for (std::uint64_t i = 0; i < counters.total_borrows; ++i)
    emit_borrow_event(BorrowEvent::TotalBorrow);
}

void System::raise_total_borrows(StepCounters& counters) {
  for (; counters.total_borrows > 0; --counters.total_borrows)
    emit_borrow_event(BorrowEvent::TotalBorrow);
}

void System::generate(std::uint32_t p) {
  StepCounters counters;
  generate(p, rng_, counters);
  commit(counters);
}

void System::generate(std::uint32_t p, Rng& rng, StepCounters& counters) {
  generate_packet(p, rng, counters);
  maybe_balance(p, rng);
}

void System::generate_packet(std::uint32_t p, Rng& rng,
                             StepCounters& counters) {
  DLB_REQUIRE(p < processors(), "processor id out of range");
  Ledger& ledger = procs_[p].ledger;
  if (ledger.borrowed_total() > 0) {
    // Appendix generate path: a new packet is booked against an
    // outstanding debt (the marker becomes a real packet of its class).
    // marked_classes() is ascending, matching the class order the dense
    // scan produced, so the drawn index maps to the same class.
    const std::span<const std::uint32_t> marked = ledger.marked_classes();
    const std::uint32_t j =
        marked[static_cast<std::size_t>(rng.below(marked.size()))];
    ledger.repay_with_generation(j);
  } else {
    ledger.add_real(p, 1);
  }
  ++counters.generated;
  touch_load(p);
}

bool System::consume(std::uint32_t p) {
  StepCounters counters;
  const bool ok = consume(p, rng_, counters);
  commit(counters);
  return ok;
}

bool System::consume(std::uint32_t p, Rng& rng, StepCounters& counters) {
  const ConsumeLocal result = consume_packet(p, rng, counters);
  raise_total_borrows(counters);
  switch (result) {
    case ConsumeLocal::ConsumedOwn:
      maybe_balance(p, rng);
      return true;
    case ConsumeLocal::ConsumedBorrow:
      return true;
    case ConsumeLocal::Failed:
      return false;
    case ConsumeLocal::NeedsSettle:
      break;
  }
  // Capacity exhausted or every held class already carries a marker:
  // settle outstanding debts, then retry once.
  settle_debts(p, rng);
  const bool ok = try_borrow(p, rng, counters);
  raise_total_borrows(counters);
  return ok;
}

System::ConsumeLocal System::consume_packet(std::uint32_t p, Rng& rng,
                                            StepCounters& counters) {
  DLB_REQUIRE(p < processors(), "processor id out of range");
  Ledger& ledger = procs_[p].ledger;
  if (ledger.real_load() == 0) return ConsumeLocal::Failed;  // nothing held
  if (ledger.d(p) >= 1) {
    ledger.remove_real(p, 1);
    ++counters.consumed;
    touch_load(p);
    return ConsumeLocal::ConsumedOwn;
  }
  if (try_borrow(p, rng, counters)) return ConsumeLocal::ConsumedBorrow;
  // If there are no markers to settle nothing can free capacity (this
  // can only happen with borrow_cap == 0).
  if (ledger.borrowed_total() == 0) return ConsumeLocal::Failed;
  return ConsumeLocal::NeedsSettle;
}

bool System::try_borrow(std::uint32_t p, Rng& rng, StepCounters& counters) {
  Ledger& ledger = procs_[p].ledger;
  if (ledger.borrowed_total() >=
      static_cast<std::int64_t>(config_.borrow_cap))
    return false;
  // Candidates {j : d[j] > 0, b[j] == 0} enumerated over the active
  // classes only — ascending, like the dense scan, so the drawn index
  // maps to the same class.  Counted, drawn, then found again by rank:
  // no candidate list is materialized.
  const std::span<const std::uint32_t> active = ledger.active_classes();
  const std::span<const std::int64_t> d_counts = ledger.active_d();
  const std::span<const std::int64_t> b_counts = ledger.active_b();
  std::size_t candidates = 0;
  for (std::size_t i = 0; i < active.size(); ++i)
    if (d_counts[i] > 0 && b_counts[i] == 0) ++candidates;
  if (candidates == 0) return false;
  auto rank = static_cast<std::size_t>(rng.below(candidates));
  std::size_t i = 0;
  for (;; ++i) {
    if (d_counts[i] > 0 && b_counts[i] == 0) {
      if (rank == 0) break;
      --rank;
    }
  }
  const std::uint32_t j = active[i];
  ledger.borrow(j);
  ++counters.consumed;
  ++counters.total_borrows;
  touch_load(p);
  return true;
}

void System::settle_debts(std::uint32_t p, Rng& rng) {
  if (metrics_ != nullptr) m_.settlements->add(1);
  if (trace_ != nullptr) trace_->instant("settle", "borrow", 0, p);
  Ledger& ledger = procs_[p].ledger;
  const std::span<const std::uint32_t> marked = ledger.marked_classes();
  DLB_ENSURE(!marked.empty(), "settle_debts without outstanding markers");
  const std::uint32_t j =
      marked[static_cast<std::size_t>(rng.below(marked.size()))];
  if (j == p) {
    // A marker of p's own class can be settled locally: the deferred
    // virtual decrease of class p is realized on the spot ([D6]).
    ledger.clear_marker(j);
    emit_borrow_event(BorrowEvent::DecreaseSim);
    maybe_balance(p, rng);
    return;
  }
  if (procs_[j].ledger.d(j) > 0) {
    remote_exchange(p, j, rng);
  } else {
    resolve_empty_generator(p, j, rng);
  }
}

void System::remote_exchange(std::uint32_t p, std::uint32_t j, Rng& rng) {
  emit_borrow_event(BorrowEvent::RemoteBorrow);
  Ledger& debtor = procs_[p].ledger;
  Ledger& generator = procs_[j].ledger;
  const std::int64_t x =
      std::min(generator.d(j), debtor.borrowed_total());
  DLB_ENSURE(x >= 1, "remote exchange with nothing to exchange");
  // x real class-j packets migrate from their generator to p, replacing
  // x of p's borrow markers (class j's markers first) — [D4].
  generator.remove_real(j, x);
  debtor.add_real(j, x);
  touch_load(p);
  touch_load(j);
  costs_.record_migration(j, p, static_cast<std::uint64_t>(x));
  costs_.record_net_migration(static_cast<std::uint64_t>(x));
  if (MigrationSink* sink = migration_sink())
    sink->on_migration(j, p, static_cast<std::uint64_t>(x));
  std::int64_t to_clear = x;
  if (debtor.b(j) > 0) {
    debtor.clear_marker(j);
    --to_clear;
  }
  // Remaining markers are cleared smallest class first, the order the
  // dense ascending scan used.
  while (to_clear > 0) {
    const std::uint32_t k = debtor.first_marked_class();
    DLB_ENSURE(k < processors(), "failed to clear the exchanged markers");
    debtor.clear_marker(k);
    --to_clear;
  }
  // j's self-generated load dropped by x: simulate the workload decrease
  // (at most one balancing operation, as required by §4).
  emit_borrow_event(BorrowEvent::DecreaseSim);
  maybe_balance(j, rng);
}

void System::resolve_empty_generator(std::uint32_t p, std::uint32_t j,
                                     Rng& rng) {
  emit_borrow_event(BorrowEvent::BorrowFail);
  // [D5] The generator j holds none of its own packets.  It first runs a
  // balancing operation with delta random partners, which pulls class-j
  // packets (or markers) toward j.
  {
    detail::ScratchVecLease partners;
    draw_partners(j, rng, *partners);
    balance(j, *partners, rng);
  }
  if (procs_[j].ledger.d(j) > 0 && procs_[p].ledger.borrowed_total() > 0) {
    remote_exchange(p, j, rng);
    return;
  }
  // Still empty: a balancing operation initiated by p spreads p's load
  // and markers across a fresh random set, after which p can borrow
  // again (§4: "in any case processor i is allowed to borrow some new
  // load packets ... or has received some of his own load packets").
  detail::ScratchVecLease partners;
  draw_partners(p, rng, *partners);
  balance(p, *partners, rng);
}

void System::draw_partners(std::uint32_t initiator, Rng& rng,
                           std::vector<ProcId>& out) {
  const std::uint32_t n = processors();
  if (!partner_radius_.has_value()) {
    rng.sample_distinct_into(out, n, config_.delta, initiator);
    return;
  }
  // Locality ablation: partners from the topology ball around initiator.
  detail::ScratchVecLease ball;
  for (ProcId v = 0; v < n; ++v) {
    if (v == initiator) continue;
    if (topology_->distance(initiator, v) <= *partner_radius_)
      ball->push_back(v);
  }
  DLB_ENSURE(!ball->empty(), "neighborhood contains no candidates");
  if (ball->size() <= config_.delta) {
    out.assign(ball->begin(), ball->end());
    return;
  }
  detail::ScratchVecLease idx;
  rng.sample_distinct_into(*idx, static_cast<std::uint32_t>(ball->size()),
                           config_.delta,
                           static_cast<std::uint32_t>(ball->size() + 1));
  out.clear();
  out.reserve(config_.delta);
  for (std::uint32_t k : *idx) out.push_back((*ball)[k]);
}

bool System::trigger_fires(std::uint32_t p) const {
  const ProcessorState& st = procs_[p];
  const std::int64_t d_now = st.ledger.d(p);
  const auto d_self = static_cast<double>(d_now);
  const auto old = static_cast<double>(st.l_old);
  // [D1] factor-f drift triggers with strict-change guards so f == 1 (or
  // an unchanged load) cannot retrigger immediately after a balance.
  const bool grew =
      d_now > st.l_old && d_self >= config_.f * old && d_now >= 1;
  const bool shrank =
      d_now < st.l_old && st.l_old >= 1 && d_self <= old / config_.f;
  return grew || shrank;
}

void System::maybe_balance(std::uint32_t p, Rng& rng) {
  if (!trigger_fires(p)) return;
  detail::ScratchVecLease partners;
  draw_partners(p, rng, *partners);
  balance(p, *partners, rng);
}

namespace {

// One warm buffer set per thread: the sequential drivers use one, the
// async shards one each (their balancing operations run concurrently).
// balance_deal never re-enters itself — recursion happens only through
// the follow-up cancels outside it — so a single per-thread set suffices.
BalanceScratch& balance_scratch() {
  thread_local BalanceScratch scratch;
  return scratch;
}

}  // namespace

void System::warm_thread_scratch() {
  const std::size_t m = static_cast<std::size_t>(config_.delta) + 1;
  balance_scratch().reserve_bounds(m, processors());
  // Depth 8 covers every balance → cancel → re-balance chain seen in
  // practice; a deeper chain merely re-warms lazily at that depth.
  detail::warm_scratch_vec_pool(8, config_.delta);
}

void System::balance(std::uint32_t initiator,
                     const std::vector<ProcId>& partners, Rng& rng) {
  balance_deal(initiator, partners, rng, costs_, nullptr);
  // [D6] markers of a participant's own class are settled on the spot.
  cancel_self_markers(initiator, rng);
  for (ProcId q : partners) cancel_self_markers(q, rng);
}

void System::balance_deal(std::uint32_t initiator,
                          const std::vector<ProcId>& partners, Rng& rng,
                          CostLedger& costs, std::vector<ProcId>* cancel_due,
                          std::uint32_t tid) {
  obs::ScopedTimer balance_span(m_.balance_ns, trace_, "balance_op",
                                "balance", tid, initiator);
  const std::uint32_t n = processors();
  BalanceScratch& scratch = balance_scratch();
  std::vector<ProcId>& participants = scratch.participants;
  participants.clear();
  scratch.ledgers.clear();
  participants.push_back(initiator);
  scratch.ledgers.push_back(&procs_[initiator].ledger);
  for (ProcId q : partners) {
    DLB_REQUIRE(q < n && q != initiator, "invalid balancing partner");
    participants.push_back(q);
    scratch.ledgers.push_back(&procs_[q].ledger);
  }

  DealOptions options;
  options.start = static_cast<std::size_t>(rng.below(participants.size()));
  options.analysis_mode = config_.analysis_mode;
  options.sink = migration_sink();
  const std::uint64_t moved =
      deal_participants(scratch, costs, options).moved;

  // Every participant's local clock ticks and its trigger baseline resets
  // (§4: an operation counts as delta+1 independent operations initiated
  // by each participant).
  for (ProcId q : participants) {
    ProcessorState& st = procs_[q];
    st.l_old = st.ledger.d(q);
    ++st.local_time;
    touch_load(q);
    // [D6] due: the deal left this participant holding markers of its
    // own class.  The sequential wrapper cancels them right here; the
    // async engine routes a cancel to the participant's owner shard.
    if (cancel_due != nullptr && st.ledger.b(q) > 0)
      cancel_due->push_back(q);
  }

  balance_ops_.add(1);
  costs.record_operation(initiator, partners.size());
  if (metrics_ != nullptr) {
    m_.balance_ops->add(1);
    m_.packets_moved->add(moved);
  }
  if (recorder_ != nullptr)
    recorder_->on_balance_op(initiator, partners.size(), moved);
}

void System::cancel_self_markers(std::uint32_t p, Rng& rng) {
  Ledger& ledger = procs_[p].ledger;
  if (ledger.b(p) == 0) return;
  while (ledger.b(p) > 0) ledger.clear_marker(p);
  emit_borrow_event(BorrowEvent::DecreaseSim);
  maybe_balance(p, rng);
}

void System::force_balance(std::uint32_t p) {
  DLB_REQUIRE(p < processors(), "processor id out of range");
  detail::ScratchVecLease partners;
  draw_partners(p, rng_, *partners);
  balance(p, *partners, rng_);
}

void System::emit_borrow_event(BorrowEvent event) {
  if (metrics_ != nullptr) {
    switch (event) {
      case BorrowEvent::TotalBorrow:
        m_.borrow_total->add(1);
        break;
      case BorrowEvent::RemoteBorrow:
        m_.borrow_remote->add(1);
        break;
      case BorrowEvent::BorrowFail:
        m_.borrow_fail->add(1);
        break;
      case BorrowEvent::DecreaseSim:
        m_.decrease_sim->add(1);
        break;
    }
  }
  if (recorder_ != nullptr) recorder_->on_borrow_event(event);
}

void System::check_invariants() const {
  std::int64_t total = 0;
  for (std::uint32_t p = 0; p < processors(); ++p) {
    procs_[p].ledger.check(config_.borrow_cap);
    for (std::uint32_t j : procs_[p].ledger.marked_classes()) {
      DLB_ENSURE(procs_[p].ledger.b(j) <= 1,
                 "more than one marker per class");
    }
    total += procs_[p].ledger.real_load();
  }
  DLB_ENSURE(total == static_cast<std::int64_t>(generated_.get()) -
                          static_cast<std::int64_t>(consumed_.get()),
             "packet conservation violated");
}

}  // namespace dlb
