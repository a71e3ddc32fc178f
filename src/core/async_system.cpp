#include "core/async_system.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dlb {

AsyncSystem::AsyncSystem(const Topology& topology, AsyncConfig config)
    : topology_(topology),
      config_(config),
      rng_(config.seed),
      loads_(topology.size(), 0),
      deferred_(topology.size()) {
  DLB_REQUIRE(topology_.size() >= 2, "async system needs >= 2 processors");
  DLB_REQUIRE(config_.f > 1.0, "async runtime requires f > 1");
  DLB_REQUIRE(config_.delta >= 1 && config_.delta < topology_.size(),
              "delta out of range");
  DLB_REQUIRE(config_.hop_latency >= 0.0, "latency cannot be negative");
  endpoints_.reserve(topology_.size());
  for (ProcId p = 0; p < topology_.size(); ++p)
    endpoints_.emplace_back(p, config_.delta, /*fault_tolerant=*/false);
}

void AsyncSystem::send_outbox() {
  for (const TxnMessage& msg : outbox_) {
    ++stats_.messages;
    const double latency =
        config_.hop_latency *
        static_cast<double>(topology_.distance(msg.from, msg.to));
    Event ev;
    ev.time = now_ + latency;
    ev.seq = ++seq_;
    ev.app = false;
    ev.proc = msg.to;
    ev.t = 0;
    ev.msg = msg;
    queue_.push(ev);
  }
  outbox_.clear();
}

void AsyncSystem::run(const Trace& trace) {
  DLB_REQUIRE(!used_, "AsyncSystem::run may only be called once");
  used_ = true;
  DLB_REQUIRE(trace.processors() == topology_.size(),
              "trace size must match the topology");

  for (std::uint32_t t = 0; t < trace.horizon(); ++t) {
    for (ProcId p = 0; p < trace.processors(); ++p) {
      const WorkEvent we = trace.at(p, t);
      if (!we.generate && !we.consume) continue;
      Event ev;
      ev.time = static_cast<double>(t);
      ev.seq = ++seq_;
      ev.app = true;
      ev.proc = p;
      ev.t = t;
      queue_.push(ev);
    }
  }

  std::uint32_t next_snapshot = 0;
  snapshots_.reserve(trace.horizon());
  while (!queue_.empty()) {
    const Event ev = queue_.top();
    while (next_snapshot < trace.horizon() &&
           ev.time > static_cast<double>(next_snapshot)) {
      snapshots_.push_back(loads_);
      ++next_snapshot;
    }
    queue_.pop();
    now_ = ev.time;
    if (ev.app) {
      execute_app(ev.proc, ev.t, trace.at(ev.proc, ev.t));
    } else {
      deliver(ev.msg);
    }
  }
  while (next_snapshot < trace.horizon()) {
    snapshots_.push_back(loads_);
    ++next_snapshot;
  }

  // Every transaction must have drained.
  for (ProcId p = 0; p < topology_.size(); ++p) {
    DLB_ENSURE(endpoints_[p].state() == TxnEndpoint::State::Idle,
               "transaction still open after drain");
    DLB_ENSURE(deferred_[p].empty(), "deferred demand lost");
    const TxnCounters& c = endpoints_[p].counters();
    stats_.balance_ops += c.completed;
    stats_.aborted_ops += c.abandoned;
    stats_.refusals += c.refusals;
  }
}

void AsyncSystem::execute_app(ProcId p, std::uint32_t t, WorkEvent ev) {
  if (endpoints_[p].state() == TxnEndpoint::State::Locked) {
    // The processor's load is under negotiation; its demand waits for
    // the assignment (and is replayed in deliver()).
    deferred_[p].emplace_back(t, ev);
    ++stats_.deferred_events;
    return;
  }
  if (ev.generate) {
    loads_[p] += 1;
    ++stats_.generated;
  }
  if (ev.consume) {
    if (loads_[p] > 0) {
      loads_[p] -= 1;
      ++stats_.consumed;
    } else {
      ++stats_.consume_failures;
    }
  }
  maybe_initiate(p);
}

void AsyncSystem::deliver(const TxnMessage& msg) {
  const ProcId p = msg.to;
  TxnEndpoint& endpoint = endpoints_[p];
  const bool was_locked = endpoint.state() == TxnEndpoint::State::Locked;
  const std::int64_t before = loads_[p];
  endpoint.on_message(msg, loads_[p], outbox_);
  // A transaction rewrites a load only when it completes: the
  // initiator's share or a partner's Assign.  Their gains add up to the
  // packets the operation moved.
  if (loads_[p] > before)
    stats_.packets_moved += static_cast<std::uint64_t>(loads_[p] - before);
  send_outbox();
  if (!was_locked || endpoint.state() == TxnEndpoint::State::Locked) return;
  // Released: replay demand that arrived while the processor was locked.
  // The replay itself may initiate a new transaction (execute_app
  // handles all modes), and further deferred events then apply
  // immediately.
  std::vector<std::pair<std::uint32_t, WorkEvent>> pending;
  pending.swap(deferred_[p]);
  for (const auto& [t, ev] : pending) execute_app(p, t, ev);
}

void AsyncSystem::maybe_initiate(ProcId p) {
  if (!endpoints_[p].triggered(loads_[p], config_.f)) return;
  const std::uint64_t txn = ++txn_counter_;
  std::vector<ProcId> partners;
  if (config_.partner_radius == 0) {
    partners = rng_.sample_distinct(topology_.size(), config_.delta, p);
  } else {
    std::vector<ProcId> ball;
    for (ProcId v = 0; v < topology_.size(); ++v) {
      if (v != p && topology_.distance(p, v) <= config_.partner_radius)
        ball.push_back(v);
    }
    DLB_ENSURE(!ball.empty(), "neighborhood contains no candidates");
    if (ball.size() <= config_.delta) {
      partners = ball;
    } else {
      for (std::uint32_t k : rng_.sample_distinct(
               static_cast<std::uint32_t>(ball.size()), config_.delta,
               static_cast<std::uint32_t>(ball.size() + 1)))
        partners.push_back(ball[k]);
    }
  }
  endpoints_[p].start(txn, partners, loads_[p], outbox_);
  send_outbox();
}

}  // namespace dlb
