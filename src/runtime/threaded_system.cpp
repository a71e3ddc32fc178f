#include "runtime/threaded_system.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "obs/alloc.hpp"
#include "obs/timer.hpp"
#include "support/check.hpp"

namespace dlb {

class ThreadedSystem::Worker {
 public:
  Worker(std::uint32_t id, ThreadedSystem& owner, const Trace& trace,
         std::uint64_t seed)
      : id_(id),
        owner_(owner),
        trace_(trace),
        rng_(seed),
        endpoint_(id, owner.config_.delta, owner.faults_on_) {
    // Warm the transaction scratch to its bounds up front: a partner
    // count below delta early on must not leave a short vector that
    // reallocates the first time every partner accepts late in a run.
    partners_.reserve(owner_.config_.delta);
    outbox_.reserve(owner_.config_.delta + 1);
    drain_buf_.reserve(2 * static_cast<std::size_t>(owner_.processors_));
    if (owner_.faults_on_) {
      links_.resize(owner_.processors_);
      held_.resize(owner_.processors_);
      for (std::uint32_t d = 0; d < owner_.processors_; ++d)
        links_[d].reset(owner_.config_.faults.seed, static_cast<int>(id_),
                        static_cast<int>(d),
                        owner_.config_.faults.default_link);
    }
  }

  void operator()() {
    const std::int64_t crash_at =
        owner_.faults_on_
            ? owner_.config_.faults.crash_step(static_cast<int>(id_))
            : -1;
    const bool track_allocs = owner_.metrics_ != nullptr;
    obs::AllocPhase alloc_phase;
    if (track_allocs) alloc_phase.rebase();
    for (std::uint32_t t = 0; t < trace_.horizon(); ++t) {
      if (crash_at >= 0 && crash_at == static_cast<std::int64_t>(t)) {
        die();
        return;
      }
      // Serve any pending invites before acting, so heavily loaded
      // threads cannot starve their partners.
      drain_mailbox();
      const WorkEvent ev = trace_.at(id_, t);
      if (ev.generate) {
        ++load_;
        ++stats_.generated;
      }
      if (ev.consume) {
        if (load_ > 0) {
          --load_;
          ++stats_.consumed;
        } else {
          ++stats_.consume_failures;
        }
      }
      maybe_balance();
      if (owner_.faults_on_)
        owner_.journal_.observe(
            id_, t, load_, static_cast<std::int64_t>(stats_.generated),
            static_cast<std::int64_t>(stats_.consumed));
      if (track_allocs)
        alloc_.note(static_cast<std::int64_t>(t), alloc_phase.take());
    }
    // Finished our own demand: release delayed in-flight messages, then
    // keep serving transactions from slower threads until everyone is
    // done and the mailbox is closed.
    flush_held();
    owner_.mark_done();
    while (auto msg = owner_.mailboxes_[id_]->recv()) serve(*msg);
    // Transactions served while idling are steady-state work too;
    // account them against the final step so nothing hides post-loop.
    if (track_allocs && trace_.horizon() > 0)
      alloc_.note(static_cast<std::int64_t>(trace_.horizon()) - 1,
                  alloc_phase.take());
  }

  std::int64_t final_load() const { return load_; }
  /// This thread's counters with its endpoint's transaction outcomes.
  ThreadedStats stats() const {
    ThreadedStats s = stats_;
    const TxnCounters& c = endpoint_.counters();
    s.balance_ops = c.completed;
    s.refusals = c.refusals;
    s.aborted_ops = c.rollbacks;
    s.timeouts = c.timeouts;
    s.lost_packets += c.lost_packets;
    s.lost_load += c.lost_load;
    return s;
  }
  const obs::AllocTally& alloc_tally() const { return alloc_; }

 private:
  using State = TxnEndpoint::State;

  bool is_dead(std::uint32_t p) const {
    return owner_.dead_[p].load(std::memory_order_acquire) != 0;
  }

  /// The owner's trace buffer iff recording is on; null otherwise, so
  /// call sites stay a single pointer check.  Each worker renders as
  /// its own track (tid == processor id).
  obs::TraceBuffer* tracer() const {
    obs::TraceBuffer* t = owner_.trace_;
    return (t != nullptr && t->enabled()) ? t : nullptr;
  }

  /// Scheduled crash: journal-recover the load (drift is declared
  /// lost), raise the dead flag so survivors blacklist us, and stop
  /// participating — held (delayed) messages strand with the crash.
  /// The thread lingers as a silent zombie draining its mailbox until
  /// it closes: it never replies, but it must account Assign deltas that
  /// were in flight toward it when it died (senders that saw the dead
  /// flag account on their side; exactly one side sees each message).
  /// The endpoint is idle at a step boundary, so it treats each Assign
  /// as a stray and declares it lost once.
  void die() {
    if (obs::TraceBuffer* tb = tracer())
      tb->instant("crash", "fault", id_, id_);
    stats_.lost_load += owner_.journal_.on_crash(id_);
    stats_.ranks_dead = 1;
    owner_.dead_[id_].store(1, std::memory_order_release);
    owner_.mark_done();
    while (auto msg = owner_.mailboxes_[id_]->recv())
      if (msg->type == TxnMsgType::Assign)
        endpoint_.on_message(*msg, load_, outbox_);
  }

  /// A lost Assign's delta is load in no one's ledger; everything else
  /// is control traffic.
  void account_lost(const TxnMessage& msg) {
    ++stats_.lost_packets;
    if (msg.type == TxnMsgType::Assign) stats_.lost_load += msg.value;
  }

  void deliver(const TxnMessage& msg) {
    owner_.mailboxes_[msg.to]->send(msg);
  }

  void send(const TxnMessage& msg) {
    const std::uint32_t to = msg.to;
    ++stats_.messages;
    if (!owner_.faults_on_) {
      deliver(msg);
      return;
    }
    if (is_dead(to)) {
      account_lost(msg);
      return;
    }
    const FaultDecision decision = links_[to].next();
    if (decision.drop) {
      account_lost(msg);
      return;
    }
    // A delayed message is released just after the next message that
    // flows on the same link (deterministic reorder per link stream).
    std::optional<TxnMessage> release =
        std::exchange(held_[to], std::nullopt);
    if (decision.delay) {
      held_[to] = msg;
      if (release) deliver(*release);
      return;
    }
    if (decision.duplicate) deliver(msg);
    deliver(msg);
    if (release) deliver(*release);
  }

  /// Sends what the endpoint queued.
  void flush_outbox() {
    for (const TxnMessage& msg : outbox_) send(msg);
    outbox_.clear();
  }

  void flush_held() {
    if (!owner_.faults_on_) return;
    for (std::uint32_t d = 0; d < owner_.processors_; ++d) {
      if (held_[d] && !is_dead(d)) deliver(*held_[d]);
      held_[d].reset();
    }
  }

  /// Next message out of the drained batch, if any.  The transaction
  /// wait loop consults this BEFORE blocking on the mailbox: a partner
  /// locked into one transaction must still see (and refuse) an Invite
  /// that was pulled into the batch just before the lock, exactly as it
  /// would have seen it in the mailbox — otherwise three initiators can
  /// deadlock in a cycle, each waiting on a reply buried in a batch.
  std::optional<TxnMessage> buffered_message() {
    if (drain_pos_ < drain_buf_.size()) return drain_buf_[drain_pos_++];
    return std::nullopt;
  }

  void drain_mailbox() {
    // Batch drain: one mutex round-trip pulls everything queued, then
    // the messages are handled lock-free.  Handling can send (and with
    // faults, deliver to ourselves), so keep draining until a pass
    // comes back empty.  A transaction wait can consume the batch tail
    // itself through buffered_message(), hence the cursor-based walk.
    for (;;) {
      while (auto msg = buffered_message()) serve(*msg);
      drain_buf_.clear();
      drain_pos_ = 0;
      if (owner_.mailboxes_[id_]->drain_into(drain_buf_) == 0) return;
    }
  }

  /// Handles a message that arrives outside a transaction; an accepted
  /// Invite locks us until its Assign lands (or the lock rolls back).
  void serve(const TxnMessage& msg) {
    endpoint_.on_message(msg, load_, outbox_);
    flush_outbox();
    if (endpoint_.state() != State::Locked) return;
    // Span: accepted -> Assign applied (or rollback).  Renders on this
    // worker's track next to the initiator's balance_txn span.
    const obs::ScopedTimer lock_span(nullptr, tracer(), "partner_lock",
                                     "txn", id_, endpoint_.txn());
    await_transaction();
  }

  /// Feeds the endpoint until its open transaction closes.  The wait is
  /// a monotonic deadline that the endpoint decides to re-arm (see
  /// TxnEndpoint::on_message), so the worst-case wait is bounded by
  /// (partners × txn_timeout), not by inbound chatter.  Fault-free
  /// waits block: every reply and Assign is bound to arrive.
  void await_transaction() {
    auto deadline =
        std::chrono::steady_clock::now() + owner_.config_.txn_timeout;
    while (endpoint_.state() != State::Idle) {
      auto msg = buffered_message();
      if (!msg.has_value())
        msg = owner_.faults_on_
                  ? owner_.mailboxes_[id_]->recv_until(deadline)
                  : owner_.mailboxes_[id_]->recv();
      if (msg.has_value()) {
        if (endpoint_.on_message(*msg, load_, outbox_))
          deadline =
              std::chrono::steady_clock::now() + owner_.config_.txn_timeout;
      } else {
        // Silence for a whole deadline, or the mailbox closed: no
        // message is coming.  An initiator's own transaction is always
        // closed before the run can end, so a close finds only locked
        // partners whose initiator already gave up on them.
        if (obs::TraceBuffer* tb = tracer())
          tb->instant(endpoint_.state() == State::Locked ? "txn_abort"
                                                         : "txn_timeout",
                      "fault", id_, endpoint_.txn());
        endpoint_.on_deadline(load_, outbox_);
      }
      flush_outbox();
    }
  }

  void maybe_balance() {
    if (!endpoint_.triggered(load_, owner_.config_.f)) return;
    const std::uint64_t txn =
        (static_cast<std::uint64_t>(id_ + 1) << 32) | ++txn_counter_;
    // Span: whole Invite/Accept-or-Refuse/Assign exchange, histogram
    // threaded.txn_ns when metrics are attached.
    const obs::ScopedTimer txn_span(owner_.txn_hist_, tracer(),
                                    "balance_txn", "txn", id_, txn);
    draw_partners();
    endpoint_.start(txn, partners_, load_, outbox_);
    flush_outbox();
    await_transaction();
  }

  /// Partner draw into the warm partners_ scratch.  Fault-free: the
  /// historical uniform draw over all other processors.  With faults:
  /// dead processors are blacklisted and the draw is redone uniformly
  /// over the survivors, preserving the uniform-choice model restricted
  /// to live processors.
  void draw_partners() {
    if (!owner_.faults_on_) {
      rng_.sample_distinct_into(partners_, owner_.processors_,
                                owner_.config_.delta, id_);
      return;
    }
    std::uint32_t live_others = 0;
    for (std::uint32_t p = 0; p < owner_.processors_; ++p)
      if (p != id_ && !is_dead(p)) ++live_others;
    const std::uint32_t k = std::min(owner_.config_.delta, live_others);
    partners_.clear();
    partners_.reserve(k);
    while (partners_.size() < k) {
      const auto v = static_cast<std::uint32_t>(
          rng_.below(owner_.processors_));
      if (v == id_ || is_dead(v)) continue;
      if (std::find(partners_.begin(), partners_.end(), v) !=
          partners_.end())
        continue;
      partners_.push_back(v);
    }
  }

  std::uint32_t id_;
  ThreadedSystem& owner_;
  const Trace& trace_;
  Rng rng_;
  std::int64_t load_ = 0;
  std::uint64_t txn_counter_ = 0;
  ThreadedStats stats_;
  TxnEndpoint endpoint_;
  // Reusable buffer for the batched mailbox drain (warm across calls)
  // plus the consumption cursor (see buffered_message()).
  std::vector<TxnMessage> drain_buf_;
  std::size_t drain_pos_ = 0;
  // Partner-draw and outbox scratch, and the step loop's allocation
  // tally.
  std::vector<std::uint32_t> partners_;
  std::vector<TxnMessage> outbox_;
  obs::AllocTally alloc_;
  // Fault-mode state (untouched in fault-free runs).
  std::vector<LinkFaultState> links_;
  std::vector<std::optional<TxnMessage>> held_;
};

ThreadedSystem::ThreadedSystem(std::uint32_t processors,
                               ThreadedConfig config)
    : processors_(processors), config_(std::move(config)) {
  DLB_REQUIRE(processors_ >= 2, "threaded system needs >= 2 processors");
  DLB_REQUIRE(config_.delta >= 1 && config_.delta < processors_,
              "delta out of range");
  DLB_REQUIRE(config_.f > 1.0, "threaded runtime requires f > 1");
  DLB_REQUIRE(config_.txn_timeout.count() > 0,
              "transaction timeout must be positive");
  for (const CrashEvent& c : config_.faults.crashes)
    DLB_REQUIRE(c.rank >= 0 &&
                    c.rank < static_cast<int>(processors_),
                "crash rank out of range");
  faults_on_ = config_.faults.enabled();
  dead_ = std::make_unique<std::atomic<std::uint8_t>[]>(processors_);
}

ThreadedSystem::~ThreadedSystem() = default;

bool ThreadedSystem::processor_dead(std::uint32_t p) const {
  DLB_REQUIRE(p < processors_, "processor id out of range");
  return dead_[p].load(std::memory_order_acquire) != 0;
}

void ThreadedSystem::run(const Trace& trace) {
  DLB_REQUIRE(trace.processors() == processors_,
              "trace size must match the system");
  done_count_.store(0, std::memory_order_release);
  for (std::uint32_t p = 0; p < processors_; ++p)
    dead_[p].store(0, std::memory_order_release);
  journal_ = LoadJournal(processors_, config_.faults.journal_interval);
  // Fresh mailboxes per run: closing them is how a run ends.
  mailboxes_.clear();
  for (std::uint32_t p = 0; p < processors_; ++p) {
    mailboxes_.push_back(std::make_unique<Mailbox<TxnMessage>>());
    // Warm the ring past any realistic in-flight depth (each peer keeps
    // at most one transaction open: one Invite plus one Assign toward
    // us, plus our own replies) so steady-state traffic never grows it.
    mailboxes_.back()->reserve(2 * static_cast<std::size_t>(processors_));
  }
  txn_hist_ =
      metrics_ != nullptr ? &metrics_->histogram("threaded.txn_ns") : nullptr;
  if (trace_ != nullptr && trace_->enabled())
    for (std::uint32_t p = 0; p < processors_; ++p)
      trace_->set_thread_name(p, "proc " + std::to_string(p));
  Rng seeder(config_.seed);

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(processors_);
  for (std::uint32_t p = 0; p < processors_; ++p)
    workers.push_back(
        std::make_unique<Worker>(p, *this, trace, seeder.next()));

  std::vector<std::thread> threads;
  threads.reserve(processors_);
  for (auto& worker : workers)
    threads.emplace_back([&worker] { (*worker)(); });

  // Wait until every worker finished its trace column (or died at its
  // scheduled step).  A live worker only increments done_count_ after
  // completing all transactions it initiated, so once the count reaches
  // n no new invite can be sent; messages still queued are served
  // before a closed mailbox reports empty.  Invites addressed to dead
  // workers are reclaimed by the initiator's deadline.  The coordinator
  // sleeps on the count; every increment wakes it to re-check.
  for (std::uint32_t done = done_count_.load(std::memory_order_acquire);
       done < processors_; done = done_count_.load(std::memory_order_acquire))
    done_count_.wait(done, std::memory_order_acquire);
  for (auto& mailbox : mailboxes_) mailbox->close();
  for (auto& thread : threads) thread.join();

  final_loads_.assign(processors_, 0);
  stats_ = ThreadedStats{};
  for (std::uint32_t p = 0; p < processors_; ++p) {
    final_loads_[p] = processor_dead(p) ? journal_.recovered_load(p)
                                        : workers[p]->final_load();
    const ThreadedStats ws = workers[p]->stats();
    stats_.balance_ops += ws.balance_ops;
    stats_.refusals += ws.refusals;
    stats_.messages += ws.messages;
    stats_.consume_failures += ws.consume_failures;
    stats_.generated += ws.generated;
    stats_.consumed += ws.consumed;
    stats_.aborted_ops += ws.aborted_ops;
    stats_.timeouts += ws.timeouts;
    stats_.lost_packets += ws.lost_packets;
    stats_.ranks_dead += ws.ranks_dead;
    stats_.lost_load += ws.lost_load;
  }
  if (recorder_ != nullptr) {
    recorder_->on_fault(FaultEvent::Timeout, stats_.timeouts);
    recorder_->on_fault(FaultEvent::AbortedOp, stats_.aborted_ops);
    recorder_->on_fault(FaultEvent::LostPacket, stats_.lost_packets);
    recorder_->on_fault(FaultEvent::RankDeath, stats_.ranks_dead);
  }
  // Publish the aggregated stats as registry counters.  Done once at the
  // end of the run: the per-worker stats_ structs already accumulate on
  // each thread's own cache line, so the hot paths stay untouched.
  if (metrics_ != nullptr) {
    metrics_->counter("threaded.balance_ops").add(stats_.balance_ops);
    metrics_->counter("threaded.refusals").add(stats_.refusals);
    metrics_->counter("threaded.messages").add(stats_.messages);
    metrics_->counter("threaded.consume_failures")
        .add(stats_.consume_failures);
    metrics_->counter("threaded.generated").add(stats_.generated);
    metrics_->counter("threaded.consumed").add(stats_.consumed);
    metrics_->counter("threaded.fault.timeouts").add(stats_.timeouts);
    metrics_->counter("threaded.fault.aborted_ops").add(stats_.aborted_ops);
    metrics_->counter("threaded.fault.lost_packets")
        .add(stats_.lost_packets);
    metrics_->counter("threaded.fault.ranks_dead").add(stats_.ranks_dead);
    metrics_->gauge("threaded.lost_load").add(stats_.lost_load);
    obs::AllocTally alloc;
    for (const auto& worker : workers) alloc.merge(worker->alloc_tally());
    obs::publish(*metrics_, "threaded", alloc);
  }
}

}  // namespace dlb
