// System::run_async — the barrier-free asynchronous sharded step engine.
//
// Sharding with a barrier per step was measured and lost on every sweep
// we run: under sparse demand the barrier waits dominate (DESIGN.md §8).
// The paper's algorithm needs no global round structure — a balancing
// operation touches only its initiator and delta random partners — so
// this driver removes the barrier instead of amortizing it:
//
//   - Shards own processors round-robin (owner = p mod shards, strided
//     ActiveSchedule), so a contiguous hotspot spreads across shards.
//   - Each shard samples and applies the *local* event halves
//     (generate_packet / consume_packet / try_borrow) against its own
//     processors, using its own split RNG stream.
//   - Cross-shard work — balance triggers, self-marker cancels, debt
//     settlements — travels as messages through per-shard-pair SPSC
//     rings (support/spsc_ring.hpp), drained opportunistically.
//   - Global progress ("this epoch / this run is done") is decided by a
//     Dijkstra–Safra token (core/quiescence.hpp), not a barrier.
//
// Two modes share the operation layer:
//
//   Deterministic (default).  Time is split into epochs of
//   options.epoch_steps steps.  Shards run their local phases in
//   parallel, deferring every operation; then the token serializes the
//   operation layer: only the token holder executes (its deferred queue
//   first, then its inbound rings in sender order, with follow-ups
//   pumped in FIFO order), so each shard's slot has exclusive ledger
//   access and the execution order is a pure function of
//   (seed, workload, shards, epoch_steps).  The epoch closes when the
//   token proves quiescence; shard 0 then opens the next epoch.  One
//   token circulation costs a handful of cache-line hand-offs —
//   amortized over epoch_steps steps it replaces 2*epoch_steps barrier
//   waits.
//
//   Relaxed (options.relaxed_order).  Shards free-run the whole horizon
//   and execute operations *inline* under per-processor spinlocks
//   (sorted acquisition, no locks held across operations, re-validation
//   after every re-lock).  Balancing operations on disjoint participant
//   sets — the common case with random partners — run concurrently,
//   which is where the throughput comes from.  The token runs once at
//   the end as pure termination detection.  Reproducibility is
//   explicitly traded away; conservation and ledger invariants still
//   hold and are what the tests pin.
//
// Both modes queue an operation's follow-up work (the [D6] self-marker
// cancels after a deal, the trigger re-check after a remote exchange)
// instead of nesting calls: an operation never holds more than one
// sorted lock set, which is what makes the relaxed mode deadlock-free
// and the deterministic mode's drain order well-defined.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/quiescence.hpp"
#include "core/system.hpp"
#include "obs/alloc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/backoff.hpp"
#include "support/check.hpp"
#include "support/ring_queue.hpp"
#include "support/spsc_ring.hpp"
#include "workload/schedule.hpp"

namespace dlb {

namespace {

// The two-phase pause/yield waiter lives in support/backoff.hpp now
// (shared with the socket transport's receive pump); this engine is its
// original home and heaviest user.

}  // namespace

class AsyncEngine {
 public:
  AsyncEngine(System& sys, const Workload& workload, std::uint32_t shards,
              const AsyncOptions& options)
      : sys_(sys),
        workload_(workload),
        shards_(shards),
        options_(options),
        detector_(shards),
        locks_(sys.processors()) {
    shard_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      // split() draws from the system generator, so the stream layout is
      // fixed by (seed, shards) alone.
      shard_.push_back(std::make_unique<Shard>(
          s, shards, sys_.rng_.split(),
          ActiveSchedule::strided(workload, s, shards), sys_.topology_));
      // Zero-allocation steady state (DESIGN.md §11): reserve the
      // per-shard scratch to its bounds — one sampled event per owned
      // processor, and an op touches at most delta+1 processors — so a
      // run does not depend on the workload hitting each high-water mark
      // early (the allocation would land mid-run, at a schedule-dependent
      // step).  reserve touches no pages.  The fifo is not pre-sized:
      // RingQueue::reserve value-initialises every slot, which costs
      // O(n) page faults per run.
      Shard& sh = *shard_.back();
      const std::uint32_t span = (sys_.processors() + shards - 1) / shards;
      sh.events.reserve(span);
      sh.lock_ids.reserve(sys_.config_.delta + 1);
      sh.partners.reserve(sys_.config_.delta);
      sh.cancel_due.reserve(sys_.config_.delta + 1);
    }
    rings_.resize(static_cast<std::size_t>(shards) * shards);
    for (std::uint32_t from = 0; from < shards; ++from)
      for (std::uint32_t to = 0; to < shards; ++to)
        if (from != to)
          rings_[from * shards + to] =
              std::make_unique<SpscRing<Msg>>(kRingCapacity);
  }

  void run();

 private:
  enum class OpKind : std::uint8_t {
    Trigger,  // balance trigger check due on proc
    Cancel,   // [D6] settle own-class markers left by a deal
    Settle,   // borrow capacity exhausted: settle debts, retry borrow
  };
  struct Msg {
    std::uint32_t proc;
    OpKind kind;
  };

  static constexpr std::size_t kRingCapacity = 1024;
  // Relaxed-mode bound on re-draw attempts when a settlement's state
  // goes stale between lock scopes; deterministic mode never re-draws
  // (the token gives exclusive access).  Giving up leaves the debt
  // standing for a later settle event — conservation is unaffected.
  static constexpr int kMaxSettleRetries = 8;

  struct Shard {
    Shard(std::uint32_t shard_id, std::uint32_t shards, Rng stream,
          ActiveSchedule compiled, const Topology* topology)
        : id(shard_id),
          tid(shard_id + 1),
          rng(stream),
          schedule(std::move(compiled)),
          costs(topology),
          pending(shards) {}

    std::uint32_t id;
    std::uint32_t tid;  // trace track: shard s renders as tid s + 1
    Rng rng;
    ActiveSchedule schedule;
    System::StepCounters counters;
    // Private cost ledger, merged into the system's at the end (the
    // operation layer runs concurrently in relaxed mode).
    CostLedger costs;
    // Sampled events of the current step.
    std::vector<std::pair<std::uint32_t, WorkEvent>> events;
    // Deterministic mode: operations deferred by the local phase, moved
    // into the fifo at the shard's first token slot of the epoch.
    std::vector<Msg> deferred;
    bool deferred_moved = false;
    // Own-shard operation queue (follow-ups and, in relaxed mode, the
    // live event operations), executed in FIFO order.  A growable ring
    // (not a deque): capacity plateaus, so the steady state re-enqueues
    // without touching the allocator.
    RingQueue<Msg> fifo;
    // Per-destination overflow for full rings, flushed FIFO-first so the
    // per-pair message order is preserved.
    std::vector<std::vector<Msg>> pending;
    // Scratch for sorted multi-lock acquisition, the partner draw, and
    // [D6] collection.  balance_op never nests within a shard (follow-up
    // work travels as messages), so one buffer each suffices.
    std::vector<std::uint32_t> lock_ids;
    std::vector<ProcId> partners;
    std::vector<ProcId> cancel_due;
    // Heap-allocation accounting of this shard's step loop (merged and
    // published by the epilogue when metrics are attached).
    obs::AllocTally alloc;
    std::uint64_t ops = 0;   // operations executed
    std::uint64_t msgs = 0;  // cross-shard messages sent
    // Epochs whose local phase finished (deterministic mode fence).
    alignas(64) std::atomic<std::uint64_t> local_done{0};
  };

  // ---- per-processor spinlocks (relaxed mode's exclusivity) ----------

  class ProcLocks {
   public:
    explicit ProcLocks(std::size_t n) : locks_(n) {}
    void lock(std::uint32_t p) {
      Backoff backoff;
      while (locks_[p].exchange(1, std::memory_order_acquire) != 0)
        backoff.wait();
    }
    void unlock(std::uint32_t p) {
      locks_[p].store(0, std::memory_order_release);
    }

   private:
    std::vector<std::atomic<std::uint8_t>> locks_;
  };

  class ScopedLock {
   public:
    ScopedLock(ProcLocks& locks, std::uint32_t p) : locks_(locks), p_(p) {
      locks_.lock(p_);
    }
    ~ScopedLock() { locks_.unlock(p_); }
    ScopedLock(const ScopedLock&) = delete;
    ScopedLock& operator=(const ScopedLock&) = delete;

   private:
    ProcLocks& locks_;
    std::uint32_t p_;
  };

  // Sorted multi-lock over `ids` (deduplicated by the sort being over
  // distinct processors; acquisition in ascending order makes the
  // global lock order consistent, so two concurrent operations can
  // never deadlock).  `ids` is caller-owned scratch that must stay
  // untouched for the guard's lifetime; operation scopes never nest, so
  // one scratch vector per shard suffices.
  class ScopedLockSet {
   public:
    ScopedLockSet(ProcLocks& locks, std::vector<std::uint32_t>& ids)
        : locks_(locks), ids_(ids) {
      std::sort(ids_.begin(), ids_.end());
      for (std::uint32_t p : ids_) locks_.lock(p);
    }
    ~ScopedLockSet() {
      for (auto it = ids_.rbegin(); it != ids_.rend(); ++it)
        locks_.unlock(*it);
    }
    ScopedLockSet(const ScopedLockSet&) = delete;
    ScopedLockSet& operator=(const ScopedLockSet&) = delete;

   private:
    ProcLocks& locks_;
    std::vector<std::uint32_t>& ids_;
  };

  // ---- message plumbing ----------------------------------------------

  std::uint32_t owner(std::uint32_t p) const { return p % shards_; }
  SpscRing<Msg>& ring(std::uint32_t from, std::uint32_t to) {
    return *rings_[static_cast<std::size_t>(from) * shards_ + to];
  }

  // Routes an operation to its processor's owner shard: own shard goes
  // to the local fifo, a remote shard through the ring (with the Safra
  // send accounted *before* the message becomes visible, so the
  // detector can never undercount in-flight work).
  void dispatch(Shard& sh, Msg msg) {
    const std::uint32_t to = owner(msg.proc);
    if (to == sh.id) {
      sh.fifo.push_back(msg);
      return;
    }
    detector_.on_send(sh.id);
    ++sh.msgs;
    auto& pend = sh.pending[to];
    // Pending-first keeps the per-pair FIFO order.
    if (!pend.empty() || !ring(sh.id, to).push(msg)) pend.push_back(msg);
  }

  void flush_pending(Shard& sh) {
    for (std::uint32_t to = 0; to < shards_; ++to) {
      auto& pend = sh.pending[to];
      if (pend.empty()) continue;
      std::size_t i = 0;
      while (i < pend.size() && ring(sh.id, to).push(pend[i])) ++i;
      pend.erase(pend.begin(),
                 pend.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  bool passive(const Shard& sh) const {
    if (!sh.fifo.empty()) return false;
    for (const auto& pend : sh.pending)
      if (!pend.empty()) return false;
    for (std::uint32_t from = 0; from < shards_; ++from)
      if (from != sh.id &&
          !rings_[static_cast<std::size_t>(from) * shards_ + sh.id]->empty())
        return false;
    return true;
  }

  // Executes everything currently runnable: pending flushes, the own
  // fifo, then the inbound rings in sender order with follow-ups pumped
  // before the next message.  Loops until a full pass finds nothing.
  // Deterministic mode calls this only while holding the token, when the
  // ring contents are frozen (every producer executes in its own slot),
  // so the drain order is a pure function of the epoch's operations.
  std::size_t pump(Shard& sh) {
    std::size_t executed = 0;
    for (;;) {
      flush_pending(sh);
      bool did = false;
      while (!sh.fifo.empty()) {
        const Msg msg = sh.fifo.pop_front();
        exec(sh, msg);
        ++executed;
        did = true;
        flush_pending(sh);
      }
      for (std::uint32_t from = 0; from < shards_; ++from) {
        if (from == sh.id) continue;
        Msg msg;
        while (ring(from, sh.id).pop(msg)) {
          detector_.on_receive(sh.id);
          exec(sh, msg);
          ++executed;
          did = true;
          // Follow-ups precede the next inbound message, so the order
          // within a slot is fully determined by the messages alone.
          while (!sh.fifo.empty()) {
            const Msg follow = sh.fifo.pop_front();
            exec(sh, follow);
            ++executed;
          }
          flush_pending(sh);
        }
      }
      if (!did) return executed;
    }
  }

  // ---- the operation layer (shared by both modes) --------------------

  void exec(Shard& sh, Msg msg) {
    ++sh.ops;
    switch (msg.kind) {
      case OpKind::Trigger:
        exec_trigger(sh, msg.proc);
        break;
      case OpKind::Cancel:
        exec_cancel(sh, msg.proc);
        break;
      case OpKind::Settle:
        exec_settle(sh, msg.proc);
        break;
    }
  }

  // Balance trigger check ([D1]) and the deal when it fires.
  void exec_trigger(Shard& sh, std::uint32_t p) {
    {
      ScopedLock guard(locks_, p);
      if (!sys_.trigger_fires(p)) return;
    }
    balance_op(sh, p, /*forced=*/false);
  }

  // A balancing operation initiated by p: draw partners (lock-free),
  // lock the sorted participant set, re-validate the trigger under the
  // lock (relaxed mode: another shard's deal may have reset p's baseline
  // since the peek), deal, then route the [D6] self-marker cancels to
  // the participants' owners.
  void balance_op(Shard& sh, std::uint32_t p, bool forced) {
    sys_.draw_partners(p, sh.rng, sh.partners);
    sh.lock_ids.clear();
    sh.lock_ids.push_back(p);
    for (ProcId q : sh.partners) sh.lock_ids.push_back(q);
    sh.cancel_due.clear();
    {
      ScopedLockSet guard(locks_, sh.lock_ids);
      if (!forced && !sys_.trigger_fires(p)) return;
      sys_.balance_deal(p, sh.partners, sh.rng, sh.costs, &sh.cancel_due,
                        sh.tid);
    }
    for (ProcId q : sh.cancel_due) dispatch(sh, Msg{q, OpKind::Cancel});
  }

  // [D6] q settles markers of its own class on the spot; the simulated
  // load decrease re-checks q's trigger (as a follow-up, not inline).
  void exec_cancel(Shard& sh, std::uint32_t q) {
    {
      ScopedLock guard(locks_, q);
      Ledger& ledger = sys_.procs_[q].ledger;
      if (ledger.b(q) == 0) return;  // already settled meanwhile
      while (ledger.b(q) > 0) ledger.clear_marker(q);
    }
    sys_.emit_borrow_event(BorrowEvent::DecreaseSim);
    dispatch(sh, Msg{q, OpKind::Trigger});
  }

  // Remote exchange [D4] with both ledgers held by the caller; the
  // generator's simulated decrease becomes a Trigger follow-up.
  void remote_exchange_locked(Shard& sh, std::uint32_t p, std::uint32_t j) {
    sys_.emit_borrow_event(BorrowEvent::RemoteBorrow);
    Ledger& debtor = sys_.procs_[p].ledger;
    Ledger& generator = sys_.procs_[j].ledger;
    const std::int64_t x = std::min(generator.d(j), debtor.borrowed_total());
    DLB_ENSURE(x >= 1, "remote exchange with nothing to exchange");
    generator.remove_real(j, x);
    debtor.add_real(j, x);
    sh.costs.record_migration(j, p, static_cast<std::uint64_t>(x));
    sh.costs.record_net_migration(static_cast<std::uint64_t>(x));
    std::int64_t to_clear = x;
    if (debtor.b(j) > 0) {
      debtor.clear_marker(j);
      --to_clear;
    }
    while (to_clear > 0) {
      const std::uint32_t k = debtor.first_marked_class();
      DLB_ENSURE(k < sys_.processors(),
                 "failed to clear the exchanged markers");
      debtor.clear_marker(k);
      --to_clear;
    }
    sys_.emit_borrow_event(BorrowEvent::DecreaseSim);
  }

  // Debt settlement + borrow retry (the deferred form of the sequential
  // consume()'s NeedsSettle branch).  The sequential nesting (settle ->
  // remote exchange -> balance -> ...) is decomposed into a sequence of
  // bounded lock scopes with re-validation after every re-lock;
  // follow-up triggers travel as messages.
  void exec_settle(Shard& sh, std::uint32_t p) {
    bool emitted = false;
    for (int attempt = 0; attempt < kMaxSettleRetries; ++attempt) {
      std::uint32_t j = 0;
      {
        ScopedLock guard(locks_, p);
        Ledger& ledger = sys_.procs_[p].ledger;
        if (ledger.borrowed_total() == 0) break;  // settled meanwhile
        if (!emitted) {
          emitted = true;
          if (sys_.metrics_ != nullptr) sys_.m_.settlements->add(1);
          if (sys_.trace_ != nullptr)
            sys_.trace_->instant("settle", "borrow", sh.tid, p);
        }
        const auto& marked = ledger.marked_classes();
        j = marked[static_cast<std::size_t>(sh.rng.below(marked.size()))];
        if (j == p) {
          // [D6]: a marker of p's own class settles locally.
          ledger.clear_marker(j);
        }
      }
      if (j == p) {
        sys_.emit_borrow_event(BorrowEvent::DecreaseSim);
        dispatch(sh, Msg{p, OpKind::Trigger});
        break;
      }
      bool resolved = false;
      {
        sh.lock_ids.assign({p, j});
        ScopedLockSet guard(locks_, sh.lock_ids);
        Ledger& debtor = sys_.procs_[p].ledger;
        if (debtor.borrowed_total() == 0) break;  // settled meanwhile
        if (debtor.b(j) == 0) continue;           // stale draw: redraw
        if (sys_.procs_[j].ledger.d(j) > 0) {
          remote_exchange_locked(sh, p, j);
          resolved = true;
        }
      }
      if (resolved) {
        dispatch(sh, Msg{j, OpKind::Trigger});
        break;
      }
      // [D5] resolution: class j's generator holds none of its own
      // packets.  A deal initiated by j pulls class-j packets toward it;
      // if that restocked the generator, exchange, otherwise a deal
      // initiated by p spreads p's load and markers afresh.
      sys_.emit_borrow_event(BorrowEvent::BorrowFail);
      balance_op(sh, j, /*forced=*/true);
      bool exchanged = false;
      {
        sh.lock_ids.assign({p, j});
        ScopedLockSet guard(locks_, sh.lock_ids);
        if (sys_.procs_[j].ledger.d(j) > 0 &&
            sys_.procs_[p].ledger.borrowed_total() > 0) {
          remote_exchange_locked(sh, p, j);
          exchanged = true;
        }
      }
      if (exchanged) {
        dispatch(sh, Msg{j, OpKind::Trigger});
      } else {
        balance_op(sh, p, /*forced=*/true);
      }
      break;
    }
    // Retry the borrow that exhausted capacity ("in any case processor i
    // is allowed to borrow some new load packets", §4).
    {
      ScopedLock guard(locks_, p);
      sys_.try_borrow(p, sh.rng, sh.counters);
    }
  }

  // ---- drivers -------------------------------------------------------

  void det_worker(Shard& sh);
  void relaxed_worker(Shard& sh);
  void run_threads(void (AsyncEngine::*worker)(Shard&));
  void wait_local_done(std::uint64_t epoch);
  void close_epoch(std::uint64_t epoch);

  std::uint64_t now_ns() const {
    if (tracing_) return sys_.trace_->now_ns();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  System& sys_;
  const Workload& workload_;
  const std::uint32_t shards_;
  const AsyncOptions options_;
  QuiescenceDetector detector_;
  ProcLocks locks_;
  std::vector<std::unique_ptr<Shard>> shard_;
  std::vector<std::unique_ptr<SpscRing<Msg>>> rings_;

  // Deterministic mode: highest epoch whose local phase may start.
  std::atomic<std::uint64_t> epoch_open_{0};
  // Relaxed mode: global-termination latch.
  std::atomic<bool> done_{false};

  std::atomic<bool> stop_{false};
  std::exception_ptr error_;
  std::mutex error_mu_;

  bool tracing_ = false;
  bool timed_ = false;
  obs::Histogram* drain_hist_ = nullptr;
  obs::Histogram* quiesce_hist_ = nullptr;
  obs::Counter* epochs_counter_ = nullptr;
};

void AsyncEngine::run_threads(void (AsyncEngine::*worker)(Shard&)) {
  const auto record_error = [&] {
    const std::lock_guard<std::mutex> lock(error_mu_);
    if (error_ == nullptr) error_ = std::current_exception();
    stop_.store(true, std::memory_order_release);
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(shards_);
    for (std::uint32_t s = 0; s < shards_; ++s) {
      threads.emplace_back([this, worker, s, &record_error] {
        try {
          // Pay the per-thread scratch warmup here, not at this shard's
          // first balancing operation (which can land arbitrarily late).
          sys_.warm_thread_scratch();
          (this->*worker)(*shard_[s]);
        } catch (...) {
          record_error();
        }
      });
    }
  }  // jthread joins
  if (error_ != nullptr) std::rethrow_exception(error_);
}

void AsyncEngine::run() {
  tracing_ = sys_.trace_ != nullptr && sys_.trace_->enabled();
  if (sys_.metrics_ != nullptr) {
    drain_hist_ = &sys_.metrics_->histogram("async.drain_ns");
    quiesce_hist_ = &sys_.metrics_->histogram("async.quiesce_ns");
    epochs_counter_ = &sys_.metrics_->counter("async.epochs");
  }
  timed_ = tracing_ || sys_.metrics_ != nullptr;
  if (tracing_)
    for (std::uint32_t s = 0; s < shards_; ++s)
      sys_.trace_->set_thread_name(s + 1, "async shard " + std::to_string(s));

  if (options_.relaxed_order) {
    run_threads(&AsyncEngine::relaxed_worker);
  } else {
    run_threads(&AsyncEngine::det_worker);
  }

  // Serial epilogue: fold the per-shard ledgers and tallies back into
  // the system.
  CostTotals merged = sys_.costs_.totals();
  std::uint64_t msgs = 0;
  std::uint64_t ops = 0;
  for (const auto& sh : shard_) {
    merged += sh->costs.totals();
    msgs += sh->msgs;
    ops += sh->ops;
  }
  sys_.costs_.restore(merged);
  if (sys_.metrics_ != nullptr) {
    sys_.metrics_->counter("async.msgs").add(msgs);
    sys_.metrics_->counter("async.ops").add(ops);
    sys_.metrics_->counter("async.circles").add(detector_.circles());
    obs::AllocTally alloc;
    for (const auto& sh : shard_) alloc.merge(sh->alloc);
    obs::publish(*sys_.metrics_, "async", alloc);
  }
  // Relaxed mode has no epoch fences, so the per-epoch invariant check
  // degrades to a single post-run verification.
  if (options_.relaxed_order && sys_.post_step_check_)
    sys_.check_invariants();
}

void AsyncEngine::wait_local_done(std::uint64_t epoch) {
  Backoff backoff;
  for (std::uint32_t r = 0; r < shards_; ++r)
    while (shard_[r]->local_done.load(std::memory_order_acquire) < epoch) {
      if (stop_.load(std::memory_order_acquire)) return;
      backoff.wait();
    }
}

// Epoch close, executed by shard 0 right after the quiescence verdict:
// every shard is passive and every ring is empty, so shard 0 briefly has
// the whole system to itself — the per-epoch invariant check runs here.
void AsyncEngine::close_epoch(std::uint64_t epoch) {
  if (sys_.post_step_check_) sys_.check_invariants();
  if (epochs_counter_ != nullptr) epochs_counter_->add(1);
  detector_.reset();
  epoch_open_.store(epoch + 1, std::memory_order_release);
}

void AsyncEngine::det_worker(Shard& sh) {
  const std::uint32_t horizon = workload_.horizon();
  const std::uint32_t epoch_steps = options_.epoch_steps;
  const std::uint64_t epochs =
      (static_cast<std::uint64_t>(horizon) + epoch_steps - 1) / epoch_steps;
  // Allocation accounting is per *epoch* here (the engine's unit of
  // progress); the tally's step index is the epoch number.
  const bool track_allocs = sys_.metrics_ != nullptr;
  obs::AllocPhase alloc_phase;
  if (track_allocs) alloc_phase.rebase();
  for (std::uint64_t e = 0; e < epochs; ++e) {
    // Wait for shard 0 to open this epoch (quiescence of the previous
    // one), which also publishes every operation's ledger writes.
    Backoff open_backoff;
    while (epoch_open_.load(std::memory_order_acquire) < e) {
      if (stop_.load(std::memory_order_acquire)) return;
      open_backoff.wait();
    }
    if (stop_.load(std::memory_order_acquire)) return;

    // ---- local phase: own processors only, no locks needed (the
    // operation layer is quiescent until every local_done is posted).
    const std::uint64_t local_start = timed_ ? now_ns() : 0;
    const auto t_end = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(horizon, (e + 1) * epoch_steps));
    for (auto t = static_cast<std::uint32_t>(e * epoch_steps); t < t_end;
         ++t) {
      const auto& entries = sh.schedule.advance(t);
      sh.events.clear();
      for (const ActiveSchedule::Entry& entry : entries) {
        WorkEvent ev;
        ev.generate = sh.rng.bernoulli(entry.generate_prob);
        ev.consume = sh.rng.bernoulli(entry.consume_prob);
        if (ev.generate || ev.consume) sh.events.emplace_back(entry.proc, ev);
      }
      for (const auto& [p, ev] : sh.events) {
        if (ev.generate) {
          sys_.generate_packet(p, sh.rng, sh.counters);
          sh.deferred.push_back(Msg{p, OpKind::Trigger});
        }
        if (ev.consume) {
          switch (sys_.consume_packet(p, sh.rng, sh.counters)) {
            case System::ConsumeLocal::ConsumedOwn:
              sh.deferred.push_back(Msg{p, OpKind::Trigger});
              break;
            case System::ConsumeLocal::NeedsSettle:
              sh.deferred.push_back(Msg{p, OpKind::Settle});
              break;
            case System::ConsumeLocal::ConsumedBorrow:
            case System::ConsumeLocal::Failed:
              break;
          }
        }
      }
    }
    sys_.commit(sh.counters);
    sh.counters = System::StepCounters{};
    if (tracing_)
      sys_.trace_->record("async_local", "async", local_start,
                          now_ns() - local_start, sh.tid, e);
    sh.local_done.store(e + 1, std::memory_order_release);
    sh.deferred_moved = false;

    // ---- drain phase: the token serializes the operation layer.
    const std::uint64_t drain_phase_start =
        (sh.id == 0 && timed_) ? now_ns() : 0;
    Backoff token_backoff;
    while (epoch_open_.load(std::memory_order_acquire) <= e) {
      if (stop_.load(std::memory_order_acquire)) return;
      if (!detector_.holds_token(sh.id)) {
        token_backoff.wait();
        continue;
      }
      token_backoff.reset();
      const bool first = !sh.deferred_moved;
      const std::uint64_t slot_start = timed_ ? now_ns() : 0;
      if (first) {
        // The epoch fence: no operation may run before every shard
        // finished its local phase (operations touch arbitrary
        // processors).  The token starts at shard 0, so gating its
        // first slot gates them all.
        if (sh.id == 0) {
          wait_local_done(e + 1);
          if (stop_.load(std::memory_order_acquire)) return;
        }
        for (const Msg& deferred : sh.deferred) sh.fifo.push_back(deferred);
        sh.deferred.clear();
        sh.deferred_moved = true;
      }
      const std::size_t executed = pump(sh);
      // Settlements retry their borrow inside the slot; publish those
      // counts before the epoch can close.
      sys_.commit(sh.counters);
      sh.counters = System::StepCounters{};
      if (timed_ && (first || executed > 0)) {
        const std::uint64_t slot_end = now_ns();
        if (drain_hist_ != nullptr)
          drain_hist_->record(slot_end - slot_start);
        if (tracing_)
          sys_.trace_->record("async_drain", "async", slot_start,
                              slot_end - slot_start, sh.tid, e);
      }
      if (detector_.forward_token(sh.id)) {
        // Quiescence verdict (only shard 0 gets true): the epoch is
        // complete — no active shard, no message in flight.
        if (timed_ && quiesce_hist_ != nullptr)
          quiesce_hist_->record(now_ns() - drain_phase_start);
        close_epoch(e);
      }
    }
    if (track_allocs)
      sh.alloc.note(static_cast<std::int64_t>(e), alloc_phase.take());
  }
}

void AsyncEngine::relaxed_worker(Shard& sh) {
  const std::uint32_t horizon = workload_.horizon();
  const std::uint64_t local_start = timed_ ? now_ns() : 0;
  const bool track_allocs = sys_.metrics_ != nullptr;
  obs::AllocPhase alloc_phase;
  if (track_allocs) alloc_phase.rebase();
  for (std::uint32_t t = 0; t < horizon; ++t) {
    if (stop_.load(std::memory_order_acquire)) return;
    const auto& entries = sh.schedule.advance(t);
    sh.events.clear();
    for (const ActiveSchedule::Entry& entry : entries) {
      WorkEvent ev;
      ev.generate = sh.rng.bernoulli(entry.generate_prob);
      ev.consume = sh.rng.bernoulli(entry.consume_prob);
      if (ev.generate || ev.consume) sh.events.emplace_back(entry.proc, ev);
    }
    for (const auto& [p, ev] : sh.events) {
      if (ev.generate) {
        {
          // Unlike the deterministic local phase, remote operations run
          // concurrently and may touch p — even the local halves lock.
          ScopedLock guard(locks_, p);
          sys_.generate_packet(p, sh.rng, sh.counters);
        }
        dispatch(sh, Msg{p, OpKind::Trigger});
      }
      if (ev.consume) {
        System::ConsumeLocal result;
        {
          ScopedLock guard(locks_, p);
          result = sys_.consume_packet(p, sh.rng, sh.counters);
        }
        switch (result) {
          case System::ConsumeLocal::ConsumedOwn:
            dispatch(sh, Msg{p, OpKind::Trigger});
            break;
          case System::ConsumeLocal::NeedsSettle:
            dispatch(sh, Msg{p, OpKind::Settle});
            break;
          case System::ConsumeLocal::ConsumedBorrow:
          case System::ConsumeLocal::Failed:
            break;
        }
      }
      // Execute inline (fifo) and drain whatever other shards sent us.
      pump(sh);
    }
    pump(sh);
    if (track_allocs)
      sh.alloc.note(static_cast<std::int64_t>(t), alloc_phase.take());
  }
  sys_.commit(sh.counters);
  sh.counters = System::StepCounters{};
  if (tracing_)
    sys_.trace_->record("async_local", "async", local_start,
                        now_ns() - local_start, sh.tid, 0);

  // ---- termination: keep serving inbound work until the token proves
  // global quiescence.
  const std::uint64_t term_start = timed_ ? now_ns() : 0;
  Backoff term_backoff;
  while (!done_.load(std::memory_order_acquire)) {
    if (stop_.load(std::memory_order_acquire)) return;
    if (pump(sh) > 0) term_backoff.reset();
    if (passive(sh) && detector_.holds_token(sh.id)) {
      term_backoff.reset();
      if (detector_.forward_token(sh.id)) {
        if (timed_ && quiesce_hist_ != nullptr)
          quiesce_hist_->record(now_ns() - term_start);
        done_.store(true, std::memory_order_release);
      }
    } else {
      term_backoff.wait();
    }
  }
  sys_.commit(sh.counters);
  sh.counters = System::StepCounters{};
  // The termination pump is ordinary operation execution — account it
  // against the final step so late allocations cannot hide.
  if (track_allocs && horizon > 0)
    sh.alloc.note(static_cast<std::int64_t>(horizon) - 1, alloc_phase.take());
  if (timed_) {
    const std::uint64_t term_end = now_ns();
    if (drain_hist_ != nullptr) drain_hist_->record(term_end - term_start);
    if (tracing_)
      sys_.trace_->record("async_drain", "async", term_start,
                          term_end - term_start, sh.tid, 0);
  }
}

void System::run_async(const Workload& workload, std::uint32_t shards,
                       AsyncOptions options) {
  DLB_REQUIRE(workload.processors() == processors(),
              "workload size must match the system");
  DLB_REQUIRE(shards >= 1, "at least one shard required");
  DLB_REQUIRE(shards <= processors(), "more shards than processors");
  DLB_REQUIRE(options.epoch_steps >= 1,
              "an epoch must cover at least one step");
  // No serial per-step point exists to observe loads from; recorder
  // output is a sequential-driver feature.
  DLB_REQUIRE(recorder_ == nullptr, "run_async does not support a recorder");
  loads_cache_valid_ = false;
  AsyncEngine engine(*this, workload, shards, options);
  engine.run();
}

}  // namespace dlb
