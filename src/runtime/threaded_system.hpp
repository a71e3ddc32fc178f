// Threaded message-passing implementation of the balancing algorithm.
//
// The sequential System is the measurement instrument for the paper's
// figures; ThreadedSystem demonstrates that the same algorithmic principle
// runs as a real concurrent system: one thread per processor, no shared
// load state, all coordination via mailboxes — the structure a
// distributed-memory implementation ([7]'s transputer networks) would
// have, compressed onto one machine.
//
// Balancing is the Invite/Accept/Assign transaction of
// core/txn_protocol: each thread owns one TxnEndpoint and feeds it the
// messages from its mailbox.  A thread waiting inside a transaction (for
// replies as an initiator, or for its Assign as a locked partner) keeps
// feeding it, so it refuses every incoming Invite and no waits-for cycle
// can form.
//
// Failure tolerance (config.faults, a mp/fault.hpp FaultPlan): with a
// fault plan installed the endpoints run fault-tolerant and every wait
// inside a transaction gets a steady_clock deadline, so transactions
// survive lossy links and dying partners (the rules are in
// core/txn_protocol.hpp and DESIGN.md §7).  This class adds the parts
// that need a machine:
//   - a dropped Assign's delta is declared lost at the drop point, so
//     total load is conserved modulo the declared-lost ledger:
//       sum(final) == generated - consumed - lost_load
//   - a processor killed by the crash schedule stops at a step
//     boundary; its load is recovered from its last journal checkpoint
//     (the drift is declared lost), survivors blacklist it from future
//     partner draws (redrawing uniformly over the live processors), and
//     invites addressed to it simply time out.
// Without a plan every code path is byte-identical to the fault-free
// implementation (blocking waits, no journal writes).
//
// The threaded runtime implements the practical total-load variant of the
// algorithm (trigger on the factor-f drift of the local load, like [7]);
// the per-class d/b ledger bookkeeping exists for the *analysis* and is
// exercised by the sequential System.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/txn_protocol.hpp"
#include "metrics/recorder.hpp"
#include "mp/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/mailbox.hpp"
#include "support/rng.hpp"
#include "workload/trace.hpp"

namespace dlb {

struct ThreadedConfig {
  double f = 1.1;
  std::uint32_t delta = 1;
  std::uint64_t seed = 42;
  /// Fault schedule; an inert plan (the default) disables every fault
  /// path and reproduces the historical behaviour exactly.
  FaultPlan faults;
  /// Deadline for each in-transaction wait when faults are enabled.
  std::chrono::milliseconds txn_timeout{25};
};

struct ThreadedStats {
  std::uint64_t balance_ops = 0;
  std::uint64_t refusals = 0;
  std::uint64_t messages = 0;
  std::uint64_t consume_failures = 0;
  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
  // Robustness counters (all zero in fault-free runs).
  std::uint64_t aborted_ops = 0;   // partner rollbacks (missing Assign)
  std::uint64_t timeouts = 0;      // expired transaction waits
  std::uint64_t lost_packets = 0;  // dropped + discarded-stale messages
  std::uint32_t ranks_dead = 0;    // processors killed by the schedule
  /// Net load in dropped/discarded Assigns plus crash drift (signed:
  /// losing a negative delta *adds* load).  Conservation holds as
  /// sum(final_loads) == generated - consumed - lost_load.
  std::int64_t lost_load = 0;
};

class ThreadedSystem {
 public:
  ThreadedSystem(std::uint32_t processors, ThreadedConfig config);
  ~ThreadedSystem();

  ThreadedSystem(const ThreadedSystem&) = delete;
  ThreadedSystem& operator=(const ThreadedSystem&) = delete;

  /// Replays the trace concurrently (one thread per processor) and blocks
  /// until every thread has finished and all transactions have drained.
  void run(const Trace& trace);

  /// Observer for the robustness counters (on_fault hooks fire once per
  /// run() with the aggregate counts).  Optional; not owned.
  void set_recorder(Recorder* recorder) { recorder_ = recorder; }

  /// Operational metrics: run() publishes the aggregated ThreadedStats
  /// as threaded.* counters (and threaded.lost_load as a gauge).
  /// Optional; not owned.
  void attach_metrics(obs::MetricsRegistry* registry) {
    metrics_ = registry;
  }

  /// Structured trace: per-processor balance-transaction spans plus
  /// timeout/abort/crash instants, one track per processor thread.
  /// Optional; not owned.
  void attach_trace(obs::TraceBuffer* trace) { trace_ = trace; }

  /// Final per-processor loads (valid after run()); a crashed
  /// processor's entry is its journal-recovered load.
  const std::vector<std::int64_t>& final_loads() const { return final_loads_; }
  /// Aggregated statistics over all processor threads.
  const ThreadedStats& stats() const { return stats_; }
  /// Crash journal of the last run (valid after run()).
  const LoadJournal& journal() const { return journal_; }
  /// True when processor `p` was killed during the last run.
  bool processor_dead(std::uint32_t p) const;

 private:
  class Worker;

  // A worker finished its trace column (or died): count it and wake the
  // coordinator waiting in run().
  void mark_done() {
    done_count_.fetch_add(1, std::memory_order_acq_rel);
    done_count_.notify_one();
  }

  std::uint32_t processors_;
  ThreadedConfig config_;
  bool faults_on_ = false;
  std::vector<std::unique_ptr<Mailbox<TxnMessage>>> mailboxes_;
  std::atomic<std::uint32_t> done_count_{0};
  std::unique_ptr<std::atomic<std::uint8_t>[]> dead_;
  LoadJournal journal_;
  std::vector<std::int64_t> final_loads_;
  ThreadedStats stats_;
  Recorder* recorder_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
  // Resolved once per run(); shared by all workers (record is atomic).
  obs::Histogram* txn_hist_ = nullptr;
};

}  // namespace dlb
