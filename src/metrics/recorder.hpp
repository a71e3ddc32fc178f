// Measurement hooks and aggregators.
//
// The simulators are instrumented through a Recorder interface so every
// figure/table of the paper is an ordinary observer: Figures 7/8 need the
// per-step average plus the most extreme per-processor loads ever seen
// across runs; Figures 9/10 need per-processor statistics at snapshot
// times; Table 1 counts borrow-protocol events; the §6 benches read the
// cost ledger.  Keeping measurement out of the algorithm keeps the core
// honest — the balancer cannot special-case "when observed".
#pragma once

#include <cstdint>
#include <vector>

#include "support/stats.hpp"

namespace dlb {

/// Borrow-protocol events (Table 1 of the paper).
enum class BorrowEvent {
  TotalBorrow,   // a packet was borrowed from some load class
  RemoteBorrow,  // borrowed markers settled against real packets of the
                 // generating processor (the "remote borrow" exchange)
  BorrowFail,    // the generating processor itself had no packets; the
                 // §4 resolution algorithm ran
  DecreaseSim,   // a simulated workload decrease was initiated
};

/// Robustness events from the fault-tolerant runtimes (mp/fault.hpp,
/// runtime/threaded_system.hpp): protocol waits that expired, balance
/// transactions that rolled back, messages/payloads lost in flight,
/// and ranks that crashed.
enum class FaultEvent {
  Timeout,     // a deadline-based protocol wait expired
  AbortedOp,   // a balance transaction rolled back (missing Assign)
  LostPacket,  // a message or its payload was lost in flight
  RankDeath,   // a rank crashed per the fault schedule
};

/// Aggregated robustness counters (see FaultCounterRecorder).
struct FaultCounters {
  std::uint64_t timeouts = 0;
  std::uint64_t aborted_ops = 0;
  std::uint64_t lost_packets = 0;
  std::uint64_t ranks_dead = 0;

  void bump(FaultEvent event, std::uint64_t count);
  FaultCounters& operator+=(const FaultCounters& other);
};

/// Table 1 row: event counts, reported as per-run averages.
struct BorrowCounters {
  std::uint64_t total_borrow = 0;
  std::uint64_t remote_borrow = 0;
  std::uint64_t borrow_fail = 0;
  std::uint64_t decrease_sim = 0;

  void bump(BorrowEvent event);
  BorrowCounters& operator+=(const BorrowCounters& other);
};

/// Receives the packet migrations of a run, one call per (from, to)
/// flow: every flow inside a balancing operation and every remote borrow
/// exchange.
///
/// Contract:
///   - Observing migrations is opt-in.  A Recorder that wants them
///     returns a sink from Recorder::migration_sink(); the default
///     returns null, and a run whose recorder has no sink never computes
///     per-pair flows (the deal books one bulk cost record instead, with
///     the same CostLedger totals).
///   - The engine asks for the sink once per balancing operation and once
///     per remote exchange, and uses it only until it next asks, so a
///     recorder may start or stop listening between operations
///     (MultiRecorder gaining a child, say).
///   - Within one balancing operation the flows arrive column by column
///     in ascending class order; within a column, surplus rows are
///     matched greedily against deficit rows, both ascending.  Every
///     flow has count > 0, and the counts of one operation add up to its
///     gross packet moves.
///   - A sink must not drive the System that calls it.
class MigrationSink {
 public:
  /// `count` packets migrated from processor `from` to processor `to`.
  /// Payload-carrying wrappers (core/item_system.hpp) use this to move
  /// the actual objects.
  virtual void on_migration(std::uint32_t from, std::uint32_t to,
                            std::uint64_t count) = 0;

 protected:
  ~MigrationSink() = default;
};

/// Observer interface; all hooks default to no-ops.
class Recorder {
 public:
  virtual ~Recorder() = default;

  /// A new independent run (with a fresh seed) begins.
  virtual void begin_run(std::uint32_t run) { (void)run; }
  virtual void end_run() {}

  /// Called once per global step with the real load of every processor.
  /// `loads` may reference a buffer the caller reuses across steps:
  /// observe or copy during the call, never retain the reference.
  virtual void on_loads(std::uint32_t t,
                        const std::vector<std::int64_t>& loads) {
    (void)t;
    (void)loads;
  }

  /// A balancing operation completed.
  virtual void on_balance_op(std::uint32_t initiator, std::size_t partners,
                             std::uint64_t packets_moved) {
    (void)initiator;
    (void)partners;
    (void)packets_moved;
  }

  /// Where this recorder takes migrations, or null when it takes none
  /// (see MigrationSink).  Recorders that observe migrations return
  /// `this`.
  virtual MigrationSink* migration_sink() { return nullptr; }

  virtual void on_borrow_event(BorrowEvent event) { (void)event; }

  /// `count` robustness events of kind `event` occurred (the threaded
  /// runtime reports aggregate counts once per run).
  virtual void on_fault(FaultEvent event, std::uint64_t count) {
    (void)event;
    (void)count;
  }
};

/// Fans hooks out to several recorders (non-owning).  Its migration sink
/// reaches only the children that have one, and is null when none does.
class MultiRecorder final : public Recorder, private MigrationSink {
 public:
  void attach(Recorder* recorder);

  void begin_run(std::uint32_t run) override;
  void end_run() override;
  void on_loads(std::uint32_t t,
                const std::vector<std::int64_t>& loads) override;
  void on_balance_op(std::uint32_t initiator, std::size_t partners,
                     std::uint64_t packets_moved) override;
  MigrationSink* migration_sink() override;
  void on_borrow_event(BorrowEvent event) override;
  void on_fault(FaultEvent event, std::uint64_t count) override;

 private:
  void on_migration(std::uint32_t from, std::uint32_t to,
                    std::uint64_t count) override;

  std::vector<Recorder*> recorders_;
  // The children's sinks as of the last migration_sink() call.
  std::vector<MigrationSink*> sinks_;
};

/// Figures 7/8: per-step statistics over (processor × run) observations.
class LoadSeriesRecorder final : public Recorder {
 public:
  explicit LoadSeriesRecorder(std::uint32_t steps);

  void on_loads(std::uint32_t t,
                const std::vector<std::int64_t>& loads) override;

  const SeriesAggregator& series() const { return series_; }

  /// Merges another recorder over the same horizon (parallel runner).
  void merge(const LoadSeriesRecorder& other) {
    series_.merge(other.series_);
  }

 private:
  SeriesAggregator series_;
};

/// Figures 9/10: per-processor statistics at fixed snapshot times.
class SnapshotRecorder final : public Recorder {
 public:
  SnapshotRecorder(std::uint32_t processors,
                   std::vector<std::uint32_t> snapshot_times);

  void on_loads(std::uint32_t t,
                const std::vector<std::int64_t>& loads) override;

  const std::vector<std::uint32_t>& snapshot_times() const { return times_; }
  /// Statistics of processor p at snapshot index s (across runs).
  const RunningMoments& at(std::size_t snapshot, std::uint32_t processor) const;

  /// Merges another recorder with identical shape (parallel runner).
  void merge(const SnapshotRecorder& other);

 private:
  std::vector<std::uint32_t> times_;
  std::uint32_t processors_;
  // times_.size() x processors_ moment cells
  std::vector<RunningMoments> cells_;
};

/// Table 1: accumulates borrow counters, reports per-run averages.
class BorrowCounterRecorder final : public Recorder {
 public:
  void begin_run(std::uint32_t run) override;
  void end_run() override;
  void on_borrow_event(BorrowEvent event) override;

  std::uint32_t runs() const { return runs_; }
  const BorrowCounters& totals() const { return totals_; }
  double avg_total_borrow() const;
  double avg_remote_borrow() const;
  double avg_borrow_fail() const;
  double avg_decrease_sim() const;

  /// Merges completed runs of another recorder (parallel runner).
  void merge(const BorrowCounterRecorder& other);

 private:
  std::uint32_t runs_ = 0;
  BorrowCounters current_;
  BorrowCounters totals_;
  bool in_run_ = false;
};

/// Robustness counters for the fault benches and the ThreadedSystem
/// metrics surface: accumulates FaultEvent counts across runs.
class FaultCounterRecorder final : public Recorder {
 public:
  void begin_run(std::uint32_t run) override;
  void end_run() override;
  void on_fault(FaultEvent event, std::uint64_t count) override;

  std::uint32_t runs() const { return runs_; }
  const FaultCounters& totals() const { return totals_; }

  /// Merges completed runs of another recorder (parallel runner).
  void merge(const FaultCounterRecorder& other);

 private:
  std::uint32_t runs_ = 0;
  FaultCounters totals_;
};

/// Per-step balancing-activity counts (for the §6 cost benches).
class ActivityRecorder final : public Recorder {
 public:
  void begin_run(std::uint32_t run) override;
  void on_balance_op(std::uint32_t initiator, std::size_t partners,
                     std::uint64_t packets_moved) override;
  void end_run() override;

  double avg_operations_per_run() const;
  double avg_packets_moved_per_run() const;

  /// Merges completed runs of another recorder (parallel runner).
  void merge(const ActivityRecorder& other);
  std::uint64_t total_operations() const { return total_ops_; }
  std::uint64_t total_packets_moved() const { return total_packets_; }

 private:
  std::uint32_t runs_ = 0;
  std::uint64_t total_ops_ = 0;
  std::uint64_t total_packets_ = 0;
};

}  // namespace dlb
