// Bridges the figure-oriented Recorder hooks into the operational
// metrics registry (src/obs).
//
// Anything that already speaks Recorder — the sequential System, the
// ThreadedSystem robustness counters, the fault benches — can fan into a
// MetricsRecorder (e.g. via MultiRecorder) and its events land as named
// counters in a MetricsRegistry next to the phase-profiling histograms,
// giving the fault counters the time dimension and export path they
// lacked.
#pragma once

#include "metrics/recorder.hpp"
#include "obs/metrics.hpp"

namespace dlb {

/// Recorder that forwards event hooks into registry counters:
///   recorder.balance_ops / .packets_moved / .migrations
///   recorder.borrow.{total,remote,fail,decrease_sim}
///   fault.{timeouts,aborted_ops,lost_packets,ranks_dead}
/// Counter references are resolved once at construction; the hooks are
/// then lock-free.
class MetricsRecorder final : public Recorder, public MigrationSink {
 public:
  explicit MetricsRecorder(obs::MetricsRegistry& registry);

  void on_balance_op(std::uint32_t initiator, std::size_t partners,
                     std::uint64_t packets_moved) override;
  MigrationSink* migration_sink() override { return this; }
  void on_migration(std::uint32_t from, std::uint32_t to,
                    std::uint64_t count) override;
  void on_borrow_event(BorrowEvent event) override;
  void on_fault(FaultEvent event, std::uint64_t count) override;

 private:
  obs::Counter& balance_ops_;
  obs::Counter& packets_moved_;
  obs::Counter& migrations_;
  obs::Counter& borrow_total_;
  obs::Counter& borrow_remote_;
  obs::Counter& borrow_fail_;
  obs::Counter& decrease_sim_;
  obs::Counter& fault_timeouts_;
  obs::Counter& fault_aborted_;
  obs::Counter& fault_lost_;
  obs::Counter& fault_dead_;
};

}  // namespace dlb
