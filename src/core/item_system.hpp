// Payload-carrying packets: ItemSystem<T> keeps real task objects in
// step with the balancer's packet counts.
//
// The paper's packets "represent data or processes" with identical
// characteristics; the System tracks only counts.  Applications, though,
// have actual objects (search nodes, render tiles, Prolog goals).
// ItemSystem<T> owns one deque of T per processor and mirrors every load
// change of an embedded System:
//   produce(p, item)  -> System::generate(p)   + push item on p
//   consume(p)        -> System::consume(p)    + pop an item from p
//   balancing/borrow migrations (reported to the MigrationSink it hands
//   the System as its recorder) move the corresponding items between
//   deques.
// Migrated items are taken from the back of the sender's deque (newest
// first, the work-stealing convention that keeps old/cheap items local).
//
// Invariant (verified by check()): queue_size(p) == System::load(p) for
// every p at every quiescent point.
#pragma once

#include <deque>
#include <optional>

#include "core/system.hpp"
#include "support/check.hpp"

namespace dlb {

template <typename T>
class ItemSystem final : private Recorder, private MigrationSink {
 public:
  /// `topology` (optional) enables hop-cost accounting and neighborhood
  /// partner restriction, exactly as for System.
  ItemSystem(std::uint32_t processors, BalancerConfig config,
             std::uint64_t seed, const Topology* topology = nullptr)
      : system_(processors, config, seed, topology), queues_(processors) {
    system_.attach_recorder(this);
  }

  /// Passthrough to System::restrict_partners_to_neighborhood.
  void restrict_partners_to_neighborhood(unsigned radius) {
    system_.restrict_partners_to_neighborhood(radius);
  }

  // The embedded System holds a pointer to *this as its recorder.
  ItemSystem(const ItemSystem&) = delete;
  ItemSystem& operator=(const ItemSystem&) = delete;

  /// The application created a work item on processor p.
  void produce(std::uint32_t p, T item) {
    DLB_REQUIRE(p < queues_.size(), "processor id out of range");
    queues_[p].push_back(std::move(item));
    system_.generate(p);
  }

  /// The application wants one work item on processor p; nullopt when
  /// the balancer could not provide one (processor truly starved).
  std::optional<T> consume(std::uint32_t p) {
    DLB_REQUIRE(p < queues_.size(), "processor id out of range");
    if (!system_.consume(p)) return std::nullopt;
    // The consume (and any settlement migrations it triggered) has been
    // mirrored into the queues; the consumed item is taken oldest-first.
    DLB_ENSURE(!queues_[p].empty(), "queue desynchronized from load");
    T item = std::move(queues_[p].front());
    queues_[p].pop_front();
    return item;
  }

  std::size_t queue_size(std::uint32_t p) const {
    DLB_REQUIRE(p < queues_.size(), "processor id out of range");
    return queues_[p].size();
  }

  /// Read-only access to a processor's pending items.
  const std::deque<T>& queue(std::uint32_t p) const {
    DLB_REQUIRE(p < queues_.size(), "processor id out of range");
    return queues_[p];
  }

  std::size_t total_items() const {
    std::size_t total = 0;
    for (const auto& q : queues_) total += q.size();
    return total;
  }

  /// The embedded balancer (for inspection and theory checks).  Callers
  /// must not mutate loads through it directly — use produce/consume.
  const System& system() const { return system_; }

  /// Verifies queue/load synchronization and the System's own
  /// invariants.
  void check() const {
    for (std::uint32_t p = 0; p < queues_.size(); ++p) {
      DLB_ENSURE(static_cast<std::int64_t>(queues_[p].size()) ==
                     system_.load(p),
                 "item queue out of sync with packet count");
    }
    system_.check_invariants();
  }

 private:
  MigrationSink* migration_sink() override { return this; }

  // Consume pops oldest-first; migration takes newest-first, so freshly
  // spawned (typically deepest/most speculative) work travels.
  void on_migration(std::uint32_t from, std::uint32_t to,
                    std::uint64_t count) override {
    auto& src = queues_[from];
    auto& dst = queues_[to];
    DLB_ENSURE(src.size() >= count, "migration exceeds sender queue");
    for (std::uint64_t i = 0; i < count; ++i) {
      dst.push_back(std::move(src.back()));
      src.pop_back();
    }
  }

  System system_;
  std::vector<std::deque<T>> queues_;
};

}  // namespace dlb
