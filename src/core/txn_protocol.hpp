// The balancing operation as one transaction state machine.
//
// In the paper a balancing operation (§2, §4) is one transaction: the
// initiator invites its delta partners, they report their loads, and all
// participants take equal shares.  On a message-passing machine it is
// three messages:
//   Invite(txn)            initiator -> each partner
//   Accept(load) / Refuse  partner   -> initiator
//   Assign(delta)          initiator -> each accepting partner
// The initiator pools its own load with the loads offered in the Accepts;
// the remainder packets go to the initiator first, then to the accepting
// partners in the order their Accepts arrived.  Assign carries the delta
// against the load the partner offered.
//
// One TxnEndpoint per processor, in one of three states: Idle,
// Initiating (invites out, collecting replies) or Locked (accepted an
// invite, awaiting its Assign).  A busy endpoint refuses every Invite,
// so no waits-for cycle can form and an initiator simply proceeds with
// the partners that accepted; a locked partner mutates nothing between
// its Accept and its Assign, so packets are conserved.
//
// The endpoint does no I/O and reads no clock, thread or RNG: a driver
// hands it the messages addressed to its processor and the expiry of
// its deadlines, and sends whatever it appends to the driver's outbox.
// AsyncSystem drives it from a discrete-event queue with hop latency,
// ThreadedSystem from mailboxes and steady_clock deadlines.
//
// Fault tolerance (on exactly when the driver's FaultPlan is enabled;
// DESIGN.md §7): deadlines may expire, and messages that match no open
// wait (duplicates, stragglers, stale replies) are absorbed
// idempotently.  Without it every such message is a protocol bug and
// fails a DLB_ENSURE.
//   - An initiator whose deadline expires treats its silent partners as
//     Refuse and assigns shares to the rest.  A late Accept is answered
//     with a rollback Assign(0) so the partner unlocks unchanged; a
//     duplicate Accept from a partner that got its real Assign is
//     ignored, since a rollback could overtake that Assign.
//   - A partner whose deadline expires rolls back: nothing mutated since
//     its Accept, so unlocking is the rollback.  It refuses duplicates
//     of that Invite, and an Assign that straggles in later is declared
//     lost once (its delta is load in no one's ledger).
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

namespace dlb {

/// The trigger of the total-load variant of the algorithm: fire once the
/// load has grown to >= f * l_old or shrunk to <= l_old / f, where l_old
/// is the load after the processor's last balancing operation.
inline bool drift_trigger(std::int64_t load, std::int64_t l_old, double f) {
  const bool grew = load > l_old && static_cast<double>(load) >=
                                        f * static_cast<double>(l_old);
  const bool shrank = load < l_old && l_old >= 1 &&
                      static_cast<double>(load) <=
                          static_cast<double>(l_old) / f;
  return grew || shrank;
}

enum class TxnMsgType : std::uint8_t { Invite, Accept, Refuse, Assign };

struct TxnMessage {
  TxnMsgType type = TxnMsgType::Invite;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint64_t txn = 0;
  std::int64_t value = 0;  // Accept: offered load; Assign: delta against it
};

/// What one endpoint's transactions amounted to.
struct TxnCounters {
  std::uint64_t completed = 0;     // initiated, shares assigned
  std::uint64_t abandoned = 0;     // initiated, every partner refused
  std::uint64_t refusals = 0;      // invites refused
  std::uint64_t rollbacks = 0;     // locks released without their Assign
  std::uint64_t timeouts = 0;      // expired deadlines
  std::uint64_t lost_packets = 0;  // Assigns discarded as stale
  /// Net delta of the discarded Assigns (signed: losing a negative
  /// delta adds load).
  std::int64_t lost_load = 0;
};

class TxnEndpoint {
 public:
  enum class State : std::uint8_t { Idle, Initiating, Locked };

  /// `id` is the processor this endpoint speaks for; `max_partners`
  /// presizes the transaction scratch so steady state does not allocate;
  /// `fault_tolerant` enables deadlines and stray handling.
  TxnEndpoint(std::uint32_t id, std::uint32_t max_partners,
              bool fault_tolerant);

  State state() const { return state_; }
  /// The open transaction while Initiating or Locked.
  std::uint64_t txn() const { return txn_; }
  const TxnCounters& counters() const { return counters_; }

  /// True when the endpoint is idle and `load` has drifted by the
  /// factor `f` since its last balancing operation.
  bool triggered(std::int64_t load, double f) const {
    return state_ == State::Idle && drift_trigger(load, l_old_, f);
  }

  /// Opens transaction `txn` (unique across the system) by inviting
  /// `partners`.  With no partners there is nothing to balance against:
  /// the operation is void and l_old resets to `load`.
  void start(std::uint64_t txn, std::span<const std::uint32_t> partners,
             std::int64_t load, std::vector<TxnMessage>& out);

  /// Handles a message addressed to this endpoint; `load` is its
  /// processor's load, rewritten when a transaction completes here.
  /// Returns true when the message advanced the open wait, i.e. the
  /// driver should restart its deadline: for a locked partner every
  /// delivery (traffic proves the initiator's side alive), for an
  /// initiator only a reply that resolved a pending partner, so strays
  /// and duplicates cannot postpone the verdict.
  bool on_message(const TxnMessage& msg, std::int64_t& load,
                  std::vector<TxnMessage>& out);

  /// The open wait's deadline expired (fault-tolerant mode only): an
  /// initiator treats its pending partners as Refuse and finishes, a
  /// locked partner rolls back.
  void on_deadline(std::int64_t& load, std::vector<TxnMessage>& out);

 private:
  void send(TxnMsgType type, std::uint32_t to, std::uint64_t txn,
            std::int64_t value, std::vector<TxnMessage>& out) const;
  void finish(std::int64_t& load, std::vector<TxnMessage>& out);
  void on_stray(const TxnMessage& msg, std::vector<TxnMessage>& out);

  std::uint32_t id_;
  bool fault_tolerant_;
  State state_ = State::Idle;
  std::uint64_t txn_ = 0;
  std::int64_t l_old_ = 0;
  // Initiator: partners yet to reply, then the accepting ones with their
  // offered loads, in arrival order.
  std::vector<std::uint32_t> pending_;
  std::vector<std::uint32_t> accepted_;
  std::vector<std::int64_t> offered_;
  TxnCounters counters_;
  // Idempotence sets, filled only in fault-tolerant mode.  Partner side:
  // transactions whose Assign was applied or declared lost, and those
  // rolled back on a deadline.  Initiator side: the (txn, partner) pairs
  // that were sent a real Assign.
  std::unordered_set<std::uint64_t> settled_;
  std::unordered_set<std::uint64_t> aborted_;
  std::set<std::pair<std::uint64_t, std::uint32_t>> assigned_;
};

}  // namespace dlb
