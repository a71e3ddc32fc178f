#include "core/txn_protocol.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dlb {

TxnEndpoint::TxnEndpoint(std::uint32_t id, std::uint32_t max_partners,
                         bool fault_tolerant)
    : id_(id), fault_tolerant_(fault_tolerant) {
  pending_.reserve(max_partners);
  accepted_.reserve(max_partners);
  offered_.reserve(max_partners);
}

void TxnEndpoint::send(TxnMsgType type, std::uint32_t to, std::uint64_t txn,
                       std::int64_t value,
                       std::vector<TxnMessage>& out) const {
  out.push_back(TxnMessage{type, id_, to, txn, value});
}

void TxnEndpoint::start(std::uint64_t txn,
                        std::span<const std::uint32_t> partners,
                        std::int64_t load, std::vector<TxnMessage>& out) {
  DLB_REQUIRE(state_ == State::Idle, "a transaction is already open");
  if (partners.empty()) {
    l_old_ = load;
    return;
  }
  state_ = State::Initiating;
  txn_ = txn;
  pending_.assign(partners.begin(), partners.end());
  accepted_.clear();
  offered_.clear();
  for (std::uint32_t q : partners) send(TxnMsgType::Invite, q, txn, 0, out);
}

bool TxnEndpoint::on_message(const TxnMessage& msg, std::int64_t& load,
                             std::vector<TxnMessage>& out) {
  if (msg.type == TxnMsgType::Invite) {
    // A busy endpoint refuses, which breaks wait cycles.  So does an
    // idle one for a transaction it already served: accepting again
    // could double-apply its Assign.
    const bool served = fault_tolerant_ && (settled_.count(msg.txn) != 0 ||
                                            aborted_.count(msg.txn) != 0);
    if (state_ != State::Idle || served) {
      ++counters_.refusals;
      send(TxnMsgType::Refuse, msg.from, msg.txn, 0, out);
      return state_ == State::Locked;
    }
    state_ = State::Locked;
    txn_ = msg.txn;
    send(TxnMsgType::Accept, msg.from, msg.txn, load, out);
    return false;
  }
  if (state_ == State::Locked) {
    if (msg.type == TxnMsgType::Assign && msg.txn == txn_) {
      load += msg.value;
      l_old_ = load;
      state_ = State::Idle;
      if (fault_tolerant_) settled_.insert(txn_);
    } else {
      on_stray(msg, out);
    }
    return true;
  }
  if (state_ == State::Initiating && msg.type != TxnMsgType::Assign &&
      msg.txn == txn_) {
    const auto it = std::find(pending_.begin(), pending_.end(), msg.from);
    if (it == pending_.end()) {
      // A duplicate reply of the live transaction.  Nothing pends on a
      // Refuse, and the real Assign is still coming for an Accept, so
      // no rollback: unlocking the partner early would make it discard
      // that Assign and leak the delta out of the ledger.
      DLB_ENSURE(fault_tolerant_, "reply from a partner that is not pending");
      return false;
    }
    pending_.erase(it);
    if (msg.type == TxnMsgType::Accept) {
      accepted_.push_back(msg.from);
      offered_.push_back(msg.value);
    }
    if (pending_.empty()) finish(load, out);
    return true;
  }
  on_stray(msg, out);
  return false;
}

void TxnEndpoint::on_deadline(std::int64_t& load,
                              std::vector<TxnMessage>& out) {
  DLB_ENSURE(fault_tolerant_ && state_ != State::Idle,
             "deadline expired without an open fault-tolerant wait");
  ++counters_.timeouts;
  if (state_ == State::Initiating) {
    // Silence for a whole deadline: the partners still pending are dead
    // or their replies were lost.  A straggling Accept is rolled back as
    // a stray.
    pending_.clear();
    finish(load, out);
    return;
  }
  // Missing Assign: the load is still the offered pre-image, so
  // unlocking is the rollback.
  ++counters_.rollbacks;
  aborted_.insert(txn_);
  state_ = State::Idle;
}

void TxnEndpoint::finish(std::int64_t& load, std::vector<TxnMessage>& out) {
  state_ = State::Idle;
  if (accepted_.empty()) {
    ++counters_.abandoned;
    l_old_ = load;
    return;
  }
  std::int64_t pool = load;
  for (std::int64_t l : offered_) pool += l;
  const auto m = static_cast<std::int64_t>(accepted_.size()) + 1;
  const std::int64_t base = pool / m;
  std::int64_t remainder = pool % m;
  // The initiator takes a remainder packet first, then partners in
  // arrival order; any deterministic rule keeps shares within ±1.
  load = base + (remainder > 0 ? 1 : 0);
  if (remainder > 0) --remainder;
  for (std::size_t k = 0; k < accepted_.size(); ++k) {
    const std::int64_t share =
        base + (static_cast<std::int64_t>(k) < remainder ? 1 : 0);
    send(TxnMsgType::Assign, accepted_[k], txn_, share - offered_[k], out);
    if (fault_tolerant_) assigned_.emplace(txn_, accepted_[k]);
  }
  ++counters_.completed;
  l_old_ = load;
}

void TxnEndpoint::on_stray(const TxnMessage& msg,
                           std::vector<TxnMessage>& out) {
  DLB_ENSURE(fault_tolerant_,
             "transaction message without a matching open wait");
  switch (msg.type) {
    case TxnMsgType::Accept:
      // The sender is locked awaiting an Assign for a transaction we
      // closed without it: unlock it with a rollback (delta 0).  Unless
      // it already got its real Assign — then this is a duplicate, and
      // a rollback could overtake the real Assign (delay reorders one
      // link) and make the partner discard its delta.
      if (assigned_.count({msg.txn, msg.from}) == 0)
        send(TxnMsgType::Assign, msg.from, msg.txn, 0, out);
      return;
    case TxnMsgType::Assign:
      // Not a duplicate of an applied Assign: its transaction was rolled
      // back here, so the delta is lost.  Settling it keeps a duplicate
      // from being declared lost a second time.
      if (settled_.insert(msg.txn).second) {
        ++counters_.lost_packets;
        counters_.lost_load += msg.value;
      }
      return;
    case TxnMsgType::Refuse:
    case TxnMsgType::Invite:
      return;  // nothing pends on a stale refusal; invites never get here
  }
}

}  // namespace dlb
