// Conformance of the pure Invite/Accept/Assign state machine, one scripted
// case per rule (DESIGN.md §7), then a seeded adversarial scheduler that
// drops, duplicates and reorders messages and fires deadlines at random:
// packets must be conserved modulo the declared loss.  No threads, no
// clocks: every message and deadline is delivered by hand.
#include "core/txn_protocol.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace dlb {
namespace {

using State = TxnEndpoint::State;
using Msgs = std::vector<TxnMessage>;

TxnMessage msg(TxnMsgType type, std::uint32_t from, std::uint32_t to,
               std::uint64_t txn, std::int64_t value = 0) {
  return TxnMessage{type, from, to, txn, value};
}

void expect_msg(const TxnMessage& m, TxnMsgType type, std::uint32_t to,
                std::uint64_t txn, std::int64_t value) {
  EXPECT_EQ(m.type, type);
  EXPECT_EQ(m.to, to);
  EXPECT_EQ(m.txn, txn);
  EXPECT_EQ(m.value, value);
}

TEST(TxnProtocol, DriftTriggerFiresOnFactorF) {
  EXPECT_TRUE(drift_trigger(11, 10, 1.1));
  EXPECT_FALSE(drift_trigger(10, 10, 1.1));
  EXPECT_FALSE(drift_trigger(10, 9, 1.2));
  EXPECT_TRUE(drift_trigger(9, 10, 1.1));
  EXPECT_TRUE(drift_trigger(1, 0, 1.1));  // any growth from empty
  EXPECT_FALSE(drift_trigger(0, 0, 1.1));
}

TEST(TxnProtocol, BusyEndpointRefusesInvites) {
  Msgs out;
  std::int64_t load = 5;
  TxnEndpoint initiator(0, 2, false);
  const std::uint32_t partners[] = {1, 2};
  initiator.start(7, partners, load, out);
  ASSERT_EQ(initiator.state(), State::Initiating);
  ASSERT_EQ(out.size(), 2u);
  expect_msg(out[0], TxnMsgType::Invite, 1, 7, 0);
  expect_msg(out[1], TxnMsgType::Invite, 2, 7, 0);
  out.clear();
  EXPECT_FALSE(initiator.on_message(msg(TxnMsgType::Invite, 3, 0, 9), load,
                                    out));
  ASSERT_EQ(out.size(), 1u);
  expect_msg(out[0], TxnMsgType::Refuse, 3, 9, 0);
  EXPECT_EQ(initiator.state(), State::Initiating);

  TxnEndpoint partner(1, 2, false);
  out.clear();
  partner.on_message(msg(TxnMsgType::Invite, 0, 1, 7), load, out);
  ASSERT_EQ(partner.state(), State::Locked);
  expect_msg(out[0], TxnMsgType::Accept, 0, 7, 5);
  out.clear();
  partner.on_message(msg(TxnMsgType::Invite, 3, 1, 9), load, out);
  ASSERT_EQ(out.size(), 1u);
  expect_msg(out[0], TxnMsgType::Refuse, 3, 9, 0);
  EXPECT_EQ(partner.state(), State::Locked);
  EXPECT_EQ(partner.txn(), 7u);
  EXPECT_EQ(initiator.counters().refusals + partner.counters().refusals, 2u);
}

TEST(TxnProtocol, AllRefusedAbandonsAndResetsBaseline) {
  Msgs out;
  std::int64_t load = 10;
  TxnEndpoint ep(0, 2, false);
  ASSERT_TRUE(ep.triggered(load, 1.1));
  const std::uint32_t partners[] = {1, 2};
  ep.start(1, partners, load, out);
  out.clear();
  ep.on_message(msg(TxnMsgType::Refuse, 2, 0, 1), load, out);
  ep.on_message(msg(TxnMsgType::Refuse, 1, 0, 1), load, out);
  EXPECT_TRUE(out.empty());  // no Assign
  EXPECT_EQ(ep.state(), State::Idle);
  EXPECT_EQ(load, 10);
  EXPECT_EQ(ep.counters().abandoned, 1u);
  EXPECT_EQ(ep.counters().completed, 0u);
  // l_old is now 10: 10 no longer triggers, 11 does again.
  EXPECT_FALSE(ep.triggered(10, 1.1));
  EXPECT_TRUE(ep.triggered(11, 1.1));
}

TEST(TxnProtocol, NoPartnersIsAVoidOperation) {
  Msgs out;
  TxnEndpoint ep(0, 2, true);
  ep.start(1, {}, 10, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ep.state(), State::Idle);
  EXPECT_FALSE(ep.triggered(10, 1.1));
}

TEST(TxnProtocol, RemainderGoesToInitiatorThenPartnersInArrivalOrder) {
  Msgs out;
  std::int64_t load = 10;
  TxnEndpoint ep(0, 3, false);
  const std::uint32_t partners[] = {1, 2, 3};
  ep.start(4, partners, load, out);
  out.clear();
  // Pool 10 + 0 + 0 + 1 = 11 over 4: base 2, remainder 3.
  EXPECT_TRUE(ep.on_message(msg(TxnMsgType::Accept, 3, 0, 4, 0), load, out));
  EXPECT_TRUE(ep.on_message(msg(TxnMsgType::Accept, 1, 0, 4, 0), load, out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(ep.on_message(msg(TxnMsgType::Accept, 2, 0, 4, 1), load, out));
  EXPECT_EQ(load, 3);  // initiator first
  ASSERT_EQ(out.size(), 3u);
  expect_msg(out[0], TxnMsgType::Assign, 3, 4, 3);   // share 3
  expect_msg(out[1], TxnMsgType::Assign, 1, 4, 3);   // share 3
  expect_msg(out[2], TxnMsgType::Assign, 2, 4, 1);   // share 2, offered 1
  EXPECT_EQ(ep.state(), State::Idle);
  EXPECT_EQ(ep.counters().completed, 1u);
  EXPECT_FALSE(ep.triggered(3, 1.1));  // baseline is the new share
}

TEST(TxnProtocol, PartnerAppliesAssignAsDeltaAndUnlocks) {
  Msgs out;
  std::int64_t load = 4;
  TxnEndpoint ep(1, 2, false);
  ep.on_message(msg(TxnMsgType::Invite, 0, 1, 8), load, out);
  EXPECT_TRUE(ep.on_message(msg(TxnMsgType::Assign, 0, 1, 8, 3), load, out));
  EXPECT_EQ(load, 7);
  EXPECT_EQ(ep.state(), State::Idle);
  EXPECT_FALSE(ep.triggered(7, 1.1));
}

TEST(TxnProtocol, DuplicateAcceptOfTheLiveTransactionIsIgnored) {
  Msgs out;
  std::int64_t load = 6;
  TxnEndpoint ep(0, 2, true);
  const std::uint32_t partners[] = {1, 2};
  ep.start(5, partners, load, out);
  out.clear();
  EXPECT_TRUE(ep.on_message(msg(TxnMsgType::Accept, 1, 0, 5, 0), load, out));
  // The duplicate neither counts as a reply nor rolls the partner back,
  // and it does not re-arm the deadline.
  EXPECT_FALSE(ep.on_message(msg(TxnMsgType::Accept, 1, 0, 5, 0), load, out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ep.state(), State::Initiating);
  EXPECT_TRUE(ep.on_message(msg(TxnMsgType::Refuse, 2, 0, 5), load, out));
  ASSERT_EQ(out.size(), 1u);
  expect_msg(out[0], TxnMsgType::Assign, 1, 5, 3);
  out.clear();
  // A duplicate arriving after its partner got the real Assign is
  // ignored too: a rollback could overtake the real Assign.
  ep.on_message(msg(TxnMsgType::Accept, 1, 0, 5, 0), load, out);
  EXPECT_TRUE(out.empty());
}

TEST(TxnProtocol, StaleAcceptGetsRollbackAssign) {
  Msgs out;
  std::int64_t load = 6;
  TxnEndpoint ep(0, 2, true);
  const std::uint32_t partners[] = {1, 2};
  ep.start(5, partners, load, out);
  out.clear();
  ep.on_message(msg(TxnMsgType::Accept, 1, 0, 5, 2), load, out);
  ep.on_deadline(load, out);  // partner 2 stays silent
  ASSERT_EQ(out.size(), 1u);
  expect_msg(out[0], TxnMsgType::Assign, 1, 5, 2);  // pool 8 → 4 + 4
  out.clear();
  // Partner 2 accepted after all: it is locked on a closed transaction.
  ep.on_message(msg(TxnMsgType::Accept, 2, 0, 5, 9), load, out);
  ASSERT_EQ(out.size(), 1u);
  expect_msg(out[0], TxnMsgType::Assign, 2, 5, 0);
  EXPECT_EQ(load, 4);
  // Stale replies reach an initiator busy with a newer transaction too.
  out.clear();
  const std::uint32_t next[] = {2};
  ep.start(6, next, load, out);
  out.clear();
  ep.on_message(msg(TxnMsgType::Accept, 2, 0, 5, 9), load, out);
  ASSERT_EQ(out.size(), 1u);
  expect_msg(out[0], TxnMsgType::Assign, 2, 5, 0);
  EXPECT_EQ(ep.state(), State::Initiating);
}

TEST(TxnProtocol, DuplicateAssignAfterApplyIsANoOp) {
  Msgs out;
  std::int64_t load = 4;
  TxnEndpoint ep(1, 2, true);
  ep.on_message(msg(TxnMsgType::Invite, 0, 1, 8), load, out);
  ep.on_message(msg(TxnMsgType::Assign, 0, 1, 8, -2), load, out);
  ASSERT_EQ(load, 2);
  out.clear();
  ep.on_message(msg(TxnMsgType::Assign, 0, 1, 8, -2), load, out);
  EXPECT_EQ(load, 2);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ep.counters().lost_packets, 0u);
  EXPECT_EQ(ep.counters().lost_load, 0);
  // A duplicate Invite of the served transaction is refused.
  ep.on_message(msg(TxnMsgType::Invite, 0, 1, 8), load, out);
  ASSERT_EQ(out.size(), 1u);
  expect_msg(out[0], TxnMsgType::Refuse, 0, 8, 0);
  EXPECT_EQ(ep.state(), State::Idle);
}

TEST(TxnProtocol, AssignAfterPartnerTimeoutIsLostOnce) {
  Msgs out;
  std::int64_t load = 4;
  TxnEndpoint ep(1, 2, true);
  ep.on_message(msg(TxnMsgType::Invite, 0, 1, 8), load, out);
  ep.on_deadline(load, out);
  ep.on_message(msg(TxnMsgType::Assign, 0, 1, 8, -3), load, out);
  EXPECT_EQ(load, 4);
  EXPECT_EQ(ep.counters().lost_packets, 1u);
  EXPECT_EQ(ep.counters().lost_load, -3);
  ep.on_message(msg(TxnMsgType::Assign, 0, 1, 8, -3), load, out);
  EXPECT_EQ(ep.counters().lost_packets, 1u);
  EXPECT_EQ(ep.counters().lost_load, -3);
  EXPECT_EQ(out.size(), 1u);  // only the original Accept
}

TEST(TxnProtocol, PartnerDeadlineRollsBackUnchanged) {
  Msgs out;
  std::int64_t load = 4;
  TxnEndpoint ep(1, 2, true);
  ep.on_message(msg(TxnMsgType::Invite, 0, 1, 8), load, out);
  // Any delivery to a locked partner re-arms its deadline.
  EXPECT_TRUE(ep.on_message(msg(TxnMsgType::Invite, 2, 1, 9), load, out));
  EXPECT_TRUE(ep.on_message(msg(TxnMsgType::Refuse, 2, 1, 3), load, out));
  out.clear();
  ep.on_deadline(load, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(load, 4);
  EXPECT_EQ(ep.state(), State::Idle);
  EXPECT_EQ(ep.counters().timeouts, 1u);
  EXPECT_EQ(ep.counters().rollbacks, 1u);
  // The baseline is untouched by a rollback, and a duplicate of the
  // rolled-back Invite is refused.
  EXPECT_TRUE(ep.triggered(4, 1.1));
  ep.on_message(msg(TxnMsgType::Invite, 0, 1, 8), load, out);
  ASSERT_EQ(out.size(), 1u);
  expect_msg(out[0], TxnMsgType::Refuse, 0, 8, 0);
}

TEST(TxnProtocol, InitiatorDeadlineTreatsSilenceAsRefuse) {
  Msgs out;
  std::int64_t load = 9;
  TxnEndpoint ep(0, 3, true);
  const std::uint32_t partners[] = {1, 2, 3};
  ep.start(2, partners, load, out);
  out.clear();
  // Strays and duplicates do not re-arm; a resolved reply does.
  EXPECT_FALSE(ep.on_message(msg(TxnMsgType::Refuse, 1, 0, 1), load, out));
  EXPECT_FALSE(ep.on_message(msg(TxnMsgType::Invite, 4, 0, 3), load, out));
  EXPECT_TRUE(ep.on_message(msg(TxnMsgType::Accept, 3, 0, 2, 1), load, out));
  out.clear();
  ep.on_deadline(load, out);
  EXPECT_EQ(ep.state(), State::Idle);
  EXPECT_EQ(load, 5);  // pool 10 over {0, 3}
  ASSERT_EQ(out.size(), 1u);
  expect_msg(out[0], TxnMsgType::Assign, 3, 2, 4);
  EXPECT_EQ(ep.counters().timeouts, 1u);
  EXPECT_EQ(ep.counters().rollbacks, 0u);
  EXPECT_EQ(ep.counters().completed, 1u);
  // With nobody accepted the deadline abandons the operation.
  out.clear();
  ep.start(3, partners, load, out);
  out.clear();
  ep.on_deadline(load, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ep.counters().abandoned, 1u);
}

TEST(TxnProtocol, FaultFreeModeRejectsStraysAndDeadlines) {
  Msgs out;
  std::int64_t load = 3;
  TxnEndpoint idle(0, 2, false);
  EXPECT_THROW(idle.on_message(msg(TxnMsgType::Accept, 1, 0, 4), load, out),
               contract_error);
  EXPECT_THROW(idle.on_message(msg(TxnMsgType::Assign, 1, 0, 4, 1), load,
                               out),
               contract_error);
  TxnEndpoint initiator(0, 2, false);
  const std::uint32_t partners[] = {1, 2};
  initiator.start(5, partners, load, out);
  initiator.on_message(msg(TxnMsgType::Accept, 1, 0, 5), load, out);
  EXPECT_THROW(initiator.on_message(msg(TxnMsgType::Accept, 1, 0, 5), load,
                                    out),
               contract_error);
  EXPECT_THROW(initiator.on_message(msg(TxnMsgType::Refuse, 2, 0, 4), load,
                                    out),
               contract_error);
  EXPECT_THROW(initiator.on_deadline(load, out), contract_error);
  TxnEndpoint partner(1, 2, false);
  partner.on_message(msg(TxnMsgType::Invite, 0, 1, 5), load, out);
  EXPECT_THROW(partner.on_message(msg(TxnMsgType::Assign, 0, 1, 6, 1), load,
                                  out),
               contract_error);
}

// Seeded adversary: every message sent is dropped, duplicated or passed
// on, as a faulty link would (a dropped Assign is declared lost where it
// drops, as the threaded driver does); messages in flight are delivered
// in random order, and deadlines fire on busy endpoints at random.
TEST(TxnProtocol, AdversarialScheduleConservesModuloDeclaredLoss) {
  constexpr std::uint32_t kN = 6;
  TxnCounters all;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<TxnEndpoint> eps;
    std::vector<std::int64_t> loads;
    std::int64_t total = 0;
    for (std::uint32_t p = 0; p < kN; ++p) {
      eps.emplace_back(p, 2, true);
      loads.push_back(static_cast<std::int64_t>(rng.below(40)));
      total += loads.back();
    }
    Msgs flight;
    Msgs out;
    std::int64_t dropped_load = 0;
    std::uint64_t txn = 0;
    std::vector<std::uint32_t> partners;
    // 4000 steps with new transactions, then a drain until every message
    // is settled and every endpoint idle.
    for (int step = 0;; ++step) {
      const bool open = step < 4000;
      bool busy = false;
      for (const TxnEndpoint& ep : eps) busy |= ep.state() != State::Idle;
      if (!open && !busy && flight.empty()) break;
      const std::uint64_t roll = rng.below(100);
      const auto p = static_cast<std::uint32_t>(rng.below(kN));
      if (open && roll < 15 && eps[p].state() == State::Idle) {
        rng.sample_distinct_into(partners, kN, 2, p);
        eps[p].start(++txn, partners, loads[p], out);
      } else if ((roll < 25 || flight.empty()) &&
                 eps[p].state() != State::Idle) {
        eps[p].on_deadline(loads[p], out);
      } else if (!flight.empty()) {
        const auto k = static_cast<std::size_t>(rng.below(flight.size()));
        const TxnMessage m = flight[k];
        flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(k));
        eps[m.to].on_message(m, loads[m.to], out);
      }
      for (const TxnMessage& m : out) {
        const std::uint64_t fate = rng.below(100);
        if (fate < 10) {
          if (m.type == TxnMsgType::Assign) dropped_load += m.value;
          continue;
        }
        if (fate < 20) flight.push_back(m);  // duplicate
        flight.push_back(m);
      }
      out.clear();
    }
    std::int64_t sum = 0;
    std::int64_t lost = dropped_load;
    for (std::uint32_t p = 0; p < kN; ++p) {
      const TxnCounters& c = eps[p].counters();
      sum += loads[p];
      lost += c.lost_load;
      all.completed += c.completed;
      all.rollbacks += c.rollbacks;
      all.lost_packets += c.lost_packets;
    }
    EXPECT_EQ(sum, total - lost);
  }
  // The schedule reaches every fault path.
  EXPECT_GT(all.completed, 0u);
  EXPECT_GT(all.rollbacks, 0u);
  EXPECT_GT(all.lost_packets, 0u);
}

}  // namespace
}  // namespace dlb
