// The per-rank body of the SPMD balancer, shared by both transports.
//
// run_spmd_balancer (spmd_balance.cpp) runs this under the in-process
// World; run_spmd_balancer_socket (spmd_socket.cpp) runs it in a forked
// process over the socket transport.  The body is a template over the
// communicator type rather than a virtual interface: the two Comm
// classes already agree on names and semantics (tick / allgather_checked
// / send / recv_for / journal / declare_lost), and the per-step loop is
// the hot path — a template keeps the local backend's calls direct.
//
// The algorithm and its conservation argument are documented in
// mp/spmd_balance.hpp; this header is the mechanism only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/txn_protocol.hpp"
#include "mp/message.hpp"
#include "mp/spmd_balance.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workload/trace.hpp"

namespace dlb {

/// Per-rank outcome counters, owned by the caller (one writer per rank).
struct RankTallies {
  std::int64_t rounds_initiated = 0;
  std::int64_t packets_moved = 0;
  std::uint64_t recv_timeouts = 0;
  std::uint64_t degraded_rounds = 0;
};

namespace detail {

/// Draws up to `want` distinct live partners for `initiator` into
/// `partners` (cleared first), uniformly over the survivors, by
/// rejection from the full rank range.  Every rank runs this with the
/// same RNG stream and the same alive mask, so the draw is replicated
/// without coordination.  `draw_scratch` is reused caller scratch.
inline void draw_live_partners(std::vector<int>& partners,
                               std::vector<std::uint32_t>& draw_scratch,
                               Rng& decisions, int n, int initiator,
                               std::uint32_t want,
                               const std::vector<std::uint8_t>& alive,
                               int live_count) {
  partners.clear();
  const std::uint32_t k =
      std::min<std::uint32_t>(want, static_cast<std::uint32_t>(
                                        std::max(0, live_count - 1)));
  if (live_count == n) {
    // Healthy machine: draw exactly as the fault-free implementation
    // always did, so fault-free runs replay bit-identically.
    decisions.sample_distinct_into(draw_scratch,
                                   static_cast<std::uint32_t>(n), k,
                                   static_cast<std::uint32_t>(initiator));
    partners.assign(draw_scratch.begin(), draw_scratch.end());
    return;
  }
  partners.reserve(k);
  while (partners.size() < k) {
    const int v = static_cast<int>(
        decisions.below(static_cast<std::uint64_t>(n)));
    if (v == initiator || !alive[static_cast<std::size_t>(v)]) continue;
    if (std::find(partners.begin(), partners.end(), v) != partners.end())
      continue;
    partners.push_back(v);
  }
}

}  // namespace detail

template <class CommT>
void spmd_balance_rank(CommT& comm, const Trace& trace,
                       const SpmdParams& params, RankTallies& tally) {
  const int n = comm.size();
  const int me = comm.rank();
  const auto meu = static_cast<std::uint32_t>(me);
  const std::uint32_t steps = trace.horizon();
  std::int64_t load = 0;
  std::int64_t l_old = 0;
  std::int64_t generated = 0;
  std::int64_t consumed = 0;
  // Every rank runs the SAME decision RNG: decisions are replicated,
  // so no coordination messages are needed to agree on partners.
  Rng decisions(params.decision_seed);

  // Per-step working sets, hoisted so the steady-state loop reuses
  // their capacity instead of allocating per step/operation.
  struct Flow {
    int giver;
    int taker;
    std::int64_t amount;
    int tag;
  };
  GatherResult triggers;
  GatherResult loads;
  std::vector<Flow> flows;
  std::vector<int> partners;
  std::vector<std::uint32_t> draw_scratch;
  std::vector<int> group;
  std::vector<std::int64_t> share;
  std::vector<std::int64_t> delta_v;

  for (std::uint32_t t = 0; t < steps; ++t) {
    comm.tick();  // scheduled deaths happen here, before any step-t send
    const WorkEvent ev = trace.at(meu, t);
    if (ev.generate) {
      ++load;
      ++generated;
    }
    if (ev.consume && load > 0) {
      --load;
      ++consumed;
    }

    // Replicated balancing round over the survivors.
    comm.allgather_checked(drift_trigger(load, l_old, params.f) ? 1 : 0,
                           triggers);
    comm.allgather_checked(load, loads);
    // Ranks die only at their tick, so both step-t collectives carry
    // the same alive mask and the replicated decisions below consume
    // the decision stream identically on every survivor.
    const std::vector<std::uint8_t>& alive = loads.alive;
    const int live = loads.live_count();
    if (loads.degraded) ++tally.degraded_rounds;

    int flow_seq = 0;  // unique tags: losses cannot cross-match flows
    // The step's flow plan is computed first and communicated after:
    // all sends go out (non-blocking) before any receive blocks, so a
    // receive deadline can only expire on a packet that was genuinely
    // dropped (or whose sender died).  Interleaving sends with
    // blocking receives would chain deadline budgets -- one dropped
    // packet could stall a sender for the full timeout and push its
    // own outgoing packet into a photo-finish with the downstream
    // receiver's deadline, forking otherwise-deterministic runs.
    flows.clear();
    bool participated = false;
    for (int initiator = 0; initiator < n; ++initiator) {
      if (!alive[static_cast<std::size_t>(initiator)]) continue;
      if (!triggers.values[static_cast<std::size_t>(initiator)]) continue;
      // All survivors draw the same partners from the replicated RNG,
      // uniformly over the live ranks (the paper's uniform-choice
      // model, restricted to survivors).
      detail::draw_live_partners(partners, draw_scratch, decisions, n,
                                 initiator, params.delta, alive, live);
      if (partners.empty()) continue;
      group.clear();
      group.push_back(initiator);
      group.insert(group.end(), partners.begin(), partners.end());
      std::int64_t pool = 0;
      for (int g : group) pool += loads.values[static_cast<std::size_t>(g)];
      const auto m = static_cast<std::int64_t>(group.size());
      const std::int64_t base = pool / m;
      const std::int64_t rem = pool % m;
      // Deal shares deterministically (rotation from the replicated
      // RNG keeps the remainder fair).
      const std::size_t start =
          static_cast<std::size_t>(decisions.below(group.size()));
      share.assign(group.size(), base);
      for (std::int64_t k = 0; k < rem; ++k)
        share[(start + static_cast<std::size_t>(k)) % group.size()] += 1;
      // Surplus members ship packets to deficit members (every rank
      // computes the same flow plan, but only the endpoints act on
      // it).  The plan is recorded here and executed below.
      delta_v.assign(group.size(), 0);
      for (std::size_t i = 0; i < group.size(); ++i)
        delta_v[i] =
            share[i] - loads.values[static_cast<std::size_t>(group[i])];
      std::size_t give = 0;
      std::size_t take = 0;
      while (true) {
        while (give < group.size() && delta_v[give] >= 0) ++give;
        while (take < group.size() && delta_v[take] <= 0) ++take;
        if (give >= group.size() || take >= group.size()) break;
        const std::int64_t amount = std::min(-delta_v[give], delta_v[take]);
        const int tag =
            static_cast<int>(t) * 4096 + (flow_seq++ & 4095);
        if (group[give] == me || group[take] == me)
          flows.push_back(Flow{group[give], group[take], amount, tag});
        delta_v[give] += amount;
        delta_v[take] -= amount;
      }
      // Commit the replicated view so later groups in this step see
      // the post-balance shares.
      for (std::size_t i = 0; i < group.size(); ++i) {
        loads.values[static_cast<std::size_t>(group[i])] = share[i];
        if (group[i] == me) participated = true;
      }
      if (initiator == me) ++tally.rounds_initiated;
    }

    // Execute the plan.  The sender debits itself at send time and
    // the receiver credits itself on arrival, so a lost packet is
    // load in no one's ledger — exactly what the receiver then
    // declares lost.  Send everything first: sends never block.
    for (const Flow& f : flows) {
      if (f.giver != me) continue;
      comm.send(f.taker, f.tag, {f.amount});
      load -= f.amount;
    }
    for (const Flow& f : flows) {
      if (f.taker != me) continue;
      const std::optional<MpMessage> msg =
          comm.recv_for(f.giver, f.tag, params.recv_timeout);
      if (msg.has_value()) {
        load += msg->payload[0];
        tally.packets_moved += msg->payload[0];
      } else {
        ++tally.recv_timeouts;
        comm.declare_lost(f.amount);
      }
    }
    // Participants reset their trigger baseline (§4: an operation
    // counts as delta+1 independent operations).  The baseline is the
    // *actual* local load — under loss it may differ from the share,
    // and the next step's allgather resynchronizes the replicated
    // view with reality.
    if (participated) l_old = load;

    // Journal after the step's transfers so the shadow is exact; the
    // journal commits at checkpoint boundaries (FaultPlan interval).
    comm.journal(load, generated, consumed);
  }
}

}  // namespace dlb
