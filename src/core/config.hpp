// Parameters of the load balancing algorithm.
//
// The paper exposes three knobs and proves how each trades balancing
// quality against cost:
//   f      — trigger factor: a processor starts a balancing operation when
//            its self-generated load has grown or shrunk by a factor f
//            since its last operation.  Smaller f = better balance, more
//            operations (§6).
//   delta  — number of random partners per operation.  Larger delta =
//            better balance (Thm 2: ratio bound delta/(delta+1-f)) at
//            higher per-operation cost.
//   C      — borrow cap: how many packets a processor without
//            self-generated load may "borrow" from other load classes
//            before a (more expensive) remote settlement is forced.
//            Larger C = fewer remote operations, looser additive bound
//            (Thm 4 degrades by +C).
// The theorems need 1 <= f < delta + 1; the constructor-style validate()
// enforces that plus delta < n.
#pragma once

#include <cstdint>
#include <string>

namespace dlb {

struct BalancerConfig {
  /// Trigger factor f (> 1 for a meaningful trigger; theory: f < delta+1).
  double f = 1.1;

  /// Partner count delta (the paper's δ); partners are drawn uniformly
  /// without replacement from the other n-1 processors.
  std::uint32_t delta = 1;

  /// Borrow cap C; 0 disables borrowing entirely (processors without
  /// self-generated load simply cannot consume foreign packets, which is
  /// the pre-§4 model).
  std::uint32_t borrow_cap = 4;

  /// [D7] Analysis-mode class exclusion: during a balancing operation,
  /// load class c of a *non-initiating* participant c is balanced only
  /// among the other participants (its own share stays put), as required
  /// by the §4 proof.  The practical algorithm of [7] (default) balances
  /// every class over all participants.
  bool analysis_mode = false;

  /// Throws contract_error if the configuration is unusable for a network
  /// of n processors.  `strict_theory` additionally enforces f < delta+1
  /// (the hypothesis of Theorems 1-4); the algorithm runs fine outside
  /// that regime, the bounds just no longer apply.
  void validate(std::uint32_t n, bool strict_theory = false) const;

  std::string describe() const;
};

}  // namespace dlb
