#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/lcl.hpp"
#include "local/view.hpp"
#include "re/chain.hpp"
#include "re/lift.hpp"
#include "re/step.hpp"
#include "re/zero_round.hpp"

namespace lcl {

/// Drives the problem sequence `pi, f(pi), f^2(pi), ...` with
/// `f = Rbar o R` (Section 3.1) and tests each member for 0-round
/// solvability. This is the computational core of Theorem 3.10: if
/// `f^k(pi)` is 0-round solvable, then `pi` is solvable in `k` rounds on
/// forests of *any* size - and `synthesize()` returns that k-round
/// algorithm, built from the `A_det` witness by applying Lemma 3.9 `k`
/// times.
class SpeedupEngine {
 public:
  struct Options {
    int max_steps = 6;
    ReLimits limits;
    /// Apply the sound label reduction after each operator (recommended;
    /// without it the faithful sequence blows up after 1-2 steps). The
    /// ablation bench compares both settings.
    bool reduce = true;
    /// Node degrees the 0-round test must answer (empty = 1..max_degree,
    /// the forest setting; use {2} when classifying problems on cycles).
    std::vector<int> degrees;
    /// Run the `lclscape::lint` pre-flight before the first step: an L020
    /// verdict (trivially unsolvable) short-circuits the whole run, and
    /// dead-label pruning shrinks the base alphabet - cutting the
    /// `2^k - 1` power-set base that `R` pays - without changing any
    /// verdict.
    bool preflight_lint = true;
    /// Relabel each produced iterate to its label-permutation canonical
    /// form (`lint::canonical_form`) before it enters the sequence. Off by
    /// default - it pays one orbit search per step. Pure renaming: the
    /// iterate's meaning table is permuted alongside, so the lift chain
    /// (and every verdict) is unchanged; what it buys is iterate specs
    /// that are independent of operator enumeration order, so cross-run
    /// comparisons and shared step caches key on the same bytes.
    bool canonicalize_iterates = false;
  };

  /// Statistics for one applied step `pi_i -> pi_{i+1}`.
  struct StepStats {
    int index = 0;                 // i of the step pi_i -> pi_{i+1}
    std::size_t labels_psi = 0;    // |Sigma_out(R(pi_i))| after reduction
    std::size_t labels_next = 0;   // |Sigma_out(pi_{i+1})| after reduction
    std::size_t node_configs = 0;  // of pi_{i+1}
    std::size_t edge_configs = 0;  // of pi_{i+1}
    bool zero_round_solvable = false;  // of pi_{i+1}
  };

  struct Outcome {
    /// Step index k at which f^k(pi) became 0-round solvable (0 = the base
    /// problem already was); -1 if not found within the budget.
    int zero_round_step = -1;
    /// True if a step aborted due to enumeration limits.
    bool budget_exhausted = false;
    std::string blowup_message;
    /// True if the reduction proved the problem unsolvable on every graph
    /// with at least one edge (no output label survives trimming).
    bool detected_unsolvable = false;
    /// True if the (reduced) problem stopped changing between steps - a
    /// round-elimination fixed point, the classic hardness certificate
    /// (e.g. sinkless orientation).
    bool fixed_point = false;
    /// Pre-flight lint results (Options::preflight_lint): number of dead
    /// output labels pruned from the base problem, and whether the sequence
    /// was actually built from the pruned base.
    std::size_t preflight_dead_labels = 0;
    bool preflight_pruned = false;
    std::vector<StepStats> steps;
  };

  explicit SpeedupEngine(NodeEdgeCheckableLcl base);
  // The sequence refers to `base_`: an engine stays where it was built.
  SpeedupEngine(const SpeedupEngine&) = delete;
  SpeedupEngine& operator=(const SpeedupEngine&) = delete;

  /// Runs the sequence until 0-round solvability, a fixed point, the step
  /// budget, or an enumeration blow-up: one `walk` over an `IterateChain`
  /// whose steps keep the meaning tables the lift needs.
  Outcome run(const Options& options);

  /// Problem `f^i(pi)`; valid for `0 <= i <= steps applied`. Index 0 is the
  /// problem as given; when the pre-flight pruned it, the sequence for
  /// `i >= 1` is derived from `effective_base()` instead.
  const NodeEdgeCheckableLcl& problem_at(std::size_t i) const;
  /// The problem the sequence actually starts from: the lint-pruned base
  /// when the pre-flight removed dead labels, the base problem otherwise.
  const NodeEdgeCheckableLcl& effective_base() const;
  std::size_t steps_applied() const noexcept {
    return chain_ ? chain_->size() : 0;
  }

  /// After `run` found `zero_round_step == k`: the synthesized k-round
  /// LOCAL algorithm for the base problem (Theorem 3.10's conclusion). Its
  /// radius is the constant k, independent of n. Throws `std::logic_error`
  /// if no 0-round witness was found. The returned algorithm references
  /// this engine's state; the engine must outlive it.
  std::unique_ptr<BallAlgorithm> synthesize() const;

 private:
  NodeEdgeCheckableLcl base_;
  /// The last run's sequence over `base_`: its levels map
  /// effective_base() -> pi_1 -> ...; synthesized outputs are translated
  /// back to `base_` labels through the pre-flight's `new_to_old`.
  std::optional<IterateChain> chain_;
  std::optional<ZeroRoundAlgorithm> witness_;
  int witness_step_ = -1;
};

}  // namespace lcl
