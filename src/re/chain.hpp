#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <string>

#include "core/lcl.hpp"
#include "lint/analyzer.hpp"
#include "re/lift.hpp"
#include "re/step.hpp"

namespace lcl {

/// One `Rbar(R(.))` step of the sequence (Section 3.1), each operator
/// followed by `reduce_step` when `reduce_labels` is on, with both meaning
/// tables. Throws `ReBlowupError` when an operator exceeds `limits`, and
/// `std::runtime_error` when reduction trims every output label.
SequenceLevel speedup_level(const NodeEdgeCheckableLcl& current,
                            const ReLimits& limits = {},
                            bool reduce_labels = true);

/// `speedup_level`'s next problem alone (the meaning tables are dropped).
NodeEdgeCheckableLcl speedup_iterate(const NodeEdgeCheckableLcl& current,
                                     const ReLimits& limits = {},
                                     bool reduce_labels = true);

/// True when `next` repeats `prior` up to a renaming of output labels: the
/// round-elimination fixed point, the classic hardness certificate. A cheap
/// count signature (labels, edge and per-degree node configurations)
/// screens before the exact comparison.
bool is_fixed_point(const NodeEdgeCheckableLcl& next,
                    const NodeEdgeCheckableLcl& prior);

/// The sequence `pi_0, f(pi_0), f^2(pi_0), ...` of one problem, with
/// `f = Rbar o R`, built lazily and kept: every consumer walking the same
/// sequence (the cycle and path classifiers' O(1) probes, the survey's
/// engine summary) pays for the lint pre-flight and for each iterate once.
///
/// `pi_0` is the lint-pruned base (`lint::prune_problem`, zero-round pass
/// off) - or the base as given when pruning removes nothing or the chain
/// is built with `prune` off. Each step is kept as a `SequenceLevel`: a
/// chain built over a `LevelStep` keeps `psi` and the meaning tables the
/// Lemma 3.9 lift reads, a `Step` chain keeps the next problem alone.
/// Levels live in a deque, so references returned by `at` and `level` stay
/// valid while later iterates are added. Not thread-safe; one chain per
/// problem per thread.
class IterateChain {
 public:
  /// Computes `f(current)`; throws like `speedup_iterate`.
  using Step =
      std::function<NodeEdgeCheckableLcl(const NodeEdgeCheckableLcl&)>;
  /// Computes `f(current)` together with the meaning tables of `R` and
  /// `Rbar`; throws like `speedup_iterate`.
  using LevelStep = std::function<SequenceLevel(const NodeEdgeCheckableLcl&)>;

  /// `base` must outlive the chain.
  IterateChain(const NodeEdgeCheckableLcl& base, Step step,
               bool prune = true);
  IterateChain(const NodeEdgeCheckableLcl& base, LevelStep step,
               bool prune = true);
  /// A private chain: `speedup_iterate` under `limits`, reduction on.
  explicit IterateChain(const NodeEdgeCheckableLcl& base,
                        ReLimits limits = {});
  // The chain keeps a reference to its base: no temporaries.
  IterateChain(NodeEdgeCheckableLcl&&, Step, bool = true) = delete;
  IterateChain(NodeEdgeCheckableLcl&&, LevelStep, bool = true) = delete;
  explicit IterateChain(NodeEdgeCheckableLcl&&, ReLimits = {}) = delete;

  /// The problem as given.
  const NodeEdgeCheckableLcl& base() const noexcept { return base_; }
  /// Whether `pi_0` is the lint-pruned base.
  bool prunes() const noexcept { return prune_; }

  /// The lint pre-flight of `base`, computed on first use.
  const lint::PrunedProblem& preflight() const;

  /// `f^i(pi_0)`, computing the missing iterates `1..i` in order. A step
  /// that throws is not retried: its exception is kept and rethrown to
  /// every caller that asks for that step or a later one. Throws
  /// `std::logic_error` for a pruned chain whose pre-flight found the
  /// problem trivially unsolvable (L020) - it has no `pi_0`.
  const NodeEdgeCheckableLcl& at(std::size_t i);

  /// Number of steps computed so far.
  std::size_t size() const noexcept { return levels_.size(); }
  /// The computed step `f^i(pi_0) -> f^(i+1)(pi_0)`, `i < size()`.
  const SequenceLevel& level(std::size_t i) const { return levels_.at(i); }

 private:
  const NodeEdgeCheckableLcl& base_;
  LevelStep step_;
  bool prune_;
  mutable std::optional<lint::PrunedProblem> preflight_;
  std::deque<SequenceLevel> levels_;  // f^0 -> f^1, f^1 -> f^2, ...
  std::exception_ptr failure_;  // thrown by step levels_.size() + 1
};

/// How a walk over a chain ended. The fields are exclusive except for
/// `steps_applied` and `preflight_dead_labels`, which every walk reports.
struct WalkOutcome {
  /// The first `k` whose iterate passed the 0-round test; -1 if none did.
  int zero_round_step = -1;
  /// Steps computed before the walk stopped.
  int steps_applied = 0;
  /// The last step repeated its predecessor (`is_fixed_point`).
  bool fixed_point = false;
  /// A step exceeded the enumeration limits (`ReBlowupError`).
  bool budget_exhausted = false;
  /// The pre-flight found L020, or reduction trimmed every output label:
  /// no correct solution on any graph with an edge.
  bool detected_unsolvable = false;
  /// Dead output labels the pre-flight pruned (pruned chains only).
  std::size_t preflight_dead_labels = 0;
  /// What stopped a blown-up or unsolvable walk.
  std::string message;
};

/// The walk of Theorem 3.10 over `chain`: the first `k <= max_steps` whose
/// iterate `f^k(pi_0)` is 0-round solvable by `zero_round`. A pruned chain first consults
/// its pre-flight, and L020 ends the walk as unsolvable. The walk also
/// stops at a fixed point, at a step that blows up (`ReBlowupError`) or
/// that reduction proves unsolvable (any other `std::runtime_error`), and
/// when the budget runs out. Other exceptions propagate.
WalkOutcome walk(
    IterateChain& chain, int max_steps,
    const std::function<bool(const NodeEdgeCheckableLcl&)>& zero_round);

}  // namespace lcl
