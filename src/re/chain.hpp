#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <vector>

#include "core/lcl.hpp"
#include "lint/analyzer.hpp"
#include "re/step.hpp"

namespace lcl {

/// One reduced `Rbar(R(.))` step of the sequence (Section 3.1), keeping
/// only the next problem (the lift chain's meaning tables are dropped).
/// Throws `ReBlowupError` when an operator exceeds `limits`, and
/// `std::runtime_error` when reduction trims every output label.
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
/// off) - or the base as given when the chain is built with `prune` off.
/// Iterates live in a deque, so references returned by `at` stay valid
/// while later iterates are added. Not thread-safe; one chain per problem
/// per thread.
class IterateChain {
 public:
  /// Computes `f(current)`; throws like `speedup_iterate`.
  using Step =
      std::function<NodeEdgeCheckableLcl(const NodeEdgeCheckableLcl&)>;

  /// `base` must outlive the chain.
  IterateChain(const NodeEdgeCheckableLcl& base, Step step,
               bool prune = true);
  /// A private chain: `speedup_iterate` under `limits`, reduction on.
  explicit IterateChain(const NodeEdgeCheckableLcl& base,
                        ReLimits limits = {});
  // The chain keeps a reference to its base: no temporaries.
  IterateChain(NodeEdgeCheckableLcl&&, Step, bool = true) = delete;
  explicit IterateChain(NodeEdgeCheckableLcl&&, ReLimits = {}) = delete;

  /// The problem as given.
  const NodeEdgeCheckableLcl& base() const noexcept { return base_; }

  /// The lint pre-flight of `base`, computed on first use.
  const lint::PrunedProblem& preflight();

  /// `f^i(pi_0)`, computing the missing iterates `1..i` in order. A step
  /// that throws is not retried: its exception is kept and rethrown to
  /// every caller that asks for that step or a later one. Throws
  /// `std::logic_error` for a pruned chain whose pre-flight found the
  /// problem trivially unsolvable (L020) - it has no `pi_0`.
  const NodeEdgeCheckableLcl& at(std::size_t i);

 private:
  const NodeEdgeCheckableLcl& base_;
  Step step_;
  bool prune_;
  std::optional<lint::PrunedProblem> preflight_;
  std::deque<NodeEdgeCheckableLcl> iterates_;  // f^1, f^2, ...
  std::exception_ptr failure_;  // thrown by step iterates_.size() + 1
};

/// The O(1) probe of Theorem 3.10 over a chain, with `SpeedupEngine::run`
/// semantics: the first `k <= max_steps` whose iterate is 0-round solvable
/// for the node `degrees` (`{2}` on cycles, `{1, 2}` on paths), or -1 when
/// a step blows up, reduction proves the problem unsolvable, the sequence
/// reaches a fixed point, or the budget runs out. The chain's pre-flight
/// must not be L020-unsolvable. Exceptions other than `std::runtime_error`
/// propagate.
int zero_round_collapse_step(IterateChain& chain,
                             const std::vector<int>& degrees, int max_steps);

}  // namespace lcl
