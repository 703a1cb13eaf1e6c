#pragma once

#include <vector>

#include "core/lcl.hpp"
#include "re/step.hpp"

namespace lcl {

/// Result of the sound label-level simplification of a problem.
struct Reduction {
  NodeEdgeCheckableLcl problem;
  /// For each old output label, its new label, or `kDropped`.
  std::vector<Label> old_to_new;
  /// For each new label, a representative old label.
  std::vector<Label> new_to_old;

  static constexpr Label kDropped = static_cast<Label>(-1);
};

/// Simplifies a node-edge-checkable problem without changing its set of
/// correct solutions up to relabeling - in particular, preserving
/// solvability on every instance, round complexity, and 0-round
/// solvability. Three passes, iterated to a fixed point:
///
///  1. *Trim*: drop output labels that appear in no node configuration, or
///     have no edge partner, or are permitted by no input label. Such
///     labels cannot occur in any correct solution, so removing them (and
///     every configuration mentioning them) is lossless.
///  2. *Merge*: identify output labels with identical behaviour - equal
///     edge partner sets, equal `g`-preimages, and equal node-configuration
///     signatures (the multisets obtained by deleting one occurrence of the
///     label from each configuration containing it). Replacing one such
///     label by the other maps correct solutions to correct solutions in
///     both directions, so the quotient problem is equivalent.
///  3. *Dominate*: drop one label `a` dominated by another label `b`
///     (partners(a) and the `g`-preimage of `a` are subsets of those of `b`,
///     and replacing one occurrence of `a` by `b` keeps every node
///     configuration allowed). Replacing every `a` by `b` maps correct
///     solutions to correct solutions, so dropping `a` preserves
///     solvability and 0-round solvability. Each call drops the first
///     dominated label in scan order; ties keep the smaller label.
///
/// Each pass runs under its own trace span (`re/reduce/trim`,
/// `re/reduce/merge`, `re/reduce/dominate`) nested in `re/reduce`.
///
/// The paper's operators deliberately skip such simplifications (note after
/// Definition 3.1); `reduce` is the practical counterpart that keeps the
/// faithful sequence computable for a few extra steps. The ablation bench
/// `bench_re_ablation` quantifies the difference.
///
/// The dominated-label pass is quadratic in the alphabet (post-operator
/// iterates routinely exceed 64 labels), so it compares partner sets as
/// `ceil(n / 64)` raw words per label, with the width worked out at run
/// time. The `ReKernel` parameter selects nothing; it stays for callers that
/// still pass `ReLimits::kernel` (see `ReKernel`).
///
/// `problem` is taken by value so callers that are done with it (such as
/// `reduce_step`) move it in instead of paying for a copy of an iterate
/// that can hold 10^5 configurations.
Reduction reduce(NodeEdgeCheckableLcl problem,
                 ReKernel kernel = ReKernel::kAuto);

/// Composes an operator step with a label reduction: the reduced problem's
/// label `l` means whatever the representative pre-reduction label meant.
/// This is how the engine (and the fuzzer's differential oracles) keep the
/// sequence computable while preserving the Lemma 3.9 lifting data. The
/// `ReKernel` parameter selects nothing, as for `reduce`.
ReStep reduce_step(ReStep step, ReKernel kernel = ReKernel::kAuto);

}  // namespace lcl
