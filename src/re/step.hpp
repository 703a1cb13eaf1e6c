#pragma once

#include <stdexcept>
#include <vector>

#include "core/lcl.hpp"
#include "util/label_set.hpp"

namespace lcl {

/// The result of applying a round-elimination operator (`R` or `Rbar`,
/// Definitions 3.1/3.2) to a problem `Pi`: the derived node-edge-checkable
/// problem, together with the *meaning* of each of its output labels as a
/// set of `Pi`-output labels (the derived alphabets are subsets of the
/// predecessor's output alphabet; after label reduction, `meaning[l]` is the
/// set the representative label denotes).
///
/// The meanings are what make the derived problems executable: the Lemma
/// 3.9 lifting picks concrete predecessor labels out of these sets.
struct ReStep {
  NodeEdgeCheckableLcl problem;
  std::vector<LabelSet> meaning;  // indexed by output label of `problem`
};

/// Thrown when the faithful enumeration of a derived problem would exceed
/// the configured safety limits (the label/configuration counts grow doubly
/// exponentially along the sequence - the paper's parameter `S` in Theorem
/// 3.4 quantifies the same blow-up).
class ReBlowupError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Selects nothing: round elimination has one implementation per operation
/// (the operator fill in `re/kernel.hpp`, the dominated-label scan in
/// `re/reduce.cpp`). The type stays only because the benchmark harness under
/// `perfbench/` passes `ReLimits::kernel` to `reduce_step`; it goes once
/// that caller stops.
enum class ReKernel {
  kAuto,
};

/// Enumeration budgets and parallelism for the operators.
struct ReLimits {
  /// Maximum size of the derived output alphabet (before reduction).
  std::size_t max_labels = 4096;
  /// Maximum number of candidate configurations examined per constraint.
  std::uint64_t max_configs = 4'000'000;
  /// Selects nothing (see `ReKernel`).
  ReKernel kernel = ReKernel::kAuto;
  /// Worker threads for the operators' outer configuration enumeration
  /// (node-constraint multiset walk and edge-constraint rows). 1 = run
  /// inline on the calling thread; N > 1 partitions the enumeration across
  /// a `batch::Pool` and merges the per-worker results in deterministic
  /// order, so the built problem is byte-identical for every jobs value
  /// (fenced by the `--jobs=1` vs `--jobs=4` determinism test).
  std::size_t jobs = 1;
};

}  // namespace lcl
