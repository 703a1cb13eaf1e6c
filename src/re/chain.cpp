#include "re/chain.hpp"

#include <stdexcept>
#include <utility>

#include "re/operators.hpp"
#include "re/reduce.hpp"
#include "re/zero_round.hpp"

namespace lcl {

namespace {

std::vector<std::size_t> count_signature(const NodeEdgeCheckableLcl& p) {
  std::vector<std::size_t> sig{p.output_alphabet().size(),
                               p.edge_configs().size()};
  for (int d = 1; d <= p.max_degree(); ++d) {
    sig.push_back(p.node_configs(d).size());
  }
  return sig;
}

}  // namespace

NodeEdgeCheckableLcl speedup_iterate(const NodeEdgeCheckableLcl& current,
                                     const ReLimits& limits,
                                     bool reduce_labels) {
  ReStep psi = apply_r(current, limits);
  if (reduce_labels) psi = reduce_step(std::move(psi));
  ReStep next = apply_rbar(psi.problem, limits);
  if (reduce_labels) next = reduce_step(std::move(next));
  return std::move(next.problem);
}

bool is_fixed_point(const NodeEdgeCheckableLcl& next,
                    const NodeEdgeCheckableLcl& prior) {
  return count_signature(next) == count_signature(prior) &&
         (same_constraints(next, prior) ||
          isomorphic_constraints(next, prior));
}

IterateChain::IterateChain(const NodeEdgeCheckableLcl& base, Step step,
                           bool prune)
    : base_(base), step_(std::move(step)), prune_(prune) {}

IterateChain::IterateChain(const NodeEdgeCheckableLcl& base, ReLimits limits)
    : IterateChain(base, [limits](const NodeEdgeCheckableLcl& current) {
        return speedup_iterate(current, limits);
      }) {}

const lint::PrunedProblem& IterateChain::preflight() {
  if (!preflight_) {
    lint::LintOptions options;
    options.zero_round = false;
    preflight_ = lint::prune_problem(base_, options);
  }
  return *preflight_;
}

const NodeEdgeCheckableLcl& IterateChain::at(std::size_t i) {
  if (i == 0) {
    if (!prune_) return base_;
    const auto& pruned = preflight();
    if (pruned.report.trivially_unsolvable) {
      throw std::logic_error(
          "IterateChain: the pre-flight found the problem trivially "
          "unsolvable; there is no sequence to walk");
    }
    return pruned.problem;
  }
  while (iterates_.size() < i) {
    if (failure_) std::rethrow_exception(failure_);
    const NodeEdgeCheckableLcl& current = at(iterates_.size());
    try {
      iterates_.push_back(step_(current));
    } catch (...) {
      failure_ = std::current_exception();
      throw;
    }
  }
  return iterates_[i - 1];
}

int zero_round_collapse_step(IterateChain& chain,
                             const std::vector<int>& degrees, int max_steps) {
  if (zero_round_solvable(chain.at(0), degrees)) return 0;
  for (int step = 1; step <= max_steps; ++step) {
    const NodeEdgeCheckableLcl* next = nullptr;
    try {
      next = &chain.at(static_cast<std::size_t>(step));
    } catch (const std::runtime_error&) {
      // An enumeration blow-up (ReBlowupError) or reduction trimming every
      // label: no collapse within reach, as in SpeedupEngine::run.
      return -1;
    }
    if (zero_round_solvable(*next, degrees)) return step;
    if (is_fixed_point(*next, chain.at(static_cast<std::size_t>(step - 1)))) {
      return -1;
    }
  }
  return -1;
}

}  // namespace lcl
