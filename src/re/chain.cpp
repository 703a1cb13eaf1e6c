#include "re/chain.hpp"

#include <stdexcept>
#include <utility>

#include "re/operators.hpp"
#include "re/reduce.hpp"

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

SequenceLevel speedup_level(const NodeEdgeCheckableLcl& current,
                            const ReLimits& limits, bool reduce_labels) {
  SequenceLevel level{apply_r(current, limits), {}};
  if (reduce_labels) level.psi = reduce_step(std::move(level.psi));
  level.next = apply_rbar(level.psi.problem, limits);
  if (reduce_labels) level.next = reduce_step(std::move(level.next));
  return level;
}

NodeEdgeCheckableLcl speedup_iterate(const NodeEdgeCheckableLcl& current,
                                     const ReLimits& limits,
                                     bool reduce_labels) {
  return std::move(speedup_level(current, limits, reduce_labels).next.problem);
}

bool is_fixed_point(const NodeEdgeCheckableLcl& next,
                    const NodeEdgeCheckableLcl& prior) {
  return count_signature(next) == count_signature(prior) &&
         (same_constraints(next, prior) ||
          isomorphic_constraints(next, prior));
}

IterateChain::IterateChain(const NodeEdgeCheckableLcl& base, Step step,
                           bool prune)
    : IterateChain(base,
                   LevelStep([step = std::move(step)](
                                 const NodeEdgeCheckableLcl& current) {
                     SequenceLevel level;
                     level.next.problem = step(current);
                     return level;
                   }),
                   prune) {}

IterateChain::IterateChain(const NodeEdgeCheckableLcl& base, LevelStep step,
                           bool prune)
    : base_(base), step_(std::move(step)), prune_(prune) {}

IterateChain::IterateChain(const NodeEdgeCheckableLcl& base, ReLimits limits)
    : IterateChain(base, [limits](const NodeEdgeCheckableLcl& current) {
        return speedup_iterate(current, limits);
      }) {}

const lint::PrunedProblem& IterateChain::preflight() const {
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
    return pruned.changed ? pruned.problem : base_;
  }
  while (levels_.size() < i) {
    if (failure_) std::rethrow_exception(failure_);
    const NodeEdgeCheckableLcl& current = at(levels_.size());
    try {
      levels_.push_back(step_(current));
    } catch (...) {
      failure_ = std::current_exception();
      throw;
    }
  }
  return levels_[i - 1].next.problem;
}

WalkOutcome walk(
    IterateChain& chain, int max_steps,
    const std::function<bool(const NodeEdgeCheckableLcl&)>& zero_round) {
  WalkOutcome outcome;
  if (chain.prunes()) {
    const auto& preflight = chain.preflight();
    outcome.preflight_dead_labels = preflight.report.dead_labels;
    if (preflight.report.trivially_unsolvable) {
      outcome.detected_unsolvable = true;
      outcome.message =
          "preflight lint (L020): the pruned constraint set is empty";
      return outcome;
    }
  }
  if (zero_round(chain.at(0))) {
    outcome.zero_round_step = 0;
    return outcome;
  }
  for (int step = 1; step <= max_steps; ++step) {
    const NodeEdgeCheckableLcl* next = nullptr;
    try {
      next = &chain.at(static_cast<std::size_t>(step));
    } catch (const ReBlowupError& e) {
      outcome.budget_exhausted = true;
      outcome.message = e.what();
      return outcome;
    } catch (const std::runtime_error& e) {
      // reduce() throws when no output label survives trimming: the
      // problem admits no correct solution on any graph with an edge.
      outcome.detected_unsolvable = true;
      outcome.message = e.what();
      return outcome;
    }
    outcome.steps_applied = step;
    if (zero_round(*next)) {
      outcome.zero_round_step = step;
      return outcome;
    }
    if (is_fixed_point(*next, chain.at(static_cast<std::size_t>(step - 1)))) {
      outcome.fixed_point = true;
      return outcome;
    }
  }
  return outcome;
}

}  // namespace lcl
