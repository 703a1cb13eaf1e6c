#include "re/engine.hpp"

#include <map>
#include <stdexcept>
#include <utility>

#include "lint/canonical.hpp"
#include "obs/obs.hpp"
#include "obs/run_context.hpp"

namespace lcl {

namespace {

/// The synthesized constant-round algorithm: evaluates the 0-round witness
/// at level k and lifts it down level by level via Lemma 3.9, simulating
/// the lift at every node within the radius-k view.
class SynthesizedAlgorithm final : public BallAlgorithm {
 public:
  /// Lifts through the first `levels` levels of `chain`, whose `pi_0` is
  /// `base` (the engine's effective, possibly lint-pruned, base);
  /// `new_to_old` translates its labels back to the original problem's
  /// (empty = identity).
  SynthesizedAlgorithm(const NodeEdgeCheckableLcl& base,
                       const IterateChain& chain, std::size_t levels,
                       ZeroRoundAlgorithm witness,
                       std::vector<Label> new_to_old)
      : base_(base),
        chain_(chain),
        levels_(levels),
        witness_(std::move(witness)),
        new_to_old_(std::move(new_to_old)) {}

  int radius(std::size_t advertised_n) const override {
    (void)advertised_n;
    return static_cast<int>(levels_);
  }

  std::vector<Label> outputs(const LocalView& view) const override {
    std::map<std::pair<std::size_t, NodeId>, std::vector<Label>> memo;
    std::vector<Label> result = labels_at(view, 0, view.center(), memo);
    if (!new_to_old_.empty()) {
      for (auto& l : result) l = new_to_old_[l];
    }
    return result;
  }

 private:
  /// Output labels of problem `f^level(pi)` at node `u`, one per port.
  std::vector<Label> labels_at(
      const LocalView& view, std::size_t level, NodeId u,
      std::map<std::pair<std::size_t, NodeId>, std::vector<Label>>& memo)
      const {
    const auto key = std::make_pair(level, u);
    if (auto it = memo.find(key); it != memo.end()) return it->second;

    const int degree = view.degree(u);
    std::vector<Label> result;
    if (level == levels_) {
      // Top of the sequence: apply the 0-round witness to u's input tuple.
      std::vector<Label> inputs(static_cast<std::size_t>(degree));
      for (int p = 0; p < degree; ++p) {
        inputs[static_cast<std::size_t>(p)] = view.input(u, p);
      }
      result = witness_.apply(inputs);
    } else {
      // Lemma 3.9 at this level: compute f^(level+1) labels at u and its
      // neighbors, then the two-step choice.
      const auto& lvl = chain_.level(level);
      const auto mine = labels_at(view, level + 1, u, memo);
      // Step 1: per edge, both endpoints pick the same psi-label pair; the
      // smaller-ID endpoint plays the role of "first".
      std::vector<Label> psi_labels(static_cast<std::size_t>(degree));
      for (int p = 0; p < degree; ++p) {
        const NodeId w = view.neighbor(u, p);
        const auto theirs = labels_at(view, level + 1, w, memo);
        const int q = view.twin_port(u, p);
        const Label xu = mine[static_cast<std::size_t>(p)];
        const Label xw = theirs[static_cast<std::size_t>(q)];
        psi_labels[static_cast<std::size_t>(p)] =
            (view.id(u) < view.id(w))
                ? choose_pair(lvl, xu, xw).first
                : choose_pair(lvl, xw, xu).second;
      }
      // Step 2: per node selection satisfying the lower-level node
      // constraint.
      result = choose_node(level, psi_labels);
    }
    memo.emplace(key, result);
    return result;
  }

  /// Lexicographically smallest pair (La, Lb) in meaning(xa) x meaning(xb)
  /// allowed by the psi edge constraint (deterministic; both endpoints
  /// compute it identically).
  std::pair<Label, Label> choose_pair(const SequenceLevel& lvl, Label xa,
                                      Label xb) const {
    for (const auto la : lvl.next.meaning[xa].to_vector()) {
      for (const auto lb : lvl.next.meaning[xb].to_vector()) {
        if (lvl.psi.problem.edge_allows(la, lb)) return {la, lb};
      }
    }
    throw std::logic_error(
        "SynthesizedAlgorithm: Rbar edge constraint violated");
  }

  std::vector<Label> choose_node(std::size_t level,
                                 const std::vector<Label>& psi_labels) const {
    const auto& lvl = chain_.level(level);
    const NodeEdgeCheckableLcl& lower =
        level == 0 ? base_ : chain_.level(level - 1).next.problem;
    std::vector<std::vector<Label>> options;
    options.reserve(psi_labels.size());
    for (const auto L : psi_labels) {
      options.push_back(lvl.psi.meaning[L].to_vector());
    }
    std::vector<Label> current(psi_labels.size());
    const auto search = [&](auto&& self, std::size_t pos) -> bool {
      if (pos == current.size()) {
        return lower.node_allows(Configuration(current));
      }
      for (const auto l : options[pos]) {
        current[pos] = l;
        if (self(self, pos + 1)) return true;
      }
      return false;
    };
    if (!search(search, 0)) {
      throw std::logic_error(
          "SynthesizedAlgorithm: R node constraint violated");
    }
    return current;
  }

  const NodeEdgeCheckableLcl& base_;
  const IterateChain& chain_;
  std::size_t levels_;
  ZeroRoundAlgorithm witness_;
  std::vector<Label> new_to_old_;
};

/// Relabels `step` to its label-permutation canonical form, permuting the
/// meaning table alongside (new_meaning[p[l]] = meaning[l]) so the lift
/// consumes the same label -> label-set associations.
void canonicalize(ReStep& step) {
  const auto form = lint::canonical_form(lint::spec_from_problem(step.problem));
  bool identity = true;
  for (std::size_t l = 0; identity && l < form.old_to_new.size(); ++l) {
    identity = form.old_to_new[l] == l;
  }
  if (identity) return;
  std::vector<LabelSet> meaning(step.meaning.size());
  for (std::size_t l = 0; l < step.meaning.size(); ++l) {
    meaning[form.old_to_new[l]] = step.meaning[l];
  }
  step.problem = lint::build_spec(form.spec);
  step.meaning = std::move(meaning);
}

}  // namespace

SpeedupEngine::SpeedupEngine(NodeEdgeCheckableLcl base)
    : base_(std::move(base)) {}

const NodeEdgeCheckableLcl& SpeedupEngine::problem_at(std::size_t i) const {
  if (i == 0) return base_;
  if (i <= steps_applied()) return chain_->level(i - 1).next.problem;
  throw std::out_of_range("SpeedupEngine::problem_at: step not computed");
}

const NodeEdgeCheckableLcl& SpeedupEngine::effective_base() const {
  if (chain_ && chain_->prunes() && chain_->preflight().changed) {
    return chain_->preflight().problem;
  }
  return base_;
}

SpeedupEngine::Outcome SpeedupEngine::run(const Options& options) {
  LCL_OBS_SPAN(run_span, "re/run", "re");
  LCL_OBS_COUNTER_ADD("re.runs", 1);
  witness_.reset();
  chain_.emplace(
      base_,
      IterateChain::LevelStep([this, limits = options.limits,
                               reduce = options.reduce,
                               canonical = options.canonicalize_iterates](
                                  const NodeEdgeCheckableLcl& current) {
        LCL_OBS_SPAN(step_span, "re/step", "re");
        LCL_OBS_SPAN_ARG(step_span, "index", chain_->size());
        SequenceLevel level = speedup_level(current, limits, reduce);
        // Pure renaming: the verdicts and the synthesized algorithm are
        // unchanged, and iterate specs stop depending on enumeration order.
        if (canonical) canonicalize(level.next);
        [[maybe_unused]] const std::size_t labels =
            level.next.problem.output_alphabet().size();
        [[maybe_unused]] const std::size_t node_configs =
            level.next.problem.total_node_configs();
        LCL_OBS_COUNTER_ADD("re.steps", 1);
        if (auto* run = obs::RunContext::current(); run != nullptr) {
          run->bump("engine_steps");
        }
        LCL_OBS_HISTOGRAM_RECORD("re.labels_per_step", labels);
        LCL_OBS_HISTOGRAM_RECORD("re.node_configs_per_step", node_configs);
        LCL_OBS_GAUGE_SET("re.current_labels", labels);
        LCL_OBS_SPAN_ARG(step_span, "labels", labels);
        LCL_OBS_SPAN_ARG(step_span, "node_configs", node_configs);
        return level;
      }),
      options.preflight_lint);

  // Dead labels occur in no correct solution on any instance, so the
  // pruned base has the same solvability, round complexity and 0-round
  // verdicts as the original; the walk's 0-round test keeps the `A_det`
  // witness of the iterate that stops it.
  const WalkOutcome walked =
      walk(*chain_, options.max_steps,
           [this, &options](const NodeEdgeCheckableLcl& problem) {
             witness_ = find_zero_round_algorithm(problem, options.degrees);
             return witness_.has_value();
           });
  witness_step_ = walked.zero_round_step;

  Outcome outcome;
  outcome.zero_round_step = walked.zero_round_step;
  outcome.budget_exhausted = walked.budget_exhausted;
  outcome.blowup_message = walked.message;
  outcome.detected_unsolvable = walked.detected_unsolvable;
  outcome.fixed_point = walked.fixed_point;
  outcome.preflight_dead_labels = walked.preflight_dead_labels;
  if (chain_->prunes()) {
    LCL_OBS_COUNTER_ADD("re.preflight_dead_labels",
                        walked.preflight_dead_labels);
    if (chain_->preflight().report.trivially_unsolvable) {
      LCL_OBS_EVENT1("re/preflight_unsolvable", "re", "dead_labels",
                     walked.preflight_dead_labels);
    }
    outcome.preflight_pruned = chain_->preflight().changed;
  }
  for (int i = 0; i < walked.steps_applied; ++i) {
    const SequenceLevel& level = chain_->level(static_cast<std::size_t>(i));
    StepStats stats;
    stats.index = i;
    stats.labels_psi = level.psi.problem.output_alphabet().size();
    stats.labels_next = level.next.problem.output_alphabet().size();
    stats.node_configs = level.next.problem.total_node_configs();
    stats.edge_configs = level.next.problem.edge_configs().size();
    stats.zero_round_solvable = i + 1 == walked.zero_round_step;
    outcome.steps.push_back(stats);
  }
  if (walked.fixed_point) {
    LCL_OBS_EVENT1("re/fixed_point", "re", "step", walked.steps_applied - 1);
  }
  return outcome;
}

std::unique_ptr<BallAlgorithm> SpeedupEngine::synthesize() const {
  LCL_OBS_SPAN(span, "re/synthesize", "re");
  if (!witness_) {
    throw std::logic_error(
        "SpeedupEngine::synthesize: no 0-round witness found; run() must "
        "succeed first");
  }
  // The witness lives at level `witness_step_`; the synthesized algorithm
  // lifts through exactly the levels below it.
  std::vector<Label> new_to_old;
  if (&effective_base() != &base_) {
    new_to_old = chain_->preflight().report.new_to_old;
  }
  return std::make_unique<SynthesizedAlgorithm>(
      effective_base(), *chain_, static_cast<std::size_t>(witness_step_),
      *witness_, std::move(new_to_old));
}

}  // namespace lcl
