// Reference round-elimination operators: the original `LabelSet`
// enumeration of R and Rbar, kept verbatim (the production fill runs on
// one-word label masks, src/re/kernel.cpp) so tests and benches can check
// and time the production operators against it.

#include "reference/operators_reference.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/combinatorics.hpp"
#include "util/label_mask.hpp"
#include "util/label_set.hpp"

namespace lcl::reference {

namespace {

/// True iff the multiset {sets[0], .., sets[d-1]} admits a selection that is
/// an allowed node configuration of `pi`. Checked per stored configuration
/// via a small backtracking matching (configurations and degrees are tiny).
bool exists_selection_in_node_constraint(const NodeEdgeCheckableLcl& pi,
                                         const std::vector<LabelSet>& sets) {
  const int degree = static_cast<int>(sets.size());
  for (const auto& config : pi.node_configs(degree)) {
    // Match each config label occurrence to a distinct slot whose set
    // contains it.
    const auto& labels = config.labels();
    std::vector<char> used(sets.size(), 0);
    // Recursive matching over config positions.
    const auto match = [&](auto&& self, std::size_t pos) -> bool {
      if (pos == labels.size()) return true;
      for (std::size_t slot = 0; slot < sets.size(); ++slot) {
        if (!used[slot] && sets[slot].contains(labels[pos])) {
          used[slot] = 1;
          if (self(self, pos + 1)) return true;
          used[slot] = 0;
        }
      }
      return false;
    };
    if (match(match, 0)) return true;
  }
  return false;
}

/// True iff EVERY selection from the sets is an allowed node configuration
/// of `pi`.
bool all_selections_in_node_constraint(const NodeEdgeCheckableLcl& pi,
                                       const std::vector<LabelSet>& sets) {
  // Search for a counterexample selection.
  const bool found_bad = for_each_selection(
      sets, [&](const std::vector<std::uint32_t>& selection) {
        return !pi.node_allows(
            Configuration(std::vector<Label>(selection.begin(),
                                             selection.end())));
      });
  return !found_bad;
}

std::vector<LabelSet> fill_generic(NodeEdgeCheckableLcl::Builder& builder,
                                   const NodeEdgeCheckableLcl& pi,
                                   bool exists_node) {
  const std::size_t base = pi.output_alphabet().size();
  std::vector<LabelSet> derived =
      all_nonempty_subsets(base, /*max_universe_bits=*/62);
  const std::size_t label_count = derived.size();

  // Precompute, per derived label B:
  //  - forall_partners(B) = { b : {b1, b} in E_Pi for ALL b1 in B }
  //  - exists_partners(B) = { b : {b1, b} in E_Pi for SOME b1 in B }
  std::vector<LabelSet> forall_partners(label_count, LabelSet(base));
  std::vector<LabelSet> exists_partners(label_count, LabelSet(base));
  for (std::size_t i = 0; i < label_count; ++i) {
    LabelSet all = LabelSet::full(base);
    LabelSet any(base);
    for (const auto b : derived[i].to_vector()) {
      all = all.intersect_with(pi.edge_partners(b));
      any = any.union_with(pi.edge_partners(b));
    }
    forall_partners[i] = std::move(all);
    exists_partners[i] = std::move(any);
  }

  // Edge constraint.
  for (std::size_t i = 0; i < label_count; ++i) {
    for (std::size_t j = i; j < label_count; ++j) {
      const bool allowed =
          exists_node
              // R: edge is the FORALL side.
              ? derived[j].is_subset_of(forall_partners[i])
              // Rbar: edge is the EXISTS side.
              : derived[j].intersects(exists_partners[i]);
      if (allowed) {
        builder.allow_edge(static_cast<Label>(i), static_cast<Label>(j));
      }
    }
  }

  // Node constraint per degree.
  std::vector<LabelSet> slot_sets;
  for (int d = 1; d <= pi.max_degree(); ++d) {
    for (const auto& multiset :
         enumerate_multisets(label_count, static_cast<std::size_t>(d))) {
      slot_sets.clear();
      for (const auto l : multiset) slot_sets.push_back(derived[l]);
      const bool allowed =
          exists_node ? exists_selection_in_node_constraint(pi, slot_sets)
                      : all_selections_in_node_constraint(pi, slot_sets);
      if (allowed) {
        builder.allow_node(
            std::vector<Label>(multiset.begin(), multiset.end()));
      }
    }
  }

  // g: derived label allowed for input l iff its meaning is a subset of
  // g_Pi(l).
  for (Label in = 0; in < pi.input_alphabet().size(); ++in) {
    const LabelSet& allowed = pi.allowed_outputs(in);
    for (std::size_t i = 0; i < label_count; ++i) {
      if (derived[i].is_subset_of(allowed)) {
        builder.allow_output_for_input(in, static_cast<Label>(i));
      }
    }
  }

  return derived;
}

/// The production operators' scaffolding without the observability call
/// sites: the alphabet guard and the naming of derived labels, the
/// configuration-count guard, then the generic fill.
ReStep apply_generic(const NodeEdgeCheckableLcl& pi, const ReLimits& limits,
                     bool exists_node, const char* name_prefix) {
  const std::size_t base = pi.output_alphabet().size();
  if (base >= 63 || ((std::uint64_t{1} << base) - 1) > limits.max_labels) {
    throw ReBlowupError(
        "round elimination: derived alphabet for '" + pi.name() +
        "' would have 2^" + std::to_string(base) +
        "-1 labels, exceeding the limit of " +
        std::to_string(limits.max_labels));
  }
  const auto namer = [&pi](std::uint32_t l) {
    return pi.output_alphabet().name(l);
  };
  Alphabet derived;
  const std::uint64_t label_count = (std::uint64_t{1} << base) - 1;
  for (std::uint64_t mask = 1; mask <= label_count; ++mask) {
    derived.add(LabelMask(base, mask).to_string(namer));
  }

  std::uint64_t candidates = count_multisets(label_count, 2);
  for (int d = 1; d <= pi.max_degree(); ++d) {
    const std::uint64_t c = count_multisets(label_count, d);
    candidates = candidates > limits.max_configs ? candidates
                                                 : candidates + c;
  }
  if (candidates > limits.max_configs) {
    throw ReBlowupError("round elimination: '" + std::string(name_prefix) +
                        "(" + pi.name() + ")' would need " +
                        std::to_string(candidates) +
                        " candidate configurations, exceeding the limit of " +
                        std::to_string(limits.max_configs));
  }

  NodeEdgeCheckableLcl::Builder builder(
      std::string(name_prefix) + "(" + pi.name() + ")", pi.input_alphabet(),
      std::move(derived), pi.max_degree());
  builder.allow_unsatisfiable_inputs();
  std::vector<LabelSet> meaning = fill_generic(builder, pi, exists_node);
  return ReStep{builder.build(), std::move(meaning)};
}

}  // namespace

ReStep apply_r_generic(const NodeEdgeCheckableLcl& pi,
                       const ReLimits& limits) {
  return apply_generic(pi, limits, /*exists_node=*/true, "R");
}

ReStep apply_rbar_generic(const NodeEdgeCheckableLcl& pi,
                          const ReLimits& limits) {
  return apply_generic(pi, limits, /*exists_node=*/false, "Rbar");
}

}  // namespace lcl::reference
