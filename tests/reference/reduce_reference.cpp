// Reference label reduction: the original trim / merge / dominated-drop
// passes, kept verbatim (minus the observability call sites; the entry
// point takes its problem by value like `lcl::reduce`) so tests and
// benches can check and time the production `reduce()` against them. The
// merge pass here rebuilds every label's signature by rescanning all node
// configurations and copying each context into an ordered set; production
// builds the same signatures in one pass over the configurations. The
// dominated-label scan here is the original `LabelSet` pair search;
// production compares raw partner words.

#include "reference/reduce_reference.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "batch/survey.hpp"
#include "re/kernel.hpp"
#include "re/operators.hpp"
#include "util/label_set.hpp"

namespace lcl::reference {

namespace {

/// Labels that can occur in a correct solution: member of some node config,
/// some edge config, and of g(l) for some input l.
std::vector<char> usable_labels(const NodeEdgeCheckableLcl& p) {
  const std::size_t n = p.output_alphabet().size();
  std::vector<char> in_node(n, 0), in_edge(n, 0), in_g(n, 0);
  for (int d = 1; d <= p.max_degree(); ++d) {
    for (const auto& c : p.node_configs(d)) {
      for (const auto l : c.labels()) in_node[l] = 1;
    }
  }
  for (const auto& c : p.edge_configs()) {
    for (const auto l : c.labels()) in_edge[l] = 1;
  }
  for (Label in = 0; in < p.input_alphabet().size(); ++in) {
    for (const auto l : p.allowed_outputs(in).to_vector()) in_g[l] = 1;
  }
  std::vector<char> usable(n, 0);
  for (std::size_t l = 0; l < n; ++l) {
    usable[l] = in_node[l] && in_edge[l] && in_g[l];
  }
  return usable;
}

/// Rebuilds the problem keeping only labels in `keep` (classes mapped by
/// old_to_new). Configurations containing dropped labels are discarded;
/// duplicated configurations merge.
NodeEdgeCheckableLcl rebuild(const NodeEdgeCheckableLcl& p,
                             const std::vector<Label>& old_to_new,
                             const std::vector<Label>& new_to_old) {
  Alphabet out;
  for (const auto rep : new_to_old) {
    out.add(p.output_alphabet().name(rep));
  }
  NodeEdgeCheckableLcl::Builder builder(p.name(), p.input_alphabet(),
                                        std::move(out), p.max_degree());
  builder.allow_unsatisfiable_inputs();
  for (int d = 1; d <= p.max_degree(); ++d) {
    for (const auto& c : p.node_configs(d)) {
      std::vector<Label> mapped;
      mapped.reserve(c.size());
      bool ok = true;
      for (const auto l : c.labels()) {
        if (old_to_new[l] == Reduction::kDropped) {
          ok = false;
          break;
        }
        mapped.push_back(old_to_new[l]);
      }
      if (ok) builder.allow_node(mapped);
    }
  }
  for (const auto& c : p.edge_configs()) {
    const Label a = old_to_new[c[0]];
    const Label b = old_to_new[c[1]];
    if (a != Reduction::kDropped && b != Reduction::kDropped) {
      builder.allow_edge(a, b);
    }
  }
  for (Label in = 0; in < p.input_alphabet().size(); ++in) {
    for (const auto l : p.allowed_outputs(in).to_vector()) {
      if (old_to_new[l] != Reduction::kDropped) {
        builder.allow_output_for_input(in, old_to_new[l]);
      }
    }
  }
  return builder.build();
}

/// One trim pass; returns false if nothing was dropped.
bool trim_once(NodeEdgeCheckableLcl& p, std::vector<Label>& global_map,
               std::vector<Label>& reps) {
  const auto usable = usable_labels(p);
  const std::size_t n = p.output_alphabet().size();
  if (std::all_of(usable.begin(), usable.end(),
                  [](char u) { return u != 0; })) {
    return false;
  }
  std::vector<Label> old_to_new(n, Reduction::kDropped);
  std::vector<Label> new_to_old;
  for (std::size_t l = 0; l < n; ++l) {
    if (usable[l]) {
      old_to_new[l] = static_cast<Label>(new_to_old.size());
      new_to_old.push_back(static_cast<Label>(l));
    }
  }
  if (new_to_old.empty()) {
    throw std::runtime_error("reduce: no usable labels at all - the problem '" +
                             p.name() + "' is unsolvable on any graph");
  }
  try {
    p = rebuild(p, old_to_new, new_to_old);
  } catch (const std::logic_error& e) {
    // Dropping unusable labels emptied the node or edge constraint: no
    // correct solution exists on any graph with an edge.
    throw std::runtime_error(
        "reduce: trimming emptied the constraints of '" + p.name() +
        "' - the problem is unsolvable on any graph with an edge (" +
        e.what() + ")");
  }
  // Compose into the global old->new map and the representative list.
  for (auto& m : global_map) {
    if (m != Reduction::kDropped) m = old_to_new[m];
  }
  std::vector<Label> new_reps(new_to_old.size());
  for (std::size_t m = 0; m < new_to_old.size(); ++m) {
    new_reps[m] = reps[new_to_old[m]];
  }
  reps = std::move(new_reps);
  return true;
}

/// One merge pass; returns false if no labels were merged.
bool merge_once(NodeEdgeCheckableLcl& p, std::vector<Label>& global_map,
                std::vector<Label>& reps) {
  const std::size_t n = p.output_alphabet().size();
  // Signature: (edge partners, g-preimage, node signature).
  struct Signature {
    std::vector<std::uint32_t> partners;
    std::vector<char> g_preimage;
    std::set<std::vector<Label>> node_contexts;  // degree implicit in size
    bool operator<(const Signature& o) const {
      if (partners != o.partners) return partners < o.partners;
      if (g_preimage != o.g_preimage) return g_preimage < o.g_preimage;
      return node_contexts < o.node_contexts;
    }
  };
  std::map<Signature, std::vector<Label>> classes;
  for (Label l = 0; l < n; ++l) {
    Signature sig;
    sig.partners = p.edge_partners(l).to_vector();
    // Raw partner-set equality is sound even across class members: if
    // partners(o1) == partners(o2), then {o2,o2} in E implies {o1,o1} in E
    // (o2 in partners(o1) gives {o1,o2} in E, so o1 in partners(o2) =
    // partners(o1)), so simultaneous replacement preserves edges.
    sig.g_preimage.resize(p.input_alphabet().size());
    for (Label in = 0; in < p.input_alphabet().size(); ++in) {
      sig.g_preimage[in] = p.allowed_outputs(in).contains(l) ? 1 : 0;
    }
    for (int d = 1; d <= p.max_degree(); ++d) {
      for (const auto& c : p.node_configs(d)) {
        const auto& labels = c.labels();
        if (std::find(labels.begin(), labels.end(), l) == labels.end()) {
          continue;
        }
        // Delete one occurrence of l.
        std::vector<Label> context = labels;
        context.erase(std::find(context.begin(), context.end(), l));
        context.push_back(static_cast<Label>(d));  // tag with the degree
        sig.node_contexts.insert(std::move(context));
      }
    }
    classes[std::move(sig)].push_back(l);
  }
  if (classes.size() == n) return false;

  std::vector<Label> old_to_new(n, Reduction::kDropped);
  std::vector<Label> new_to_old;
  // Deterministic order: representative = smallest member; classes ordered
  // by representative.
  std::vector<std::vector<Label>> ordered;
  for (const auto& [sig, members] : classes) {
    (void)sig;
    ordered.push_back(members);
  }
  std::sort(ordered.begin(), ordered.end());
  for (const auto& members : ordered) {
    const Label fresh = static_cast<Label>(new_to_old.size());
    new_to_old.push_back(members.front());
    for (const auto m : members) old_to_new[m] = fresh;
  }
  p = rebuild(p, old_to_new, new_to_old);
  for (auto& m : global_map) {
    if (m != Reduction::kDropped) m = old_to_new[m];
  }
  std::vector<Label> new_reps(new_to_old.size());
  for (std::size_t m = 0; m < new_to_old.size(); ++m) {
    new_reps[m] = reps[new_to_old[m]];
  }
  reps = std::move(new_reps);
  return true;
}

/// Generic domination scan: the original `LabelSet`-based pair search.
/// Returns the first (dropped, dominator) pair in scan order, or false.
bool find_dominated_generic(const NodeEdgeCheckableLcl& p, Label& out_a,
                            Label& out_b) {
  const std::size_t n = p.output_alphabet().size();
  // The pass probes the same node configurations for every candidate pair;
  // the packed canonical-form memo answers each probe with one hash lookup.
  const NodeConfigIndex config_index(p);

  const auto dominated_by = [&](Label a, Label b) {
    if (!p.edge_partners(a).is_subset_of(p.edge_partners(b))) return false;
    for (Label in = 0; in < p.input_alphabet().size(); ++in) {
      if (p.allowed_outputs(in).contains(a) &&
          !p.allowed_outputs(in).contains(b)) {
        return false;
      }
    }
    for (int d = 1; d <= p.max_degree(); ++d) {
      for (const auto& c : p.node_configs(d)) {
        const auto& labels = c.labels();
        const auto it = std::find(labels.begin(), labels.end(), a);
        if (it == labels.end()) continue;
        std::vector<Label> replaced = labels;
        *std::find(replaced.begin(), replaced.end(), a) = b;
        std::sort(replaced.begin(), replaced.end());
        if (!config_index.allows_sorted(replaced.data(), replaced.size())) {
          return false;
        }
      }
    }
    return true;
  };

  for (Label a = 0; a < n; ++a) {
    for (Label b = 0; b < n; ++b) {
      if (a == b) continue;
      if (!dominated_by(a, b)) continue;
      if (dominated_by(b, a) && b > a) continue;  // tie: keep the smaller
      out_a = a;
      out_b = b;
      return true;
    }
  }
  return false;
}

/// One dominated-label elimination pass; returns false if nothing dropped.
///
/// Label `a` is dominated by `b != a` when
///   - partners(a) subseteq partners(b),
///   - g-preimage(a) subseteq g-preimage(b), and
///   - every node configuration containing `a` stays allowed when one
///     occurrence of `a` is replaced by `b`.
/// Replacing every occurrence of `a` by `b` then maps correct solutions to
/// correct solutions (nodes by induction over occurrences, edges by the
/// partner inclusion - including {b,b}: a in partners(a) subseteq
/// partners(b) gives {a,b} in E, so b in partners(a) subseteq partners(b)),
/// so dropping `a` preserves solvability and 0-round solvability. This is
/// the classic "non-maximal label" simplification of round-elimination
/// practice that the paper's Definition 3.1 deliberately does not apply.
bool drop_dominated_once(NodeEdgeCheckableLcl& p,
                         std::vector<Label>& global_map,
                         std::vector<Label>& reps) {
  const std::size_t n = p.output_alphabet().size();
  if (n < 2 || n > 4096) return false;  // quadratic pass: cap the size

  Label a = 0;
  Label b = 0;
  if (!find_dominated_generic(p, a, b)) return false;

  std::vector<Label> old_to_new(n, Reduction::kDropped);
  std::vector<Label> new_to_old;
  for (Label l = 0; l < n; ++l) {
    if (l == a) continue;
    old_to_new[l] = static_cast<Label>(new_to_old.size());
    new_to_old.push_back(l);
  }
  p = rebuild(p, old_to_new, new_to_old);
  for (auto& m : global_map) {
    if (m == Reduction::kDropped) continue;
    // A solution label that pointed at the dropped label follows its
    // dominator.
    m = old_to_new[m == a ? b : m];
  }
  std::vector<Label> new_reps(new_to_old.size());
  for (std::size_t m = 0; m < new_to_old.size(); ++m) {
    new_reps[m] = reps[new_to_old[m]];
  }
  reps = std::move(new_reps);
  return true;
}

}  // namespace

Reduction reduce(NodeEdgeCheckableLcl problem) {
  Reduction result;
  const std::size_t n = problem.output_alphabet().size();
  result.old_to_new.resize(n);
  for (std::size_t l = 0; l < n; ++l) {
    result.old_to_new[l] = static_cast<Label>(l);
  }
  result.problem = std::move(problem);

  // reps[m] = the original label the current label m corresponds to. For
  // merge classes any member is a valid representative; for dominance drops
  // it must be the *kept* label - tracking representatives through each
  // pass guarantees that.
  std::vector<Label> reps(n);
  for (std::size_t l = 0; l < n; ++l) reps[l] = static_cast<Label>(l);

  bool changed = true;
  while (changed) {
    changed = false;
    if (trim_once(result.problem, result.old_to_new, reps)) changed = true;
    if (merge_once(result.problem, result.old_to_new, reps)) changed = true;
    if (drop_dominated_once(result.problem, result.old_to_new, reps)) {
      changed = true;
    }
  }

  result.new_to_old = std::move(reps);
  return result;
}

NodeEdgeCheckableLcl d2l3_blowup_iterate() {
  batch::ExhaustiveFamilyOptions options;
  options.max_degree = 2;
  options.labels = 3;
  for (const auto& member : batch::exhaustive_family(options).members) {
    if (member.name != "d2l3-n13-e34") continue;
    NodeEdgeCheckableLcl current = member.problem;
    const ReLimits limits;
    for (int step = 0; step < 2; ++step) {
      const ReStep psi = lcl::reduce_step(apply_r(current, limits));
      current = lcl::reduce_step(apply_rbar(psi.problem, limits)).problem;
    }
    return apply_r(current, limits).problem;
  }
  throw std::logic_error("d2l3_blowup_iterate: member d2l3-n13-e34 missing");
}

}  // namespace lcl::reference
