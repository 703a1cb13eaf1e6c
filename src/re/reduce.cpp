#include "re/reduce.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "re/kernel.hpp"
#include "util/label_set.hpp"

namespace lcl {

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

/// One occurrence of a label in a node configuration: the label's context
/// is the configuration with position `skip` deleted, tagged with its
/// degree. Records point into the problem's configurations, so a context is
/// compared in place and never copied.
struct Occurrence {
  const Label* config;
  std::uint32_t degree;
  std::uint32_t skip;
};

/// Three-way comparison of two contexts: degree first, then the remaining
/// labels in order.
int compare_contexts(const Occurrence& a, const Occurrence& b) {
  if (a.degree != b.degree) return a.degree < b.degree ? -1 : 1;
  for (std::uint32_t k = 0; k + 1 < a.degree; ++k) {
    const Label x = a.config[k < a.skip ? k : k + 1];
    const Label y = b.config[k < b.skip ? k : k + 1];
    if (x != y) return x < y ? -1 : 1;
  }
  return 0;
}

/// The merge classes of `p`: rep[l] is the smallest label whose signature
/// equals l's. A signature is the label's edge partners, g-preimage, and the
/// set of node contexts (each node configuration containing the label with
/// one occurrence deleted, tagged with its degree). One pass over the
/// configurations buckets every distinct label occurrence per label;
/// sorting a bucket gives that label's context set, because distinct
/// configurations of one degree give a label distinct contexts.
std::vector<Label> merge_reps(const NodeEdgeCheckableLcl& p) {
  const std::size_t n = p.output_alphabet().size();

  // Bucket offsets: first[l] .. first[l + 1] index the occurrences of l.
  // Configurations are sorted, so equal labels are adjacent and each
  // configuration counts once per distinct label.
  std::vector<std::size_t> first(n + 1, 0);
  for (int d = 1; d <= p.max_degree(); ++d) {
    for (const auto& c : p.node_configs(d)) {
      const auto& labels = c.labels();
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i == 0 || labels[i] != labels[i - 1]) ++first[labels[i] + 1];
      }
    }
  }
  for (std::size_t l = 0; l < n; ++l) first[l + 1] += first[l];
  std::vector<Occurrence> occurrences(first[n]);
  std::vector<std::size_t> next(first.begin(), first.end() - 1);
  for (int d = 1; d <= p.max_degree(); ++d) {
    for (const auto& c : p.node_configs(d)) {
      const auto& labels = c.labels();
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0 && labels[i] == labels[i - 1]) continue;
        occurrences[next[labels[i]]++] =
            Occurrence{labels.data(), static_cast<std::uint32_t>(d),
                       static_cast<std::uint32_t>(i)};
      }
    }
  }

  const std::size_t inputs = p.input_alphabet().size();
  std::vector<char> g_preimage(n * inputs, 0);
  for (Label in = 0; in < inputs; ++in) {
    for (const auto l : p.allowed_outputs(in).to_vector()) {
      g_preimage[l * inputs + in] = 1;
    }
  }

  // Sort each bucket into its context set and hash the whole signature, so
  // only labels with equal hashes are compared exactly: once per label
  // against the run's representatives. Sorting the labels with the exact
  // comparator alone scans whole buckets O(k log k) times for a class of k
  // equal labels, and reduced the 511-label survey iterate
  // (BM_ReduceSlice_D2L3_Blowup) 1.1-1.4x slower.
  std::vector<std::uint64_t> hashes(n);
  for (Label l = 0; l < n; ++l) {
    const auto begin = occurrences.begin() + first[l];
    const auto end = occurrences.begin() + first[l + 1];
    std::sort(begin, end, [](const Occurrence& a, const Occurrence& b) {
      return compare_contexts(a, b) < 0;
    });
    std::uint64_t h = p.edge_partners(l).hash();
    const auto mix = [&h](std::uint64_t v) {
      h = (h ^ v) * 0x100000001b3ULL;
    };
    for (std::size_t in = 0; in < inputs; ++in) {
      mix(g_preimage[l * inputs + in]);
    }
    for (auto it = begin; it != end; ++it) {
      mix(it->degree);
      for (std::uint32_t k = 0; k < it->degree; ++k) {
        if (k != it->skip) mix(it->config[k]);
      }
    }
    hashes[l] = h;
  }

  // Raw partner-set equality is sound even across class members: if
  // partners(o1) == partners(o2), then {o2,o2} in E implies {o1,o1} in E
  // (o2 in partners(o1) gives {o1,o2} in E, so o1 in partners(o2) =
  // partners(o1)), so simultaneous replacement preserves edges.
  const auto same_signature = [&](Label a, Label b) {
    if (first[a + 1] - first[a] != first[b + 1] - first[b]) return false;
    if (p.edge_partners(a) != p.edge_partners(b)) return false;
    if (!std::equal(g_preimage.begin() + a * inputs,
                    g_preimage.begin() + (a + 1) * inputs,
                    g_preimage.begin() + b * inputs)) {
      return false;
    }
    for (std::size_t i = first[a], j = first[b]; i < first[a + 1]; ++i, ++j) {
      if (compare_contexts(occurrences[i], occurrences[j]) != 0) return false;
    }
    return true;
  };

  std::vector<Label> order(n);
  for (Label l = 0; l < n; ++l) order[l] = l;
  std::sort(order.begin(), order.end(), [&](Label a, Label b) {
    return hashes[a] != hashes[b] ? hashes[a] < hashes[b] : a < b;
  });
  std::vector<Label> rep(n);
  std::vector<Label> run_reps;
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j < n && hashes[order[j]] == hashes[order[i]]) ++j;
    run_reps.clear();
    for (std::size_t k = i; k < j; ++k) {
      const Label l = order[k];
      rep[l] = l;
      for (const Label r : run_reps) {
        if (same_signature(r, l)) {
          rep[l] = r;
          break;
        }
      }
      if (rep[l] == l) run_reps.push_back(l);
    }
    i = j;
  }
  return rep;
}

/// One merge pass; returns false if no labels were merged. Classes are
/// numbered by their smallest member, which is also the representative.
/// The signature buckets are freed before the rebuild, so the two never
/// add up in peak memory.
bool merge_once(NodeEdgeCheckableLcl& p, std::vector<Label>& global_map,
                std::vector<Label>& reps) {
  const std::size_t n = p.output_alphabet().size();
  const std::vector<Label> rep = merge_reps(p);
  std::size_t classes = 0;
  for (Label l = 0; l < n; ++l) classes += rep[l] == l ? 1 : 0;
  if (classes == n) return false;

  std::vector<Label> old_to_new(n, Reduction::kDropped);
  std::vector<Label> new_to_old;
  for (Label l = 0; l < n; ++l) {
    if (rep[l] == l) {
      old_to_new[l] = static_cast<Label>(new_to_old.size());
      new_to_old.push_back(l);
    } else {
      old_to_new[l] = old_to_new[rep[l]];
    }
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

/// The dominated-label scan: returns the first (dropped, dominator) pair in
/// scan order, or false. The per-pair work runs on precomputed dense
/// structures: edge-partner sets as `ceil(n / 64)` words per label in one
/// flat array (the subset test is a word-wise ANDNOT), `LabelSet`
/// g-preimages over the input alphabet, and per-label occurrence lists, so
/// a `dominated_by(a, b)` probe touches only the configurations that
/// actually contain `a`. `test_re_reduce_parity` fences the drop order
/// against the ordered-set scan in `tests/reference`.
bool find_dominated(const NodeEdgeCheckableLcl& p, Label& out_a,
                    Label& out_b) {
  const std::size_t n = p.output_alphabet().size();
  const NodeConfigIndex config_index(p);

  // Partner sets live over the output alphabet, so each has exactly
  // `words` storage words.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> partners(n * words);
  for (Label l = 0; l < n; ++l) {
    const LabelSet& set = p.edge_partners(l);
    for (std::size_t w = 0; w < words; ++w) {
      partners[l * words + w] = set.word(w);
    }
  }

  const std::size_t inputs = p.input_alphabet().size();
  std::vector<LabelSet> g_preimage(n, LabelSet(inputs));
  for (Label in = 0; in < inputs; ++in) {
    for (const auto l : p.allowed_outputs(in).to_vector()) {
      g_preimage[l].insert(in);
    }
  }

  // occurrences[l] = the node configurations containing l (each once, even
  // when l occurs multiple times - replacing any one occurrence yields the
  // same multiset after sorting).
  std::vector<std::vector<const Configuration*>> occurrences(n);
  for (int d = 1; d <= p.max_degree(); ++d) {
    for (const auto& c : p.node_configs(d)) {
      const auto& labels = c.labels();
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0 && labels[i] == labels[i - 1]) continue;  // sorted: dedup
        occurrences[labels[i]].push_back(&c);
      }
    }
  }

  std::vector<Label> replaced;
  const auto dominated_by = [&](Label a, Label b) {
    const std::uint64_t* pa = partners.data() + a * words;
    const std::uint64_t* pb = partners.data() + b * words;
    for (std::size_t w = 0; w < words; ++w) {
      if ((pa[w] & ~pb[w]) != 0) return false;
    }
    if (!g_preimage[a].is_subset_of(g_preimage[b])) return false;
    for (const Configuration* c : occurrences[a]) {
      replaced.assign(c->labels().begin(), c->labels().end());
      *std::find(replaced.begin(), replaced.end(), a) = b;
      std::sort(replaced.begin(), replaced.end());
      if (!config_index.allows_sorted(replaced.data(), replaced.size())) {
        return false;
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
  if (!find_dominated(p, a, b)) return false;

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

Reduction reduce(NodeEdgeCheckableLcl problem, ReKernel) {
  LCL_OBS_SPAN(span, "re/reduce", "re");
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

  // Each sub-pass runs under its own span, nested in re/reduce, so a trace
  // splits the reduction's time between the three passes.
  bool changed = true;
  while (changed) {
    changed = false;
    [[maybe_unused]] std::size_t before =
        result.problem.output_alphabet().size();
    {
      LCL_OBS_SPAN(trim_span, "re/reduce/trim", "re");
      if (trim_once(result.problem, result.old_to_new, reps)) {
        LCL_OBS_COUNTER_ADD("re.labels_trimmed",
                            before - result.problem.output_alphabet().size());
        changed = true;
      }
    }
    before = result.problem.output_alphabet().size();
    {
      LCL_OBS_SPAN(merge_span, "re/reduce/merge", "re");
      if (merge_once(result.problem, result.old_to_new, reps)) {
        LCL_OBS_COUNTER_ADD("re.labels_merged",
                            before - result.problem.output_alphabet().size());
        changed = true;
      }
    }
    {
      LCL_OBS_SPAN(dominate_span, "re/reduce/dominate", "re");
      if (drop_dominated_once(result.problem, result.old_to_new, reps)) {
        LCL_OBS_COUNTER_ADD("re.labels_dominated", 1);
        changed = true;
      }
    }
  }

  LCL_OBS_SPAN_ARG(span, "labels_in", n);
  LCL_OBS_SPAN_ARG(span, "labels_out", result.problem.output_alphabet().size());
  result.new_to_old = std::move(reps);
  return result;
}

ReStep reduce_step(ReStep step, ReKernel) {
  Reduction red = reduce(std::move(step.problem));
  ReStep out;
  out.meaning.reserve(red.new_to_old.size());
  for (const auto rep : red.new_to_old) {
    out.meaning.push_back(step.meaning[rep]);
  }
  out.problem = std::move(red.problem);
  return out;
}

}  // namespace lcl
