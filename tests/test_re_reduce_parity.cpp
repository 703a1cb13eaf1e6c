// Parity of the production reduce() with the reference reduction (the
// original trim / merge / dominated-drop passes, tests/reference): on every
// input both must return the same Reduction - same constraints, same label
// names, same old_to_new and new_to_old - or fail with the same error. The
// maps record every merge and drop, so equal maps fence the pass order, not
// only the fixed point.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "batch/cache.hpp"
#include "batch/survey.hpp"
#include "core/lcl.hpp"
#include "core/problems.hpp"
#include "fuzz/generator.hpp"
#include "re/operators.hpp"
#include "re/reduce.hpp"
#include "reference/reduce_reference.hpp"

namespace lcl {
namespace {

using ReduceFn = Reduction (*)(NodeEdgeCheckableLcl);

/// Runs `reduce_fn` and records either the result or the error message.
std::optional<Reduction> try_reduce(ReduceFn reduce_fn,
                                    const NodeEdgeCheckableLcl& p,
                                    std::string& error) {
  try {
    return reduce_fn(p);
  } catch (const std::runtime_error& e) {
    error = e.what();
    return std::nullopt;
  }
}

void expect_same_reduction(const NodeEdgeCheckableLcl& p) {
  SCOPED_TRACE(p.name() + " (" +
               std::to_string(p.output_alphabet().size()) + " labels)");
  std::string fast_error, reference_error;
  const auto fast = try_reduce(
      [](NodeEdgeCheckableLcl q) { return reduce(std::move(q)); }, p,
      fast_error);
  const auto expected = try_reduce(&reference::reduce, p, reference_error);
  ASSERT_EQ(fast_error, reference_error);
  ASSERT_EQ(fast.has_value(), expected.has_value());
  if (!fast.has_value()) return;

  EXPECT_EQ(fast->problem.name(), expected->problem.name());
  EXPECT_TRUE(same_constraints(fast->problem, expected->problem));
  ASSERT_EQ(fast->problem.output_alphabet().size(),
            expected->problem.output_alphabet().size());
  for (Label l = 0; l < fast->problem.output_alphabet().size(); ++l) {
    EXPECT_EQ(fast->problem.output_alphabet().name(l),
              expected->problem.output_alphabet().name(l));
  }
  EXPECT_EQ(fast->old_to_new, expected->old_to_new);
  EXPECT_EQ(fast->new_to_old, expected->new_to_old);
  EXPECT_EQ(batch::constraint_signature(fast->problem),
            batch::constraint_signature(expected->problem));
}

/// Applies one operator; nullopt when it leaves the budget or cannot build
/// its output (an input label that a trimmed iterate left without outputs).
std::optional<ReStep> try_apply(ReStep (*op)(const NodeEdgeCheckableLcl&,
                                             const ReLimits&),
                                const NodeEdgeCheckableLcl& p) {
  try {
    return op(p, ReLimits{});
  } catch (const ReBlowupError&) {
    return std::nullopt;
  } catch (const std::logic_error&) {
    return std::nullopt;
  }
}

/// Checks parity on every R and Rbar output of the speedup sequence from
/// `base` (each reduced before the next operator, as the engine does) for
/// up to `max_steps` steps. Returns the number of iterates checked.
int check_sequence(const NodeEdgeCheckableLcl& base, int max_steps) {
  int checked = 0;
  NodeEdgeCheckableLcl current = base;
  for (int step = 0; step < max_steps; ++step) {
    auto psi = try_apply(&apply_r, current);
    if (!psi.has_value()) break;
    expect_same_reduction(psi->problem);
    ++checked;
    try {
      psi = reduce_step(std::move(*psi));
    } catch (const std::runtime_error&) {
      break;  // unsolvable iterate; parity of the error was checked above
    }
    auto next = try_apply(&apply_rbar, psi->problem);
    if (!next.has_value()) break;
    expect_same_reduction(next->problem);
    ++checked;
    try {
      current = reduce_step(std::move(*next)).problem;
    } catch (const std::runtime_error&) {
      break;
    }
  }
  return checked;
}

TEST(ReduceParity, EveryIterateOfTheDelta2L2Family) {
  batch::ExhaustiveFamilyOptions options;
  options.max_degree = 2;
  options.labels = 2;
  const auto family = batch::exhaustive_family(options);
  ASSERT_EQ(family.members.size(), 49u);
  int checked = 0;
  for (const auto& member : family.members) {
    expect_same_reduction(member.problem);
    checked += 1 + check_sequence(member.problem, 3);
  }
  EXPECT_GT(checked, 200);
}

TEST(ReduceParity, FuzzGeneratorSeeds) {
  fuzz::GeneratorOptions options;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    const auto problem = fuzz::random_case(options, seed).problem;
    expect_same_reduction(problem);
    check_sequence(problem, 1);
  }
}

TEST(ReduceParity, WideAlphabetFuzzSeeds) {
  // 64..130-label problems straddling the one-word mask seam, mostly dead
  // bulk around a few live labels: trim and merge do most of the work.
  fuzz::GeneratorOptions options;
  options.wide_alphabets = true;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    expect_same_reduction(fuzz::random_case(options, seed).problem);
  }
}

/// A degree-1 problem in which labels 1 and 2 differ only in one edge
/// partner, the last label, which lives in the top (partial) word of the
/// partner rows: partners(1) = {3} and partners(2) = {3, last}, so 1 is
/// dominated by 2 but not the other way round. Every other label has a
/// self-loop only, so nothing else is dominated first.
NodeEdgeCheckableLcl top_word_probe(int labels) {
  Alphabet out;
  for (int l = 0; l < labels; ++l) out.add("t" + std::to_string(l));
  NodeEdgeCheckableLcl::Builder b("top-word-probe", Alphabet({"-"}),
                                  std::move(out), /*max_degree=*/1);
  const auto last = static_cast<Label>(labels - 1);
  for (Label l = 0; l <= last; ++l) {
    b.allow_node({l});
    if (l != 1 && l != 2 && l != 3 && l != last) b.allow_edge(l, l);
  }
  b.allow_edge(1, 3);
  b.allow_edge(2, 3);
  b.allow_edge(2, last);
  b.unrestricted_inputs();
  return b.build();
}

TEST(ReduceParity, WordBoundaryThresholdBands) {
  // threshold_band keeps the dominated-label pass firing across the whole
  // alphabet, so reducing a 63..129-label instance walks the pass through
  // every intermediate size. The sizes bracket the 64- and 128-label word
  // seams of the partner-set rows. The top-word probes fail if the scan
  // drops the partial last word of a row.
  for (const int labels : {63, 64, 65, 127, 128, 129}) {
    expect_same_reduction(problems::threshold_band(labels, 8));
  }
  for (const int labels : {66, 129, 516}) {
    expect_same_reduction(top_word_probe(labels));
  }
}

TEST(ReduceParity, HundredTwentySevenLabelIterate) {
  // A 7-label base derives a 2^7 - 1 = 127-label iterate. Degree 1 keeps the
  // (many) dominated-label cascades cheap while still walking the pass
  // through every alphabet size from 127 down across the 64-label seam.
  const ReStep step = apply_r(problems::coloring(7, 1));
  ASSERT_EQ(step.problem.output_alphabet().size(), 127u);
  expect_same_reduction(step.problem);
}

TEST(ReduceParity, FiveHundredSixteenLabelBand) {
  // 516 labels: partner rows of nine words, and past 512 labels the cache
  // signature folds g label by label. A degree-1 band problem keeps the
  // cascade of drops cheap.
  constexpr int kLabels = 516;
  Alphabet out;
  for (int l = 0; l < kLabels; ++l) out.add("w" + std::to_string(l));
  NodeEdgeCheckableLcl::Builder b("wide-band", Alphabet({"-"}), std::move(out),
                                  /*max_degree=*/1);
  for (Label l = 0; l < kLabels; ++l) {
    b.allow_node({l});
    for (Label p = l; p < std::min<Label>(kLabels, l + 9); ++p) {
      b.allow_edge(l, p);
    }
  }
  b.unrestricted_inputs();
  expect_same_reduction(b.build());
}

TEST(ReduceParity, FiveHundredElevenLabelBlowupIterate) {
  const auto iterate = reference::d2l3_blowup_iterate();
  ASSERT_EQ(iterate.output_alphabet().size(), 511u);
  expect_same_reduction(iterate);
}

}  // namespace
}  // namespace lcl
