// Parity of the production reduce() with the reference reduction (the
// original trim / merge / dominated-drop passes, tests/reference): on every
// input both must return the same Reduction - same constraints, same label
// names, same old_to_new and new_to_old - or fail with the same error. The
// maps record every merge and drop, so equal maps fence the pass order, not
// only the fixed point.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "batch/survey.hpp"
#include "core/lcl.hpp"
#include "fuzz/generator.hpp"
#include "re/operators.hpp"
#include "re/reduce.hpp"
#include "reference/reduce_reference.hpp"

namespace lcl {
namespace {

using ReduceFn = Reduction (*)(NodeEdgeCheckableLcl, ReKernel);

/// Runs `reduce_fn` and records either the result or the error message.
std::optional<Reduction> try_reduce(ReduceFn reduce_fn,
                                    const NodeEdgeCheckableLcl& p,
                                    std::string& error) {
  try {
    return reduce_fn(p, ReKernel::kAuto);
  } catch (const std::runtime_error& e) {
    error = e.what();
    return std::nullopt;
  }
}

void expect_same_reduction(const NodeEdgeCheckableLcl& p) {
  SCOPED_TRACE(p.name() + " (" +
               std::to_string(p.output_alphabet().size()) + " labels)");
  std::string fast_error, reference_error;
  const auto fast = try_reduce(&reduce, p, fast_error);
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

TEST(ReduceParity, FiveHundredElevenLabelBlowupIterate) {
  const auto iterate = reference::d2l3_blowup_iterate();
  ASSERT_EQ(iterate.output_alphabet().size(), 511u);
  expect_same_reduction(iterate);
}

}  // namespace
}  // namespace lcl
