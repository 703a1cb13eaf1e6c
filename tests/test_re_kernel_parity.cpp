// Parity of the production round-elimination operators (`apply_r` /
// `apply_rbar`, one-word mask fill) with the original `LabelSet`
// enumeration in tests/reference: on every battery problem both must build
// the same derived problem and refuse the same inputs with the same
// messages, and the pool-partitioned fill must match the inline one.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "batch/cache.hpp"
#include "core/lcl.hpp"
#include "core/problems.hpp"
#include "re/kernel.hpp"
#include "re/operators.hpp"
#include "re/reduce.hpp"
#include "re/step.hpp"
#include "reference/operators_reference.hpp"

namespace lcl {
namespace {

using Operator = ReStep (*)(const NodeEdgeCheckableLcl&, const ReLimits&);

struct OperatorPair {
  const char* name;
  Operator production;
  Operator reference;
};

const OperatorPair kOperators[] = {
    {"R", &apply_r, &reference::apply_r_generic},
    {"Rbar", &apply_rbar, &reference::apply_rbar_generic},
};

/// Both derivations must agree on everything downstream code observes:
/// alphabet names in order, constraints, `g`, meanings and the batch cache
/// signature. The engine, batch surveys, lint preflight and fuzz oracles
/// only ever see these objects, so byte-identical verdicts follow.
void expect_same_step(const ReStep& expected, const ReStep& actual) {
  ASSERT_EQ(expected.problem.output_alphabet().size(),
            actual.problem.output_alphabet().size());
  for (Label l = 0; l < expected.problem.output_alphabet().size(); ++l) {
    ASSERT_EQ(expected.problem.output_alphabet().name(l),
              actual.problem.output_alphabet().name(l));
  }
  EXPECT_TRUE(same_constraints(expected.problem, actual.problem));
  EXPECT_EQ(expected.problem.name(), actual.problem.name());
  ASSERT_EQ(expected.meaning.size(), actual.meaning.size());
  for (std::size_t i = 0; i < expected.meaning.size(); ++i) {
    EXPECT_EQ(expected.meaning[i], actual.meaning[i]) << "meaning " << i;
  }
  EXPECT_EQ(batch::constraint_signature(expected.problem),
            batch::constraint_signature(actual.problem));
}

void expect_kernels_agree(const NodeEdgeCheckableLcl& pi) {
  for (const auto& op : kOperators) {
    SCOPED_TRACE(pi.name() + " / " + op.name);
    expect_same_step(op.reference(pi, ReLimits{}),
                     op.production(pi, ReLimits{}));
  }
}

/// The message `op` throws as a `ReBlowupError` on `pi`, or "" if it throws
/// none.
std::string blowup_message(Operator op, const NodeEdgeCheckableLcl& pi) {
  try {
    op(pi, ReLimits{});
  } catch (const ReBlowupError& e) {
    return e.what();
  }
  return "";
}

TEST(ReKernelParity, BatteryProblemsDeriveIdentically) {
  expect_kernels_agree(problems::two_coloring(2));
  expect_kernels_agree(problems::coloring(3, 2));
  expect_kernels_agree(problems::coloring(3, 3));
  expect_kernels_agree(problems::mis(3));
  expect_kernels_agree(problems::maximal_matching(3));
  expect_kernels_agree(problems::sinkless_orientation(3));
  expect_kernels_agree(problems::any_orientation(3));
  expect_kernels_agree(problems::perfect_matching(3));
  expect_kernels_agree(problems::weak_coloring(2, 3));
  expect_kernels_agree(problems::trivial(3));
}

// One iterate deep: parity must survive composition, i.e. hold on problems
// that are themselves operator outputs (reduced, as the engine runs them).
TEST(ReKernelParity, HoldsOnReducedFirstIterates) {
  for (const auto& seed :
       {problems::coloring(3, 3), problems::sinkless_orientation(3)}) {
    ReStep step = reference::apply_r_generic(seed);
    const Reduction reduced = reduce(step.problem);
    expect_kernels_agree(reduced.problem);
  }
}

TEST(ReKernelParity, BlowupErrorsMatchAcrossKernels) {
  // 13 output labels -> 2^13 - 1 = 8191 derived labels > max_labels = 4096:
  // both enumerations must refuse with the same message.
  const auto big = problems::coloring(13, 2);
  const std::string expected = blowup_message(&reference::apply_r_generic, big);
  EXPECT_NE(expected.find("derived alphabet"), std::string::npos);
  EXPECT_EQ(blowup_message(&apply_r, big), expected);
}

TEST(ReKernelParity, ConfigBlowupErrorsMatchAcrossKernels) {
  // A base that passes the alphabet guard but trips the configuration-count
  // guard: 11 labels at degree 3 -> 2047 derived labels, ~1.4e9 candidate
  // multisets > max_configs.
  const auto big = problems::coloring(11, 3);
  const std::string expected =
      blowup_message(&reference::apply_rbar_generic, big);
  EXPECT_NE(expected.find("candidate configurations"), std::string::npos);
  EXPECT_EQ(blowup_message(&apply_rbar, big), expected);
}

TEST(ReKernelParity, ParallelEnumerationIsDeterministic) {
  // jobs=1 (inline) vs jobs=4 (pool-partitioned) must build byte-identical
  // problems - constraints, meanings, and batch cache signatures - for both
  // operators. The merge happens in partition order, so this holds exactly,
  // not just up to reordering.
  for (const auto& pi :
       {problems::coloring(5, 3), problems::sinkless_orientation(3),
        problems::mis(3), problems::forbidden_color(4, 2)}) {
    for (const auto& op : kOperators) {
      SCOPED_TRACE(pi.name() + " / " + op.name);
      ReLimits serial;
      serial.jobs = 1;
      ReLimits parallel;
      parallel.jobs = 4;
      const ReStep four = op.production(pi, parallel);
      expect_same_step(op.production(pi, serial), four);
      // And the parallel result agrees with the reference enumeration too.
      expect_same_step(op.reference(pi, ReLimits{}), four);
    }
  }
}

TEST(NodeConfigIndexTest, AgreesWithNodeAllowsOnAllMultisets) {
  for (const auto& pi : {problems::mis(3), problems::coloring(3, 3),
                         problems::maximal_matching(3)}) {
    const NodeConfigIndex index(pi);
    const std::size_t n = pi.output_alphabet().size();
    for (int d = 1; d <= pi.max_degree(); ++d) {
      ASSERT_TRUE(index.packable(static_cast<std::size_t>(d)));
      // Every multiset over the alphabet, in canonical sorted form.
      std::vector<Label> tuple(static_cast<std::size_t>(d), 0);
      while (true) {
        std::vector<Label> sorted = tuple;
        std::sort(sorted.begin(), sorted.end());
        const bool expected = pi.node_allows(Configuration(sorted));
        EXPECT_EQ(index.allows_sorted(sorted.data(), sorted.size()), expected)
            << pi.name() << " d=" << d;
        std::size_t pos = tuple.size();
        while (pos > 0 && tuple[pos - 1] + 1 == n) --pos;
        if (pos == 0) break;
        ++tuple[pos - 1];
        std::fill(tuple.begin() + static_cast<std::ptrdiff_t>(pos),
                  tuple.end(), tuple[pos - 1]);
      }
    }
  }
}

TEST(NodeConfigIndexTest, TwoWordKeysCoverDegreesPast64Bits) {
  // 5 labels -> 3 bits per label. One word covers degrees up to 21
  // (63 bits); the two-word tier picks up 22..42 (66..126 bits); degree 43
  // (129 bits) is the first unpackable one.
  const auto pi = problems::coloring(5, 22);
  const NodeConfigIndex index(pi);
  EXPECT_EQ(index.packed_words(21), 1u);
  EXPECT_EQ(index.packed_words(22), 2u);
  EXPECT_EQ(index.packed_words(42), 2u);
  EXPECT_EQ(index.packed_words(43), 0u);
  EXPECT_TRUE(index.packable(22));

  // Probes through the two-word tier answer exactly like node_allows.
  std::vector<Label> rainbow;
  for (Label l = 0; l < 22; ++l) rainbow.push_back(l % 5);
  std::sort(rainbow.begin(), rainbow.end());
  EXPECT_EQ(index.allows_sorted(rainbow.data(), rainbow.size()),
            pi.node_allows(Configuration(rainbow)));
  for (Label c = 0; c < 5; ++c) {
    const std::vector<Label> mono(22, c);
    EXPECT_EQ(index.allows_sorted(mono.data(), mono.size()),
              pi.node_allows(Configuration(mono)));
    EXPECT_TRUE(index.allows_sorted(mono.data(), mono.size()));
  }
  // Two configs differing only in the highest-order (first) label must not
  // collide across the hi/lo word split.
  std::vector<Label> near_mono(22, 1);
  near_mono[21] = 2;  // sorted: {1 x21, 2}
  EXPECT_EQ(index.allows_sorted(near_mono.data(), near_mono.size()),
            pi.node_allows(Configuration(near_mono)));
  EXPECT_FALSE(index.allows_sorted(near_mono.data(), near_mono.size()));
}

TEST(NodeConfigIndexTest, FallsBackWhenDegreeDoesNotPack) {
  // 5 labels -> 3 bits per label; degree 43 needs 129 bits, beyond even the
  // two-word keys, so probes must still answer through the fallback.
  const auto pi = problems::coloring(5, 43);
  const NodeConfigIndex index(pi);
  EXPECT_FALSE(index.packable(43));
  EXPECT_TRUE(index.packable(42));
  std::vector<Label> rainbow;
  for (Label l = 0; l < 43; ++l) rainbow.push_back(l % 5);
  std::sort(rainbow.begin(), rainbow.end());
  EXPECT_EQ(index.allows_sorted(rainbow.data(), rainbow.size()),
            pi.node_allows(Configuration(rainbow)));
  const std::vector<Label> mono(43, 0);
  EXPECT_EQ(index.allows_sorted(mono.data(), mono.size()),
            pi.node_allows(Configuration(mono)));
}

}  // namespace
}  // namespace lcl
