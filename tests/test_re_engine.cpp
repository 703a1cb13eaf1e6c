#include "re/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "batch/survey.hpp"
#include "core/brute_force.hpp"
#include "core/checker.hpp"
#include "core/problems.hpp"
#include "graph/generators.hpp"
#include "fuzz/generator.hpp"
#include "graph/labeling.hpp"
#include "re/chain.hpp"
#include "re/lift.hpp"
#include "re/operators.hpp"
#include "re/reduce.hpp"
#include "re/zero_round.hpp"

namespace lcl {
namespace {

TEST(ZeroRound, TrivialProblemIsZeroRoundSolvable) {
  const auto witness = find_zero_round_algorithm(problems::trivial(3));
  ASSERT_TRUE(witness.has_value());
  // Applying the witness on any input tuple yields label 0 everywhere.
  EXPECT_EQ(witness->apply({0, 0, 0}), (std::vector<Label>{0, 0, 0}));
}

TEST(ZeroRound, ColoringIsNot) {
  EXPECT_FALSE(zero_round_solvable(problems::coloring(3, 2)));
  EXPECT_FALSE(zero_round_solvable(problems::coloring(4, 3)));
  EXPECT_FALSE(zero_round_solvable(problems::two_coloring(2)));
}

TEST(ZeroRound, OrientationNeedsSymmetryBreaking) {
  // any_orientation is O(1) (orient toward larger ID) but NOT 0-round: a
  // 0-round map would put some fixed label on two adjacent equal-degree
  // nodes, and neither {O,O} nor {I,I} is a valid edge.
  EXPECT_FALSE(zero_round_solvable(problems::any_orientation(2)));
  EXPECT_FALSE(zero_round_solvable(problems::sinkless_orientation(3)));
  EXPECT_FALSE(zero_round_solvable(problems::mis(3)));
  EXPECT_FALSE(zero_round_solvable(problems::maximal_matching(3)));
}

TEST(ZeroRound, WitnessRespectsInputs) {
  // Inputful problem where a 0-round solution exists: two output labels
  // u, v; every node/edge combination allowed; g forces u on input "a" and
  // v on input "b".
  Alphabet in({"a", "b"});
  Alphabet out({"u", "v"});
  NodeEdgeCheckableLcl::Builder b("forced-by-input", in, out, 2);
  b.allow_node({0}).allow_node({1}).allow_node({0, 0}).allow_node({0, 1});
  b.allow_node({1, 1});
  b.allow_edge(0, 0).allow_edge(0, 1).allow_edge(1, 1);
  b.allow_output_for_input(0, 0);
  b.allow_output_for_input(1, 1);
  const auto problem = b.build();

  const auto witness = find_zero_round_algorithm(problem);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->apply({0, 1}), (std::vector<Label>{0, 1}));
  EXPECT_EQ(witness->apply({1, 0}), (std::vector<Label>{1, 0}));

  // Same problem, but the mixed edge is forbidden: now inputs "a" and "b"
  // on the two sides of an edge force an invalid configuration, so no
  // 0-round (in fact no) algorithm exists.
  NodeEdgeCheckableLcl::Builder b2("forced-conflict", in, out, 2);
  b2.allow_node({0}).allow_node({1}).allow_node({0, 0}).allow_node({0, 1});
  b2.allow_node({1, 1});
  b2.allow_edge(0, 0).allow_edge(1, 1);
  b2.allow_output_for_input(0, 0);
  b2.allow_output_for_input(1, 1);
  EXPECT_FALSE(zero_round_solvable(b2.build()));
}

TEST(ZeroRound, ApplyUndoesSorting) {
  Alphabet in({"a", "b"});
  Alphabet out({"u", "v"});
  ZeroRoundAlgorithm algo;
  algo.outputs[{0, 1}] = {0, 1};  // sorted inputs a,b -> u,v
  EXPECT_EQ(algo.apply({1, 0}), (std::vector<Label>{1, 0}));
  EXPECT_EQ(algo.apply({0, 1}), (std::vector<Label>{0, 1}));
  EXPECT_THROW(algo.apply({0, 0}), std::out_of_range);
}

TEST(Lift, Lemma39OnPaths) {
  // Compute f(two_coloring) = Rbar(R(.)), solve it by brute force on an
  // even path, lift, and check the lifted labeling properly 2-colors.
  const auto pi = problems::two_coloring(2);
  SequenceLevel level;
  level.psi = apply_r(pi);
  level.next = apply_rbar(level.psi.problem);

  Graph g = make_path(6);
  const auto input = uniform_labeling(g, 0);
  const auto derived_solution =
      brute_force_solve(level.next.problem, g, input);
  ASSERT_TRUE(derived_solution.has_value());
  const auto check_derived =
      check_solution(level.next.problem, g, input, *derived_solution);
  ASSERT_TRUE(check_derived.ok()) << check_derived.to_string();

  const auto lifted = lift_solution(pi, level, g, input, *derived_solution);
  const auto check = check_solution(pi, g, input, lifted);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

TEST(Lift, Lemma39OnTreesForColoring) {
  const auto pi = problems::coloring(3, 3);
  SequenceLevel level;
  level.psi = apply_r(pi);
  level.next = apply_rbar(level.psi.problem);

  SplitRng rng(5);
  Graph g = make_random_tree(14, 3, rng);
  const auto input = uniform_labeling(g, 0);
  const auto derived_solution =
      brute_force_solve(level.next.problem, g, input);
  ASSERT_TRUE(derived_solution.has_value());
  const auto lifted = lift_solution(pi, level, g, input, *derived_solution);
  EXPECT_TRUE(is_correct_solution(pi, g, input, lifted));
}

TEST(Engine, TrivialCollapsesAtStepZero) {
  SpeedupEngine engine(problems::trivial(3));
  const auto outcome = engine.run({});
  EXPECT_EQ(outcome.zero_round_step, 0);
  EXPECT_FALSE(outcome.budget_exhausted);
}

TEST(Engine, OrientationCollapsesQuicklyAndSynthesizes) {
  // any_orientation is 1-round solvable, so by the Theorem 3.10 machinery
  // f^1 of it must be 0-round solvable; the engine should find a small k
  // and synthesize a correct k-round algorithm.
  SpeedupEngine engine(problems::any_orientation(2));
  SpeedupEngine::Options options;
  options.max_steps = 3;
  const auto outcome = engine.run(options);
  ASSERT_GE(outcome.zero_round_step, 1);
  ASSERT_LE(outcome.zero_round_step, 3);

  const auto algorithm = engine.synthesize();
  EXPECT_EQ(algorithm->radius(1u << 20), outcome.zero_round_step);

  SplitRng rng(11);
  const auto problem = problems::any_orientation(2);
  for (std::size_t n : {2u, 7u, 40u}) {
    Graph g = make_path(n);
    const auto input = uniform_labeling(g, 0);
    const auto ids = random_distinct_ids(g, 3, rng);
    const auto output = run_ball_algorithm(*algorithm, g, input, ids);
    const auto check = check_solution(problem, g, input, output);
    EXPECT_TRUE(check.ok()) << "n=" << n << "\n" << check.to_string();
  }
}

TEST(Engine, LogStarProblemDoesNotCollapse) {
  // 3-coloring has complexity Theta(log* n): no f^k may become 0-round
  // solvable. Within a small step budget the engine must not claim success.
  SpeedupEngine engine(problems::coloring(3, 2));
  SpeedupEngine::Options options;
  options.max_steps = 3;
  options.limits.max_labels = 1u << 14;
  options.limits.max_configs = 2'000'000;
  const auto outcome = engine.run(options);
  EXPECT_EQ(outcome.zero_round_step, -1);
}

TEST(Engine, GlobalProblemDoesNotCollapse) {
  SpeedupEngine engine(problems::two_coloring(2));
  SpeedupEngine::Options options;
  options.max_steps = 3;
  const auto outcome = engine.run(options);
  EXPECT_EQ(outcome.zero_round_step, -1);
}

TEST(Engine, DetectsUnsolvableProblems) {
  // Output b is demanded by the edge constraint but allowed around no
  // node: trimming empties the alphabet and the engine reports it.
  Alphabet in({"-"});
  Alphabet out({"a", "b"});
  NodeEdgeCheckableLcl::Builder b("dead-end", in, out, 2);
  b.allow_node({0, 0}).allow_node({0});
  b.allow_edge(0, 1);
  b.unrestricted_inputs();
  SpeedupEngine engine(b.build());
  const auto outcome = engine.run({});
  EXPECT_TRUE(outcome.detected_unsolvable);
  EXPECT_EQ(outcome.zero_round_step, -1);
}

TEST(Engine, SynthesizeWithoutWitnessThrows) {
  SpeedupEngine engine(problems::coloring(3, 2));
  SpeedupEngine::Options options;
  options.max_steps = 1;
  engine.run(options);
  EXPECT_THROW(engine.synthesize(), std::logic_error);
}

TEST(Engine, ProblemAtTracksSequence) {
  SpeedupEngine engine(problems::two_coloring(2));
  SpeedupEngine::Options options;
  options.max_steps = 2;
  const auto outcome = engine.run(options);
  (void)outcome;
  EXPECT_EQ(&engine.problem_at(0), &engine.problem_at(0));
  if (engine.steps_applied() >= 1) {
    EXPECT_NE(engine.problem_at(1).name().find("Rbar"), std::string::npos);
  }
  EXPECT_THROW(engine.problem_at(engine.steps_applied() + 1),
               std::out_of_range);
}

TEST(Engine, CarriesInputsWhoseOutputsAllDied) {
  // Input 'x' permits only 'b', and 'b' is in no node configuration:
  // reduce()'s trim keeps 'x' with an empty g row. The operators must carry
  // that state (the derived g row is empty too) instead of rejecting it.
  Alphabet in({"w", "x"});
  Alphabet out({"a", "b"});
  NodeEdgeCheckableLcl::Builder b("starved-input", in, out, 2);
  b.allow_node({0, 0}).allow_node({0});
  b.allow_edge(0, 0).allow_edge(0, 1);
  b.allow_output_for_input(0, 0).allow_output_for_input(1, 1);
  const auto problem = b.build();
  const auto reduced = reduce(problem);
  ASSERT_TRUE(reduced.problem.allowed_outputs(1).empty());

  const ReStep psi = apply_r(reduced.problem, {});
  EXPECT_TRUE(psi.problem.allowed_outputs(1).empty());
  EXPECT_FALSE(psi.problem.allowed_outputs(0).empty());
  const ReStep next = apply_rbar(psi.problem, {});
  EXPECT_TRUE(next.problem.allowed_outputs(1).empty());
  // An input that admits no output rules out every 0-round witness.
  EXPECT_FALSE(zero_round_solvable(next.problem));
}

TEST(Engine, FuzzSeedsWithStarvedInputsRunToAnOutcome) {
  // Default-generator seeds whose iterates trim an input's every output;
  // run() used to let the operators' std::logic_error escape, and the
  // survey turned it into an error row.
  for (const std::uint64_t seed : {94u, 128u}) {
    const auto c = fuzz::random_case(fuzz::GeneratorOptions{}, seed);
    SpeedupEngine engine(c.problem);
    SpeedupEngine::Options options;
    options.max_steps = 3;
    SpeedupEngine::Outcome outcome;
    ASSERT_NO_THROW(outcome = engine.run(options)) << "seed " << seed;

    batch::Family family;
    family.members.push_back(batch::FamilyMember{"seed", c.problem});
    batch::SurveyOptions survey;
    survey.engine.max_steps = 3;
    const auto report = batch::run_survey(family, survey);
    ASSERT_EQ(report.outcomes.size(), 1u);
    const auto& row = report.outcomes.front();
    EXPECT_TRUE(row.error.empty()) << "seed " << seed << ": " << row.error;
    EXPECT_EQ(row.zero_round_step, outcome.zero_round_step) << seed;
    EXPECT_EQ(row.budget_exhausted, outcome.budget_exhausted) << seed;
    EXPECT_EQ(row.detected_unsolvable, outcome.detected_unsolvable) << seed;
  }
}

// ---------------------------------------------------------------------------
// IterateChain: the shared, lazily built sequence.

TEST(IterateChain, CollapseProbeAgreesWithTheEngine) {
  const std::vector<NodeEdgeCheckableLcl> cases = {
      problems::trivial(2),      problems::any_orientation(2),
      problems::two_coloring(2), problems::coloring(3, 2),
      problems::maximal_matching(2),
  };
  for (const auto& problem : cases) {
    for (const std::vector<int>& degrees :
         {std::vector<int>{2}, std::vector<int>{1, 2}}) {
      SpeedupEngine engine(problem);
      SpeedupEngine::Options options;
      options.max_steps = 2;
      options.degrees = degrees;
      const auto outcome = engine.run(options);
      IterateChain chain(problem);
      const auto walked =
          walk(chain, 2, [&degrees](const NodeEdgeCheckableLcl& p) {
            return zero_round_solvable(p, degrees);
          });
      EXPECT_EQ(walked.zero_round_step, outcome.zero_round_step)
          << problem.name() << " degrees " << degrees.size();
      EXPECT_EQ(walked.fixed_point, outcome.fixed_point) << problem.name();
      EXPECT_EQ(walked.budget_exhausted, outcome.budget_exhausted)
          << problem.name();
    }
  }
}

TEST(IterateChain, KeepsIteratesAndFailuresAcrossCallers) {
  int calls = 0;
  const auto coloring = problems::coloring(3, 2);
  IterateChain chain(coloring,
                     [&calls](const NodeEdgeCheckableLcl& current) {
                       if (++calls == 3) throw ReBlowupError("third step");
                       return current;
                     });
  const NodeEdgeCheckableLcl* first = &chain.at(1);
  const NodeEdgeCheckableLcl* second = &chain.at(2);
  EXPECT_EQ(calls, 2);
  // Later iterates never move earlier ones.
  EXPECT_THROW(chain.at(4), ReBlowupError);
  EXPECT_EQ(&chain.at(1), first);
  EXPECT_EQ(&chain.at(2), second);
  // The failed step is computed once; every later caller gets its error.
  EXPECT_THROW(chain.at(3), ReBlowupError);
  EXPECT_THROW(chain.at(5), ReBlowupError);
  EXPECT_EQ(calls, 3);
  // The walk reads the kept iterates: f(pi) = pi is a fixed point.
  const auto walked = walk(chain, 3, [](const NodeEdgeCheckableLcl& p) {
    return zero_round_solvable(p, {2});
  });
  EXPECT_EQ(walked.zero_round_step, -1);
  EXPECT_TRUE(walked.fixed_point);
  EXPECT_EQ(calls, 3);
}

TEST(IterateChain, ProbeStopsAtAFixedPoint) {
  int calls = 0;
  const auto two_coloring = problems::two_coloring(2);
  IterateChain chain(two_coloring,
                     [&calls](const NodeEdgeCheckableLcl& current) {
                       ++calls;
                       return current;  // f(pi) = pi
                     });
  const auto walked = walk(chain, 5, [](const NodeEdgeCheckableLcl& p) {
    return zero_round_solvable(p, {2});
  });
  EXPECT_EQ(walked.zero_round_step, -1);
  EXPECT_TRUE(walked.fixed_point);
  EXPECT_EQ(walked.steps_applied, 1);
  EXPECT_EQ(calls, 1);
}

TEST(IterateChain, WalkSortsStepFailures) {
  const auto coloring = problems::coloring(3, 2);
  const auto never = [](const NodeEdgeCheckableLcl&) { return false; };
  const auto failing = [&](auto error) {
    IterateChain chain(coloring,
                       [error](const NodeEdgeCheckableLcl&)
                           -> NodeEdgeCheckableLcl { throw error; });
    return walk(chain, 3, never);
  };
  const auto blowup = failing(ReBlowupError("too many labels"));
  EXPECT_TRUE(blowup.budget_exhausted);
  EXPECT_FALSE(blowup.detected_unsolvable);
  EXPECT_EQ(blowup.message, "too many labels");
  EXPECT_EQ(blowup.steps_applied, 0);
  const auto unsolvable = failing(std::runtime_error("no label survives"));
  EXPECT_TRUE(unsolvable.detected_unsolvable);
  EXPECT_FALSE(unsolvable.budget_exhausted);
  EXPECT_EQ(unsolvable.message, "no label survives");
  // Anything else is a bug, not a verdict.
  EXPECT_THROW(failing(std::logic_error("bug")), std::logic_error);
  // A zero budget stops after the step-0 test.
  IterateChain idle(coloring);
  const auto none = walk(idle, 0, never);
  EXPECT_EQ(none.zero_round_step, -1);
  EXPECT_EQ(none.steps_applied, 0);
  EXPECT_FALSE(none.fixed_point || none.budget_exhausted ||
               none.detected_unsolvable);
  EXPECT_EQ(idle.size(), 0u);
}

TEST(IterateChain, TriviallyUnsolvableChainsHaveNoSequence) {
  Alphabet in({"-"});
  Alphabet out({"a", "b"});
  NodeEdgeCheckableLcl::Builder b("no-edge-fits", in, out, 2);
  b.allow_node({0, 0}).allow_node({0});
  b.allow_edge(1, 1);
  b.unrestricted_inputs();
  const auto problem = b.build();
  IterateChain chain(problem);
  EXPECT_TRUE(chain.preflight().report.trivially_unsolvable);
  EXPECT_THROW(chain.at(0), std::logic_error);
  const auto never = [](const NodeEdgeCheckableLcl&) { return false; };
  const auto walked = walk(chain, 3, never);
  EXPECT_TRUE(walked.detected_unsolvable);
  EXPECT_NE(walked.message.find("L020"), std::string::npos);
  EXPECT_EQ(walked.steps_applied, 0);
  // Without the pre-flight the chain starts from the problem as given, and
  // the walk never consults it.
  IterateChain raw(problem, [](const NodeEdgeCheckableLcl& p) { return p; },
                   /*prune=*/false);
  EXPECT_EQ(&raw.at(0), &problem);
  const auto raw_walk = walk(raw, 3, never);
  EXPECT_FALSE(raw_walk.detected_unsolvable);
  EXPECT_TRUE(raw_walk.fixed_point);
  // Pruning that removes nothing starts from the problem as given too.
  const auto coloring = problems::coloring(3, 2);
  IterateChain live(coloring);
  EXPECT_FALSE(live.preflight().changed);
  EXPECT_EQ(&live.at(0), &coloring);
}

}  // namespace
}  // namespace lcl
