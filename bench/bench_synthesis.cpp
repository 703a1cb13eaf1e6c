// Experiment SYNTH: the constructive content of Theorem 3.10 - synthesize a
// constant-round algorithm for an O(1)-class problem (iterate f, find the
// A_det 0-round witness, lift via Lemma 3.9) and execute it on forests of
// growing size. The measured radius is constant in n; wall time per node is
// the per-query cost of the Lemma 3.9 simulation. BM_EngineRun times one
// engine run per way the speedup walk can end (rung (c) of the perf ladder).

#include <benchmark/benchmark.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "batch/survey.hpp"
#include "bench_common.hpp"
#include "core/checker.hpp"
#include "core/problems.hpp"
#include "graph/generators.hpp"
#include "re/engine.hpp"

namespace lcl {
namespace {

void BM_SynthesizeOrientation(benchmark::State& state) {
  const auto problem = problems::any_orientation(2);
  int k = -1;
  const bench::ObsCounters obs_counters;
  for (auto _ : state) {
    SpeedupEngine engine(problem);
    SpeedupEngine::Options options;
    options.max_steps = 3;
    const auto outcome = engine.run(options);
    k = outcome.zero_round_step;
    lcl::bench::keep(k);
  }
  obs_counters.report(state);
  state.counters["zero_round_step"] = k;
}
BENCHMARK(BM_SynthesizeOrientation);

/// Member `name` of the Delta=2, l=3 exhaustive family.
NodeEdgeCheckableLcl d2l3_member(const std::string& name) {
  batch::ExhaustiveFamilyOptions options;
  options.labels = 3;
  for (auto& member : batch::exhaustive_family(options).members) {
    if (member.name == name) return std::move(member.problem);
  }
  throw std::invalid_argument("no Delta=2 l=3 member " + name);
}

/// Rung (c) of the perf ladder: one `SpeedupEngine::run` (max_steps 3,
/// default limits), on one witness per way its walk ends. The run must end
/// the way its name says, or the row reports an error instead of a time.
enum class Ends { kStepZero, kCollapse, kBlowUp, kBudget, kFixedPoint };

bool ended(const SpeedupEngine::Outcome& outcome, Ends how) {
  switch (how) {
    case Ends::kStepZero:
      return outcome.zero_round_step == 0;
    case Ends::kCollapse:
      return outcome.zero_round_step >= 1;
    case Ends::kBlowUp:
      return outcome.budget_exhausted;
    case Ends::kFixedPoint:
      return outcome.fixed_point;
    case Ends::kBudget:
      return outcome.zero_round_step < 0 && !outcome.fixed_point &&
             !outcome.budget_exhausted && !outcome.detected_unsolvable;
  }
  return false;
}

void BM_EngineRun(benchmark::State& state, const NodeEdgeCheckableLcl& problem,
                  Ends expected) {
  SpeedupEngine::Options options;
  options.max_steps = 3;
  SpeedupEngine::Outcome outcome;
  const bench::ObsCounters obs_counters;
  for (auto _ : state) {
    SpeedupEngine engine(problem);
    outcome = engine.run(options);
    lcl::bench::keep(outcome.zero_round_step);
  }
  if (!ended(outcome, expected)) {
    state.SkipWithError("the walk ended another way");
  }
  obs_counters.report(state);
  state.counters["zero_round_step"] = outcome.zero_round_step;
  state.counters["steps"] = static_cast<double>(outcome.steps.size());
}
// trivial(2) is 0-round solvable as given.
BENCHMARK_CAPTURE(BM_EngineRun, StepZero, problems::trivial(2),
                  Ends::kStepZero);
// any_orientation(2) collapses at step 1.
BENCHMARK_CAPTURE(BM_EngineRun, Collapse, problems::any_orientation(2),
                  Ends::kCollapse);
// coloring(3, 2) is Theta(log* n): its second step outgrows the default
// label limit.
BENCHMARK_CAPTURE(BM_EngineRun, LogStar, problems::coloring(3, 2),
                  Ends::kBlowUp);
// two_coloring(2) is Theta(n): three steps, no collapse, no repeat.
BENCHMARK_CAPTURE(BM_EngineRun, Budget, problems::two_coloring(2),
                  Ends::kBudget);
// sinkless_orientation(3) repeats itself: the fixed-point certificate.
BENCHMARK_CAPTURE(BM_EngineRun, FixedPoint, problems::sinkless_orientation(3),
                  Ends::kFixedPoint);
// A Delta=2 l=3 member whose second step exceeds the configuration limit.
BENCHMARK_CAPTURE(BM_EngineRun, BlowUp, d2l3_member("d2l3-n12-e19"),
                  Ends::kBlowUp);

void BM_RunSynthesizedOnForest(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto problem = problems::any_orientation(2);
  SpeedupEngine engine(problem);
  SpeedupEngine::Options options;
  options.max_steps = 3;
  const auto outcome = engine.run(options);
  if (outcome.zero_round_step < 0) {
    state.SkipWithError("no collapse");
    return;
  }
  const auto algorithm = engine.synthesize();

  SplitRng rng(n);
  Graph forest = make_random_forest(n, std::max<std::size_t>(1, n / 16), 2,
                                    rng);
  const auto input = uniform_labeling(forest, 0);
  const auto ids = random_distinct_ids(forest, 3, rng);
  HalfEdgeLabeling output;
  const bench::ObsCounters obs_counters;
  for (auto _ : state) {
    output = run_ball_algorithm(*algorithm, forest, input, ids);
    lcl::bench::keep(output);
  }
  if (!is_correct_solution(problem, forest, input, output)) {
    state.SkipWithError("invalid synthesized solution");
  }
  bench::report_scales(state, n);
  obs_counters.report(state);
  state.counters["radius"] = algorithm->radius(n);
}
BENCHMARK(BM_RunSynthesizedOnForest)->RangeMultiplier(4)->Range(64, 4096);

}  // namespace
}  // namespace lcl

LCL_BENCH_MAIN();
