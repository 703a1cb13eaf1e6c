// Experiment RE-ABL: ablation of the design choice called out after
// Definition 3.1 - the paper's operators do NOT remove non-maximal
// configurations; our `reduce()` (trim + merge + dominated-label drop) is
// the sound practical counterpart. This bench applies one f = Rbar o R step
// with and without reduction and reports the label/configuration growth and
// the wall time, quantifying how quickly the faithful sequence becomes
// intractable (the doubly-exponential blow-up behind Theorem 3.4's S).

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/problems.hpp"
#include "re/operators.hpp"
#include "re/reduce.hpp"
#include "reference/operators_reference.hpp"
#include "reference/reduce_reference.hpp"

namespace lcl {
namespace {

using Operator = ReStep (*)(const NodeEdgeCheckableLcl&, const ReLimits&);

/// The operator pair a bench row runs: production (one-word mask fill) or
/// the original `LabelSet` enumeration from tests/reference.
struct Operators {
  Operator r;
  Operator rbar;
  bool mask_kernel;
};
constexpr Operators kProduction{&apply_r, &apply_rbar, true};
constexpr Operators kGenericReference{&reference::apply_r_generic,
                                      &reference::apply_rbar_generic, false};

void run_ablation(benchmark::State& state,
                  const NodeEdgeCheckableLcl& problem, bool with_reduce,
                  const Operators& ops = kProduction) {
  ReLimits limits;
  limits.max_labels = 1u << 14;
  limits.max_configs = 8'000'000;
  std::size_t labels_psi = 0, labels_next = 0, configs_next = 0;
  bool blowup = false;
  const bench::ObsCounters obs_counters;
  for (auto _ : state) {
    try {
      ReStep psi = ops.r(problem, limits);
      if (with_reduce) {
        auto red = reduce(psi.problem);
        psi.problem = std::move(red.problem);
      }
      ReStep next = ops.rbar(psi.problem, limits);
      if (with_reduce) {
        auto red = reduce(next.problem);
        next.problem = std::move(red.problem);
      }
      labels_psi = psi.problem.output_alphabet().size();
      labels_next = next.problem.output_alphabet().size();
      configs_next = next.problem.total_node_configs() +
                     next.problem.edge_configs().size();
      lcl::bench::keep(labels_next);
    } catch (const ReBlowupError&) {
      blowup = true;
    }
  }
  obs_counters.report(state);
  state.counters["labels_psi"] = static_cast<double>(labels_psi);
  state.counters["labels_next"] = static_cast<double>(labels_next);
  state.counters["configs_next"] = static_cast<double>(configs_next);
  state.counters["blowup"] = blowup ? 1 : 0;
  state.counters["reduce"] = with_reduce ? 1 : 0;
  state.counters["mask_kernel"] = ops.mask_kernel ? 1 : 0;
}

// Experiment BENCH-JSON / the kernel ablation: the same operator slice on
// the original ordered-container enumeration (tests/reference) versus the
// production one-word `LabelMask` fill. One slice iteration applies both R and
// Rbar at the slice's scale; Rbar runs on the base problem rather than on
// R(Pi), because the faithful composition exceeds any enumeration budget
// already at k=5 (reduce leaves 30 labels, so Rbar(reduce(R(Pi))) would
// derive 2^30 - 1 - Theorem 3.4's blow-up, which the ablation benches above
// quantify). The Delta=3, k=5 slice (5-coloring on trees of maximum degree
// 3) is the CI-gated pair: `tools/bench_diff --min-speedup` asserts the
// mask column stays >= 3x faster.
void run_kernel_slice(benchmark::State& state,
                      const NodeEdgeCheckableLcl& problem,
                      const Operators& ops) {
  ReLimits limits;
  limits.max_labels = 1u << 14;
  limits.max_configs = 64'000'000;
  std::size_t labels_r = 0, configs_r = 0;
  const bench::ObsCounters obs_counters;
  for (auto _ : state) {
    ReStep r = ops.r(problem, limits);
    ReStep rbar = ops.rbar(problem, limits);
    labels_r = r.problem.output_alphabet().size();
    configs_r = r.problem.total_node_configs() +
                r.problem.edge_configs().size();
    lcl::bench::keep(labels_r);
    lcl::bench::keep(rbar.problem.output_alphabet().size());
  }
  obs_counters.report(state);
  state.counters["labels_r"] = static_cast<double>(labels_r);
  state.counters["configs_r"] = static_cast<double>(configs_r);
  state.counters["mask_kernel"] = ops.mask_kernel ? 1 : 0;
}

void BM_KernelSlice_D3K5_Generic(benchmark::State& state) {
  run_kernel_slice(state, problems::coloring(5, 3), kGenericReference);
}
BENCHMARK(BM_KernelSlice_D3K5_Generic)->Unit(benchmark::kMillisecond);

void BM_KernelSlice_D3K5_Mask(benchmark::State& state) {
  run_kernel_slice(state, problems::coloring(5, 3), kProduction);
}
BENCHMARK(BM_KernelSlice_D3K5_Mask)->Unit(benchmark::kMillisecond);

// Reduce slice past the one-word seam. The dominated-label pass is the one
// per-iterate pass whose cost is quadratic in the alphabet, and its worst
// case is a *fruitless* scan: every ordered pair passes the edge-partner and
// g-preimage inclusions and is rejected only at the node-configuration
// probe, so the full n^2 sweep runs to completion. This problem pins that
// shape at 96 labels (two-word partner rows): all edges allowed (partner
// inclusions always hold), node constraint = {l, l} doubles only (replacing
// one occurrence yields a forbidden mixed pair, so no label is ever
// dominated, and the per-label node contexts keep merge_once from firing).
NodeEdgeCheckableLcl wide_probe_wall(int labels) {
  Alphabet output;
  for (int l = 0; l < labels; ++l) {
    std::string name = "w";
    name += std::to_string(l);
    output.add(name);
  }
  NodeEdgeCheckableLcl::Builder b("wide-probe-wall", Alphabet({"-"}),
                                  std::move(output), /*max_degree=*/2);
  for (Label l = 0; l < static_cast<Label>(labels); ++l) {
    b.allow_node({l, l});
  }
  for (Label a = 0; a < static_cast<Label>(labels); ++a) {
    for (Label c = a; c < static_cast<Label>(labels); ++c) {
      b.allow_edge(a, c);
    }
  }
  b.unrestricted_inputs();
  return b.build();
}

using ReduceFn = Reduction (*)(NodeEdgeCheckableLcl);

Reduction production_reduce(NodeEdgeCheckableLcl problem) {
  return reduce(std::move(problem));
}

void run_reduce_slice(benchmark::State& state,
                      const NodeEdgeCheckableLcl& problem,
                      ReduceFn reduce_fn) {
  std::size_t labels_out = 0, configs_out = 0;
  const bench::ObsCounters obs_counters;
  for (auto _ : state) {
    auto red = reduce_fn(problem);
    labels_out = red.problem.output_alphabet().size();
    configs_out = red.problem.total_node_configs() +
                  red.problem.edge_configs().size();
    lcl::bench::keep(labels_out);
  }
  obs_counters.report(state);
  state.counters["labels_out"] = static_cast<double>(labels_out);
  state.counters["configs_out"] = static_cast<double>(configs_out);
  state.counters["mask_kernel"] = reduce_fn == &production_reduce ? 1 : 0;
}

// `_Generic` runs the reference passes (tests/reference): the `LabelSet`
// dominated-label scan and the original merge.
void BM_ReduceSlice_Wide96_Generic(benchmark::State& state) {
  run_reduce_slice(state, wide_probe_wall(96), &reference::reduce);
}
BENCHMARK(BM_ReduceSlice_Wide96_Generic)->Unit(benchmark::kMillisecond);

void BM_ReduceSlice_Wide96_Auto(benchmark::State& state) {
  run_reduce_slice(state, wide_probe_wall(96), &production_reduce);
}
BENCHMARK(BM_ReduceSlice_Wide96_Auto)->Unit(benchmark::kMillisecond);

// Reduce slice on a real survey iterate: the 511-label apply_r output at
// step 2 of the Delta=2 l=3 member d2l3-n13-e34 (128,631 node
// configurations), the input on which the cold survey's reduce() time
// concentrated. `_Reference` runs the original passes (tests/reference),
// whose merge pass rescanned every configuration for every label; the
// production merge builds all signatures in one pass. Both reduce to the
// same 14 labels; CI gates the ratio with `bench_diff --min-speedup`.
const NodeEdgeCheckableLcl& blowup_iterate() {
  static const NodeEdgeCheckableLcl iterate = reference::d2l3_blowup_iterate();
  return iterate;
}

void BM_ReduceSlice_D2L3_Blowup(benchmark::State& state) {
  run_reduce_slice(state, blowup_iterate(), &production_reduce);
}
BENCHMARK(BM_ReduceSlice_D2L3_Blowup)->Unit(benchmark::kMillisecond);

void BM_ReduceSlice_D2L3_Blowup_Reference(benchmark::State& state) {
  run_reduce_slice(state, blowup_iterate(), &reference::reduce);
}
BENCHMARK(BM_ReduceSlice_D2L3_Blowup_Reference)
    ->Unit(benchmark::kMillisecond);

#define ABLATION_BENCH(name, expr)                              \
  void BM_Ablation_##name##_Reduced(benchmark::State& state) {  \
    run_ablation(state, expr, true);                            \
  }                                                             \
  BENCHMARK(BM_Ablation_##name##_Reduced);                      \
  void BM_Ablation_##name##_Faithful(benchmark::State& state) { \
    run_ablation(state, expr, false);                           \
  }                                                             \
  BENCHMARK(BM_Ablation_##name##_Faithful);                     \
  void BM_Ablation_##name##_FaithfulGeneric(                    \
      benchmark::State& state) {                                \
    run_ablation(state, expr, false, kGenericReference);        \
  }                                                             \
  BENCHMARK(BM_Ablation_##name##_FaithfulGeneric);

ABLATION_BENCH(TwoColoring, problems::two_coloring(2))
ABLATION_BENCH(ThreeColoring, problems::coloring(3, 2))
ABLATION_BENCH(AnyOrientation, problems::any_orientation(2))
ABLATION_BENCH(SinklessOrientation, problems::sinkless_orientation(3))
ABLATION_BENCH(Mis, problems::mis(2))

#undef ABLATION_BENCH

}  // namespace
}  // namespace lcl

LCL_BENCH_MAIN();
