// survey-cold and survey-warm: batch::run_survey over the exhaustive
// Delta=2, 3-label family, cold (fresh raw-key tier) and warm (replayed
// canonical-key tier), plus the traced decomposition of one pass.

#include "workloads.hpp"

#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <thread>

#include "batch/cache.hpp"
#include "classify/cycle_classifier.hpp"
#include "classify/path_classifier.hpp"
#include "lint/analyzer.hpp"
#include "lint/canonical.hpp"
#include "lint/spec.hpp"
#include "lint/spec_io.hpp"
#include "obs/json.hpp"
#include "re/operators.hpp"
#include "re/reduce.hpp"
#include "re/zero_round.hpp"

namespace perfbench {

namespace batch = lcl::batch;
namespace json = lcl::obs::json;
using lcl::NodeEdgeCheckableLcl;

namespace {

// Nominal pass lengths on the reference machine (4 cores, RelWithDebInfo).
// They turn --seconds into a fixed pass count, so two commits run with the
// same --seconds do the same work and cpu_s stays comparable.
constexpr double kColdPassSeconds = 15.0;
constexpr double kWarmPassSeconds = 0.5;
// CPU rotation step: each warm pass spans about 20 steps.
constexpr std::chrono::milliseconds kRotation{25};
// Set-up repetitions. A cold set-up (building the family) takes about 25 ms,
// so it is timed in blocks of kColdSetupsPerBlock; a warm one (a cold
// canonical-key fill of the tier) about 3 s.
constexpr int kColdSetupBlocks = 5;
constexpr int kColdSetupsPerBlock = 16;
constexpr int kWarmSetups = 3;

std::size_t pass_count(const Args& args, double nominal, std::size_t least) {
  return std::max<std::size_t>(
      least, static_cast<std::size_t>(std::lround(args.seconds / nominal)));
}

/// One survey pass as `lcl_batch` runs it: open the cache (fresh or
/// replayed tier), sweep the family, render the report.
struct Pass {
  double render_s = 0.0;
  double total_s = 0.0;
  batch::SurveyReport report;
  std::string rendered;
  batch::CacheStats stats;
};

Pass survey_pass(const batch::Family& family, const std::string& tier,
                 bool resume, bool canonical) {
  Pass pass;
  const auto start = Clock::now();
  {
    batch::Cache::Options options;
    options.disk_path = tier;
    options.load_existing = resume;
    options.canonical_tier = canonical;
    batch::Cache cache(options);
    pass.report = batch::run_survey(family, survey_options(&cache));
    const auto render_start = Clock::now();
    pass.rendered = pass.report.to_json();
    pass.render_s = seconds_since(render_start);
    pass.stats = cache.stats();
  }
  pass.total_s = seconds_since(start);
  return pass;
}

/// The verdict checks every pass gets: each row against the table, and the
/// class/canonical counts of the full family. Returns the pass's mismatches
/// (a wrong landscape count is one).
std::uint64_t check_pass(const Pass& pass, const VerdictTable& table,
                         Result& result, bool smoke) {
  std::uint64_t mismatches = count_mismatches(pass.report, table);
  if (!landscape_matches(pass.report, smoke)) {
    result.checks_ok = false;
    ++mismatches;
  }
  return mismatches;
}

/// The end-to-end metrics shared by both surveys. An operation is one
/// survey pass (what an `lcl_batch` user waits for); a pass with any
/// verdict mismatch failed, and its time is +inf. The driver's contract
/// asks for every end-to-end metric on every workload; on a survey,
/// throughput_rps is 1 / median pass, latency_p50_us the median pass, and
/// with a single cold pass latency_p90_us equals latency_p50_us and
/// server_cpu_us_per_req equals cpu_s.
void survey_metrics(Result& result, const std::vector<double>& setup_s,
                    const std::vector<double>& pass_s, double cpu_s,
                    double rss_mb, std::size_t rows_per_pass) {
  const double pass = median(pass_s);
  std::size_t completed = 0;
  for (const double s : pass_s) completed += std::isfinite(s) ? 1 : 0;
  const auto microseconds = [](double seconds) {
    return std::isfinite(seconds) ? seconds * 1e6 : kFailedLatencyUs;
  };
  result.metric("setup_s", median(setup_s), "s");
  result.metric("rows_per_s", static_cast<double>(rows_per_pass) / pass,
                "rows/s");
  result.metric("cpu_s", cpu_s, "s");
  result.metric("peak_rss_mb", rss_mb, "MiB");
  result.metric("throughput_rps", 1.0 / pass, "1/s");
  result.metric("latency_p50_us",
                microseconds(blocked_quantile(pass_s, 0.5)), "us");
  result.metric("latency_p90_us",
                microseconds(blocked_quantile(pass_s, 0.9)), "us");
  const auto passes = static_cast<double>(std::max<std::size_t>(completed, 1));
  result.metric("server_cpu_us_per_req", cpu_s / passes * 1e6, "us");
}

/// Runs `passes` measured passes; returns per-pass wall times (+inf for a
/// pass `check` failed) and fills cpu/rss. `check` validates each pass
/// outside the timed region and returns its mismatch count.
template <class Check>
std::vector<double> measured_passes(std::size_t passes, double& cpu_s,
                                    double& rss_mb, const batch::Family& family,
                                    const std::string& tier, bool resume,
                                    bool canonical, Check&& check) {
  std::vector<double> pass_s;
  double cpu = 0.0;
  reset_peak_rss("self");
  for (std::size_t i = 0; i < passes; ++i) {
    const double cpu_start = process_cpu_seconds();
    Pass pass = survey_pass(family, tier, resume, canonical);
    cpu += process_cpu_seconds() - cpu_start;
    pass_s.push_back(check(pass) == 0
                         ? pass.total_s
                         : std::numeric_limits<double>::infinity());
  }
  cpu_s = cpu;
  rss_mb = peak_rss_mb("self");
  return pass_s;
}

/// CPU seconds `f` takes in this process. Set-up is timed in CPU rather
/// than wall time: on a shared machine a warm set-up's wall time went from
/// 3.3 s to 7 s between runs of the same code while its CPU time held.
template <class F>
double cpu_seconds_of(F&& f) {
  const double start = process_cpu_seconds();
  f();
  return process_cpu_seconds() - start;
}

/// The cache kinds `run_survey` uses (batch/survey.cpp). A wrong kind shows
/// up as warm misses, or as a traced cold pass whose cache statistics or
/// rendering differ from `run_survey`'s.
std::string degrees_tag(const std::vector<int>& degrees) {
  if (degrees.empty()) return "forest";
  std::string tag;
  for (const int d : degrees) {
    if (!tag.empty()) tag += '-';
    tag += std::to_string(d);
  }
  return tag;
}

std::string limits_tag(const lcl::SpeedupEngine::Options& engine) {
  return ":l" + std::to_string(engine.limits.max_labels) + ":c" +
         std::to_string(engine.limits.max_configs);
}

std::string engine_kind(const batch::SurveyOptions& options) {
  const auto& engine = options.engine;
  return "engine:" + degrees_tag(engine.degrees) + ":s" +
         std::to_string(engine.max_steps) + limits_tag(engine) +
         (engine.reduce ? ":r" : ":f");
}

std::string step_kind(const batch::SurveyOptions& options) {
  const auto& engine = options.engine;
  return std::string("step:") + (engine.reduce ? "r" : "f") +
         limits_tag(engine);
}

std::string zero_round_kind(const batch::SurveyOptions& options) {
  return "zr:" + degrees_tag(options.engine.degrees);
}

/// The engine summary `run_survey` stores per member, and its replay.
json::Value summary_value(const batch::ProblemOutcome& out) {
  json::Value value = json::Value::make_object();
  auto& object = value.object();
  object["zero_round_step"] =
      json::Value(static_cast<std::int64_t>(out.zero_round_step));
  object["steps_applied"] =
      json::Value(static_cast<std::int64_t>(out.steps_applied));
  object["fixed_point"] = json::Value(out.fixed_point);
  object["budget_exhausted"] = json::Value(out.budget_exhausted);
  object["detected_unsolvable"] = json::Value(out.detected_unsolvable);
  object["preflight_dead_labels"] =
      json::Value(static_cast<std::int64_t>(out.preflight_dead_labels));
  object["message"] = json::Value(out.note);
  return value;
}

std::string text_field(const json::Value& value, const char* key,
                       const std::string& fallback) {
  const auto* v = value.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

void apply_summary(const json::Value& summary, batch::ProblemOutcome& out) {
  const auto integer = [&summary](const char* key) {
    const auto* v = summary.find(key);
    return v != nullptr && v->is_number() ? v->as_int() : std::int64_t{-1};
  };
  const auto flag = [&summary](const char* key) {
    const auto* v = summary.find(key);
    return v != nullptr && v->is_bool() && v->as_bool();
  };
  out.zero_round_step = static_cast<int>(integer("zero_round_step"));
  out.steps_applied = static_cast<int>(integer("steps_applied"));
  out.preflight_dead_labels =
      static_cast<std::size_t>(integer("preflight_dead_labels"));
  out.fixed_point = flag("fixed_point");
  out.budget_exhausted = flag("budget_exhausted");
  out.detected_unsolvable = flag("detected_unsolvable");
  out.note = text_field(summary, "message", "");
}

void set_landscape_class(batch::ProblemOutcome& out) {
  if (!out.error.empty()) {
    out.landscape_class = "error";
  } else if (out.cycle_class != "n/a") {
    out.landscape_class = out.cycle_class;
  } else if (out.detected_unsolvable) {
    out.landscape_class = "unsolvable";
  } else if (out.zero_round_step >= 0) {
    out.landscape_class = "O(1)";
  } else if (out.fixed_point) {
    out.landscape_class = "fixed-point";
  } else if (out.budget_exhausted) {
    out.landscape_class = "blow-up";
  } else {
    out.landscape_class = "unresolved";
  }
}

/// Row fields every pass derives from the member itself; returns the
/// canonical form (timed as lint.canonical_form).
lcl::lint::CanonicalForm start_row(const batch::FamilyMember& member,
                                   batch::ProblemOutcome& out,
                                   Tracer& tracer) {
  const NodeEdgeCheckableLcl& problem = member.problem;
  out.name = member.name;
  out.signature = batch::constraint_signature(problem);
  out.key = hex64(out.signature) + "/" + member.name;
  out.labels = problem.output_alphabet().size();
  out.node_configs = problem.total_node_configs();
  out.edge_configs = problem.edge_configs().size();
  auto form = tracer.span("lint.canonical_form", [&] {
    return lcl::lint::canonical_form(lcl::lint::spec_from_problem(problem));
  });
  out.canonical_key = form.complete
                          ? hex64(lcl::lint::spec_signature(form.spec))
                          : hex64(out.signature) + "/incomplete";
  return form;
}

/// The cache calls of a decomposed pass, each wrapped in a span.
struct TracedCache {
  batch::Cache& cache;
  Tracer& tracer;

  std::optional<json::Value> find_canonical(
      const std::string& kind, const NodeEdgeCheckableLcl& problem,
      const lcl::lint::CanonicalForm* form) {
    return tracer.span("batch.cache.lookup",
                       [&]() -> std::optional<json::Value> {
                         auto hit = cache.find_canonical(kind, problem, form);
                         if (!hit) return std::nullopt;
                         return std::move(hit->value);
                       });
  }
  void insert(const std::string& kind, const NodeEdgeCheckableLcl& problem,
              const json::Value& value, const lcl::lint::CanonicalForm* form,
              bool index_canonical = true) {
    tracer.span("batch.cache.insert", [&] {
      cache.insert(kind, problem, value, form, index_canonical);
    });
  }
};

/// One cold row, decomposed into the public calls of lint, classify, re and
/// the cache in `run_survey` order (SpeedupEngine::run semantics over the
/// result and step cache), each wrapped in a span. It uses the cache as the
/// survey does, so it recomputes exactly what the survey recomputes: a
/// blow-up is not stored, so every member that reaches it pays for it again.
batch::ProblemOutcome cold_row(const batch::FamilyMember& member,
                               const batch::SurveyOptions& options,
                               TracedCache cache, Tracer& tracer,
                               std::uint64_t& blowups) {
  batch::ProblemOutcome out;
  const auto form = start_row(member, out, tracer);
  const NodeEdgeCheckableLcl& problem = member.problem;
  const int classifier_steps = options.classifier_speedup_steps;
  const std::string steps = std::to_string(classifier_steps);
  const auto classified = [&](const std::string& kind, auto&& classify) {
    if (const auto hit = cache.find_canonical(kind, problem, &form)) {
      return text_field(*hit, "complexity", "n/a");
    }
    const auto verdict = classify();
    const std::string complexity = lcl::to_string(verdict.complexity);
    json::Value value = json::Value::make_object();
    value.object()["complexity"] = json::Value(complexity);
    value.object()["collapse"] = json::Value(
        static_cast<std::int64_t>(verdict.zero_round_collapse_step));
    value.object()["pruned"] =
        json::Value(static_cast<std::int64_t>(verdict.pruned_labels));
    cache.insert(kind, problem, value, &form);
    return complexity;
  };
  out.cycle_class = classified("cycle:s" + steps, [&] {
    return tracer.span("classify.cycles", [&] {
      return lcl::classify_on_cycles(problem, classifier_steps);
    });
  });
  out.path_class = classified("path:s" + steps, [&] {
    return tracer.span("classify.paths", [&] {
      return lcl::classify_on_paths(problem, classifier_steps);
    });
  });

  const std::string engine_key = engine_kind(options);
  if (const auto hit = cache.find_canonical(engine_key, problem, &form)) {
    apply_summary(*hit, out);
    set_landscape_class(out);
    return out;
  }
  const auto& engine = options.engine;
  const std::string zr_key = zero_round_kind(options);
  const std::string step_key = step_kind(options);
  const auto zero_round = [&](const NodeEdgeCheckableLcl& p) {
    if (const auto hit = cache.find_canonical(zr_key, p, nullptr)) {
      if (const auto* solvable = hit->find("solvable");
          solvable != nullptr && solvable->is_bool()) {
        return solvable->as_bool();
      }
    }
    const bool solvable = tracer.span("re.zero_round", [&] {
      return lcl::find_zero_round_algorithm(p, engine.degrees).has_value();
    });
    json::Value value = json::Value::make_object();
    value.object()["solvable"] = json::Value(solvable);
    cache.insert(zr_key, p, value, nullptr);
    return solvable;
  };
  // Rbar(R(.)) through the step cache: exact tier only, as the survey does.
  const auto speedup_step = [&](const NodeEdgeCheckableLcl& current) {
    auto stored = tracer.span(
        "batch.cache.lookup", [&]() -> std::optional<NodeEdgeCheckableLcl> {
          const auto hit = cache.cache.find(step_key, current);
          const auto* next = hit ? hit->find("next") : nullptr;
          if (next == nullptr) return std::nullopt;
          return lcl::lint::build_spec(lcl::lint::spec_from_json_value(*next));
        });
    if (stored) return std::move(*stored);
    lcl::ReStep psi = tracer.span(
        "re.apply_r", [&] { return lcl::apply_r(current, engine.limits); });
    if (engine.reduce) {
      psi = tracer.span("re.reduce", [&] {
        return lcl::reduce_step(std::move(psi), engine.limits.kernel);
      });
    }
    lcl::ReStep next = tracer.span("re.apply_rbar", [&] {
      return lcl::apply_rbar(psi.problem, engine.limits);
    });
    if (engine.reduce) {
      next = tracer.span("re.reduce", [&] {
        return lcl::reduce_step(std::move(next), engine.limits.kernel);
      });
    }
    json::Value value = json::Value::make_object();
    value.object()["next"] = lcl::lint::spec_to_json_value(
        lcl::lint::spec_from_problem(next.problem));
    cache.insert(step_key, current, value, nullptr,
                 /*index_canonical=*/false);
    return std::move(next.problem);
  };

  lcl::lint::LintOptions lint_options;
  lint_options.zero_round = false;
  auto preflight = tracer.span("lint.prune_problem", [&] {
    return lcl::lint::prune_problem(problem, lint_options);
  });
  out.preflight_dead_labels = preflight.report.dead_labels;
  if (preflight.report.trivially_unsolvable) {
    out.detected_unsolvable = true;
    out.note = "preflight lint (L020): the pruned constraint set is empty";
  } else {
    NodeEdgeCheckableLcl current =
        preflight.changed ? std::move(preflight.problem) : problem;
    if (zero_round(current)) {
      out.zero_round_step = 0;
    } else {
      std::uint64_t signature = batch::constraint_signature(current);
      for (int step = 0; step < engine.max_steps; ++step) {
        NodeEdgeCheckableLcl next;
        try {
          next = speedup_step(current);
        } catch (const lcl::ReBlowupError& e) {
          ++blowups;
          out.budget_exhausted = true;
          out.note = e.what();
          break;
        } catch (const std::runtime_error& e) {
          out.detected_unsolvable = true;  // reduce() trimmed every label
          out.note = e.what();
          break;
        }
        out.steps_applied = step + 1;
        if (zero_round(next)) {
          out.zero_round_step = step + 1;
          break;
        }
        const std::uint64_t next_signature = batch::constraint_signature(next);
        if (next_signature == signature &&
            (lcl::same_constraints(next, current) ||
             lcl::isomorphic_constraints(next, current))) {
          out.fixed_point = true;
          break;
        }
        current = std::move(next);
        signature = next_signature;
      }
    }
  }
  cache.insert(engine_key, problem, summary_value(out), &form);
  set_landscape_class(out);
  return out;
}

/// One warm row, decomposed: canonical form, then the three two-tier
/// lookups the survey makes (cycle, path, engine summary).
batch::ProblemOutcome warm_row(const batch::FamilyMember& member,
                               const batch::SurveyOptions& options,
                               TracedCache cache, Tracer& tracer,
                               std::uint64_t& misses) {
  batch::ProblemOutcome out;
  const auto form = start_row(member, out, tracer);
  const std::string steps = std::to_string(options.classifier_speedup_steps);
  const auto lookup = [&](const std::string& kind) {
    auto hit = cache.find_canonical(kind, member.problem, &form);
    if (!hit) ++misses;
    return hit ? std::move(*hit) : json::Value::make_object();
  };
  out.cycle_class = text_field(lookup("cycle:s" + steps), "complexity", "n/a");
  out.path_class = text_field(lookup("path:s" + steps), "complexity", "n/a");
  apply_summary(lookup(engine_kind(options)), out);
  set_landscape_class(out);
  return out;
}

/// The report `run_survey` assembles from its rows (same ordering,
/// counts and exemplars), so the decomposed warm pass renders the same
/// bytes.
batch::SurveyReport assemble_report(const batch::Family& family,
                                    const batch::SurveyOptions& options,
                                    std::vector<batch::ProblemOutcome> rows) {
  batch::SurveyReport report;
  report.family = family.description;
  report.problems = family.members.size();
  report.engine_max_steps = options.engine.max_steps;
  report.engine_degrees = options.engine.degrees;
  report.check_nodes = options.check_nodes;
  report.check_budget = options.check_budget;
  report.classify_cycles = options.classify_cycles;
  report.classify_paths = options.classify_paths;
  report.classifier_speedup_steps = options.classifier_speedup_steps;
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  std::vector<std::string> keys;
  for (const auto& row : rows) {
    ++report.class_counts[row.landscape_class];
    report.class_exemplars.emplace(row.landscape_class, row.name);
    if (!row.error.empty()) ++report.errors;
    keys.push_back(row.canonical_key);
  }
  std::sort(keys.begin(), keys.end());
  report.canonical_classes = static_cast<std::size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
  report.outcomes = std::move(rows);
  return report;
}

/// Single-member run_survey calls on one shared cache: the per-row latency
/// distribution a service client sees for first-seen (cold) or cached
/// (warm) members.
std::vector<double> row_latencies_ms(const batch::Family& family,
                                     batch::Cache& cache,
                                     const VerdictTable& table,
                                     std::uint64_t& mismatches) {
  std::vector<double> row_ms;
  row_ms.reserve(family.members.size());
  const auto options = survey_options(&cache);
  for (const auto& member : family.members) {
    batch::Family one;
    one.description = family.description;
    one.members.push_back(member);
    const auto start = Clock::now();
    const auto report = batch::run_survey(one, options);
    row_ms.push_back(seconds_since(start) * 1e3);
    mismatches += count_mismatches(report, table);
  }
  return row_ms;
}

/// Per-layer metrics of the traced pass: calls, self time and share of the
/// traced wall for every span layer; zeros for layers off this path.
void layer_metrics(Result& result, const Tracer& tracer, double wall_s) {
  static const char* const kLayers[] = {
      "re.apply_r",        "re.apply_rbar",      "re.reduce",
      "re.zero_round",     "classify.cycles",    "classify.paths",
      "lint.canonical_form", "lint.prune_problem", "batch.cache.lookup",
      "batch.cache.insert", "batch.survey.row"};
  double covered = 0.0;
  for (const char* name : kLayers) {
    const auto layer = tracer.layer(name);
    result.metric(std::string(name) + ".calls",
                  static_cast<double>(layer.calls), "count");
    result.metric(std::string(name) + ".self_s", layer.self_s, "s");
    result.metric(std::string(name) + ".share",
                  wall_s > 0 ? layer.self_s / wall_s : 0.0, "ratio");
    const std::string_view view(name);
    if (view.rfind("re.", 0) == 0 || view.rfind("classify.", 0) == 0 ||
        view.rfind("lint.", 0) == 0) {
      covered += layer.self_s;
    }
  }
  result.metric("trace.engine_coverage", wall_s > 0 ? covered / wall_s : 0.0,
                "ratio");
}

void cache_metrics(Result& result, const batch::CacheStats& stats) {
  const double lookups = static_cast<double>(stats.hits + stats.canonical_hits +
                                             stats.misses);
  result.metric("batch.cache.lookups", lookups, "count");
  result.metric("batch.cache.hits", static_cast<double>(stats.hits), "count");
  result.metric("batch.cache.canonical_hits",
                static_cast<double>(stats.canonical_hits), "count");
  result.metric("batch.cache.misses", static_cast<double>(stats.misses),
                "count");
  result.metric("batch.cache.inserts", static_cast<double>(stats.insertions),
                "count");
  result.metric("batch.cache.collisions",
                static_cast<double>(stats.collisions +
                                    stats.canonical_collisions),
                "count");
  result.metric("batch.cache.hit_ratio",
                lookups > 0 ? (static_cast<double>(stats.hits +
                                                   stats.canonical_hits)) /
                                  lookups
                            : 0.0,
                "ratio");
}

std::string tier_path(const Args& args, const std::string& name) {
  return (std::filesystem::path(args.workdir) / name).string();
}

/// The tier lines parsed on their own: what replay pays for JSON alone.
void parse_tier_metrics(Result& result, const std::string& tier) {
  std::ifstream in(tier);
  std::string line;
  double parse_s = 0.0;
  double bytes = 0.0;
  while (std::getline(in, line)) {
    const auto start = Clock::now();
    std::string error;
    const auto value = json::parse(line, &error);
    parse_s += seconds_since(start);
    bytes += static_cast<double>(line.size());
    if (value == nullptr) result.checks_ok = false;
  }
  result.metric("obs.json.parse.self_s", parse_s, "s");
  result.metric("obs.json.parse.bytes", bytes, "bytes");
}

/// Fills the warm workload's canonical-key tier with one cold pass.
Pass fill_warm_tier(const batch::Family& family, const std::string& tier) {
  return survey_pass(family, tier, /*resume=*/false, /*canonical=*/true);
}

void common_trace_tail(Result& result, const Tracer& tracer, double wall_s,
                       double untraced_s, std::uint64_t blowups,
                       std::uint64_t mismatches) {
  layer_metrics(result, tracer, wall_s);
  result.metric("re.blowups", static_cast<double>(blowups), "count");
  result.metric("trace.wall_s", wall_s, "s");
  result.metric("trace.untraced_wall_s", untraced_s, "s");
  result.metric("trace.overhead_s", wall_s - untraced_s, "s");
  result.metric("trace.verdict_mismatches", static_cast<double>(mismatches),
                "count");
}

/// Runs `reference` on a second thread while `traced` runs on this one, the
/// two rotating over the CPUs half a cycle apart. A traced pass and its
/// untraced reference run side by side so that the drift of a shared
/// machine, which moved single cold passes by a fifth within minutes, hits
/// both alike.
template <class Reference, class Traced>
void side_by_side(Reference&& reference, Traced&& traced) {
  CpuRotator rotator(kRotation);
  std::exception_ptr reference_error;
  std::thread thread([&] {
    const CpuRotator::Lane lane(rotator);
    try {
      reference();
    } catch (...) {
      reference_error = std::current_exception();
    }
  });
  try {
    traced();
  } catch (...) {
    thread.join();
    throw;
  }
  thread.join();
  if (reference_error) std::rethrow_exception(reference_error);
}

}  // namespace

Result survey_cold(const Args& args, const VerdictTable& table) {
  Result result;
  const CpuRotator rotator(kRotation);
  const std::string tier = tier_path(args, "cold-tier.jsonl");
  // Set-up: build the family (the pass opens its own fresh tier). The median
  // over blocks of the mean CPU time per set-up.
  const int per_block = args.smoke ? 1 : kColdSetupsPerBlock;
  std::vector<double> setup_s;
  batch::Family family;
  for (int block = 0; block < kColdSetupBlocks; ++block) {
    const double cpu = cpu_seconds_of([&] {
      for (int i = 0; i < per_block; ++i) {
        family = make_family(args.seed, args.smoke);
      }
    });
    setup_s.push_back(cpu / per_block);
  }
  const std::size_t passes = pass_count(args, kColdPassSeconds, 1);
  std::uint64_t mismatches = 0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  const auto pass_s = measured_passes(
      passes, cpu_s, rss_mb, family, tier, false, false, [&](const Pass& p) {
        const std::uint64_t m = check_pass(p, table, result, args.smoke);
        mismatches += m;
        return m;
      });
  result.phase("measured", passes * family.members.size(), mismatches);
  survey_metrics(result, setup_s, pass_s, cpu_s, rss_mb, family.members.size());
  return result;
}

Result survey_warm(const Args& args, const VerdictTable& table) {
  Result result;
  const CpuRotator rotator(kRotation);
  const std::string tier = tier_path(args, "warm-tier.jsonl");
  // Set-up: build the family and fill the canonical-key tier with one cold
  // pass, kWarmSetups times; the median CPU time.
  std::vector<double> setup_s;
  batch::Family family;
  std::uint64_t setup_mismatches = 0;
  for (int i = 0; i < kWarmSetups; ++i) {
    Pass fill;
    setup_s.push_back(cpu_seconds_of([&] {
      family = make_family(args.seed, args.smoke);
      fill = fill_warm_tier(family, tier);
    }));
    setup_mismatches += check_pass(fill, table, result, args.smoke);
  }
  result.phase("setup", kWarmSetups * family.members.size(),
               setup_mismatches);

  const std::size_t passes = pass_count(args, kWarmPassSeconds, 3);
  std::uint64_t mismatches = 0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  const auto pass_s = measured_passes(
      passes, cpu_s, rss_mb, family, tier, true, true, [&](const Pass& p) {
        std::uint64_t m = check_pass(p, table, result, args.smoke);
        // Every lookup of a warm pass is a confirmed hit; nothing is
        // recomputed or written.
        if (p.stats.misses != 0 || p.stats.insertions != 0) ++m;
        mismatches += m;
        return m;
      });
  result.phase("measured", passes * family.members.size(), mismatches);
  survey_metrics(result, setup_s, pass_s, cpu_s, rss_mb, family.members.size());
  return result;
}

Result survey_cold_traced(const Args& args, const VerdictTable& table) {
  Result result;
  const batch::Family family = make_family(args.seed, args.smoke);
  const auto options = survey_options(nullptr);

  // The traced pass, beside its untraced reference: run_survey on the same
  // kind of fresh raw-key tier.
  Tracer tracer;
  std::uint64_t blowups = 0;
  std::uint64_t mismatches = 0;  // rows off the table
  std::string rendered;
  batch::CacheStats traced_stats;
  double wall_s = 0.0;
  Pass untraced;
  side_by_side(
      [&] {
        untraced = survey_pass(family, tier_path(args, "cold-tier.jsonl"),
                               false, false);
      },
      [&] {
        const auto start = Clock::now();
        {
          batch::Cache::Options cache_options;
          cache_options.disk_path = tier_path(args, "cold-traced.jsonl");
          cache_options.load_existing = false;
          batch::Cache cache(cache_options);
          std::vector<batch::ProblemOutcome> rows;
          rows.reserve(family.members.size());
          for (const auto& member : family.members) {
            rows.push_back(tracer.span("batch.survey.row", [&] {
              return cold_row(member, options, TracedCache{cache, tracer},
                              tracer, blowups);
            }));
            if (!table.matches(member.name, rows.back())) ++mismatches;
          }
          const auto report =
              assemble_report(family, options, std::move(rows));
          rendered = tracer.span("batch.survey.render",
                                 [&] { return report.to_json(); });
          traced_stats = cache.stats();
        }
        wall_s = seconds_since(start);
      });

  // The decomposition is the same program only if it renders the same bytes
  // (notes included) and makes the same cache traffic.
  const auto& u = untraced.stats;
  if (rendered != untraced.rendered || traced_stats.hits != u.hits ||
      traced_stats.misses != u.misses ||
      traced_stats.insertions != u.insertions) {
    ++mismatches;
  }
  result.phase("traced", family.members.size(), mismatches);
  result.phase("untraced", family.members.size(),
               check_pass(untraced, table, result, args.smoke));

  const CpuRotator rotator(kRotation);
  std::uint64_t row_mismatches = 0;
  std::vector<double> row_ms;
  double open_s = 0.0;
  {
    const auto open_start = Clock::now();
    batch::Cache::Options cache_options;
    cache_options.disk_path = tier_path(args, "cold-rows.jsonl");
    cache_options.load_existing = false;
    batch::Cache cache(cache_options);
    open_s = seconds_since(open_start);
    row_ms = row_latencies_ms(family, cache, table, row_mismatches);
  }
  result.phase("rows", family.members.size(), row_mismatches);

  common_trace_tail(result, tracer, wall_s, untraced.total_s, blowups,
                    mismatches);
  cache_metrics(result, untraced.stats);
  result.metric("batch.cache.open_s", open_s, "s");
  result.metric("batch.cache.replay_lines",
                static_cast<double>(untraced.stats.disk_loaded), "count");
  result.metric("batch.survey.render_s",
                tracer.layer("batch.survey.render").self_s, "s");
  result.metric("batch.survey.row_p50_ms", quantile(row_ms, 0.5), "ms");
  result.metric("batch.survey.row_p99_ms", quantile(row_ms, 0.99), "ms");
  return result;
}

Result survey_warm_traced(const Args& args, const VerdictTable& table) {
  Result result;
  const batch::Family family = make_family(args.seed, args.smoke);
  const auto options = survey_options(nullptr);
  const std::string tier = tier_path(args, "warm-tier.jsonl");
  const std::string reference_tier = tier_path(args, "warm-reference.jsonl");
  {
    const CpuRotator rotator(kRotation);
    const Pass fill = fill_warm_tier(family, tier);
    result.phase("setup", family.members.size(),
                 check_pass(fill, table, result, args.smoke));
  }
  // The reference replays its own copy of the tier.
  std::filesystem::copy_file(
      tier, reference_tier,
      std::filesystem::copy_options::overwrite_existing);

  // The traced pass, beside its untraced reference (run_survey on the
  // replayed tier).
  Tracer tracer;
  std::uint64_t mismatches = 0;  // decomposed rows off the table, and misses
  std::string rendered;
  double open_s = 0.0;
  double replay_lines = 0.0;
  double wall_s = 0.0;
  Pass untraced;
  side_by_side(
      [&] { untraced = survey_pass(family, reference_tier, true, true); },
      [&] {
        const auto start = Clock::now();
        {
          batch::Cache::Options cache_options;
          cache_options.disk_path = tier;
          cache_options.load_existing = true;
          cache_options.canonical_tier = true;
          const auto open_start = Clock::now();
          batch::Cache cache(cache_options);
          open_s = seconds_since(open_start);
          replay_lines = static_cast<double>(cache.stats().disk_loaded);
          std::vector<batch::ProblemOutcome> rows;
          rows.reserve(family.members.size());
          for (const auto& member : family.members) {
            rows.push_back(tracer.span("batch.survey.row", [&] {
              return warm_row(member, options, TracedCache{cache, tracer},
                              tracer, mismatches);
            }));
            if (!table.matches(member.name, rows.back())) ++mismatches;
          }
          const auto report =
              assemble_report(family, options, std::move(rows));
          rendered = tracer.span("batch.survey.render",
                                 [&] { return report.to_json(); });
        }
        wall_s = seconds_since(start);
      });

  // The decomposition must be the same program: byte-identical report
  // (notes included - both read them from the same tier).
  if (rendered != untraced.rendered) ++mismatches;
  result.phase("traced", family.members.size(), mismatches);
  result.phase("untraced", family.members.size(),
               check_pass(untraced, table, result, args.smoke));

  const CpuRotator rotator(kRotation);
  std::uint64_t row_mismatches = 0;
  std::vector<double> row_ms;
  {
    batch::Cache::Options cache_options;
    cache_options.disk_path = tier;
    cache_options.load_existing = true;
    cache_options.canonical_tier = true;
    batch::Cache cache(cache_options);
    row_ms = row_latencies_ms(family, cache, table, row_mismatches);
  }
  result.phase("rows", family.members.size(), row_mismatches);

  common_trace_tail(result, tracer, wall_s, untraced.total_s, 0, mismatches);
  cache_metrics(result, untraced.stats);
  result.metric("batch.cache.open_s", open_s, "s");
  result.metric("batch.cache.replay_lines", replay_lines, "count");
  parse_tier_metrics(result, tier);
  result.metric("batch.survey.render_s",
                tracer.layer("batch.survey.render").self_s, "s");
  result.metric("batch.survey.row_p50_ms", quantile(row_ms, 0.5), "ms");
  result.metric("batch.survey.row_p99_ms", quantile(row_ms, 0.99), "ms");
  return result;
}

int write_verdicts(const std::string& path) {
  const batch::Family family = make_family(1, false);
  batch::Cache cache;
  const auto report = batch::run_survey(family, survey_options(&cache));
  if (!landscape_matches(report, false)) {
    std::cerr << "survey does not match the expected landscape counts\n";
    return 1;
  }
  write_verdict_table(path, report);
  std::cout << "wrote " << report.outcomes.size() << " rows to " << path
            << "\n";
  return 0;
}

}  // namespace perfbench
