// lcl_perfbench: runs one benchmark workload and prints its result document
// as the last stdout line. perfbench/run.py builds this binary and lcld and
// passes the paths in; see perfbench/README.md.
//
//   lcl_perfbench --workload=survey-cold|survey-warm|service-mix --seed=N
//                 --seconds=S --trace=0|1 --verdicts=FILE --workdir=DIR
//                 [--lcld=PATH] [--smoke]
//   lcl_perfbench --write-verdicts=FILE

#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "workloads.hpp"

namespace {

using perfbench::Result;

/// Every metric a run may print, with its unit. An untraced run prints the
/// end-to-end set, a traced run the per-layer set; a per-layer metric whose
/// layer is not on the workload's path reads 0.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"rows_per_s", "rows/s"},
    {"cpu_s", "s"},            {"peak_rss_mb", "MiB"},
    {"throughput_rps", "1/s"}, {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},  {"server_cpu_us_per_req", "us"}};

std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* layer :
       {"re.apply_r", "re.apply_rbar", "re.reduce", "re.zero_round",
        "classify.cycles", "classify.paths", "lint.canonical_form",
        "lint.prune_problem", "batch.cache.lookup", "batch.cache.insert",
        "batch.survey.row"}) {
    out.push_back({std::string(layer) + ".calls", "count"});
    out.push_back({std::string(layer) + ".self_s", "s"});
    out.push_back({std::string(layer) + ".share", "ratio"});
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"re.blowups", "count"},
      {"batch.cache.open_s", "s"},
      {"batch.cache.replay_lines", "count"},
      {"obs.json.parse.self_s", "s"},
      {"obs.json.parse.bytes", "bytes"},
      {"batch.cache.lookups", "count"},
      {"batch.cache.hits", "count"},
      {"batch.cache.canonical_hits", "count"},
      {"batch.cache.misses", "count"},
      {"batch.cache.inserts", "count"},
      {"batch.cache.collisions", "count"},
      {"batch.cache.hit_ratio", "ratio"},
      {"batch.survey.render_s", "s"},
      {"batch.survey.row_p50_ms", "ms"},
      {"batch.survey.row_p99_ms", "ms"},
      {"svc.handle.classify_p50_us", "us"},
      {"svc.handle.classify_p99_us", "us"},
      {"svc.handle.lint_p50_us", "us"},
      {"svc.handle.lint_p99_us", "us"},
      {"svc.http.latency_p99_us", "us"},
      {"svc.http.classify.overhead_p50_us", "us"},
      {"svc.http.lint.overhead_p50_us", "us"},
      {"svc.requests", "count"},
      {"svc.rejected", "count"},
      {"svc.cache.canonical_hits", "count"},
      {"trace.wall_s", "s"},
      {"trace.untraced_wall_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.engine_coverage", "ratio"},
      {"trace.verdict_mismatches", "count"}};
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

/// Orders the result's metrics as declared, fills absent per-layer ones
/// with 0, and rejects any undeclared name or unit (a benchmark bug).
bool normalize(Result& result, bool traced) {
  const auto declared = traced ? per_layer_metrics() : kEndToEnd;
  std::map<std::string, std::pair<double, std::string>> reported;
  for (const auto& [name, value] : result.metrics) reported[name] = value;
  result.metrics.clear();
  for (const auto& [name, unit] : declared) {
    const auto it = reported.find(name);
    if (it == reported.end()) {
      if (!traced) {
        std::cerr << "lcl_perfbench: missing metric " << name << "\n";
        return false;
      }
      result.metric(name, 0.0, unit);
      continue;
    }
    if (it->second.second != unit) {
      std::cerr << "lcl_perfbench: metric " << name << " has unit "
                << it->second.second << ", declared " << unit << "\n";
      return false;
    }
    result.metric(name, it->second.first, unit);
    reported.erase(it);
  }
  for (const auto& [name, value] : reported) {
    std::cerr << "lcl_perfbench: undeclared metric " << name << "\n";
  }
  return reported.empty();
}

int usage() {
  std::cerr << "usage: lcl_perfbench --workload=W --seed=N --seconds=S "
               "--trace=0|1 --verdicts=FILE --workdir=DIR [--lcld=PATH] "
               "[--smoke]\n"
               "       lcl_perfbench --write-verdicts=FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value =
          [&arg](const char* flag) -> std::optional<std::string> {
            const std::string prefix = std::string(flag) + "=";
            if (arg.rfind(prefix, 0) != 0) return std::nullopt;
            return arg.substr(prefix.size());
          };
      if (auto v = value("--write-verdicts")) {
        return perfbench::write_verdicts(*v);
      } else if (auto w = value("--workload")) {
        args.workload = *w;
      } else if (auto s = value("--seed")) {
        args.seed = std::stoull(*s);
      } else if (auto t = value("--seconds")) {
        args.seconds = std::stod(*t);
      } else if (auto tr = value("--trace")) {
        args.trace = *tr == "1";
      } else if (auto l = value("--lcld")) {
        args.lcld = *l;
      } else if (auto vd = value("--verdicts")) {
        args.verdicts = *vd;
      } else if (auto wd = value("--workdir")) {
        args.workdir = *wd;
      } else if (arg == "--smoke") {
        args.smoke = true;
      } else {
        return usage();
      }
    }
    if (args.verdicts.empty() || args.workdir.empty() || args.seconds <= 0) {
      return usage();
    }
    std::filesystem::create_directories(args.workdir);
    const perfbench::VerdictTable table(args.verdicts);

    Result result;
    if (args.workload == "survey-cold") {
      result = args.trace ? perfbench::survey_cold_traced(args, table)
                          : perfbench::survey_cold(args, table);
    } else if (args.workload == "survey-warm") {
      result = args.trace ? perfbench::survey_warm_traced(args, table)
                          : perfbench::survey_warm(args, table);
    } else if (args.workload == "service-mix") {
      if (args.lcld.empty()) return usage();
      result = args.trace ? perfbench::service_mix_traced(args, table)
                          : perfbench::service_mix(args, table);
    } else {
      std::cerr << "lcl_perfbench: unknown workload '" << args.workload
                << "'\n";
      return 2;
    }
    if (!normalize(result, args.trace)) return 1;
    std::cout << result.to_json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "lcl_perfbench: " << e.what() << "\n";
    return 1;
  }
}
