#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/problems.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "obs/json.hpp"
#include "obs/trace_reader.hpp"
#include "re/engine.hpp"
#include "re/operators.hpp"
#include "re/reduce.hpp"
#include "volume/model.hpp"

namespace lcl {
namespace {

/// Turns runtime metrics on for one test and restores the previous state,
/// so tests do not leak the switch into each other (the registry and the
/// switch are process-wide).
class MetricsOn {
 public:
  MetricsOn() : previous_(obs::metrics_enabled()) {
    obs::set_metrics_enabled(true);
  }
  ~MetricsOn() { obs::set_metrics_enabled(previous_); }

 private:
  bool previous_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Histogram, BucketBoundaries) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_index(0), 0u);
  EXPECT_EQ(H::bucket_index(1), 1u);
  EXPECT_EQ(H::bucket_index(2), 2u);
  EXPECT_EQ(H::bucket_index(3), 2u);
  EXPECT_EQ(H::bucket_index(4), 3u);
  EXPECT_EQ(H::bucket_index(7), 3u);
  EXPECT_EQ(H::bucket_index(8), 4u);
  EXPECT_EQ(H::bucket_index(UINT64_MAX), H::kBucketCount - 1);

  EXPECT_EQ(H::bucket_floor(0), 0u);
  EXPECT_EQ(H::bucket_ceil(0), 0u);
  // Every bucket's floor and ceil map back to that bucket, and buckets
  // tile the value range without gaps: ceil(i) + 1 == floor(i + 1).
  for (std::size_t i = 1; i < H::kBucketCount; ++i) {
    EXPECT_EQ(H::bucket_index(H::bucket_floor(i)), i) << "bucket " << i;
    EXPECT_EQ(H::bucket_index(H::bucket_ceil(i)), i) << "bucket " << i;
    EXPECT_EQ(H::bucket_floor(i), std::uint64_t{1} << (i - 1));
    if (i + 1 < H::kBucketCount) {
      EXPECT_EQ(H::bucket_ceil(i) + 1, H::bucket_floor(i + 1));
    }
  }
  EXPECT_EQ(H::bucket_ceil(H::kBucketCount - 1), UINT64_MAX);
}

TEST(Histogram, RecordAndStats) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty histogram reports 0
  EXPECT_EQ(h.max(), 0u);

  h.record(0);
  h.record(1);
  h.record(5);
  h.record(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 4.0);
  EXPECT_EQ(h.bucket_count(0), 1u);                            // value 0
  EXPECT_EQ(h.bucket_count(1), 1u);                            // value 1
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_index(5)), 1u);
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_index(1000)), 1u);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
}

TEST(Metrics, CounterAndGauge) {
  obs::Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge g;
  EXPECT_FALSE(g.ever_set());
  g.set(5);
  g.set(-3);
  g.set(2);
  EXPECT_TRUE(g.ever_set());
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.min(), -3);
  EXPECT_EQ(g.max(), 5);
  g.reset();
  EXPECT_FALSE(g.ever_set());
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricsRegistry, CreateFindAndReset) {
  auto& reg = obs::registry();
  const char* name = "test.registry.create_find";
  EXPECT_EQ(reg.find_counter(name), nullptr);

  obs::Counter& c = reg.counter(name);
  c.add(3);
  // Same name resolves to the same instrument - the macro caching relies
  // on references staying stable.
  EXPECT_EQ(&reg.counter(name), &c);
  ASSERT_NE(reg.find_counter(name), nullptr);
  EXPECT_EQ(reg.find_counter(name)->value(), 3u);

  const std::size_t count_before = reg.instrument_count();
  reg.reset();
  // Reset zeroes values but keeps registrations (and references) alive.
  EXPECT_EQ(reg.instrument_count(), count_before);
  EXPECT_EQ(reg.find_counter(name), &c);
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistry, ToJsonParses) {
  auto& reg = obs::registry();
  reg.counter("test.json.counter").add(7);
  reg.gauge("test.json.gauge").set(-2);
  reg.histogram("test.json.histogram").record(9);

  std::string error;
  const auto value = obs::json::parse(reg.to_json(), &error);
  ASSERT_NE(value, nullptr) << error;
  ASSERT_TRUE(value->is_object());

  const auto* counters = value->find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* c = counters->find("test.json.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->as_int(), 7);

  const auto* gauges = value->find("gauges");
  ASSERT_NE(gauges, nullptr);
  const auto* g = gauges->find("test.json.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->find("value")->as_int(), -2);

  const auto* histograms = value->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const auto* h = histograms->find("test.json.histogram");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_int(), 1);
  EXPECT_EQ(h->find("sum")->as_int(), 9);
}

TEST(Json, RejectsNestingPastTheDepthCap) {
  const std::size_t cap = obs::json::kMaxDepth;
  const auto nested = [](std::size_t depth, char open, char close) {
    return std::string(depth, open) + std::string(depth, close);
  };
  std::string error;
  EXPECT_NE(obs::json::parse(nested(cap, '[', ']'), &error), nullptr)
      << error;
  EXPECT_EQ(obs::json::parse(nested(cap + 1, '[', ']'), &error), nullptr);
  EXPECT_NE(error.find("nesting deeper than 256"), std::string::npos)
      << error;

  // 100k levels used to recurse once per level and overflow the stack; the
  // cap turns the document into an ordinary parse error.
  error.clear();
  EXPECT_EQ(obs::json::parse(nested(100000, '[', ']'), &error), nullptr);
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;

  // Objects count toward the same depth.
  std::string objects;
  for (std::size_t i = 0; i <= cap; ++i) objects += "{\"k\":";
  objects += "0" + std::string(cap + 1, '}');
  error.clear();
  EXPECT_EQ(obs::json::parse(objects, &error), nullptr);
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

#if LCL_OBS
TEST(ObsMacros, RespectRuntimeSwitch) {
  auto& reg = obs::registry();
  // Off: the macro body short-circuits before touching the registry.
  obs::set_metrics_enabled(false);
  LCL_OBS_COUNTER_ADD("test.macro.gated", 1);
  EXPECT_EQ(reg.find_counter("test.macro.gated"), nullptr);
  EXPECT_FALSE(LCL_OBS_ENABLED());

  {
    MetricsOn on;
    EXPECT_TRUE(LCL_OBS_ENABLED());
    LCL_OBS_COUNTER_ADD("test.macro.counter", 2);
    LCL_OBS_COUNTER_ADD("test.macro.counter", 3);
    LCL_OBS_GAUGE_SET("test.macro.gauge", 17);
    LCL_OBS_HISTOGRAM_RECORD("test.macro.histogram", 6);
  }
  ASSERT_NE(reg.find_counter("test.macro.counter"), nullptr);
  EXPECT_EQ(reg.find_counter("test.macro.counter")->value(), 5u);
  ASSERT_NE(reg.find_gauge("test.macro.gauge"), nullptr);
  EXPECT_EQ(reg.find_gauge("test.macro.gauge")->value(), 17);
  ASSERT_NE(reg.find_histogram("test.macro.histogram"), nullptr);
  EXPECT_EQ(reg.find_histogram("test.macro.histogram")->count(), 1u);
}
#endif  // LCL_OBS

TEST(Trace, JsonlRoundTrip) {
  const std::string path = testing::TempDir() + "lcl_obs_roundtrip.jsonl";
  {
    obs::TraceSession session(path, obs::TraceFormat::kJsonl);
    const obs::TraceArg arg{"labels", 12};
    session.emit_span("outer", "test", 0, 100, nullptr, 0);
    session.emit_span("inner", "test", 10, 20, &arg, 1);
    session.emit_instant("tick", "test", &arg, 1);
    session.close();
  }

  obs::ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(obs::parse_trace(read_file(path), &trace, &error)) << error;
  EXPECT_TRUE(trace.has_metrics_footer);

  std::size_t spans = 0, events = 0;
  for (const auto& r : trace.records) {
    if (r.kind == obs::TraceRecord::Kind::kSpan) ++spans;
    if (r.kind == obs::TraceRecord::Kind::kEvent) {
      ++events;
      EXPECT_EQ(r.name, "tick");
      ASSERT_TRUE(r.args.count("labels"));
      EXPECT_EQ(r.args.at("labels"), 12);
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(events, 1u);

  const auto summary = obs::summarize(trace);
  EXPECT_EQ(summary.wall_us, 100);
  // "inner" [10,30) nests inside "outer" [0,100): only the outer span is
  // top-level and its self-time excludes the nested 20us.
  EXPECT_EQ(summary.top_level_us, 100);
  ASSERT_EQ(summary.phases.size(), 2u);
  EXPECT_EQ(summary.phases[0].name, "outer");
  EXPECT_EQ(summary.phases[0].self_us, 80);
  EXPECT_EQ(summary.phases[1].name, "inner");
  EXPECT_EQ(summary.phases[1].args_total.at("labels"), 12);

  const std::string table = obs::format_summary(summary);
  EXPECT_NE(table.find("outer"), std::string::npos);
  EXPECT_NE(table.find("coverage"), std::string::npos);
}

TEST(Trace, ChromeJsonRoundTrip) {
  const std::string path = testing::TempDir() + "lcl_obs_roundtrip.json";
  {
    obs::TraceSession session(path, obs::TraceFormat::kChromeJson);
    const obs::TraceArg arg{"probes", 4};
    session.emit_span("volume/run", "volume", 5, 50, &arg, 1);
    session.close();
  }

  const std::string text = read_file(path);
  // Well-formed as plain JSON too, not just for our reader.
  std::string error;
  ASSERT_NE(obs::json::parse(text, &error), nullptr) << error;

  obs::ParsedTrace trace;
  ASSERT_TRUE(obs::parse_trace(text, &trace, &error)) << error;
  EXPECT_TRUE(trace.has_metrics_footer);
  bool found = false;
  for (const auto& r : trace.records) {
    if (r.kind == obs::TraceRecord::Kind::kSpan && r.name == "volume/run") {
      found = true;
      EXPECT_EQ(r.ts_us, 5);
      EXPECT_EQ(r.dur_us, 50);
      EXPECT_EQ(r.args.at("probes"), 4);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Trace, RejectsMalformedInput) {
  obs::ParsedTrace trace;
  std::string error;
  EXPECT_FALSE(obs::parse_trace("{\"t\":\"span\"}\n", &trace, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(obs::parse_trace("not json\n", &trace, &error));
  EXPECT_FALSE(obs::parse_trace(
      "{\"t\":\"span\",\"name\":\"x\",\"cat\":\"y\",\"ts\":0,\"dur\":-1}\n",
      &trace, &error));
}

/// Regression test for the budget-exhaustion flow: the throw must leave
/// both the query handle and the global registry in a consistent state -
/// `volume.probes` counts exactly the successful probes, the exhaustion
/// instruments record the failure, and `probes_used()` equals the budget.
TEST(VolumeObs, BudgetExhaustionKeepsRegistryConsistent) {
  MetricsOn on;
  auto& reg = obs::registry();
  const std::uint64_t probes_before =
      reg.counter("volume.probes").value();
  const std::uint64_t exhausted_before =
      reg.counter("volume.budget_exhausted").value();
  const std::uint64_t exhaustion_records_before =
      reg.histogram("volume.probes_at_exhaustion").count();

  Graph g = make_path(6);
  const auto input = uniform_labeling(g, 0);
  const auto ids = sequential_ids(g);
  VolumeQuery q(g, 0, input, ids, /*budget=*/2, /*advertised_n=*/6);
  EXPECT_EQ(q.probe(0, 0), 1u);
  std::size_t second = q.probe(1, 0);
  EXPECT_THROW(q.probe(second, 0), ProbeBudgetExceeded);
  EXPECT_EQ(q.probes_used(), 2u);
  // A second rejected attempt must not drift the state further.
  EXPECT_THROW(q.probe(second, 0), ProbeBudgetExceeded);
  EXPECT_EQ(q.probes_used(), 2u);

#if LCL_OBS
  EXPECT_EQ(reg.counter("volume.probes").value(), probes_before + 2);
  EXPECT_EQ(reg.counter("volume.budget_exhausted").value(),
            exhausted_before + 2);
  EXPECT_EQ(reg.histogram("volume.probes_at_exhaustion").count(),
            exhaustion_records_before + 2);
  EXPECT_EQ(reg.histogram("volume.probes_at_exhaustion").max(), 2u);
#else
  (void)probes_before;
  (void)exhausted_before;
  (void)exhaustion_records_before;
#endif
}

#if LCL_OBS
/// End-to-end: running the RE engine under an active trace session yields
/// a parseable trace whose spans cover the run.
TEST(EngineObs, EmitsSpansUnderActiveSession) {
  const std::string path = testing::TempDir() + "lcl_obs_engine.jsonl";
  {
    MetricsOn on;
    obs::TraceSession session(path, obs::TraceFormat::kJsonl);
    obs::TraceSession* previous = obs::TraceSession::set_current(&session);
    SpeedupEngine engine(problems::any_orientation(2));
    SpeedupEngine::Options options;
    options.max_steps = 2;
    const auto outcome = engine.run(options);
    EXPECT_GE(outcome.steps.size(), 1u);
    obs::TraceSession::set_current(previous);
    session.close();
  }

  obs::ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(obs::parse_trace(read_file(path), &trace, &error)) << error;
  bool saw_run = false, saw_step = false;
  for (const auto& r : trace.records) {
    if (r.kind != obs::TraceRecord::Kind::kSpan) continue;
    if (r.name == "re/run") saw_run = true;
    if (r.name == "re/step") saw_step = true;
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_step);

  const auto summary = obs::summarize(trace);
  EXPECT_GT(summary.wall_us, 0);
  EXPECT_GT(summary.top_level_us, 0);
}

/// reduce() runs each fixed-point round as three sub-pass spans, all nested
/// inside the re/reduce span of the call, so a trace splits the reduction's
/// time between trim, merge and dominate.
TEST(ReduceObs, SubPassSpansNestUnderReduce) {
  const std::string path = testing::TempDir() + "lcl_obs_reduce.jsonl";
  const ReStep psi = apply_r(problems::coloring(3, 2), ReLimits{});
  {
    MetricsOn on;
    obs::TraceSession session(path, obs::TraceFormat::kJsonl);
    obs::TraceSession* previous = obs::TraceSession::set_current(&session);
    const Reduction red = reduce(psi.problem);
    EXPECT_LT(red.problem.output_alphabet().size(),
              psi.problem.output_alphabet().size());
    obs::TraceSession::set_current(previous);
    session.close();
  }

  obs::ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(obs::parse_trace(read_file(path), &trace, &error)) << error;
  std::vector<obs::TraceRecord> reduces;
  std::vector<obs::TraceRecord> sub_passes;
  for (const auto& r : trace.records) {
    if (r.kind != obs::TraceRecord::Kind::kSpan) continue;
    if (r.name == "re/reduce") reduces.push_back(r);
    if (r.name.rfind("re/reduce/", 0) == 0) sub_passes.push_back(r);
  }
  ASSERT_EQ(reduces.size(), 1u);
  const auto& outer = reduces.front();
  std::map<std::string, int> counts;
  for (const auto& sub : sub_passes) {
    ++counts[sub.name];
    EXPECT_GE(sub.ts_us, outer.ts_us) << sub.name;
    EXPECT_LE(sub.ts_us + sub.dur_us, outer.ts_us + outer.dur_us) << sub.name;
  }
  EXPECT_EQ(counts.size(), 3u);
  EXPECT_GE(counts["re/reduce/trim"], 1);
  // Every fixed-point round runs all three passes once.
  EXPECT_EQ(counts["re/reduce/merge"], counts["re/reduce/trim"]);
  EXPECT_EQ(counts["re/reduce/dominate"], counts["re/reduce/trim"]);

  // trace_summary charges the sub-passes to their own rows, leaving
  // re/reduce only the time outside them.
  const auto summary = obs::summarize(trace);
  std::int64_t sub_total = 0;
  std::int64_t reduce_self = -1;
  for (const auto& phase : summary.phases) {
    if (phase.name.rfind("re/reduce/", 0) == 0) sub_total += phase.total_us;
    if (phase.name == "re/reduce") reduce_self = phase.self_us;
  }
  EXPECT_EQ(reduce_self, outer.dur_us - sub_total);
}
#endif  // LCL_OBS

// --- Multi-threaded obs behaviour (exercised under the obs-tsan preset) ---
// These tests exist to put the instruments and the trace session under real
// contention: the batch pool shares both across workers, so "safe from one
// thread" is no longer enough.

TEST(MetricsThreads, InstrumentsAreRaceFreeUnderContention) {
  MetricsOn on;
  auto& reg = obs::registry();
  reg.reset();
  constexpr int kThreads = 8;
  constexpr int kOps = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &reg]() {
      auto& counter = reg.counter("test.mt.counter");
      auto& gauge = reg.gauge("test.mt.gauge");
      auto& histogram = reg.histogram("test.mt.histogram");
      for (int i = 0; i < kOps; ++i) {
        counter.add(1);
        gauge.set(t * kOps + i);
        histogram.record(static_cast<std::uint64_t>(i));
        if (i % 1024 == 0) reg.snapshot();  // readers race the writers
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(reg.counter("test.mt.counter").value(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  const auto& gauge = reg.gauge("test.mt.gauge");
  EXPECT_TRUE(gauge.ever_set());
  EXPECT_EQ(gauge.max(), (kThreads - 1) * kOps + (kOps - 1));
  EXPECT_EQ(gauge.min(), 0);
  const auto& histogram = reg.histogram("test.mt.histogram");
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(histogram.max(), static_cast<std::uint64_t>(kOps - 1));
  reg.reset();
}

TEST(MetricsThreads, GaugeConcurrentFirstSetKeepsBothExtremes) {
  // Regression: the old first-set fast path (exchange-then-store) let two
  // racing *first* setters overwrite each other's extreme. With the
  // sentinel scheme both values must always land.
  for (int round = 0; round < 200; ++round) {
    obs::Gauge gauge;
    std::atomic<bool> go{false};
    std::thread a([&]() {
      while (!go.load(std::memory_order_acquire)) {
      }
      gauge.set(5);
    });
    std::thread b([&]() {
      while (!go.load(std::memory_order_acquire)) {
      }
      gauge.set(-3);
    });
    go.store(true, std::memory_order_release);
    a.join();
    b.join();
    EXPECT_TRUE(gauge.ever_set());
    EXPECT_EQ(gauge.max(), 5) << "round " << round;
    EXPECT_EQ(gauge.min(), -3) << "round " << round;
  }
}

TEST(TraceThreads, ConcurrentEmittersProduceAWellFormedTrace) {
  const std::string path = testing::TempDir() + "lcl_obs_mt_trace.jsonl";
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 400;
  {
    obs::TraceSession session(path, obs::TraceFormat::kJsonl);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, &session]() {
        for (int i = 0; i < kSpansPerThread; ++i) {
          const obs::TraceArg arg{"i", i};
          session.emit_span("mt/span", "test", t, 1, &arg, 1);
          if (i % 64 == 0) session.emit_instant("mt/tick", "test", nullptr, 0);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    session.close();
  }

  obs::ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(obs::parse_trace(read_file(path), &trace, &error)) << error;
  EXPECT_TRUE(trace.has_metrics_footer);
  std::size_t spans = 0;
  for (const auto& r : trace.records) {
    if (r.kind == obs::TraceRecord::Kind::kSpan) ++spans;
  }
  EXPECT_EQ(spans, static_cast<std::size_t>(kThreads) * kSpansPerThread);
  // The footer is the last record: nothing slipped in behind the trailer.
  ASSERT_FALSE(trace.records.empty());
  EXPECT_EQ(trace.records.back().kind, obs::TraceRecord::Kind::kMetrics);
}

TEST(TraceThreads, EmittersRacingCloseNeverCorruptTheFile) {
  const std::string path = testing::TempDir() + "lcl_obs_mt_close.jsonl";
  {
    obs::TraceSession session(path, obs::TraceFormat::kJsonl);
    std::atomic<bool> stop{false};
    std::vector<std::thread> emitters;
    for (int t = 0; t < 4; ++t) {
      emitters.emplace_back([&]() {
        // Keep emitting straight through close(); every record either lands
        // before the footer or is dropped - never written after it.
        for (int i = 0; i < 20000 && !stop.load(std::memory_order_relaxed);
             ++i) {
          session.emit_span("race/span", "test", 0, 1, nullptr, 0);
        }
      });
    }
    session.close();
    stop.store(true, std::memory_order_relaxed);
    for (auto& thread : emitters) thread.join();
    session.emit_instant("race/after-close", "test", nullptr, 0);  // dropped
  }

  obs::ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(obs::parse_trace(read_file(path), &trace, &error)) << error;
  EXPECT_TRUE(trace.has_metrics_footer);
  ASSERT_FALSE(trace.records.empty());
  EXPECT_EQ(trace.records.back().kind, obs::TraceRecord::Kind::kMetrics);
  for (const auto& r : trace.records) {
    EXPECT_NE(r.name, "race/after-close");
  }
}

}  // namespace
}  // namespace lcl
