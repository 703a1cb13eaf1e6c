#pragma once

// Shared pieces of the lclscape end-to-end benchmark: arguments, the result
// document, the seeded Delta=2 l=3 family, the committed verdict table,
// outside-in span timing, and process resource probes.

#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "batch/survey.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The latency a failed operation reports: it misses any latency limit, and
/// a percentile that lands on one reads as an hour.
constexpr double kFailedLatencyUs = 3.6e9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny family and short phases: validates plumbing, names and units.
  bool smoke = false;
  std::string lcld;       // path of the daemon binary (service-mix)
  std::string verdicts;   // committed verdict table
  std::string workdir;    // scratch space for cache tiers and port files
};

/// One benchmark run's outcome; rendered as the final stdout line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a verdict, class count or digest check failed.
  bool checks_ok = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Counts one phase's operations and prints them as a progress line.
  void phase(const std::string& name, std::uint64_t attempted_ops,
             std::uint64_t failed_ops);
  std::string to_json() const;
};

/// The exhaustive Delta=2, 3-label family (3969 members; the first 48 in
/// smoke mode) in a seed-dependent order (seed 0: enumeration order).
lcl::batch::Family make_family(std::uint64_t seed, bool smoke);

/// The survey settings every workload shares: inline (jobs=1), max-steps 3.
lcl::batch::SurveyOptions survey_options(lcl::batch::Cache* cache);

/// The verdict columns of a row (every report column except `name`, `key`
/// and `note`), tab-separated. `note` is excluded on purpose: the blow-up
/// note names whichever member's iterate the step cache stored first, so it
/// depends on cache mode and member order.
std::string verdict_columns(const lcl::batch::ProblemOutcome& outcome);

/// member name -> verdict columns, loaded from the committed table.
class VerdictTable {
 public:
  explicit VerdictTable(const std::string& path);
  /// True when `outcome`'s verdict columns equal the table's row for
  /// `member` (the family member it was derived from).
  bool matches(const std::string& member,
               const lcl::batch::ProblemOutcome& outcome) const;
  /// Field `column` (0-based, see `verdict_columns`) of a member's row.
  std::string column(const std::string& member, std::size_t column) const;

 private:
  const std::string* find(const std::string& member) const;

  std::unordered_map<std::string, std::string> rows_;
};

/// Writes the verdict table for `report` (rows sorted by member name).
void write_verdict_table(const std::string& path,
                         const lcl::batch::SurveyReport& report);

/// Survey-level checks against the committed landscape: the class counts
/// and canonical class count of the full family. Always true in smoke mode.
bool landscape_matches(const lcl::batch::SurveyReport& report, bool smoke);

/// Counts rows whose verdict columns disagree with the table (error rows
/// included).
std::uint64_t count_mismatches(const lcl::batch::SurveyReport& report,
                               const VerdictTable& table);

/// FNV-1a 64 over a byte string, chained through `state`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t state = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t value);

/// Outside-in span timing: wraps calls into a layer's public functions and
/// keeps per-layer call counts and self time (duration minus the time of
/// spans opened inside it).
class Tracer {
 public:
  struct Layer {
    std::uint64_t calls = 0;
    double self_s = 0.0;
  };

  template <class F>
  decltype(auto) span(const char* layer, F&& f) {
    open_.push_back(0.0);
    Closer closer(this, layer);
    return f();
  }

  Layer layer(const std::string& name) const {
    const auto it = layers_.find(name);
    return it == layers_.end() ? Layer{} : it->second;
  }

 private:
  /// Closes the span when the wrapped call returns or throws.
  class Closer {
   public:
    Closer(Tracer* tracer, const char* layer)
        : tracer_(tracer), layer_(layer), start_(Clock::now()) {}
    Closer(const Closer&) = delete;
    Closer& operator=(const Closer&) = delete;
    ~Closer() { tracer_->close(layer_, start_); }

   private:
    Tracer* tracer_;
    const char* layer_;
    Clock::time_point start_;
  };
  void close(const char* layer, Clock::time_point start);

  std::vector<double> open_;  // child time accumulated per open span
  std::map<std::string, Layer> layers_;
};

/// Moves the constructing thread round-robin over the CPUs it may run on,
/// one step per `period`, until destroyed; then restores its affinity. On a
/// shared machine the cores are not equally fast (busy hyperthread siblings,
/// other tenants), and a single-threaded pass runs wherever the scheduler
/// left it: rotating makes every pass sample all of them alike, so a run's
/// result does not depend on its placement. Threads that join (`Lane`)
/// rotate in step with it, spread evenly over the CPUs, so no two of them
/// share one.
class CpuRotator {
 public:
  explicit CpuRotator(std::chrono::milliseconds period);
  ~CpuRotator();
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

  /// Rotates the constructing thread with `rotator` while it lives.
  class Lane {
   public:
    explicit Lane(CpuRotator& rotator);
    ~Lane();
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

   private:
    CpuRotator& rotator_;
    const pid_t tid_;
  };

 private:
  void loop();

  const std::chrono::milliseconds period_;
  const pid_t tid_;
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<pid_t> lanes_;  // guarded by mutex_; lanes_[0] is tid_
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;  // last: started once the members above exist
};

/// Quantile by nearest rank on a copy (q in [0, 1]); 0 for an empty input.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// Median over `blocks` consecutive blocks of `values` (in measurement
/// order) of each block's q-quantile: one burst of interference from
/// outside moves one block, not the reported value.
double blocked_quantile(const std::vector<double>& values, double q,
                        std::size_t blocks = 10);

/// CPU seconds of this process (all threads).
double process_cpu_seconds();
/// CPU seconds of process `pid` (all threads).
double proc_cpu_seconds(int pid);
/// Resets the peak-RSS watermark of `pid` ("self" for this process); false
/// when the kernel refuses, in which case the lifetime peak is reported.
bool reset_peak_rss(const std::string& pid);
/// Peak resident set (VmHWM) in MiB.
double peak_rss_mb(const std::string& pid);

}  // namespace perfbench
