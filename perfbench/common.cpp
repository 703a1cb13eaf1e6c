#include "common.hpp"

#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

namespace batch = lcl::batch;

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

void Result::phase(const std::string& name, std::uint64_t attempted_ops,
                   std::uint64_t failed_ops) {
  attempted += attempted_ops;
  failed += failed_ops;
  std::cout << "phase " << name << ": attempted=" << attempted_ops
            << " failed=" << failed_ops << "\n";
}

std::string Result::to_json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (checks_ok && failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << json_number(value.first) << ", \"unit\": \"" << value.second
        << "\"}";
  }
  out << "}}";
  return out.str();
}

batch::Family make_family(std::uint64_t seed, bool smoke) {
  batch::ExhaustiveFamilyOptions options;
  options.max_degree = 2;
  options.labels = 3;
  options.max_problems = smoke ? 48 : 0;
  batch::Family family = batch::exhaustive_family(options);
  // Fisher-Yates on SplitRng, so the order is the same on every platform.
  // Seed 0 keeps the enumeration order.
  if (seed == 0) return family;
  lcl::SplitRng rng(seed);
  auto& members = family.members;
  for (std::size_t i = members.size(); i > 1; --i) {
    std::swap(members[i - 1], members[rng.next_below(i)]);
  }
  return family;
}

batch::SurveyOptions survey_options(batch::Cache* cache) {
  batch::SurveyOptions options;
  options.jobs = 1;
  options.engine.max_steps = 3;
  options.cache = cache;
  return options;
}

std::string verdict_columns(const batch::ProblemOutcome& o) {
  std::ostringstream out;
  out << o.landscape_class << '\t' << o.cycle_class << '\t' << o.path_class
      << '\t' << o.canonical_key << '\t' << o.zero_round_step << '\t'
      << o.steps_applied << '\t' << o.fixed_point << '\t'
      << o.budget_exhausted << '\t' << o.detected_unsolvable << '\t'
      << o.preflight_dead_labels << '\t' << o.check << '\t' << o.error;
  return out.str();
}

VerdictTable::VerdictTable(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read verdict table '" + path + "'");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto tab = line.find('\t');
    if (tab == std::string::npos) {
      throw std::runtime_error("malformed verdict table line: " + line);
    }
    rows_[line.substr(0, tab)] = line.substr(tab + 1);
  }
}

const std::string* VerdictTable::find(const std::string& member) const {
  const auto it = rows_.find(member);
  return it == rows_.end() ? nullptr : &it->second;
}

bool VerdictTable::matches(const std::string& member,
                           const batch::ProblemOutcome& outcome) const {
  const std::string* row = find(member);
  return row != nullptr && *row == verdict_columns(outcome);
}

std::string VerdictTable::column(const std::string& member,
                                 std::size_t column) const {
  const std::string* row = find(member);
  if (row == nullptr) return {};
  std::size_t start = 0;
  for (std::size_t i = 0; i < column; ++i) {
    start = row->find('\t', start);
    if (start == std::string::npos) return {};
    ++start;
  }
  return row->substr(start, row->find('\t', start) - start);
}

void write_verdict_table(const std::string& path,
                         const batch::SurveyReport& report) {
  std::vector<const batch::ProblemOutcome*> rows;
  for (const auto& o : report.outcomes) rows.push_back(&o);
  std::sort(rows.begin(), rows.end(),
            [](const auto* a, const auto* b) { return a->name < b->name; });
  std::ofstream out(path);
  out << "# lclscape survey verdicts: " << report.family
      << ", max-steps " << report.engine_max_steps << ", raw cache key\n"
      << "# name\tclass\tcycle\tpath\tcanonical_key\tzero_round_step\t"
         "steps_applied\tfixed_point\tbudget_exhausted\t"
         "detected_unsolvable\tpreflight_dead_labels\tcheck\terror\n";
  for (const auto* o : rows) {
    out << o->name << '\t' << verdict_columns(*o) << '\n';
  }
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

bool landscape_matches(const batch::SurveyReport& report, bool smoke) {
  if (smoke) return true;
  const std::map<std::string, std::size_t> expected = {
      {"O(1)", 2833}, {"Theta(log* n)", 578}, {"Theta(n)", 126},
      {"unsolvable", 432}};
  return report.problems == 3969 && report.class_counts == expected &&
         report.canonical_classes == 777 && report.errors == 0;
}

std::uint64_t count_mismatches(const batch::SurveyReport& report,
                               const VerdictTable& table) {
  std::uint64_t mismatches = 0;
  for (const auto& o : report.outcomes) {
    if (!o.error.empty() || !table.matches(o.name, o)) ++mismatches;
  }
  return mismatches;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t state) {
  for (const unsigned char c : bytes) {
    state ^= c;
    state *= 0x100000001b3ULL;
  }
  return state;
}

std::string hex64(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

void Tracer::close(const char* layer, Clock::time_point start) {
  const double duration = seconds_since(start);
  const double child = open_.back();
  open_.pop_back();
  Layer& entry = layers_[layer];
  ++entry.calls;
  entry.self_s += duration - child;
  if (!open_.empty()) open_.back() += duration;
}

CpuRotator::CpuRotator(std::chrono::milliseconds period)
    : period_(period), tid_(static_cast<pid_t>(::syscall(SYS_gettid))) {
  if (::sched_getaffinity(tid_, sizeof original_, &original_) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  lanes_.push_back(tid_);
  if (cpus_.size() > 1) thread_ = std::thread([this] { loop(); });
}

CpuRotator::~CpuRotator() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_one();
  thread_.join();
  ::sched_setaffinity(tid_, sizeof original_, &original_);
}

CpuRotator::Lane::Lane(CpuRotator& rotator)
    : rotator_(rotator), tid_(static_cast<pid_t>(::syscall(SYS_gettid))) {
  std::lock_guard<std::mutex> lock(rotator_.mutex_);
  rotator_.lanes_.push_back(tid_);
}

CpuRotator::Lane::~Lane() {
  {
    std::lock_guard<std::mutex> lock(rotator_.mutex_);
    auto& lanes = rotator_.lanes_;
    lanes.erase(std::find(lanes.begin(), lanes.end(), tid_));
  }
  ::sched_setaffinity(tid_, sizeof rotator_.original_, &rotator_.original_);
}

void CpuRotator::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (std::size_t i = 0; !stop_; ++i) {
    const std::size_t n = cpus_.size();
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[(i + k * n / lanes_.size()) % n], &one);
      ::sched_setaffinity(lanes_[k], sizeof one, &one);
    }
    wake_.wait_for(lock, period_, [this] { return stop_; });
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double blocked_quantile(const std::vector<double>& values, double q,
                        std::size_t blocks) {
  const std::size_t size = (values.size() + blocks - 1) / blocks;
  if (size == 0) return 0.0;
  std::vector<double> per_block;
  for (std::size_t begin = 0; begin < values.size(); begin += size) {
    const std::size_t end = std::min(values.size(), begin + size);
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = values.begin() + static_cast<std::ptrdiff_t>(end);
    per_block.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(std::move(per_block));
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double proc_cpu_seconds(int pid) {
  // The process CPU clock of `pid` (all threads, nanoseconds); the tick
  // counts of /proc/<pid>/stat when the kernel does not offer it.
  clockid_t clock;
  timespec ts{};
  if (clock_getcpuclockid(pid, &clock) == 0 && clock_gettime(clock, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool reset_peak_rss(const std::string& pid) {
  std::ofstream out("/proc/" + pid + "/clear_refs");
  out << "5\n";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench
