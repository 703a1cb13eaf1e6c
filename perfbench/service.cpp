// service-mix: the real lcld (--jobs=1, in-memory cache) under a closed loop
// of two keep-alive client connections. Setup classifies a seeded hot set;
// the measured mix is ~60% warm /v1/classify of hot members as stored, ~20%
// label-permuted variants (canonical-tier hits) and ~20% /v1/lint.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <thread>

#include "lint/canonical.hpp"
#include "lint/spec.hpp"
#include "lint/spec_io.hpp"
#include "obs/json.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace batch = lcl::batch;
namespace json = lcl::obs::json;

namespace {

// Nominal closed-loop rate on the reference machine; turns --seconds into
// a fixed request count so both commits send the same requests.
constexpr double kNominalRps = 11000.0;
constexpr int kConnections = 2;
constexpr std::size_t kBlocks = 10;
// Set-ups per run (each starts a fresh lcld and classifies the hot set).
constexpr int kSetups = 5;

enum class Kind { kClassify, kPermuted, kLint };

struct Request {
  Kind kind = Kind::kClassify;
  std::string member;  // family member the verdict is checked against
  std::string path;
  std::string body;
  std::string bytes;  // the full HTTP/1.1 request
};

struct Mix {
  std::vector<Request> hot;       // setup: one classify per hot member
  std::vector<Request> sequence;  // measured: cycled in order
};

Request make_request(Kind kind, const std::string& member,
                     lcl::lint::ProblemSpec spec) {
  Request r;
  r.kind = kind;
  r.member = member;
  r.path = kind == Kind::kLint ? "/v1/lint" : "/v1/classify";
  json::Value body = json::Value::make_object();
  body.object()["problem"] = lcl::lint::spec_to_json_value(spec);
  if (kind != Kind::kLint) {
    // The survey settings the verdict table was derived with.
    json::Value options = json::Value::make_object();
    options.object()["max_steps"] = json::Value(std::int64_t{3});
    body.object()["options"] = std::move(options);
  }
  r.body = json::dump(body);
  r.bytes = "POST " + r.path +
            " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json"
            "\r\nContent-Length: " +
            std::to_string(r.body.size()) + "\r\n\r\n" + r.body;
  return r;
}

/// The hot set and the seeded cyclic request sequence drawn from it. The
/// hot set is one member per label-permutation class of the family (the
/// first in enumeration order), classified in class-key order; it is the
/// same for every seed, because which members represent the classes moved
/// the daemon's peak RSS by 13%. The seed draws the sequence: the classes
/// requested, their order, the label permutations and the lint members.
/// Blow-up classes (the engine hit its enumeration limit) are left out: one
/// takes 1.8 s to classify and its transient memory would set the daemon's
/// peak RSS; survey-cold covers them.
Mix make_mix(const Args& args, const VerdictTable& table) {
  const batch::Family family = make_family(args.seed, args.smoke);
  const batch::Family in_order = make_family(0, args.smoke);
  const std::size_t cycle = args.smoke ? 64 : 4096;
  std::map<std::string, const batch::FamilyMember*> representatives;
  for (const auto& member : in_order.members) {
    if (table.column(member.name, 7) == "1") continue;  // blow-up
    representatives.emplace(table.column(member.name, 3), &member);
  }
  std::vector<lcl::lint::ProblemSpec> specs;
  Mix mix;
  for (const auto& [key, member] : representatives) {
    specs.push_back(lcl::lint::spec_from_problem(member->problem));
    mix.hot.push_back(
        make_request(Kind::kClassify, member->name, specs.back()));
  }
  // The five non-identity permutations of three labels.
  static const std::array<std::array<lcl::Label, 3>, 5> kPermutations = {{
      {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}};
  lcl::SplitRng rng(args.seed ^ 0x5eed5eedULL);
  for (std::size_t i = 0; i < cycle; ++i) {
    const std::uint64_t roll = rng.next_below(100);
    const std::size_t h = rng.next_below(mix.hot.size());
    const std::string& name = mix.hot[h].member;
    if (roll < 60) {
      mix.sequence.push_back(make_request(Kind::kClassify, name, specs[h]));
    } else if (roll < 80) {
      const auto& p = kPermutations[rng.next_below(kPermutations.size())];
      auto spec = lcl::lint::permute_spec(specs[h], {p[0], p[1], p[2]});
      spec.name = name + "~" + std::to_string(p[0]) + std::to_string(p[1]) +
                  std::to_string(p[2]);
      mix.sequence.push_back(make_request(Kind::kPermuted, name, spec));
    } else {
      const auto& member =
          family.members[rng.next_below(family.members.size())];
      mix.sequence.push_back(make_request(
          Kind::kLint, member.name,
          lcl::lint::spec_from_problem(member.problem)));
    }
  }
  std::uint64_t hot_digest = fnv1a("hot");
  for (const auto& r : mix.hot) hot_digest = fnv1a(r.bytes, hot_digest);
  std::uint64_t sequence_digest = fnv1a("sequence");
  for (const auto& r : mix.sequence) {
    sequence_digest = fnv1a(r.bytes, sequence_digest);
  }
  std::cout << "digest hot_set=" << hex64(hot_digest) << " ("
            << mix.hot.size() << " members) requests=" << hex64(sequence_digest)
            << " (" << mix.sequence.size() << "-request cycle)\n";
  return mix;
}

/// Checks a 200 response body against the verdict table: a classify row's
/// verdict columns, or a lint report's dead-label count.
bool response_ok(const Request& request, const std::string& body,
                 const VerdictTable& table) {
  std::string error;
  const auto doc = json::parse(body, &error);
  if (doc == nullptr) return false;
  try {
    if (request.kind == Kind::kLint) {
      const json::Value* lint = doc->find("lint");
      if (lint == nullptr) return false;
      const auto* valid = lint->find("structurally_valid");
      const auto* dead = lint->find("dead_labels");
      return valid != nullptr && valid->is_bool() && valid->as_bool() &&
             dead != nullptr && dead->is_number() &&
             std::to_string(dead->as_int()) == table.column(request.member, 9);
    }
    const json::Value* row = doc->find("outcome");
    return row != nullptr &&
           table.matches(request.member, batch::outcome_from_json_value(*row));
  } catch (const std::exception&) {
    return false;
  }
}

/// A keep-alive HTTP/1.1 client connection: one request in flight, the
/// response read to its Content-Length.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { close(); }

  bool open(std::uint16_t port) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval timeout{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close();
      return false;
    }
    port_ = port;
    buffer_.clear();
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Sends `bytes` and reads one response. Returns the status, or -1 on a
  /// transport or framing error (the connection is then reopened).
  int roundtrip(const std::string& bytes, std::string& body) {
    if (fd_ < 0 && !open(port_)) return -1;
    int status = -1;
    try {
      status = exchange(bytes, body);
    } catch (const std::exception&) {
      status = -1;  // e.g. a Content-Length that is not a number
    }
    if (status < 0) open(port_);
    return status;
  }

 private:
  int exchange(const std::string& bytes, std::string& body) {
    for (std::size_t sent = 0; sent < bytes.size();) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return -1;
      sent += static_cast<std::size_t>(n);
    }
    std::size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill()) return -1;
    }
    const std::string head = buffer_.substr(0, head_end);
    if (head.rfind("HTTP/1.1 ", 0) != 0 || head.size() < 12) return -1;
    const int status = std::atoi(head.c_str() + 9);
    std::size_t length = std::string::npos;
    bool close_after = false;
    std::size_t line = head.find("\r\n");
    while (line != std::string::npos) {
      const std::size_t next = head.find("\r\n", line + 2);
      const std::string header = head.substr(line + 2, next - line - 2);
      const auto colon = header.find(':');
      if (colon != std::string::npos) {
        std::string name = header.substr(0, colon);
        for (auto& c : name) c = static_cast<char>(std::tolower(c));
        const std::string value = header.substr(colon + 1);
        if (name == "content-length") length = std::stoul(value);
        if (name == "connection" && value.find("close") != std::string::npos) {
          close_after = true;
        }
      }
      line = next;
    }
    if (length == std::string::npos) return -1;
    const std::size_t total = head_end + 4 + length;
    while (buffer_.size() < total) {
      if (!fill()) return -1;
    }
    body.assign(buffer_, head_end + 4, length);
    buffer_.erase(0, total);
    if (close_after) close();
    return status;
  }

  bool fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string buffer_;
};

/// The lcld child process: spawned with an ephemeral port, stopped with
/// SIGTERM (SIGKILL after 10 s) and always reaped.
class Daemon {
 public:
  Daemon(const Args& args, int index) {
    namespace fs = std::filesystem;
    const std::string port_file =
        (fs::path(args.workdir) / ("lcld-" + std::to_string(index) + ".port"))
            .string();
    const std::string log =
        (fs::path(args.workdir) / ("lcld-" + std::to_string(index) + ".log"))
            .string();
    fs::remove(port_file);
    std::vector<std::string> argv_strings = {
        args.lcld, "--port=0", "--port-file=" + port_file, "--jobs=1"};
    std::vector<char*> argv;
    for (auto& s : argv_strings) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, args.lcld.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + args.lcld);
    try {
      wait_for_port(port_file, log);
    } catch (...) {
      stop();
      throw;
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 10.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

  int pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  void wait_for_port(const std::string& port_file, const std::string& log) {
    const auto start = Clock::now();
    while (seconds_since(start) < 60.0) {
      std::ifstream in(port_file);
      std::string text;
      if (std::getline(in, text) && !text.empty() && in.good()) {
        port_ = static_cast<std::uint16_t>(std::stoul(text));
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("lcld exited during start-up; see " + log);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("lcld did not report its port");
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

using Connections = std::array<Connection, kConnections>;

void close_all(Connections& connections) {
  for (auto& c : connections) c.close();
}

struct Sample {
  Kind kind;
  double seconds;  // latency; +inf for a failed request
  double done_s;   // completion time since the phase started
};

/// One setup: start lcld, open the connections, classify the hot set.
/// Returns the number of failed setup requests.
std::uint64_t setup_service(const Args& args, int index, const Mix& mix,
                            const VerdictTable& table,
                            std::unique_ptr<Daemon>& daemon,
                            Connections& connections) {
  daemon = std::make_unique<Daemon>(args, index);
  std::uint64_t failed = 0;
  for (auto& c : connections) {
    if (!c.open(daemon->port())) throw std::runtime_error("cannot connect");
  }
  std::string body;
  if (connections[0].roundtrip(
          "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n", body) != 200) {
    ++failed;
  }
  for (const auto& r : mix.hot) {
    if (connections[0].roundtrip(r.bytes, body) != 200 ||
        !response_ok(r, body, table)) {
      ++failed;
    }
  }
  return failed;
}

/// The closed loop: connection c sends requests c, c+2, c+4, ... of the
/// cycled sequence, each only after the previous reply was read in full.
std::vector<Sample> closed_loop(Connections& connections,
                                const Mix& mix, std::size_t requests,
                                const VerdictTable& table, double& wall_s,
                                std::uint64_t& failed) {
  std::vector<Sample> samples(requests);
  std::array<std::uint64_t, kConnections> failures{};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      std::string body;
      for (std::size_t i = static_cast<std::size_t>(c); i < requests;
           i += kConnections) {
        const Request& r = mix.sequence[i % mix.sequence.size()];
        const auto sent = Clock::now();
        const int status = connections[c].roundtrip(r.bytes, body);
        const double latency = seconds_since(sent);
        const bool ok = status == 200 && response_ok(r, body, table);
        if (!ok) ++failures[c];
        samples[i] = {r.kind,
                      ok ? latency : std::numeric_limits<double>::infinity(),
                      seconds_since(start)};
      }
    });
  }
  for (auto& t : threads) t.join();
  wall_s = seconds_since(start);
  failed = 0;
  for (const std::uint64_t f : failures) failed += f;
  return samples;
}

/// Latency percentile in microseconds over the request sequence (see
/// blocked_quantile). A failed request misses any latency limit.
double latency_us(const std::vector<Sample>& samples, double q) {
  std::vector<double> seconds;
  seconds.reserve(samples.size());
  for (const auto& s : samples) seconds.push_back(s.seconds);
  const double value = blocked_quantile(seconds, q, kBlocks);
  return std::isfinite(value) ? value * 1e6 : kFailedLatencyUs;
}

/// Successful completions per second: the median over kBlocks equal time
/// windows of the measured phase, counting the successful samples `select`
/// accepts.
template <class Select>
double windowed_rate(const std::vector<Sample>& samples, double wall_s,
                     Select&& select) {
  std::vector<double> counts(kBlocks, 0.0);
  for (const auto& s : samples) {
    if (!std::isfinite(s.seconds) || !select(s)) continue;
    const auto window = static_cast<std::size_t>(
        s.done_s / wall_s * static_cast<double>(kBlocks));
    counts[std::min(window, kBlocks - 1)] += 1.0;
  }
  return median(std::move(counts)) * static_cast<double>(kBlocks) / wall_s;
}

std::vector<double> latencies_of(const std::vector<Sample>& samples,
                                 bool lint) {
  std::vector<double> out;
  for (const auto& s : samples) {
    if ((s.kind == Kind::kLint) == lint) out.push_back(s.seconds * 1e6);
  }
  return out;
}

std::size_t request_count(const Args& args) {
  return std::max<std::size_t>(
      args.smoke ? 200 : 2000,
      static_cast<std::size_t>(std::lround(args.seconds * kNominalRps)));
}

/// Reads a gauge from a Prometheus exposition (first series of that name).
double scrape_gauge(const std::string& exposition, const std::string& name) {
  std::size_t at = 0;
  while ((at = exposition.find(name, at)) != std::string::npos) {
    const bool line_start = at == 0 || exposition[at - 1] == '\n';
    const char next = exposition[at + name.size()];
    if (line_start && (next == ' ' || next == '{')) {
      const std::size_t eol = exposition.find('\n', at);
      const std::string line = exposition.substr(at, eol - at);
      return std::stod(line.substr(line.rfind(' ') + 1));
    }
    at += name.size();
  }
  return 0.0;
}

lcl::svc::HttpRequest to_http_request(const Request& r) {
  lcl::svc::HttpRequest request;
  request.method = "POST";
  request.target = r.path;
  request.path = r.path;
  request.version = "HTTP/1.1";
  request.headers.push_back({"Content-Type", "application/json"});
  request.body = r.body;
  return request;
}

}  // namespace

Result service_mix(const Args& args, const VerdictTable& table) {
  Result result;
  const Mix mix = make_mix(args, table);
  std::unique_ptr<Daemon> daemon;
  Connections connections;
  // Set-up time is CPU seconds, this process's plus the daemon's (all of a
  // fresh daemon's CPU time is set-up); the median of kSetups.
  std::vector<double> setup_s;
  std::uint64_t setup_failed = 0;
  for (int i = 0; i < kSetups; ++i) {
    close_all(connections);
    daemon.reset();
    const double cpu_start = process_cpu_seconds();
    setup_failed += setup_service(args, i, mix, table, daemon, connections);
    setup_s.push_back(process_cpu_seconds() - cpu_start +
                      proc_cpu_seconds(daemon->pid()));
  }
  result.phase("setup", kSetups * (mix.hot.size() + 1), setup_failed);

  const std::size_t requests = request_count(args);
  const std::string pid = std::to_string(daemon->pid());
  reset_peak_rss(pid);
  const double cpu_start = proc_cpu_seconds(daemon->pid());
  double wall_s = 0.0;
  std::uint64_t failed = 0;
  const auto samples =
      closed_loop(connections, mix, requests, table, wall_s, failed);
  const double cpu_s = proc_cpu_seconds(daemon->pid()) - cpu_start;
  const double rss_mb = peak_rss_mb(pid);
  result.phase("measured", requests, failed);
  close_all(connections);
  daemon->stop();

  const double completed =
      static_cast<double>(std::max<std::uint64_t>(requests - failed, 1));
  result.metric("setup_s", median(setup_s), "s");
  result.metric("rows_per_s",
                windowed_rate(samples, wall_s,
                              [](const Sample& s) {
                                return s.kind != Kind::kLint;
                              }),
                "rows/s");
  result.metric("cpu_s", cpu_s, "s");
  result.metric("peak_rss_mb", rss_mb, "MiB");
  result.metric("throughput_rps",
                windowed_rate(samples, wall_s,
                              [](const Sample&) { return true; }),
                "1/s");
  result.metric("latency_p50_us", latency_us(samples, 0.5), "us");
  result.metric("latency_p90_us", latency_us(samples, 0.9), "us");
  result.metric("server_cpu_us_per_req", cpu_s / completed * 1e6, "us");
  return result;
}

Result service_mix_traced(const Args& args, const VerdictTable& table) {
  Result result;
  const Mix mix = make_mix(args, table);
  std::unique_ptr<Daemon> daemon;
  Connections connections;
  result.phase("setup", mix.hot.size() + 1,
               setup_service(args, 0, mix, table, daemon, connections));

  // The traced pass: the measured closed loop between two /metrics scrapes.
  // It adds no spans to the loop, so it has no tracing overhead to report
  // (trace.overhead_s and trace.untraced_wall_s read 0).
  const std::size_t requests = request_count(args);
  std::uint64_t failed = 0;
  const std::string scrape = "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::string before;
  std::string after;
  const bool scraped_before = connections[0].roundtrip(scrape, before) == 200;
  double wall_s = 0.0;
  const auto samples =
      closed_loop(connections, mix, requests, table, wall_s, failed);
  const bool scraped_after = connections[0].roundtrip(scrape, after) == 200;
  result.phase("traced", requests + 2,
               failed + (scraped_before ? 0 : 1) + (scraped_after ? 0 : 1));
  close_all(connections);
  daemon->stop();

  // The handler alone: an in-process Service configured like the daemon,
  // the same hot set, the same request sequence.
  lcl::svc::Service::Options options;
  options.jobs = 1;
  options.engine.max_steps = 4;
  options.const_labels = {{"service", "lcld"}};
  lcl::svc::Service service(options);
  std::uint64_t handle_failed = 0;
  for (const auto& r : mix.hot) {
    const auto response = service.handle(to_http_request(r));
    if (response.status != 200 || !response_ok(r, response.body, table)) {
      ++handle_failed;
    }
  }
  std::vector<double> handle_classify_us;
  std::vector<double> handle_lint_us;
  for (std::size_t i = 0; i < requests; ++i) {
    const Request& r = mix.sequence[i % mix.sequence.size()];
    const auto http_request = to_http_request(r);
    const auto start = Clock::now();
    const auto response = service.handle(http_request);
    const double us = seconds_since(start) * 1e6;
    if (response.status != 200 || !response_ok(r, response.body, table)) {
      ++handle_failed;
    }
    (r.kind == Kind::kLint ? handle_lint_us : handle_classify_us).push_back(us);
  }
  result.phase("handle", mix.hot.size() + requests, handle_failed);

  const double handle_classify_p50 = quantile(handle_classify_us, 0.5);
  const double handle_lint_p50 = quantile(handle_lint_us, 0.5);
  result.metric("svc.handle.classify_p50_us", handle_classify_p50, "us");
  result.metric("svc.handle.classify_p99_us",
                quantile(handle_classify_us, 0.99), "us");
  result.metric("svc.handle.lint_p50_us", handle_lint_p50, "us");
  result.metric("svc.handle.lint_p99_us", quantile(handle_lint_us, 0.99),
                "us");
  result.metric("svc.http.latency_p99_us", latency_us(samples, 0.99), "us");
  result.metric("svc.http.classify.overhead_p50_us",
                quantile(latencies_of(samples, false), 0.5) -
                    handle_classify_p50,
                "us");
  result.metric("svc.http.lint.overhead_p50_us",
                quantile(latencies_of(samples, true), 0.5) - handle_lint_p50,
                "us");
  // Gauge deltas across the traced pass; the closing scrape counts itself.
  const auto delta = [&](const std::string& name) {
    return scrape_gauge(after, name) - scrape_gauge(before, name);
  };
  const double served = delta("lclscape_svc_requests") - 1.0;
  if (served != static_cast<double>(requests)) result.checks_ok = false;
  result.metric("svc.requests", served, "count");
  result.metric("svc.rejected", delta("lclscape_svc_rejected"), "count");
  result.metric("svc.cache.canonical_hits",
                delta("lclscape_svc_cache_canonical_hits"), "count");
  result.metric("trace.wall_s", wall_s, "s");
  result.metric("trace.verdict_mismatches",
                static_cast<double>(handle_failed), "count");
  return result;
}

}  // namespace perfbench
