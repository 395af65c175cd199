#pragma once
// Outside-in readings for the e2e benchmark: the bsk::obs counters of this
// process and of a bskd (both parsed from the same Prometheus exposition
// text), thread counts and CPU time read from /proc, and the CPU split
// between the load generator and the system under test.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "net/worker_pool.hpp"
#include "obs/metrics.hpp"

namespace e2e {

/// One series → value map of a Prometheus text exposition. Keys are the
/// series text before the value, labels included, e.g.
/// `bsk_mape_cycle_seconds_bucket{le="0.001"}`.
class Counters {
 public:
  static Counters parse(const std::string& text) {
    Counters c;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const auto sp = line.rfind(' ');
      if (sp == std::string::npos) continue;
      c.v_[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
    }
    return c;
  }

  /// This process's registry.
  static Counters local() {
    std::ostringstream os;
    bsk::obs::MetricsRegistry::global().write_prometheus(os);
    return parse(os.str());
  }

  /// A bskd's registry over the role-2 stats channel (empty when the pull
  /// fails, which the report records as zero counters).
  static Counters bskd(std::uint16_t port) {
    if (port == 0) return {};
    auto text = bsk::net::pull_bskd_stats(
        {"127.0.0.1", port}, bsk::net::StatsRequest::What::Prometheus);
    return text ? parse(*text) : Counters{};
  }

  const std::map<std::string, double>& all() const { return v_; }

  double get(const std::string& key) const {
    auto it = v_.find(key);
    return it == v_.end() ? 0.0 : it->second;
  }

  /// Add `d` series by series.
  void add(const Counters& d) {
    for (const auto& [k, x] : d.v_) v_[k] += x;
  }

  /// Per-series difference `*this - before`.
  Counters minus(const Counters& before) const {
    Counters d;
    for (const auto& [k, x] : v_) d.v_[k] = x - before.get(k);
    return d;
  }

  /// Median of a histogram from its cumulative buckets, interpolated
  /// linearly inside the bucket that holds it (0 when empty).
  double histogram_p50(const std::string& name) const {
    const double n = get(name + "_count");
    if (n <= 0) return 0.0;
    const std::string pre = name + "_bucket{le=\"";
    // The map orders keys as text, not by bound: collect numerically.
    std::map<double, double> buckets;  // upper bound → cumulative count
    for (const auto& [k, cum] : v_) {
      if (k.rfind(pre, 0) != 0 || k.find("+Inf") != std::string::npos)
        continue;
      buckets[std::strtod(k.c_str() + pre.size(), nullptr)] = cum;
    }
    double lo = 0.0, below = 0.0;
    for (const auto& [ub, cum] : buckets) {
      if (cum >= n / 2) {
        const double in = cum - below;
        return in > 0 ? lo + (ub - lo) * (n / 2 - below) / in : ub;
      }
      lo = ub;
      below = cum;
    }
    return lo;  // the median sits in the +Inf bucket
  }

 private:
  std::map<std::string, double> v_;
};

/// Threads of a process (`Threads:` in /proc/<pid>/status); 0 when there
/// is no such process.
inline int proc_threads(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  return 0;
}

/// CPU seconds of one thread of this process.
inline double thread_cpu_s(pthread_t t) {
  clockid_t id;
  timespec ts{};
  if (::pthread_getcpuclockid(t, &id) != 0 || ::clock_gettime(id, &ts) != 0)
    return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// User+system CPU seconds of this process (microsecond resolution).
inline double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// User+system CPU seconds of another process (clock-tick resolution), 0 if
/// it is gone.
inline double proc_cpu_s(int pid) {
  if (pid <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the line, i.e. the 12th and 13th after it.
  const auto close = all.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(all.substr(close + 2));
  std::string f;
  double ut = 0, st = 0;
  for (int i = 1; i <= 13 && rest >> f; ++i) {
    if (i == 12) ut = std::strtod(f.c_str(), nullptr);
    if (i == 13) st = std::strtod(f.c_str(), nullptr);
  }
  return (ut + st) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// The benchmark's CPU split: the load generator and the drain thread share
/// the first allowed CPU; the system under test (farm threads, which inherit
/// the creating thread's mask, and the bskd children) gets the rest. Each
/// side then neither starves nor is starved by the other. With one CPU
/// there is nothing to split and every call is a no-op.
class CpuSplit {
 public:
  CpuSplit() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (::sched_getaffinity(0, sizeof all, &all) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all)) cpus_.push_back(c);
  }
  bool active() const { return cpus_.size() >= 2; }
  /// Pin the calling thread (and the threads it creates) to the client CPU.
  void client() const {
    if (active()) pin(cpus_.begin(), cpus_.begin() + 1);
  }
  /// Pin the calling thread (and what it creates) to the other CPUs.
  void system() const {
    if (active()) pin(cpus_.begin() + 1, cpus_.end());
  }

 private:
  static void pin(std::vector<int>::const_iterator b,
                  std::vector<int>::const_iterator e) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (; b != e; ++b) CPU_SET(*b, &set);
    ::sched_setaffinity(0, sizeof set, &set);
  }
  std::vector<int> cpus_;
};

}  // namespace e2e
