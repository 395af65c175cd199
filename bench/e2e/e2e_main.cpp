// bsk_e2e — the end-to-end farm benchmark driver (see README.md here).
//
//   bsk_e2e --workload farm_shm --seed 7 --seconds 12 --trace 0
//           --bskd .bench_build/bskd --out .bench_build/e2e-out
//
// Times set-up, runs the paper's Fig. 3 farm under its autonomic manager,
// then drives rt::Farm through input()/output() and its NodeFactory with one
// submit thread and one drain thread in three phases (light and heavy open
// loop at fixed rates, peak closed loop). With --trace 1 the workers and the
// factory are wrapped in span-recording decorators and the per-layer
// metrics are printed instead of the end-to-end ones. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bs/apps.hpp"
#include "load.hpp"
#include "net/worker_pool.hpp"
#include "probes.hpp"
#include "support/clock.hpp"
#include "support/event_log.hpp"
#include "support/json.hpp"
#include "sysstat.hpp"

#ifndef BSK_E2E_BUILD_TYPE
#define BSK_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2e;
namespace rt = bsk::rt;
namespace net = bsk::net;

// ------------------------------------------------------------- constants

enum class Transport { Local, Shm, Tcp };

struct Workload {
  const char* name;
  Transport tp;
  /// Open-loop rate of the heavy phase, tasks/s, frozen so later changes
  /// are measured at the same offered load. Chosen on a 4-core Xeon VM as
  /// the highest rate whose latency stayed steady over repeated runs; on
  /// the remote paths that is well under half of peak_tps (README.md).
  double heavy_rate;
  /// Fig. 3 repetitions, kFig3Parallel at a time.
  int fig3_reps;
};

constexpr Workload kWorkloads[] = {
    {"farm_local", Transport::Local, 150000, 9},
    {"farm_shm", Transport::Shm, 40000, 9},
    {"farm_tcp", Transport::Tcp, 15000, 9},
    {"am_fig3", Transport::Shm, 40000, 12},
};

constexpr std::size_t kWorkers = 2;
constexpr double kLightRate = 2000;      // tasks/s, workers mostly idle
constexpr std::size_t kPeakWindow = 1024;  // tasks outstanding, closed loop
// Set-ups timed per run: at least this many, and until they took this long
// (cheap local set-ups repeat more), at most kMaxSetupReps.
constexpr int kSetupReps = 9;
constexpr double kSetupBudgetS = 0.5;
constexpr int kMaxSetupReps = 200;
// Share of --seconds given to each dataplane phase. The light → heavy → peak
// cycle runs kCycles times and every metric pools its phase's segments, so
// each phase samples the host at several points of the run.
constexpr double kLightShare = 0.3, kHeavyShare = 0.4, kPeakShare = 0.3;
constexpr int kCycles = 3;
// A closed-loop phase may not submit more than this many tasks per second.
constexpr double kPeakCap = 2.5e6;
// Fig. 3: a longer stream than the paper's plot, at a fixed clock scale and
// with a fixed service-time seed, so what varies between runs is only how
// the manager's decisions fall in time. makespan_s is the mean over the
// repetitions: one run ends on one of a few worker counts, so a median jumps
// between them where a mean does not. contract_s is their median. They run kFig3Parallel at a time (the simulated
// work is sleep, but every waiting worker spins and yields before it
// sleeps, so more at once than the host has cores measures the scheduler).
constexpr std::size_t kFig3Tasks = 300;
constexpr double kFig3Scale = 50.0;
constexpr std::uint64_t kFig3Seed = 42;
constexpr int kFig3Parallel = 3;
// A run drains in about 5 s of wall time; one that has not after this long
// has hung (README.md, "Known defect").
constexpr double kFig3WaveS = 30;
// Open-loop p99s are the median of the p99s of this many equal slices of
// the measured tasks, so one scheduler stall moves one slice, not the run.
constexpr std::size_t kWindows = 5;
// The traced run's hop medians must sum to within this share of its
// end-to-end median.
constexpr double kHopTolerance = 0.15;
// A generator later than this at its p99 could not keep its schedule.
constexpr double kMaxLagP99Us = 1000.0;
constexpr std::size_t kSpanDumpPerPhase = 20000;
// A run takes about 30-40 s (four hung Fig. 3 waves add 120 s at most); one
// still going after this long has hung.
constexpr double kDeadlineS = 150;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bskd;
  std::string out;
  std::string commit = "unknown";
  Defect defect = Defect::None;
};

// -------------------------------------------------------------- reporting

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t n = 0;  // samples behind a percentile (0: not a percentile)
};

using Metrics = std::map<std::string, Metric>;

std::string num(double x) { return bsk::support::json::number_token(x); }
std::string quote(const std::string& x) {
  return "\"" + bsk::support::json::escape(x) + "\"";
}

// ------------------------------------------------------------ the stack

/// One dataplane deployment: an optional bskd, the pool that connects to
/// it, and a started two-worker echo farm.
// Every bskd this process spawned and has not reaped, so the deadline
// guard can take them down.
std::mutex g_pids_mu;
std::vector<int> g_pids;

void untrack(int pid) {
  std::lock_guard lk(g_pids_mu);
  std::erase(g_pids, pid);
}

/// SIGTERM a bskd and reap it; SIGKILL it if it has not exited after 5 s,
/// so a daemon that hangs in shutdown cannot hang the benchmark. Counts the
/// kills, which the report lists.
std::atomic<int> g_bskd_kills{0};

void stop_daemon(net::BskdProcess& p) {
  if (p.pid <= 0) return;
  untrack(p.pid);
  ::kill(p.pid, SIGTERM);
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(p.pid, nullptr, WNOHANG) == p.pid) {
      p.pid = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  g_bskd_kills.fetch_add(1);
  net::stop_bskd(p, SIGKILL);
}

std::atomic<const char*> g_step{"start"};

/// Progress on stderr, so a stuck run shows where it stopped.
void progress(const char* step) {
  static const std::int64_t t0 = now_ns();
  g_step.store(step);
  std::fprintf(stderr, "bsk_e2e: %s (%.1f s)\n", step,
               static_cast<double>(now_ns() - t0) * 1e-9);
}

/// One Fig. 3 run's outcome. Filled and marked done under g_apps_mu, so a
/// wave that gives up on the run can tell a finished run from a hung one.
struct Fig3Out {
  double contract_s = -1;  // never met: reported as the makespan
  double makespan_s = 0;
  bool ok = false;
  std::size_t received = 0;
  double adds = 0, removes = 0, raises = 0, first_add_s = -1;
};

struct Fig3Slot {
  Fig3Out out;
  bool done = false;  // guarded by g_apps_mu
};

// Fig. 3 apps between start() and the return of wait(), so a hung run can
// say what each one was doing.
struct LiveFig3 {
  bsk::bs::Fig3App* app;
  const net::WorkerPool* pool;  // null for local workers
  const Fig3Slot* slot;
};
std::mutex g_apps_mu;
std::vector<LiveFig3> g_apps;

/// What a running Fig. 3 app is doing: its farm and its pool.
std::string describe(const LiveFig3& live) {
  rt::Farm& f = live.app->farm();
  std::string d = "sink " + std::to_string(live.app->sink().received()) +
                  ", workers " + std::to_string(f.worker_count()) +
                  ", running " + std::to_string(f.running_workers()) +
                  ", spawned " + std::to_string(f.workers_spawned()) +
                  ", failures " + std::to_string(f.failures()) +
                  ", reconfiguring " + (f.reconfiguring() ? "1" : "0") +
                  ", queues";
  for (std::size_t q : f.queue_lengths()) d += " " + std::to_string(q);
  if (live.pool != nullptr)
    d += "; pool remote " + std::to_string(live.pool->remote_nodes_created()) +
         ", fallback " + std::to_string(live.pool->fallback_nodes_created()) +
         ", endpoint failures " +
         std::to_string(live.pool->endpoint_failures());
  return d;
}

/// A run that has not finished after `seconds` is a run whose program hung:
/// report it as incorrect, with the state of any Fig. 3 app still running,
/// kill the daemons, and leave without unwinding the threads that are stuck.
void deadline_guard(double seconds) {
  std::thread([seconds] {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    std::printf("# problem: no result after %g s; last step: %s\n", seconds,
                g_step.load());
    {
      std::lock_guard lk(g_apps_mu);
      for (const LiveFig3& live : g_apps)
        std::printf("# fig3 app still running: %s\n", describe(live).c_str());
    }
    // Non-zero counters of this process, to tell a hard-failed or stalled
    // connection from a stuck farm.
    const Counters now = Counters::local();
    for (const auto& [k, v] : now.all())
      if (v != 0 && k.find("_bucket") == std::string::npos)
        std::printf("# counter %s %g\n", k.c_str(), v);
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                "\"metrics\": {}}\n");
    std::fflush(stdout);
    {
      std::lock_guard lk(g_pids_mu);
      for (int pid : g_pids) ::kill(pid, SIGKILL);
    }
    std::_Exit(0);
  }).detach();
}

struct Stack {
  net::BskdProcess bskd;
  std::unique_ptr<net::WorkerPool> pool;
  std::unique_ptr<rt::Farm> farm;
  double setup_s = 0;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (farm) {
      farm->input()->close();
      farm->wait();
      farm.reset();
    }
    pool.reset();
    stop_daemon(bskd);
  }
};

rt::NodeFactory with_defect(rt::NodeFactory f, Defect d, std::uint64_t victim) {
  if (d != Defect::Drop && d != Defect::Delay) return f;
  return [f = std::move(f), d, victim] {
    return std::make_unique<DefectNode>(f(), d, victim,
                                        std::chrono::microseconds(200));
  };
}

/// Spawn a bskd (remote transports), connect, start. Returns null when the
/// daemon cannot be spawned.
std::unique_ptr<Stack> make_stack(Transport tp, const Args& a, Spans* spans,
                                  Defect defect, std::uint64_t victim) {
  auto s = std::make_unique<Stack>();
  const std::int64_t t0 = now_ns();
  rt::NodeFactory f;
  if (tp == Transport::Local) {
    f = [] {
      return std::make_unique<rt::LambdaNode>(
          [](rt::Task t) -> std::optional<rt::Task> { return t; });
    };
  } else {
    s->bskd = net::spawn_bskd(a.bskd);
    if (!s->bskd.valid()) return nullptr;
    std::lock_guard lk(g_pids_mu);
    g_pids.push_back(s->bskd.pid);
    net::WorkerPoolOptions o;
    o.node_kind = "echo";
    o.allow_shm = tp == Transport::Shm;
    s->pool = std::make_unique<net::WorkerPool>(
        std::vector<net::Endpoint>{{"127.0.0.1", s->bskd.port}}, o);
    f = s->pool->factory();
  }
  rt::FarmConfig fc;
  fc.initial_workers = kWorkers;
  s->farm = std::make_unique<rt::Farm>(
      "e2e", fc, traced(with_defect(std::move(f), defect, victim), spans));
  if (defect == Defect::Dup)
    s->farm->set_output(std::make_shared<DupConduit>(4096, victim));
  s->farm->start();
  s->setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return s;
}

/// The transport the workload asked for is the one in use.
bool transport_ok(const Stack& s, Transport tp) {
  if (tp == Transport::Local) return true;
  if (s.pool->fallback_nodes_created() != 0) return false;
  const std::size_t want = tp == Transport::Shm ? kWorkers : 0;
  return s.pool->shm_attached() == want;
}

// ------------------------------------------------------ per-phase probes

/// Everything read at a segment edge: counters of both processes, CPU (the
/// client's without the benchmark's own threads), and the farm's busy-time
/// sensor.
struct Edge {
  Counters local, bskd;
  double client_cpu = 0, bskd_cpu = 0, busy = 0;
  std::int64_t t = 0;
  std::uint64_t calls = 0, primed = 0;
};

Edge read_edge(const Stack& s, Harness& h, const Spans* spans) {
  Edge e;
  e.local = Counters::local();
  e.bskd = Counters::bskd(s.bskd.port);
  e.client_cpu = self_cpu_s() - h.own_cpu_s();
  e.bskd_cpu = proc_cpu_s(s.bskd.pid);
  for (double b : s.farm->worker_busy_seconds()) e.busy += b;
  e.t = now_ns();
  if (spans != nullptr) {
    e.calls = spans->calls.load();
    e.primed = spans->primed.load();
  }
  return e;
}

/// What one phase used, summed over its segments.
struct Usage {
  Counters local, bskd;  // deltas
  double client_cpu = 0, bskd_cpu = 0, busy = 0, wall = 0, tasks = 0;
  double calls = 0, primed = 0;

  void add(const Edge& b, const Edge& e, const PhaseResult& r) {
    local.add(e.local.minus(b.local));
    bskd.add(e.bskd.minus(b.bskd));
    client_cpu += e.client_cpu - b.client_cpu;
    bskd_cpu += e.bskd_cpu - b.bskd_cpu;
    busy += e.busy - b.busy;
    wall += static_cast<double>(e.t - b.t) * 1e-9;
    tasks += static_cast<double>(r.submitted);
    calls += static_cast<double>(e.calls - b.calls);
    primed += static_cast<double>(e.primed - b.primed);
  }
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double hist_mean(const Counters& d, const std::string& h) {
  return ratio(d.get(h + "_sum"), d.get(h + "_count"));
}

/// Counter metrics of one phase, each normalised by the tasks it completed.
void phase_counters(const std::string& p, const Usage& u, Metrics& m) {
  const Counters& dl = u.local;
  const Counters& db = u.bskd;
  const double tasks = u.tasks;
  m[p + ".rt.emitter_batch_mean"] = {
      hist_mean(dl, "bsk_farm_emitter_batch_size"), "tasks"};
  m[p + ".rt.worker_batch_mean"] = {
      hist_mean(dl, "bsk_farm_worker_batch_size"), "tasks"};
  m[p + ".rt.collector_batch_mean"] = {
      hist_mean(dl, "bsk_farm_collector_batch_size"), "tasks"};
  m[p + ".rt.node_busy_frac"] = {
      ratio(u.busy, u.wall * static_cast<double>(kWorkers)), "frac"};
  m[p + ".net.primed_frac"] = {ratio(u.primed, u.calls), "frac"};
  const double frames =
      dl.get("bsk_net_frames_sent_total") +
      dl.get("bsk_net_frames_received_total") +
      dl.get("bsk_net_shm_frames_sent_total") +
      dl.get("bsk_net_shm_frames_received_total");
  const double bytes = dl.get("bsk_net_bytes_sent_total") +
                       dl.get("bsk_net_bytes_received_total") +
                       dl.get("bsk_net_shm_bytes_sent_total") +
                       dl.get("bsk_net_shm_bytes_received_total");
  m[p + ".net.frames_per_task"] = {ratio(frames, tasks), "frames"};
  m[p + ".net.bytes_per_task"] = {ratio(bytes, tasks), "B"};
  m[p + ".net.credit_stalls_per_task"] = {
      ratio(dl.get("bsk_net_credit_stalls_total"), tasks), "count"};
  m[p + ".net.shm_futex_waits_per_task"] = {
      ratio(dl.get("bsk_net_shm_futex_waits_total") +
                db.get("bsk_net_shm_futex_waits_total"),
            tasks),
      "count"};
  m[p + ".net.shm_ring_full_stalls"] = {
      dl.get("bsk_net_shm_ring_full_stalls_total") +
          db.get("bsk_net_shm_ring_full_stalls_total"),
      "count"};
  const double bskd_frames =
      db.get("bsk_net_epoll_frames_received_total") +
      db.get("bsk_net_epoll_frames_sent_total") +
      db.get("bsk_net_shm_frames_received_total") +
      db.get("bsk_net_shm_frames_sent_total");
  m[p + ".net.bskd_epoll_wakeups_per_frame"] = {
      ratio(db.get("bsk_net_epoll_wakeups_total"),
            db.get("bsk_net_epoll_frames_received_total")),
      "count"};
  m[p + ".net.bskd_frames_per_task"] = {ratio(bskd_frames, tasks), "frames"};
  m[p + ".proc.client_cpu_ms_per_ktask"] = {
      ratio(u.client_cpu * 1e3, tasks / 1e3), "ms"};
  m[p + ".proc.bskd_cpu_ms_per_ktask"] = {
      ratio(u.bskd_cpu * 1e3, tasks / 1e3), "ms"};
}

// ------------------------------------------------------- latency and hops

/// Calls `f(segment, id)` for every timed task of an open-loop phase's
/// segments, in due order, skipping each segment's warm-up.
template <typename F>
void for_timed(const std::vector<PhaseResult>& segs, F f) {
  for (const PhaseResult& r : segs)
    for (std::uint64_t id = r.base + r.warm; id < r.base + r.submitted; ++id)
      f(r, id);
}

/// Task latencies of an open-loop phase, due → drained, in µs. Tasks that
/// never came back count as +inf, i.e. as missing every latency limit.
std::vector<double> latencies(const std::vector<PhaseResult>& segs,
                              const Harness& h) {
  std::vector<double> v;
  for_timed(segs, [&](const PhaseResult& r, std::uint64_t id) {
    const std::int64_t d = h.done().get(id);
    v.push_back(d == 0 ? std::numeric_limits<double>::infinity()
                       : static_cast<double>(d - r.due(id)) * 1e-3);
  });
  return v;
}

void latency_metrics(const std::string& p, const std::vector<PhaseResult>& segs,
                     const Harness& h, Metrics& m) {
  std::vector<double> p99s;
  std::size_t n = 0;
  for (const PhaseResult& r : segs) {
    const std::vector<double> v = latencies({r}, h);  // in due order
    n += v.size();
    const std::size_t per = v.size() / kWindows;
    for (std::size_t i = 0; per != 0 && i < kWindows; ++i) {
      std::vector<double> w(v.begin() + i * per, v.begin() + (i + 1) * per);
      p99s.push_back(percentile(w, 0.99));
    }
  }
  std::vector<double> all = latencies(segs, h);
  m[p + ".lat_p99_us"] = {median(p99s), "us", n};
  m[p + ".lat_p50_us"] = {percentile(all, 0.50), "us", n};
}

/// Hop medians of a traced open-loop phase; returns the sum of the hop
/// medians over the end-to-end median (the accounting check's ratio).
double hop_metrics(const std::string& p, const std::vector<PhaseResult>& segs,
                   const Harness& h, const Spans& s, Metrics& m) {
  std::vector<double> lag, submit, dispatch, hold, proc, collect, e2e;
  for_timed(segs, [&](const PhaseResult& r, std::uint64_t id) {
    const std::int64_t due = r.due(id), s0 = h.sub0().get(id),
                       s1 = h.sub1().get(id), in = s.enter.get(id),
                       out = s.exit.get(id), ret = s.ret.get(id),
                       done = h.done().get(id);
    if (s0 == 0 || s1 == 0 || in == 0 || out == 0 || ret == 0 || done == 0)
      return;
    lag.push_back(static_cast<double>(s0 - due) * 1e-3);
    submit.push_back(static_cast<double>(s1 - s0));  // ns
    dispatch.push_back(static_cast<double>(in - s1) * 1e-3);
    proc.push_back(static_cast<double>(out - in) * 1e-3);
    hold.push_back(static_cast<double>(ret - in) * 1e-3);
    collect.push_back(static_cast<double>(done - ret) * 1e-3);
    e2e.push_back(static_cast<double>(done - due) * 1e-3);
  });
  const std::size_t n = e2e.size();
  m[p + ".gen.submit_ns_p50"] = {percentile(submit, 0.50), "ns", n};
  m[p + ".rt.dispatch_wait_us_p50"] = {percentile(dispatch, 0.50), "us", n};
  m[p + ".rt.dispatch_wait_us_p99"] = {percentile(dispatch, 0.99), "us", n};
  m[p + ".net.process_us_p50"] = {percentile(proc, 0.50), "us", n};
  m[p + ".net.process_us_p99"] = {percentile(proc, 0.99), "us", n};
  m[p + ".net.result_hold_us_p50"] = {percentile(hold, 0.50), "us", n};
  m[p + ".net.result_hold_us_p99"] = {percentile(hold, 0.99), "us", n};
  m[p + ".rt.collect_wait_us_p50"] = {percentile(collect, 0.50), "us", n};
  m[p + ".rt.collect_wait_us_p99"] = {percentile(collect, 0.99), "us", n};
  const double sum = median(lag) + median(submit) * 1e-3 + median(dispatch) +
                     median(hold) + median(collect);
  const double frac = ratio(sum, median(e2e));
  m[p + ".trace.hop_sum_frac"] = {frac, "frac", n};
  return frac;
}

/// Generator lateness p99 of an open-loop phase (all tasks, traced or not).
double lag_p99(const std::vector<PhaseResult>& segs, const Harness& h) {
  std::vector<double> v;
  for_timed(segs, [&](const PhaseResult& r, std::uint64_t id) {
    v.push_back(static_cast<double>(h.sub0().get(id) - r.due(id)) * 1e-3);
  });
  return percentile(v, 0.99);
}

void dump_spans(const std::string& path, const std::vector<PhaseResult>& segs,
                const Harness& h, const Spans& s) {
  std::ofstream out(path, std::ios::trunc);
  for (const PhaseResult& r : segs) {
    if (!r.open) continue;
    const std::uint64_t stride = std::max<std::uint64_t>(
        1, r.submitted * kCycles / kSpanDumpPerPhase);
    for (std::uint64_t id = r.base; id < r.base + r.submitted; id += stride)
      out << "{\"phase\":\"" << r.name << "\",\"id\":" << id
          << ",\"due_ns\":" << r.due(id) << ",\"submit_ns\":" << h.sub0().get(id)
          << ",\"submitted_ns\":" << h.sub1().get(id)
          << ",\"enter_ns\":" << s.enter.get(id)
          << ",\"exit_ns\":" << s.exit.get(id)
          << ",\"result_ns\":" << s.ret.get(id)
          << ",\"done_ns\":" << h.done().get(id) << "}\n";
  }
}

// -------------------------------------------------------------- Fig. 3

/// One Fig. 3 run: a fresh ResourceManager, manager and farm; bskd-hosted
/// workers unless `tp` is Local. Runs at the clock scale the caller set and
/// leaves its outcome in `slot`.
void run_fig3(Transport tp, std::uint16_t port, Spans* spans, Fig3Slot& slot) {
  using bsk::support::Clock;
  Fig3Out out;
  bsk::sim::Platform platform = bsk::sim::Platform::testbed_smp8();
  bsk::sim::ResourceManager rm(platform);
  bsk::support::EventLog log;
  std::unique_ptr<net::WorkerPool> pool;
  bsk::bs::Fig3Params p;
  p.tasks = kFig3Tasks;
  p.seed = kFig3Seed;
  rt::NodeFactory f = [] { return std::make_unique<rt::SimComputeNode>(); };
  if (tp != Transport::Local) {
    net::WorkerPoolOptions o;
    o.allow_shm = tp == Transport::Shm;
    pool = std::make_unique<net::WorkerPool>(
        std::vector<net::Endpoint>{{"127.0.0.1", port}}, o);
    f = pool->factory();
  }
  p.worker_factory = traced(std::move(f), spans);
  bsk::bs::Fig3App app(p, rm, log);
  const double start = Clock::now();
  app.start();
  {
    std::lock_guard lk(g_apps_mu);
    g_apps.push_back({&app, pool.get(), &slot});
  }

  // The contract sensor: the farm's departure rate, as the manager sees it.
  std::jthread probe([&](std::stop_token st) {
    while (!st.stop_requested()) {
      Clock::sleep_for(bsk::support::SimDuration(0.25));
      if (app.farm().metrics().departure_rate() >= p.contract_min_rate) {
        out.contract_s = Clock::now() - start;
        return;
      }
    }
  });
  app.wait();
  out.makespan_s = Clock::now() - start;
  probe.request_stop();
  probe.join();
  if (out.contract_s < 0) out.contract_s = out.makespan_s;

  auto ids = app.sink().received_ids();
  std::sort(ids.begin(), ids.end());
  out.received = ids.size();
  out.ok = ids.size() == p.tasks;
  for (std::size_t i = 0; out.ok && i < ids.size(); ++i) out.ok = ids[i] == i;

  const auto added = log.by_name("addWorker");
  out.adds = static_cast<double>(added.size());
  out.removes = static_cast<double>(log.by_name("removeWorker").size());
  out.raises = static_cast<double>(log.by_name("raiseViol").size());
  if (!added.empty()) out.first_add_s = added.front().time - start;

  std::lock_guard lk(g_apps_mu);
  std::erase_if(g_apps, [&](const LiveFig3& l) { return l.app == &app; });
  slot.out = out;
  slot.done = true;
}

/// `reps` Fig. 3 runs, kFig3Parallel at a time, plus the manager counters
/// they moved (process-wide, so summed over the runs). A run that has not
/// drained kFig3WaveS after its wave started is reported as hung and left
/// behind: its thread is detached and its state is never freed.
struct Fig3Reps {
  std::vector<Fig3Out> runs;  // the runs that drained
  std::vector<std::string> hung;  // one description per hung run
  std::size_t undelivered = 0;  // tasks the hung runs never delivered
  double cycles = 0, fired = 0, cycle_us_p50 = 0;
};

Fig3Reps run_fig3_reps(Transport tp, std::uint16_t port, int reps,
                       Spans* spans) {
  using bsk::support::Clock;
  // One scale for all runs; a per-run scoped scale would be restored under
  // the feet of the runs still going.
  const double prev = Clock::scale();
  Clock::set_scale(kFig3Scale);
  const Counters before = Counters::local();
  Fig3Reps out;
  for (int first = 0; first < reps; first += kFig3Parallel) {
    const int n = std::min(kFig3Parallel, reps - first);
    std::vector<std::shared_ptr<Fig3Slot>> slots;
    std::vector<std::thread> ts;
    for (int i = 0; i < n; ++i) {
      auto slot = std::make_shared<Fig3Slot>();
      slots.push_back(slot);
      ts.emplace_back([slot, tp, port, spans] {
        run_fig3(tp, port, spans, *slot);
      });
    }
    const std::int64_t deadline = now_ns() +
                                  static_cast<std::int64_t>(kFig3WaveS * 1e9);
    for (;;) {
      bool all = true;
      {
        std::lock_guard lk(g_apps_mu);
        for (const auto& sl : slots) all = all && sl->done;
      }
      if (all || now_ns() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::vector<bool> done(static_cast<std::size_t>(n));
    {
      std::lock_guard lk(g_apps_mu);
      for (int i = 0; i < n; ++i) {
        done[i] = slots[i]->done;
        if (done[i]) continue;
        std::string d = "not started";
        std::size_t received = 0;
        for (const LiveFig3& l : g_apps)
          if (l.slot == slots[i].get()) {
            d = describe(l);
            received = l.app->sink().received();
          }
        out.hung.push_back(d);
        out.undelivered += kFig3Tasks - std::min(kFig3Tasks, received);
      }
    }
    for (int i = 0; i < n; ++i) {
      if (!done[i]) {
        ts[i].detach();
        continue;
      }
      ts[i].join();
      out.runs.push_back(slots[i]->out);
    }
  }
  const Counters d = Counters::local().minus(before);
  Clock::set_scale(prev);
  out.cycles = d.get("bsk_mape_cycles_total");
  out.fired = d.get("bsk_rules_fired_total");
  out.cycle_us_p50 = d.histogram_p50("bsk_mape_cycle_seconds") * 1e6;
  return out;
}

// ------------------------------------------------------------------ main

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  return "unknown";
}

int usage() {
  std::fprintf(stderr,
               "usage: bsk_e2e --workload farm_local|farm_shm|farm_tcp|"
               "am_fig3 --seed N --seconds S --trace 0|1 --bskd PATH "
               "--out DIR [--commit ID] [--defect drop|dup|delay]\n");
  return 2;
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--bskd") a.bskd = v;
    else if (k == "--out") a.out = v;
    else if (k == "--commit") a.commit = v;
    else if (k == "--defect") {
      if (v == "drop") a.defect = Defect::Drop;
      else if (v == "dup") a.defect = Defect::Dup;
      else if (v == "delay") a.defect = Defect::Delay;
      else if (v != "none") return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.bskd.empty() || a.out.empty() || a.seconds <= 0)
    return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> parsed = parse(argc, argv);
  if (!parsed) return usage();
  const Args a = *parsed;
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads)
    if (a.workload == c.name) w = &c;
  if (w == nullptr) return usage();
  ::signal(SIGPIPE, SIG_IGN);

  const bool remote = w->tp != Transport::Local;
  const double heavy_rate = w->heavy_rate;
  const double light_s = a.seconds * kLightShare;
  const double heavy_s = a.seconds * kHeavyShare;
  const double peak_s = a.seconds * kPeakShare;
  const auto light_n = static_cast<std::size_t>(kLightRate * light_s);
  const auto heavy_n = static_cast<std::size_t>(heavy_rate * heavy_s);
  const std::size_t timed = light_n + heavy_n;
  const std::size_t total = timed + static_cast<std::size_t>(kPeakCap * peak_s);
  // The seeded defects pick a task in the middle of the first light
  // segment, past its warm-up.
  const std::uint64_t victim = light_n / kCycles / 2;

  // Everything the system under test starts from here on inherits the
  // system-side CPUs; the generator and drain thread take the client CPU.
  const CpuSplit cpu;
  cpu.system();
  progress("start");
  deadline_guard(kDeadlineS);

  Metrics m;
  std::vector<std::string> problems;  // wrong outputs: the run is not correct
  std::vector<std::string> invalid;   // latencies not trustworthy
  std::uint64_t attempted = 0, failed = 0, corrupted = 0;
  std::vector<PhaseResult> phases;  // every segment, for the report

  // 1. Set-up time: the median of several full set-ups and teardowns.
  std::vector<double> setups;
  std::unique_ptr<Spans> spans;
  if (a.trace) spans = std::make_unique<Spans>(timed);
  const std::int64_t setup_start = now_ns();
  for (int i = 0; i < kMaxSetupReps &&
                  (i < kSetupReps ||
                   now_ns() - setup_start < kSetupBudgetS * 1e9);
       ++i) {
    auto s = make_stack(w->tp, a, spans.get(), Defect::None, 0);
    if (!s) {
      std::fprintf(stderr, "bsk_e2e: cannot spawn bskd at %s\n", a.bskd.c_str());
      return 1;
    }
    setups.push_back(s->setup_s);
  }

  progress("set-ups done");

  // 2. Tracing overhead: an untraced light phase to compare against.
  double untraced_light_p50 = 0;
  if (a.trace) {
    auto s = make_stack(w->tp, a, nullptr, Defect::None, 0);
    if (!s) return 1;
    cpu.client();
    Harness h(*s->farm, a.seed, light_n, light_n);
    std::vector<PhaseResult> r{h.run_open("light", kLightRate, light_s)};
    h.finish();
    cpu.system();
    std::vector<double> v = latencies(r, h);
    untraced_light_p50 = percentile(v, 0.5);
  }

  // The measured deployment.
  auto s = make_stack(w->tp, a, spans.get(), a.defect, victim);
  if (!s) return 1;
  setups.push_back(s->setup_s);
  if (!transport_ok(*s, w->tp))
    problems.push_back("transport: shm_attached=" +
                       std::to_string(remote ? s->pool->shm_attached() : 0) +
                       " fallback=" +
                       std::to_string(remote ? s->pool->fallback_nodes_created() : 0));
  // 3. Fig. 3 on the same daemon: the manager grows its farm until the
  // contract holds.
  progress("fig3");
  const Fig3Reps fig = run_fig3_reps(w->tp, s->bskd.port, w->fig3_reps,
                                     spans.get());
  attempted += kFig3Tasks * static_cast<std::size_t>(w->fig3_reps);
  for (const Fig3Out& o : fig.runs) {
    if (o.ok) continue;
    failed += kFig3Tasks - std::min(kFig3Tasks, o.received);
    problems.push_back("fig3: sink received " + std::to_string(o.received) +
                       " of " + std::to_string(kFig3Tasks));
  }
  failed += fig.undelivered;
  for (const std::string& h : fig.hung)
    problems.push_back("fig3: run did not drain in " + num(kFig3WaveS) +
                       " s: " + h);
  progress("fig3 done");

  // 4. The dataplane: kCycles × (light, heavy, peak).
  const char* kPhases[] = {"light", "heavy", "peak"};
  std::vector<PhaseResult> segs[3];  // per phase, one segment per cycle
  Usage use[3];
  int client_threads = 0, bskd_threads = 0;
  {
    cpu.client();
    Harness h(*s->farm, a.seed, timed, total);
    Edge edge = read_edge(*s, h, spans.get());
    for (int c = 0; c < kCycles; ++c)
      for (int p = 0; p < 3; ++p) {
        progress(kPhases[p]);
        PhaseResult r =
            p == 0   ? h.run_open(kPhases[p], kLightRate, light_s / kCycles)
            : p == 1 ? h.run_open(kPhases[p], heavy_rate, heavy_s / kCycles)
                     : h.run_closed(kPhases[p], kPeakWindow, peak_s / kCycles);
        if (c == kCycles - 1 && p == 2) {
          client_threads = proc_threads("self");
          bskd_threads =
              remote ? proc_threads(std::to_string(s->bskd.pid)) : 0;
        }
        Edge next = read_edge(*s, h, spans.get());
        use[p].add(edge, next, r);
        edge = std::move(next);
        segs[p].push_back(std::move(r));
      }
    progress("finish");
    h.finish();
    for (auto& phase : segs)
      for (PhaseResult& r : phase) {
        h.tally(r);
        attempted += r.submitted;
        failed += r.failed();
        phases.push_back(r);
      }
    // Corrupt results cannot be told apart by phase: counted once, here.
    const std::uint64_t corrupt = h.corrupt();
    failed += corrupt;
    corrupted = corrupt;

    std::vector<double> rates;
    for (const PhaseResult& r : segs[2])
      rates.insert(rates.end(), r.rates.begin(), r.rates.end());
    m["peak_tps"] = {median(rates), "1/s", rates.size()};
    latency_metrics("light", segs[0], h, m);
    latency_metrics("heavy", segs[1], h, m);
    const double lag_l = lag_p99(segs[0], h), lag_h = lag_p99(segs[1], h);
    if (lag_l > kMaxLagP99Us || lag_h > kMaxLagP99Us)
      invalid.push_back("generator behind schedule: lag p99 light=" +
                         num(lag_l) + "us heavy=" + num(lag_h) + "us");
    m["light.gen.lag_p99_us"] = {lag_l, "us"};
    m["heavy.gen.lag_p99_us"] = {lag_h, "us"};

    if (spans) {
      for (int p = 0; p < 3; ++p) phase_counters(kPhases[p], use[p], m);
      for (int p = 0; p < 2; ++p) {
        const double frac = hop_metrics(kPhases[p], segs[p], h, *spans, m);
        if (p == 0 && std::abs(frac - 1.0) > kHopTolerance)
          problems.push_back("hop accounting: light hop medians sum to " +
                             num(frac) + " of the end-to-end median");
      }
      Counters dl;
      for (const Usage& u : use) dl.add(u.local);
      m["net.retransmits"] = {dl.get("bsk_net_retransmits_total"), "count"};
      m["net.reconnects"] = {dl.get("bsk_net_reconnects_total"), "count"};
      m["trace.overhead_frac"] = {
          ratio(m["light.lat_p50_us"].value, untraced_light_p50) - 1.0, "frac"};
      dump_spans(a.out + "/spans-" + a.workload + "-seed" +
                     std::to_string(a.seed) + ".jsonl",
                 phases, h, *spans);
    }
  }
  cpu.system();
  progress("dataplane done");
  s.reset();
  if (g_bskd_kills.load() != 0)
    invalid.push_back(std::to_string(g_bskd_kills.load()) +
                      " bskd needed SIGKILL after 5 s of SIGTERM");

  const double reps =
      static_cast<double>(std::max<std::size_t>(fig.runs.size(), 1));
  auto fig_mean = [&](double Fig3Out::*f) {
    double sum = 0;
    for (const Fig3Out& o : fig.runs) sum += o.*f;
    return sum / reps;
  };
  // Most runs meet the contract within a few tenths of a second of each
  // other, and one in five or so a whole manager period early or late: the
  // median holds the common value, where one late run moved the mean by 4%.
  std::vector<double> contracts;
  for (const Fig3Out& o : fig.runs) contracts.push_back(o.contract_s);
  m["contract_s"] = {median(contracts), "s", contracts.size()};
  m["makespan_s"] = {fig_mean(&Fig3Out::makespan_s), "s"};
  m["setup_s"] = {median(setups), "s", setups.size()};
  if (spans) {
    m["am.mape_cycle_us_p50"] = {fig.cycle_us_p50, "us"};
    m["am.cycles"] = {fig.cycles / reps, "count"};
    m["am.add_worker"] = {fig_mean(&Fig3Out::adds), "count"};
    m["am.remove_worker"] = {fig_mean(&Fig3Out::removes), "count"};
    m["am.raise_viol"] = {fig_mean(&Fig3Out::raises), "count"};
    m["am.first_add_s"] = {fig_mean(&Fig3Out::first_add_s), "s"};
    m["rules.fired_per_cycle"] = {ratio(fig.fired, fig.cycles), "count"};
    std::vector<double> rec = spans->recruits();
    m["net.recruit_ms_p50"] = {percentile(rec, 0.5), "ms", rec.size()};
    m["proc.client_threads"] = {static_cast<double>(client_threads), "count"};
    m["proc.bskd_threads"] = {static_cast<double>(bskd_threads), "count"};
  }

  // 5. Report: a table, the detail file, then the one-line result.
  // peak_tps and the open-loop p99s did not repeat across runs on a 4-core
  // VM (README), so the traced run reports them with the per-layer metrics.
  static const std::vector<std::string> kEndToEnd = {
      "setup_s", "light.lat_p50_us", "heavy.lat_p50_us", "contract_s",
      "makespan_s"};
  std::vector<std::string> shown;
  if (a.trace) {
    for (const auto& [k, v] : m)
      if (std::find(kEndToEnd.begin(), kEndToEnd.end(), k) == kEndToEnd.end())
        shown.push_back(k);
  } else {
    shown = kEndToEnd;
  }
  const double failed_frac =
      ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("# bsk_e2e workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "cpu=\"%s\" build=%s compiler=\"%s\" commit=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, std::thread::hardware_concurrency(),
              cpu_model().c_str(), BSK_E2E_BUILD_TYPE, __VERSION__,
              a.commit.c_str());
  for (const std::string& k : shown) {
    const Metric& x = m[k];
    if (x.n != 0)
      std::printf("%-40s %14.4f %-6s n=%zu\n", k.c_str(), x.value,
                  x.unit.c_str(), x.n);
    else
      std::printf("%-40s %14.4f %s\n", k.c_str(), x.value, x.unit.c_str());
  }
  std::printf("%-40s %14.6f frac (%llu of %llu)\n", "failed_frac", failed_frac,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& p : problems) std::printf("# problem: %s\n", p.c_str());
  for (const std::string& p : invalid) std::printf("# invalid: %s\n", p.c_str());

  {
    std::ofstream rep(a.out + "/report-" + a.workload + "-seed" +
                          std::to_string(a.seed) + "-trace" +
                          std::to_string(a.trace ? 1 : 0) + ".json",
                      std::ios::trunc);
    rep << "{\"context\":{\"workload\":\"" << a.workload << "\",\"seed\":"
        << a.seed << ",\"seconds\":" << num(a.seconds)
        << ",\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"cpu\":" << quote(cpu_model())
        << ",\"build_type\":\"" << BSK_E2E_BUILD_TYPE
        << "\",\"compiler\":" << quote(__VERSION__)
        << ",\"commit\":" << quote(a.commit)
        << "},\"valid\":" << (invalid.empty() ? "true" : "false")
        << ",\"failed_frac\":" << num(failed_frac)
        << ",\"corrupt\":" << corrupted << ",\"phases\":[";
    for (std::size_t i = 0; i < phases.size(); ++i)
      rep << (i ? "," : "") << "{\"name\":\"" << phases[i].name
          << "\",\"submitted\":" << phases[i].submitted
          << ",\"lost\":" << phases[i].lost << ",\"dup\":" << phases[i].dup
          << ",\"seconds\":" << num(phases[i].seconds) << "}";
    rep << "],\"fig3\":[";
    for (std::size_t i = 0; i < fig.runs.size(); ++i)
      rep << (i ? "," : "") << "{\"contract_s\":" << num(fig.runs[i].contract_s)
          << ",\"makespan_s\":" << num(fig.runs[i].makespan_s)
          << ",\"add_worker\":" << num(fig.runs[i].adds) << "}";
    // The raw bsk_net_* and bsk_farm_* counter deltas of both processes,
    // per phase, behind the normalised per-layer metrics.
    rep << "],\"counters\":{";
    for (int p = 0; p < 3; ++p) {
      rep << (p ? "," : "") << "\"" << kPhases[p] << "\":{";
      const Counters* sides[] = {&use[p].local, &use[p].bskd};
      const char* side_names[] = {"client", "bskd"};
      for (int k = 0; k < 2; ++k) {
        rep << (k ? "," : "") << "\"" << side_names[k] << "\":{";
        bool first = true;
        for (const auto& [name, v] : sides[k]->all()) {
          if (name.rfind("bsk_net_", 0) != 0 && name.rfind("bsk_farm_", 0) != 0)
            continue;
          rep << (first ? "" : ",") << quote(name) << ":" << num(v);
          first = false;
        }
        rep << "}";
      }
      rep << "}";
    }
    rep << "},\"problems\":[";
    for (std::size_t i = 0; i < problems.size(); ++i)
      rep << (i ? "," : "") << quote(problems[i]);
    rep << "],\"metrics\":{";
    bool first = true;
    for (const auto& [k, v] : m) {
      rep << (first ? "" : ",") << "\"" << k << "\":{\"value\":" << num(v.value)
          << ",\"unit\":\"" << v.unit << "\"";
      if (v.n != 0) rep << ",\"n\":" << v.n;
      rep << "}";
      first = false;
    }
    rep << "}}\n";
  }

  const bool correct = failed == 0 && problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < shown.size(); ++i) {
    const Metric& x = m[shown[i]];
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                shown[i].c_str(), num(x.value).c_str(), x.unit.c_str());
  }
  std::printf("}}\n");
  if (!fig.hung.empty()) {
    // Hung Fig. 3 runs still own threads: leave without unwinding them.
    std::fflush(stdout);
    std::_Exit(0);
  }
  return 0;
}
