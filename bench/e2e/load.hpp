#pragma once
// Load generator and result checker of the e2e farm benchmark.
//
// One submit thread (the caller of run_open/run_closed) pushes tasks into
// the farm's input conduit; one drain thread pops its output conduit. Every
// task carries a 256-byte payload derived from (seed, id); the drain thread
// checks it byte for byte and counts how often each id comes back, so a
// lost, duplicated or corrupted task is always caught.
//
// Open-loop phases submit on a fixed schedule and time each task from when
// it was *due*, so a stall also charges the tasks queued behind it; the
// generator's own lateness is kept per task as well. Closed-loop phases keep
// a fixed number of tasks outstanding and count completions.

#include <algorithm>
#include <any>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "sysstat.hpp"
#include "rt/farm.hpp"

namespace e2e {

inline constexpr std::size_t kPayloadBytes = 256;

inline void fill_payload(std::uint64_t seed, std::uint64_t id,
                         std::uint8_t* out) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull ^ (id + 0x632BE59BD9B4E019ull);
  for (std::size_t i = 0; i < kPayloadBytes; i += 8) {
    // splitmix64
    s += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::memcpy(out + i, &z, 8);
  }
}

inline std::vector<std::uint8_t> make_payload(std::uint64_t seed,
                                              std::uint64_t id) {
  std::vector<std::uint8_t> p(kPayloadBytes);
  fill_payload(seed, id, p.data());
  return p;
}

inline bool payload_ok(const bsk::rt::Task& t, std::uint64_t seed) {
  const auto* p = std::any_cast<std::vector<std::uint8_t>>(&t.payload);
  if (p == nullptr || p->size() != kPayloadBytes) return false;
  std::uint8_t want[kPayloadBytes];
  fill_payload(seed, t.id, want);
  return std::memcmp(p->data(), want, kPayloadBytes) == 0;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 for an empty set.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto k = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return v[std::min(k, v.size()) - 1];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// What one phase submitted and when; correctness tallies are filled in by
/// Harness::finish() once the farm has drained completely.
struct PhaseResult {
  std::string name;
  bool open = false;
  std::uint64_t base = 0;       ///< first task id of the phase
  std::uint64_t submitted = 0;  ///< ids [base, base + submitted)
  std::uint64_t warm = 0;       ///< leading tasks left out of timing
  std::int64_t t0 = 0;          ///< open loop: due time of the first task
  double period_ns = 0;         ///< open loop: schedule spacing
  double seconds = 0;           ///< wall length of the phase
  std::vector<double> rates;    ///< closed loop: completions/s per slice
  std::uint64_t lost = 0, dup = 0;

  std::int64_t due(std::uint64_t id) const {
    return t0 + static_cast<std::int64_t>(
                    static_cast<double>(id - base) * period_ns);
  }
  std::uint64_t failed() const { return lost + dup; }
};

class Harness {
 public:
  /// Open-loop tasks take ids from [0, timed) and get submit/done stamps;
  /// closed-loop tasks take ids from [timed, total) and are only counted.
  Harness(bsk::rt::Farm& farm, std::uint64_t seed, std::size_t timed,
          std::size_t total)
      : farm_(farm),
        seed_(seed),
        timed_(timed),
        total_(total),
        sub0_(timed),
        sub1_(timed),
        done_(timed),
        seen_(total) {
    next_closed_ = timed;
    drain_ = std::thread([this] { drain_loop(); });
  }

  ~Harness() { finish(); }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Submit rate × seconds tasks on a fixed schedule. The stream goes on
  /// into the next phase without a pause: a pause would strand the results
  /// a remote worker holds in its credit window.
  PhaseResult run_open(const std::string& name, double rate, double seconds) {
    PhaseResult r;
    r.name = name;
    r.open = true;
    r.base = next_open_;
    const auto n = static_cast<std::uint64_t>(rate * seconds);
    r.submitted = std::min<std::uint64_t>(n, timed_ - r.base);
    r.warm = r.submitted / 10;
    r.period_ns = 1e9 / rate;
    const std::int64_t start = now_ns();
    r.t0 = start + 1'000'000;
    for (std::uint64_t i = 0; i < r.submitted; ++i) {
      const std::uint64_t id = r.base + i;
      bsk::rt::Task t = bsk::rt::Task::data(id, 0.0, make_payload(seed_, id));
      wait_until(r.due(id));
      const std::int64_t s0 = now_ns();
      farm_.input()->push(std::move(t));
      sub1_.set(id, now_ns());
      sub0_.set(id, s0);
      next_open_ = id + 1;
      ++submitted_;
    }
    r.seconds = static_cast<double>(now_ns() - start) * 1e-9;
    return r;
  }

  /// Keep `window` tasks outstanding for `seconds`, starting from a drained
  /// farm and draining it again at the end. Completions per second are
  /// counted over ten equal slices, the first of which is warm-up and left
  /// out.
  PhaseResult run_closed(const std::string& name, std::size_t window,
                         double seconds) {
    wait_drained();
    PhaseResult r;
    r.name = name;
    r.base = next_closed_;
    const std::int64_t start = now_ns();
    const auto slice = static_cast<std::int64_t>(seconds * 1e8);
    std::int64_t mark_t = start + slice;
    std::uint64_t mark_c = 0;
    std::int64_t now = start;
    while ((now = now_ns()) < start + 10 * slice && next_closed_ < total_) {
      if (now >= mark_t) {
        const std::uint64_t c = distinct_.load(std::memory_order_acquire);
        if (mark_t > start + slice)
          r.rates.push_back(static_cast<double>(c - mark_c) /
                            (static_cast<double>(slice) * 1e-9));
        mark_c = c;
        mark_t += slice;
      }
      if (submitted_ - distinct_.load(std::memory_order_acquire) >= window) {
        // Bounded wait: a lost task must not park the generator forever.
        std::unique_lock lk(mu_);
        cv_.wait_for(lk, std::chrono::milliseconds(50), [&] {
          return submitted_ - distinct_.load(std::memory_order_acquire) <
                 window;
        });
        continue;
      }
      const std::uint64_t id = next_closed_;
      farm_.input()->push(
          bsk::rt::Task::data(id, 0.0, make_payload(seed_, id)));
      next_closed_ = id + 1;
      ++submitted_;
    }
    r.submitted = next_closed_ - r.base;
    wait_drained();
    r.seconds = static_cast<double>(now_ns() - start) * 1e-9;
    return r;
  }

  /// Close the input and wait until the farm's output has closed, so every
  /// result that will ever arrive has been counted.
  void finish() {
    if (finished_) return;
    finished_ = true;
    farm_.input()->close();
    if (drain_.joinable()) drain_.join();
  }

  /// Settle a phase after finish(): an id never seen is lost, an id seen
  /// twice is duplicated.
  void tally(PhaseResult& r) const {
    r.lost = r.dup = 0;
    for (std::uint64_t id = r.base; id < r.base + r.submitted; ++id) {
      const unsigned s = seen_[id].load(std::memory_order_relaxed);
      if (s == 0) ++r.lost;
      if (s > 1) r.dup += s - 1;
    }
  }

  /// Results whose payload did not match, or whose id was never submitted.
  std::uint64_t corrupt() const {
    std::uint64_t n = corrupt_.load();
    for (std::uint64_t id = next_open_; id < timed_; ++id)
      n += seen_[id].load(std::memory_order_relaxed);
    for (std::uint64_t id = next_closed_; id < total_; ++id)
      n += seen_[id].load(std::memory_order_relaxed);
    return n;
  }

  /// CPU seconds spent by the benchmark's own threads so far (this submit
  /// thread, which must be the caller, and the drain thread): subtracted
  /// from the process's CPU so the client figure is the farm's alone.
  double own_cpu_s() {
    return thread_cpu_s(pthread_self()) + thread_cpu_s(drain_.native_handle());
  }

  const Stamps& sub0() const { return sub0_; }
  const Stamps& sub1() const { return sub1_; }
  const Stamps& done() const { return done_; }

 private:
  /// Spin (yielding) until `due`. A sleeping generator wakes late by tens
  /// of µs to milliseconds on a busy host; the spin keeps its CPU awake, and
  /// the yield lets the drain thread that shares the CPU run.
  static void wait_until(std::int64_t due) {
    while (now_ns() < due) std::this_thread::yield();
  }

  /// Until every submitted task came back, or none did for 50 ms. A remote
  /// worker holds its last results until more tasks arrive (its credit
  /// window), so a phase boundary is quiet before it is empty; the next
  /// phase's first tasks release them, and finish() flushes the rest.
  void wait_drained() {
    std::uint64_t last = distinct_.load();
    std::int64_t since = now_ns();
    while (last < submitted_) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      const std::uint64_t c = distinct_.load();
      if (c != last) {
        last = c;
        since = now_ns();
      } else if (now_ns() - since > 50'000'000) {
        break;
      }
    }
  }

  void drain_loop() {
    std::vector<bsk::rt::Task> batch;
    batch.reserve(64);
    for (;;) {
      batch.clear();
      if (farm_.output()->pop_n(batch, 64) != bsk::support::ChannelStatus::Ok)
        break;
      const std::int64_t t = now_ns();
      std::uint64_t fresh = 0;
      for (const bsk::rt::Task& task : batch) {
        if (!task.is_data()) continue;
        if (task.id >= total_) {
          corrupt_.fetch_add(1);
          continue;
        }
        if (seen_[task.id].fetch_add(1, std::memory_order_relaxed) == 0) {
          done_.set(task.id, t);
          ++fresh;
        }
        if (!payload_ok(task, seed_)) corrupt_.fetch_add(1);
      }
      if (fresh != 0) {
        distinct_.fetch_add(fresh, std::memory_order_release);
        { std::lock_guard lk(mu_); }  // no lost wake-up against the waiter
        cv_.notify_one();
      }
    }
  }

  bsk::rt::Farm& farm_;
  std::uint64_t seed_;
  std::size_t timed_, total_;
  Stamps sub0_, sub1_, done_;
  std::vector<std::atomic<std::uint8_t>> seen_;
  std::atomic<std::uint64_t> distinct_{0};  ///< ids seen at least once
  std::atomic<std::uint64_t> corrupt_{0};
  std::mutex mu_;  // pairs with cv_ for the closed-loop window wait
  std::condition_variable cv_;
  // Submit thread only.
  std::uint64_t next_open_ = 0, next_closed_ = 0, submitted_ = 0;
  bool finished_ = false;
  std::thread drain_;  // last: started after every member it reads
};

}  // namespace e2e
