#pragma once
// Benchmark-owned probes for the e2e farm benchmark.
//
// Everything here sits *around* calls into bsk, never inside it: a node
// decorator stamps the worker-side hop boundaries of each task, a factory
// decorator times recruitment, and a second family of decorators plants
// the seeded defects the self-test uses to prove each checker can fail.
// Stamps are relaxed atomics in arrays indexed by task id (preallocated,
// kept in memory, dumped at exit), so recording costs one clock read and
// one store per boundary and no lock.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "rt/conduit.hpp"
#include "rt/node.hpp"

namespace e2e {

/// Monotonic nanoseconds; every span and latency in the benchmark uses it.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One stamp per task id; ids past the capacity are ignored (the
/// closed-loop phase is counted, not timed).
class Stamps {
 public:
  explicit Stamps(std::size_t n) : v_(n) {}
  void set(std::uint64_t id, std::int64_t t) {
    if (id < v_.size()) v_[id].store(t, std::memory_order_relaxed);
  }
  std::int64_t get(std::uint64_t id) const {
    return id < v_.size() ? v_[id].load(std::memory_order_relaxed) : 0;
  }

 private:
  std::vector<std::atomic<std::int64_t>> v_;
};

/// Worker-side spans of one traced run plus the per-call counts the hop
/// metrics are normalised by.
struct Spans {
  explicit Spans(std::size_t timed) : enter(timed), exit(timed), ret(timed) {}

  Stamps enter;  ///< the process() call that took the task in starts
  Stamps exit;   ///< that call returns
  Stamps ret;    ///< the call (process or flush) that returned its result
                 ///< returns — later than `exit` behind a credit window
  std::atomic<std::uint64_t> calls{0};   ///< process() calls
  std::atomic<std::uint64_t> primed{0};  ///< ... that returned nullopt

  void add_recruit(double ms) {
    std::lock_guard lk(mu);
    recruit_ms.push_back(ms);
  }
  std::vector<double> recruits() const {
    std::lock_guard lk(mu);
    return recruit_ms;
  }

 private:
  mutable std::mutex mu;
  std::vector<double> recruit_ms;  // one per factory call
};

/// Forwards every Node virtual (and the placement) to the wrapped worker,
/// stamping the hop boundaries on the way through.
class TracingNode final : public bsk::rt::Node {
 public:
  TracingNode(std::unique_ptr<bsk::rt::Node> inner, Spans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void on_start() override {
    inner_->set_placement(placement());
    inner_->on_start();
  }
  std::optional<bsk::rt::Task> process(bsk::rt::Task t) override {
    const std::uint64_t id = t.id;
    spans_.enter.set(id, now_ns());
    auto r = inner_->process(std::move(t));
    const std::int64_t out = now_ns();
    spans_.exit.set(id, out);
    spans_.calls.fetch_add(1, std::memory_order_relaxed);
    if (r)
      spans_.ret.set(r->id, out);
    else
      spans_.primed.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
  void on_stop() override { inner_->on_stop(); }
  bool is_source() const override { return inner_->is_source(); }
  bool failed() const override { return inner_->failed(); }
  std::size_t secure_channels() override { return inner_->secure_channels(); }
  bool owns_recovery() const override { return inner_->owns_recovery(); }
  std::vector<bsk::rt::Task> drain_unacked() override {
    return inner_->drain_unacked();
  }
  std::optional<bsk::rt::Task> flush() override {
    auto r = inner_->flush();
    if (r) spans_.ret.set(r->id, now_ns());
    return r;
  }
  std::optional<bsk::rt::Task> next() override { return inner_->next(); }

 private:
  std::unique_ptr<bsk::rt::Node> inner_;
  Spans& spans_;
};

/// Wrap `inner` so each node it mints is traced and each mint is timed.
/// Without spans the factory is returned unchanged (the untraced run).
inline bsk::rt::NodeFactory traced(bsk::rt::NodeFactory inner, Spans* spans) {
  if (spans == nullptr) return inner;
  return [inner = std::move(inner), spans] {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<bsk::rt::Node> n = inner();
    spans->add_recruit(static_cast<double>(now_ns() - t0) * 1e-6);
    return std::make_unique<TracingNode>(std::move(n), *spans);
  };
}

// ------------------------------------------------------------ seeded defects

enum class Defect { None, Drop, Dup, Delay };

/// Worker decorator for the Drop and Delay defects: swallows the task whose
/// id is `victim` (it never reaches the wrapped node, so it is lost), or
/// holds every process() call for `delay` before forwarding — a fixed cost
/// planted on the node hop.
class DefectNode final : public bsk::rt::Node {
 public:
  DefectNode(std::unique_ptr<bsk::rt::Node> inner, Defect d,
             std::uint64_t victim, std::chrono::microseconds delay)
      : inner_(std::move(inner)), d_(d), victim_(victim), delay_(delay) {}

  void on_start() override {
    inner_->set_placement(placement());
    inner_->on_start();
  }
  std::optional<bsk::rt::Task> process(bsk::rt::Task t) override {
    if (d_ == Defect::Drop && t.id == victim_) return std::nullopt;
    if (d_ == Defect::Delay) std::this_thread::sleep_for(delay_);
    return inner_->process(std::move(t));
  }
  void on_stop() override { inner_->on_stop(); }
  bool failed() const override { return inner_->failed(); }
  std::size_t secure_channels() override { return inner_->secure_channels(); }
  bool owns_recovery() const override { return inner_->owns_recovery(); }
  std::vector<bsk::rt::Task> drain_unacked() override {
    return inner_->drain_unacked();
  }
  std::optional<bsk::rt::Task> flush() override { return inner_->flush(); }

 private:
  std::unique_ptr<bsk::rt::Node> inner_;
  Defect d_;
  std::uint64_t victim_;
  std::chrono::microseconds delay_;
};

/// Output-conduit decorator for the Dup defect: the collector's push of the
/// task whose id is `victim` is delivered twice.
class DupConduit final : public bsk::rt::Conduit {
 public:
  DupConduit(std::size_t capacity, std::uint64_t victim)
      : bsk::rt::Conduit(capacity), victim_(victim) {}

  bool push(bsk::rt::Task t) override {
    if (t.is_data() && t.id == victim_) bsk::rt::Conduit::push(t);
    return bsk::rt::Conduit::push(std::move(t));
  }

 private:
  std::uint64_t victim_;
};

}  // namespace e2e
