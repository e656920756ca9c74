// Shared pieces of the libaid benchmark: options, sample statistics, the
// metric report, and the chunk stamps the traced run takes in its body
// wrappers.
//
// Everything here is the benchmark's own code. libaid is driven only
// through its public API (rt::Runtime, pipeline::LoopChain, serve::ServeNode,
// ingress::IngressServer/IngressClient) and observed only through what that
// API hands back: the loop bodies it calls, the terminal frames it sends and
// its public stats calls.
#pragma once

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/padded.h"
#include "common/rng.h"
#include "common/time_source.h"
#include "common/types.h"
#include "pipeline/loop_chain.h"
#include "platform/platform.h"
#include "rt/runtime.h"
#include "sched/loop_scheduler.h"

namespace perfbench {

using aid::i64;
using aid::Nanos;
using aid::u64;
using aid::usize;

/// The emulated platform every workload runs on: 2 small + 2 big cores,
/// big cores 2x faster, Throttle duty cycling on the small ones.
inline constexpr int kThreads = 4;
inline constexpr double kSlowdown = 2.0;
[[nodiscard]] inline aid::platform::Platform bench_platform() {
  return aid::platform::generic_amp(2, 2, kSlowdown);
}

[[nodiscard]] inline Nanos now_ns() {
  static const aid::SteadyTimeSource clock;
  return clock.now();
}

struct Options {
  std::string workload;  ///< the workload that gets half of the run
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";   ///< where the traced run writes its spans
  std::string source_digest;   ///< hash of the measured sources (provenance)
};

// ------------------------------------------------------------ chunk stamps

/// One worker's view of one construct, accumulated chunk by chunk.
struct ThreadStamps {
  Nanos first_start = LLONG_MAX;
  Nanos last_finish = 0;  ///< includes the small-core Throttle penalty
  i64 chunks = 0;
  i64 iters = 0;
  Nanos busy = 0;         ///< summed body time
  int core_type = 0;
};

/// Stamps of one construct (a run_loop, or one entry of a chain). Each
/// worker writes only its own cache line.
struct RegionTrace {
  std::array<aid::Padded<ThreadStamps>, kThreads> thr;

  void reset() { *this = RegionTrace{}; }
  [[nodiscard]] Nanos first_start() const;
  [[nodiscard]] Nanos first_finish() const;  ///< of workers that ran chunks
  [[nodiscard]] Nanos last_finish() const;
  [[nodiscard]] i64 chunks() const;
  [[nodiscard]] i64 iters(int core_type) const;
  [[nodiscard]] i64 iters() const { return iters(0) + iters(1); }
  [[nodiscard]] Nanos busy() const;
};

/// Wrap `body` so every chunk it runs is stamped into `trace`. The
/// runtime's Throttle spins after the body returns, out of the wrapper's
/// sight, so a small-core chunk's finish is moved by the known
/// (slowdown - 1) x body time.
[[nodiscard]] aid::rt::RangeBody stamped(const aid::rt::RangeBody& body,
                                         RegionTrace& trace);

/// Stamps of one traced invocation: its runtime calls (a run_loop, or a
/// whole chain) and the constructs each call ran. Reused across
/// invocations; clear() before each.
struct InvocationTrace {
  static constexpr int kMax = 8;
  struct Call {
    Nanos call = 0;  ///< before the runtime call
    Nanos ret = 0;   ///< after it returned
    int first = 0;   ///< its constructs: entries[first, first + n)
    int n = 0;
    aid::sched::SchedulerStats stats;  ///< Runtime::last_loop_stats()
  };
  std::array<RegionTrace, kMax> entries;
  std::array<Call, kMax> calls;
  int nentries = 0;
  int ncalls = 0;

  void clear();
  /// One stamped run_loop.
  void loop(aid::rt::Runtime& rt, i64 count,
            const aid::sched::ScheduleSpec& spec,
            const aid::rt::RangeBody& body);
  /// One run_chain whose bodies were stamped into entries[0, n) when the
  /// chain was built (so it must be the invocation's first call).
  void chain(aid::rt::Runtime& rt, const aid::pipeline::LoopChain& chain,
             int n);

  /// Call -> first chunk start.
  [[nodiscard]] Nanos dispatch_ns(const Call& c) const;
  /// Last chunk finish -> return.
  [[nodiscard]] Nanos join_ns(const Call& c) const;
  /// Spread of the workers' finish times in the call's last construct,
  /// as a share of the call's duration.
  [[nodiscard]] double imbalance_pc(const Call& c) const;
  [[nodiscard]] i64 chunks(const Call& c) const;
};

/// A growing sample with order statistics (linear-interpolated quantiles).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] usize size() const { return v_.size(); }
  [[nodiscard]] double quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const usize lo = static_cast<usize>(pos);
    const usize hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double mean() const {
    double t = 0.0;
    for (double v : v_) t += v;
    return v_.empty() ? 0.0 : t / static_cast<double>(v_.size());
  }

 private:
  std::vector<double> v_;
};

[[nodiscard]] inline double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

/// A seeded permutation of 0..N-1: the order in which one round runs its
/// interleaved variants, so that no variant always runs first.
template <usize N>
[[nodiscard]] std::array<int, N> round_order(aid::Rng& rng) {
  std::array<int, N> order{};
  for (usize i = 0; i < N; ++i) order[i] = static_cast<int>(i);
  for (usize i = N - 1; i > 0; --i)
    std::swap(order[i], order[static_cast<usize>(
                            rng.uniform_int(0, static_cast<i64>(i)))]);
  return order;
}

/// Spans of the traced run, kept in memory and written out once at the end
/// (one JSON object per line). Each span names the span that caused it.
class SpanLog {
 public:
  static constexpr usize kCap = 20000;

  /// One span; returns its id, or -1 once the cap is reached.
  i64 add(const std::string& name, i64 parent, Nanos start, Nanos end,
          i64 count = 0);
  /// Every call of a traced invocation as a span, with a child span per
  /// construct and worker that ran chunks (first chunk to last finish).
  void add_invocation(const std::string& name, const InvocationTrace& t);
  [[nodiscard]] bool write(const std::string& path) const;
  [[nodiscard]] usize size() const { return spans_.size(); }
  [[nodiscard]] usize dropped() const { return dropped_; }

 private:
  struct Span {
    std::string name;
    i64 parent = -1;
    Nanos start = 0;
    Nanos end = 0;
    i64 count = 0;
  };
  std::vector<Span> spans_;
  usize dropped_ = 0;
};

/// Everything one run prints: end-to-end and per-layer metrics with their
/// sample counts, the op counts and free-form facts for the report line.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
    i64 samples = 0;
  };
  std::map<std::string, Metric> e2e;
  /// End-to-end metrics printed in the report line but not in the result:
  /// their run-to-run spread on a shared 4-vCPU host is wider than any
  /// bound the benchmark could hold them to (see README.md).
  std::map<std::string, Metric> ungated;
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> facts;  ///< JSON fragments by key
  SpanLog spans;
  i64 attempted = 0;
  i64 failed = 0;
  bool correct = true;
  /// False when an open-loop run's backlog grew: its latencies are not
  /// reported.
  bool valid = true;
  std::string invalid_reason;

  void put_e2e(const std::string& name, double v, const char* unit,
               usize n) {
    e2e[name] = {v, unit, static_cast<i64>(n)};
  }
  void put_ungated(const std::string& name, double v, const char* unit,
                   usize n) {
    ungated[name] = {v, unit, static_cast<i64>(n)};
  }
  void put_layer(const std::string& name, double v, const char* unit,
                 usize n) {
    layer[name] = {v, unit, static_cast<i64>(n)};
  }
};

/// Context-switch counter of the whole process (every thread), the futex
/// hand-off proxy behind os.ctx_switches_per_op.
[[nodiscard]] i64 process_ctx_switches();

// ------------------------------------------------------------ the sections

/// Seconds `build` takes; what it built is destroyed untimed.
template <typename F>
[[nodiscard]] double time_build(F&& build) {
  const Nanos t0 = now_ns();
  auto built = build();
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  built.reset();
  return s;
}

/// One workload's part of a run. The factory sets it up and warms it up;
/// the run then measures every section in short slices, interleaved, so
/// that each one samples the host over the whole run rather than over one
/// stretch of it; finish() tallies the checks and fills the report the
/// factory was given.
class Section {
 public:
  Section() = default;
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;
  virtual ~Section() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// Seconds to build a throwaway copy of what the factory set up. The
  /// run samples it once per cycle, spread like the measurements.
  [[nodiscard]] virtual double time_setup() const = 0;
  /// Measure for about `budget_ns`.
  virtual void run_slice(Nanos budget_ns) = 0;
  virtual void finish() = 0;
};

std::unique_ptr<Section> make_amp_kernels(const Options& opt,
                                          aid::rt::Runtime& rt,
                                          Report& report);
std::unique_ptr<Section> make_fine_loops(const Options& opt,
                                         aid::rt::Runtime& rt,
                                         Report& report);
std::unique_ptr<Section> make_served_jobs(const Options& opt,
                                          Report& report);

}  // namespace perfbench
