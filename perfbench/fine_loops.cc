// fine_loops (closed loop): a 2D stencil time-stepper on a 64x64 grid, so
// one step is a few microseconds of work, in four interleaved modes:
// plain static, aid-static, static with a far deadline (the watchdog is
// armed and never fires), and 8-step LoopChains with add_after edges run
// through Runtime::run_chain.
//
// Why this workload: at this size fork/join, watchdog arming and chain
// hand-off dominate the step, so this is where `rt` and `pipeline` changes
// show, and where a `sched` distribution change should show nothing.
//
// One invocation is 8 steps from the seeded initial grid (restored from a
// pristine copy outside the timed window); its checksum must equal 8
// serial steps computed once up front.
#include <cstdio>
#include <memory>

#include "bench.h"
#include "workloads/kernels.h"

namespace perfbench {
namespace {

namespace kn = aid::workloads::kernels;
using aid::rt::RangeBody;
using aid::rt::WorkerInfo;
using aid::sched::ScheduleSpec;

constexpr i64 kSide = 64;
constexpr int kSteps = 8;
constexpr double kDiffusion = 0.18;
/// Far enough that the watchdog never fires: the deadline mode measures
/// arming and disarming only.
constexpr i64 kFarDeadlineNs = 10'000'000'000;

enum Mode : int { kStatic, kAidStatic, kDeadline, kChain, kModes };
constexpr std::array<const char*, kModes> kModeLabel = {
    "static", "aid-static", "deadline", "chain"};

ScheduleSpec spec_of(int mode) {
  switch (mode) {
    case kAidStatic: return ScheduleSpec::aid_static();
    case kDeadline:
      return ScheduleSpec::static_even().with_deadline_ns(kFarDeadlineNs);
    default: return ScheduleSpec::static_even();
  }
}

double grid_sum(const kn::Grid2D& g) {
  double c = 0.0;
  for (double v : g.cells) c += v;
  return c;
}

/// Double-buffered grids, the per-parity step bodies and the two chains
/// (plain and stamped). Bodies capture `this`: not copyable.
struct State {
  kn::Grid2D pristine, buf[2];
  std::array<RangeBody, 2> step;  ///< step[p] reads buf[p], writes buf[1-p]
  aid::pipeline::LoopChain plain_chain, traced_chain;
  InvocationTrace trace;

  explicit State(u64 seed)
      : pristine(kn::Grid2D::generate(kSide, kSide, seed)),
        buf{pristine, pristine} {
    for (int p = 0; p < 2; ++p)
      step[static_cast<usize>(p)] = [this, p](i64 b, i64 e,
                                              const WorkerInfo&) {
        for (i64 row = b; row < e; ++row)
          kn::stencil2d_row(buf[p], buf[1 - p], row, kDiffusion);
      };
    int prev = -1;
    for (int k = 0; k < kSteps; ++k) {
      const RangeBody& body = step[static_cast<usize>(k % 2)];
      plain_chain.add(kSide, ScheduleSpec::static_even(), body, prev);
      prev = traced_chain.add(
          kSide, ScheduleSpec::static_even(),
          stamped(body, trace.entries[static_cast<usize>(k)]), prev);
    }
  }
  State(const State&) = delete;
  State& operator=(const State&) = delete;

  void restore() {
    buf[0] = pristine;
    buf[1] = pristine;
  }
  /// After an even number of steps the result is back in buf[0].
  [[nodiscard]] double checksum() const { return grid_sum(buf[0]); }
};

double serial_reference(const kn::Grid2D& pristine) {
  kn::Grid2D a = pristine, b = pristine;
  for (int k = 0; k < kSteps; ++k) {
    const kn::Grid2D& in = k % 2 == 0 ? a : b;
    kn::Grid2D& out = k % 2 == 0 ? b : a;
    for (i64 row = 0; row < kSide; ++row)
      kn::stencil2d_row(in, out, row, kDiffusion);
  }
  return grid_sum(a);
}

class FineLoops final : public Section {
 public:
  FineLoops(const Options& opt, aid::rt::Runtime& rt, Report& report)
      : opt_(opt), rt_(rt), report_(report),
        rng_(opt.seed ^ 0x5EEDF1E7D00DULL) {
    st_ = std::make_unique<State>(opt.seed);
    reference_ = serial_reference(st_->pristine);
    for (int m = 0; m < kModes; ++m) specs_[static_cast<usize>(m)] = spec_of(m);
    for (int m = 0; m < kModes; ++m) invoke(m, false);  // warm-up
    invocations_ = 0;
    steps_ = 0;
  }

  const char* name() const override { return "fine_loops"; }
  double time_setup() const override {
    return time_build([this] { return std::make_unique<State>(opt_.seed); });
  }

  void run_slice(Nanos budget_ns) override {
    const i64 ctx0 = process_ctx_switches();
    const Nanos end = now_ns() + budget_ns;
    do {
      const bool traced = opt_.trace && rounds_ % 2 == 1;
      std::array<double, kModes> round_median{};
      for (const int m : round_order<kModes>(rng_)) {
        const usize mi = static_cast<usize>(m);
        round_median[mi] = invoke(m, traced);
        Samples& out = traced ? traced_us_[mi] : step_us_[mi];
        for (int k = 0; k < (m == kChain ? 1 : kSteps); ++k)
          out.add(t_[static_cast<usize>(k)]);
        if (traced) record_traced(m);
      }
      if (!traced)
        watchdog_arm_ns_.add(1e3 * (round_median[kDeadline] -
                                    round_median[kStatic]));
      ++rounds_;
    } while (now_ns() < end);
    ctx_ += process_ctx_switches() - ctx0;
  }

  void finish() override;

 private:
  /// One invocation: 8 steps from the initial grid. Leaves the step
  /// times in t_ and returns their median, in µs.
  double invoke(int mode, bool traced) {
    st_->restore();
    if (traced) st_->trace.clear();
    const ScheduleSpec& spec = specs_[static_cast<usize>(mode)];
    if (mode == kChain) {
      const Nanos t0 = now_ns();
      if (traced)
        st_->trace.chain(rt_, st_->traced_chain, kSteps);
      else
        rt_.run_chain(st_->plain_chain);
      t_.fill(static_cast<double>(now_ns() - t0) / 1e3 / kSteps);
    } else {
      for (int k = 0; k < kSteps; ++k) {
        const RangeBody& body = st_->step[static_cast<usize>(k % 2)];
        const Nanos t0 = now_ns();
        if (traced)
          st_->trace.loop(rt_, kSide, spec, body);
        else
          rt_.run_loop(kSide, spec, body);
        t_[static_cast<usize>(k)] = static_cast<double>(now_ns() - t0) / 1e3;
      }
    }
    ++invocations_;
    steps_ += kSteps;
    if (st_->checksum() != reference_) {
      ++mismatches_;
      std::fprintf(stderr, "fine_loops: %s checksum %.17g != %.17g\n",
                   kModeLabel[static_cast<usize>(mode)], st_->checksum(),
                   reference_);
    }
    std::array<double, kSteps> sorted = t_;
    std::sort(sorted.begin(), sorted.end());
    return (sorted[kSteps / 2 - 1] + sorted[kSteps / 2]) / 2.0;
  }

  void record_traced(int mode) {
    const InvocationTrace& tr = st_->trace;
    for (int c = 0; c < tr.ncalls; ++c) {
      const InvocationTrace::Call& call = tr.calls[static_cast<usize>(c)];
      if (mode == kStatic) {
        dispatch_ns_.add(static_cast<double>(tr.dispatch_ns(call)));
        join_ns_.add(static_cast<double>(tr.join_ns(call)));
      }
      if (mode == kAidStatic) takes_.add(static_cast<double>(tr.chunks(call)));
    }
    if (mode == kChain)
      for (int e = 1; e < kSteps; ++e)
        chain_step_ns_.add(static_cast<double>(
            tr.entries[static_cast<usize>(e)].first_start() -
            tr.entries[static_cast<usize>(e - 1)].last_finish()));
    if (rounds_ % 512 == 1)  // a sample keeps the span file small
      report_.spans.add_invocation(
          std::string("fine_loops.") + kModeLabel[static_cast<usize>(mode)],
          tr);
  }

  const Options& opt_;
  aid::rt::Runtime& rt_;
  Report& report_;
  aid::Rng rng_;
  std::unique_ptr<State> st_;
  double reference_ = 0.0;
  std::array<ScheduleSpec, kModes> specs_;
  std::array<double, kSteps> t_{};
  // Step times per mode (chain: chain time / kSteps), untraced and traced.
  std::array<Samples, kModes> step_us_, traced_us_;
  Samples dispatch_ns_, join_ns_, takes_, chain_step_ns_, watchdog_arm_ns_;
  i64 mismatches_ = 0;
  i64 invocations_ = 0;
  i64 steps_ = 0;
  i64 rounds_ = 0;
  i64 ctx_ = 0;
};

void FineLoops::finish() {
  Report& report = report_;
  report.attempted += invocations_;
  report.failed += mismatches_;
  if (mismatches_ != 0) report.correct = false;

  for (int m = 0; m < kModes; ++m) {
    const Samples& s = step_us_[static_cast<usize>(m)];
    const std::string name =
        std::string("step_us.") + kModeLabel[static_cast<usize>(m)];
    // Arming wakes the watchdog's monitor thread, whose cost moves with
    // the host's wake-up latency: report it, do not gate on it.
    if (m == kDeadline)
      report.put_ungated(name, s.median(), "us", s.size());
    else
      report.put_e2e(name, s.median(), "us", s.size());
  }
  report.put_ungated("step_us_p99.static", step_us_[kStatic].quantile(0.99),
                     "us", step_us_[kStatic].size());
  report.facts["fine_loops"] = "{\"rounds\": " + std::to_string(rounds_) + "}";
  report.put_layer("os.ctx_switches_per_op.fine_loops",
                   static_cast<double>(ctx_) /
                       static_cast<double>(std::max<i64>(1, steps_)),
                   "count", static_cast<usize>(steps_));
  report.put_layer("rt.watchdog_arm_ns", watchdog_arm_ns_.median(), "ns",
                   watchdog_arm_ns_.size());
  if (!opt_.trace) return;

  std::vector<double> untraced, traced;
  for (int m = 0; m < kModes; ++m) {
    untraced.push_back(step_us_[static_cast<usize>(m)].median());
    traced.push_back(traced_us_[static_cast<usize>(m)].median());
  }
  report.put_layer("trace_overhead_pc.fine_loops",
                   100.0 * (geomean(traced) / geomean(untraced) - 1.0), "%",
                   traced_us_[kStatic].size());
  report.put_layer("rt.dispatch_ns.fine_loops", dispatch_ns_.median(), "ns",
                   dispatch_ns_.size());
  report.put_layer("rt.join_ns.fine_loops", join_ns_.median(), "ns",
                   join_ns_.size());
  report.put_layer("sched.takes_per_step", takes_.median(), "count",
                   takes_.size());
  report.put_layer("pipeline.chain_step_ns", chain_step_ns_.median(), "ns",
                   chain_step_ns_.size());
}

}  // namespace

std::unique_ptr<Section> make_fine_loops(const Options& opt,
                                         aid::rt::Runtime& rt,
                                         Report& report) {
  return std::make_unique<FineLoops>(opt, rt, report);
}

}  // namespace perfbench
