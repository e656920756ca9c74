// amp_kernels (closed loop): the five DataPar kernels at registry size
// (scale 1.0) under five schedules on the emulated AMP.
//
// Why this workload: its parallel regions take 0.3-15 ms, so how well a
// schedule splits the iterations between the 2x-faster big cores and the
// small ones dominates, and dispatch cost is noise. This is where `sched`
// changes show.
//
// Each kernel is the registry kernel of workloads/datapar.cc split in
// three: a constructor that generates the inputs, restore() that resets
// them from a pristine copy, and the timed run() — the parallel regions
// plus the serial work between them. Input generation, restore and the
// checksum stay outside the timed window. The reference checksum is the
// registry's own Workload::run_kernel at the same scale on a one-thread
// team, so these copies cannot drift from datapar.cc unnoticed.
#include <atomic>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "workloads/kernels.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

namespace kn = aid::workloads::kernels;
using aid::rt::RangeBody;
using aid::rt::WorkerInfo;
using aid::sched::ScheduleSpec;

constexpr usize kScheds = 5;

struct Sched {
  const char* label;
  ScheduleSpec spec;
  bool aid;  ///< reports an SF estimate
};

const std::array<Sched, kScheds>& schedules() {
  static const std::array<Sched, kScheds> s = {{
      {"static", ScheduleSpec::static_even(), false},
      {"dynamic", ScheduleSpec::dynamic(16), false},
      {"aid-static", ScheduleSpec::aid_static(), true},
      {"aid-hybrid", ScheduleSpec::aid_hybrid(), true},
      {"aid-dynamic", ScheduleSpec::aid_dynamic(1, 5), true},
  }};
  return s;
}

/// Where one invocation runs: untraced straight on the runtime, traced
/// through the stamping wrappers.
struct Invocation {
  aid::rt::Runtime& rt;
  usize sched;
  InvocationTrace* trace;  ///< null when untraced

  void loop(i64 count, const RangeBody& body) const {
    const ScheduleSpec& spec = schedules()[sched].spec;
    if (trace == nullptr)
      rt.run_loop(count, spec, body);
    else
      trace->loop(rt, count, spec, body);
  }
};

/// Kernels hand the runtime bodies that capture `this`: not copyable.
class Kernel {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  virtual ~Kernel() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  virtual void restore() = 0;
  virtual void run(const Invocation& inv) = 0;
  [[nodiscard]] virtual double checksum() const = 0;
};

class Histogram final : public Kernel {
 public:
  Histogram()
      : batch_(kn::KeyBatch::generate_skewed(kN, kBins, 2.0, 0x41)),
        bins_(kBins),
        body_([this](i64 b, i64 e, const WorkerInfo&) {
          kn::atomic_histogram_slice(batch_, bins_, b, e);
        }) {}
  const char* name() const override { return "histogram"; }
  void restore() override {
    for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
  }
  void run(const Invocation& inv) override { inv.loop(kN, body_); }
  double checksum() const override {
    double c = 0.0;
    for (usize k = 0; k < bins_.size(); ++k)
      c += static_cast<double>(bins_[k].load(std::memory_order_relaxed)) *
           static_cast<double>(k + 1);
    return c;
  }

 private:
  static constexpr i64 kN = 300000;
  static constexpr aid::i32 kBins = 256;
  kn::KeyBatch batch_;
  std::vector<std::atomic<i64>> bins_;
  RangeBody body_;
};

class Spmv final : public Kernel {
 public:
  Spmv()
      : a_(kn::CsrMatrix::random_irregular(kRows, 16, 0x5B)),
        x0_(static_cast<usize>(kRows)),
        body_([this](i64 b, i64 e, const WorkerInfo&) {
          for (i64 row = b; row < e; ++row)
            y_[static_cast<usize>(row)] = kn::spmv_row(a_, x_, row);
        }) {
    for (i64 i = 0; i < kRows; ++i)
      x0_[static_cast<usize>(i)] = 1.0 + 0.25 * static_cast<double>(i % 11);
  }
  const char* name() const override { return "spmv"; }
  void restore() override {
    x_ = x0_;
    y_.assign(static_cast<usize>(kRows), 0.0);
  }
  void run(const Invocation& inv) override {
    for (int it = 0; it < 2; ++it) {
      inv.loop(kRows, body_);
      for (i64 i = 0; i < kRows; ++i)
        x_[static_cast<usize>(i)] += 0.01 * y_[static_cast<usize>(i)];
    }
  }
  double checksum() const override {
    double c = 0.0;
    for (double v : y_) c += v;
    return c;
  }

 private:
  static constexpr i64 kRows = 20000;
  kn::CsrMatrix a_;
  std::vector<double> x0_, x_, y_;
  RangeBody body_;
};

/// Two-phase scan as a dependent chain (upsweep -> serial combine ->
/// downsweep). One chain per schedule is built up front, plus a stamped
/// twin whose bodies write into the section's InvocationTrace.
class Scan final : public Kernel {
 public:
  explicit Scan(InvocationTrace& trace)
      : x_(kn::signal_vector(kN, 0x5C)),
        block_sums_(static_cast<usize>(kBlocks)),
        offsets_(static_cast<usize>(kBlocks)),
        out_(static_cast<usize>(kN)) {
    up_ = [this](i64 b, i64 e, const WorkerInfo&) {
      for (i64 blk = b; blk < e; ++blk)
        block_sums_[static_cast<usize>(blk)] = kn::range_sum(
            x_, blk * kBlock, std::min(kN, (blk + 1) * kBlock));
    };
    combine_ = [this](i64, i64, const WorkerInfo&) {
      double acc = 0.0;
      for (i64 b = 0; b < kBlocks; ++b) {
        offsets_[static_cast<usize>(b)] = acc;
        acc += block_sums_[static_cast<usize>(b)];
      }
    };
    down_ = [this](i64 b, i64 e, const WorkerInfo&) {
      for (i64 blk = b; blk < e; ++blk)
        kn::inclusive_scan_apply(x_, offsets_[static_cast<usize>(blk)], out_,
                                 blk * kBlock,
                                 std::min(kN, (blk + 1) * kBlock));
    };
    for (usize s = 0; s < kScheds; ++s) {
      const ScheduleSpec& spec = schedules()[s].spec;
      const auto build = [&](const RangeBody& u, const RangeBody& c,
                             const RangeBody& d) {
        aid::pipeline::LoopChain chain;
        const int e0 = chain.add(kBlocks, spec, u);
        const int e1 =
            chain.add_after(e0, 1, ScheduleSpec::static_even(), c);
        chain.add_after(e1, kBlocks, spec, d);
        return chain;
      };
      plain_[s] = build(up_, combine_, down_);
      // The stamped bodies refer to the members, which live as long as
      // the chains.
      traced_[s] = build(stamped(up_, trace.entries[0]),
                         stamped(combine_, trace.entries[1]),
                         stamped(down_, trace.entries[2]));
    }
  }
  const char* name() const override { return "scan"; }
  void restore() override {
    std::fill(block_sums_.begin(), block_sums_.end(), 0.0);
    std::fill(offsets_.begin(), offsets_.end(), 0.0);
    std::fill(out_.begin(), out_.end(), 0.0);
  }
  void run(const Invocation& inv) override {
    if (inv.trace == nullptr)
      inv.rt.run_chain(plain_[inv.sched]);
    else
      inv.trace->chain(inv.rt, traced_[inv.sched], 3);
  }
  double checksum() const override {
    double c = out_[static_cast<usize>(kN - 1)];
    for (i64 i = 0; i < kN; i += 97) c += out_[static_cast<usize>(i)];
    return c;
  }
  /// The combine entry is serial work inside the chain.
  static constexpr int kSerialEntry = 1;

 private:
  static constexpr i64 kN = 250000;
  static constexpr i64 kBlock = 512;
  static constexpr i64 kBlocks = (kN + kBlock - 1) / kBlock;
  std::vector<double> x_, block_sums_, offsets_, out_;
  RangeBody up_, combine_, down_;
  std::array<aid::pipeline::LoopChain, kScheds> plain_, traced_;
};

class Transpose final : public Kernel {
 public:
  Transpose()
      : in_(kn::signal_vector(kRows * kCols, 0x72)),
        body_([this](i64 b, i64 e, const WorkerInfo&) {
          kn::transpose_rows(in_, out_, kRows, kCols, b, e);
        }) {}
  const char* name() const override { return "transpose"; }
  void restore() override { out_.assign(in_.size(), 0.0); }
  void run(const Invocation& inv) override { inv.loop(kRows, body_); }
  double checksum() const override {
    double c = 0.0;
    for (usize k = 0; k < out_.size(); ++k)
      c += out_[k] * static_cast<double>(k % 13 + 1);
    return c;
  }

 private:
  static constexpr i64 kRows = 768;
  static constexpr i64 kCols = kRows / 2;
  std::vector<double> in_, out_;
  RangeBody body_;
};

class Stencil2d final : public Kernel {
 public:
  Stencil2d()
      : pristine_(kn::Grid2D::generate(kSide, kSide, 0x5D)),
        bodies_{[this](i64 b, i64 e, const WorkerInfo&) {
                  for (i64 row = b; row < e; ++row)
                    kn::stencil2d_row(a_, b_, row, 0.18);
                },
                [this](i64 b, i64 e, const WorkerInfo&) {
                  for (i64 row = b; row < e; ++row)
                    kn::stencil2d_row(b_, a_, row, 0.18);
                }} {}
  const char* name() const override { return "stencil2d"; }
  void restore() override {
    a_ = pristine_;
    b_ = pristine_;
  }
  void run(const Invocation& inv) override {
    for (int sweep = 0; sweep < 4; ++sweep) inv.loop(kSide, bodies_[sweep % 2]);
  }
  double checksum() const override {
    double c = 0.0;
    for (double v : a_.cells) c += v;
    return c;
  }

 private:
  static constexpr i64 kSide = 512;
  kn::Grid2D pristine_, a_, b_;
  std::array<RangeBody, 2> bodies_;
};

constexpr usize kKernels = 5;

/// Per (kernel, schedule) cell: invocation times, untraced and traced.
struct Cell {
  Samples ms, traced_ms;
};

/// Per-layer samples of the traced invocations.
struct LayerSamples {
  std::array<Samples, kScheds> imbalance, sf, chunks, removals;
  std::array<double, kScheds> big_iters{}, all_iters{};
  std::array<std::array<Samples, kScheds>, kKernels> region_ms;
  std::array<Samples, kKernels> busy_ms, serial_ms;
  Samples dispatch_ns, join_ns, combine_gap_us;
};

void record_traced(const InvocationTrace& t, usize k, usize s,
                   double inv_ms, LayerSamples& L) {
  const bool is_scan = k == 2;
  Nanos in_calls = 0;
  for (int i = 0; i < t.ncalls; ++i) {
    const InvocationTrace::Call& c = t.calls[static_cast<usize>(i)];
    L.region_ms[k][s].add(static_cast<double>(c.ret - c.call) / 1e6);
    L.imbalance[s].add(t.imbalance_pc(c));
    L.chunks[s].add(static_cast<double>(t.chunks(c)));
    L.removals[s].add(static_cast<double>(c.stats.pool_removals));
    if (schedules()[s].aid) L.sf[s].add(c.stats.estimated_sf);
    L.dispatch_ns.add(static_cast<double>(t.dispatch_ns(c)));
    L.join_ns.add(static_cast<double>(t.join_ns(c)));
    in_calls += c.ret - c.call;
  }
  Nanos busy = 0;
  Nanos serial_inside = 0;
  for (int e = 0; e < t.nentries; ++e) {
    const RegionTrace& r = t.entries[static_cast<usize>(e)];
    if (is_scan && e == Scan::kSerialEntry) {
      serial_inside += r.busy();
      continue;
    }
    busy += r.busy();
    L.big_iters[s] += static_cast<double>(r.iters(1));
    L.all_iters[s] += static_cast<double>(r.iters());
  }
  if (is_scan)
    L.combine_gap_us.add(
        static_cast<double>(t.entries[2].first_start() -
                            t.entries[0].last_finish()) / 1e3);
  // Busy and serial time from the static invocations only, so a change
  // to another schedule cannot move them.
  if (s == 0) {
    L.busy_ms[k].add(static_cast<double>(busy) / 1e6);
    L.serial_ms[k].add(inv_ms -
                       static_cast<double>(in_calls - serial_inside) / 1e6);
  }
}

/// The kernels' inputs and the trace storage the stamped chains point at.
struct State {
  InvocationTrace trace;
  std::array<std::unique_ptr<Kernel>, kKernels> kernels;

  State() {
    kernels[0] = std::make_unique<Histogram>();
    kernels[1] = std::make_unique<Spmv>();
    kernels[2] = std::make_unique<Scan>(trace);
    kernels[3] = std::make_unique<Transpose>();
    kernels[4] = std::make_unique<Stencil2d>();
  }
  State(const State&) = delete;
  State& operator=(const State&) = delete;
};

class AmpKernels final : public Section {
 public:
  AmpKernels(const Options& opt, aid::rt::Runtime& rt, Report& report)
      : opt_(opt), rt_(rt), report_(report),
        rng_(opt.seed ^ 0xA3B5C7D9E1F20304ULL) {
    st_ = std::make_unique<State>();

    // Serial references: the registry kernels on a one-thread team.
    aid::rt::Team serial(aid::platform::symmetric(1), 1,
                         aid::platform::Mapping::kSmallFirst,
                         /*emulate_amp=*/false);
    for (usize k = 0; k < kKernels; ++k) {
      const auto* w = aid::workloads::find_workload(st_->kernels[k]->name());
      AID_CHECK(w != nullptr && w->has_kernel());
      reference_[k] = w->run_kernel(serial, ScheduleSpec::static_even(), 1.0);
    }

    // Warm-up round: caches, scheduler caches and lazy state, not timed.
    for (usize k = 0; k < kKernels; ++k)
      for (usize s = 0; s < kScheds; ++s) invoke(k, s, false);
    invocations_ = 0;
  }

  const char* name() const override { return "amp_kernels"; }
  double time_setup() const override {
    return time_build([] { return std::make_unique<State>(); });
  }

  void run_slice(Nanos budget_ns) override {
    const i64 ctx0 = process_ctx_switches();
    const Nanos end = now_ns() + budget_ns;
    do {
      // In the traced run every other round is traced, so both halves see
      // the same machine state and their difference is the trace overhead.
      const bool traced = opt_.trace && rounds_ % 2 == 1;
      for (usize k = 0; k < kKernels; ++k)
        for (const int si : round_order<kScheds>(rng_)) {
          const usize s = static_cast<usize>(si);
          const double ms = invoke(k, s, traced);
          if (!traced) {
            cells_[k][s].ms.add(ms);
            continue;
          }
          cells_[k][s].traced_ms.add(ms);
          record_traced(st_->trace, k, s, ms, layer_);
          if (rounds_ % 8 == 1)  // a sample keeps the span file small
            report_.spans.add_invocation(
                std::string("amp_kernels.") + st_->kernels[k]->name() + "." +
                    schedules()[s].label,
                st_->trace);
        }
      ++rounds_;
    } while (now_ns() < end);
    ctx_ += process_ctx_switches() - ctx0;
  }

  void finish() override;

 private:
  double invoke(usize k, usize s, bool traced) {
    Kernel& kernel = *st_->kernels[k];
    kernel.restore();
    InvocationTrace* trace = nullptr;
    if (traced) {
      st_->trace.clear();
      trace = &st_->trace;
    }
    const Nanos t0 = now_ns();
    kernel.run(Invocation{rt_, s, trace});
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    ++invocations_;
    if (kernel.checksum() != reference_[k]) {
      ++mismatches_;
      std::fprintf(stderr, "amp_kernels: %s/%s checksum %.17g != %.17g\n",
                   kernel.name(), schedules()[s].label, kernel.checksum(),
                   reference_[k]);
    }
    return ms;
  }

  const Options& opt_;
  aid::rt::Runtime& rt_;
  Report& report_;
  aid::Rng rng_;
  std::unique_ptr<State> st_;
  std::array<double, kKernels> reference_{};
  std::array<std::array<Cell, kScheds>, kKernels> cells_;
  LayerSamples layer_;
  i64 mismatches_ = 0;
  i64 invocations_ = 0;
  i64 rounds_ = 0;
  i64 ctx_ = 0;
};

void AmpKernels::finish() {
  Report& report = report_;
  const LayerSamples& L = layer_;
  report.attempted += invocations_;
  report.failed += mismatches_;
  if (mismatches_ != 0) report.correct = false;

  // End to end: geometric mean over the kernels of the median invocation.
  std::vector<double> all_untraced, all_traced;
  for (usize s = 0; s < kScheds; ++s) {
    std::vector<double> medians;
    usize n = 0;
    for (usize k = 0; k < kKernels; ++k) {
      medians.push_back(cells_[k][s].ms.median());
      all_untraced.push_back(cells_[k][s].ms.median());
      n += cells_[k][s].ms.size();
      if (opt_.trace) all_traced.push_back(cells_[k][s].traced_ms.median());
    }
    report.put_e2e(std::string("kernel_ms.") + schedules()[s].label,
                   geomean(medians), "ms", n);
  }
  const double g_static = report.e2e["kernel_ms.static"].value;
  report.facts["amp_kernels"] =
      "{\"rounds\": " + std::to_string(rounds_) +
      ", \"aid_static_beats_static\": " +
      (report.e2e["kernel_ms.aid-static"].value < g_static ? "true"
                                                          : "false") +
      "}";
  report.put_layer("os.ctx_switches_per_op.amp_kernels",
                   static_cast<double>(ctx_) /
                       static_cast<double>(std::max<i64>(1, invocations_)),
                   "count", static_cast<usize>(invocations_));
  if (!opt_.trace) return;

  report.put_layer("trace_overhead_pc.amp_kernels",
                   100.0 * (geomean(all_traced) / geomean(all_untraced) - 1.0),
                   "%", all_traced.size());
  for (usize s = 0; s < kScheds; ++s) {
    const std::string lbl = schedules()[s].label;
    report.put_layer("sched.imbalance_pc." + lbl, L.imbalance[s].median(), "%",
                     L.imbalance[s].size());
    report.put_layer("sched.big_share_pc." + lbl,
                     100.0 * L.big_iters[s] / L.all_iters[s], "%",
                     L.chunks[s].size());
    if (schedules()[s].aid)
      report.put_layer("sched.sf_est." + lbl, L.sf[s].median(), "ratio",
                       L.sf[s].size());
    report.put_layer("sched.chunks_per_region." + lbl, L.chunks[s].median(),
                     "count", L.chunks[s].size());
    report.put_layer("sched.pool_removals." + lbl, L.removals[s].median(),
                     "count", L.removals[s].size());
    for (usize k = 0; k < kKernels; ++k)
      report.put_layer(std::string("kernel_region_ms.") +
                           st_->kernels[k]->name() + "." + lbl,
                       L.region_ms[k][s].median(), "ms",
                       L.region_ms[k][s].size());
  }
  for (usize k = 0; k < kKernels; ++k) {
    const std::string name = st_->kernels[k]->name();
    report.put_layer("workloads.busy_ms." + name, L.busy_ms[k].median(), "ms",
                     L.busy_ms[k].size());
    report.put_layer("workloads.serial_ms." + name, L.serial_ms[k].median(),
                     "ms", L.serial_ms[k].size());
  }
  report.put_layer("rt.dispatch_ns.amp_kernels", L.dispatch_ns.median(), "ns",
                   L.dispatch_ns.size());
  report.put_layer("rt.join_ns.amp_kernels", L.join_ns.median(), "ns",
                   L.join_ns.size());
  report.put_layer("pipeline.combine_gap_us", L.combine_gap_us.median(), "us",
                   L.combine_gap_us.size());
}

}  // namespace

std::unique_ptr<Section> make_amp_kernels(const Options& opt,
                                          aid::rt::Runtime& rt,
                                          Report& report) {
  return std::make_unique<AmpKernels>(opt, rt, report);
}

}  // namespace perfbench
