// served_jobs (open loop): Poisson arrivals drawn from the seed, sent over
// three socket IngressClients, one per QoS tenant, into an in-process
// ServeNode + IngressServer on the emulated AMP. Every job asks for
// aid-static and carries its class's whole-life deadline. The mix is 60%
// latency-class EP/2048, 30% normal-class spmv/8192 and 10% batch-class
// stencil2d/65536.
//
// Why this workload: the kernels are small, so `ingress` (wire, socket
// server, client), `serve` (admission, QoS, dispatch) and `pool` (leases)
// do the work. The rate is fixed at about half of the measured capacity,
// where queues form without a growing backlog. The shared-memory ring is
// left out on purpose: the socket is the data plane every client has.
//
// The generator is this one thread. It sleeps until the next due time (or
// the next harvest tick while jobs are outstanding) instead of spinning,
// because a spinning generator takes a vCPU from the workers. Each job is
// timed from its due time to the harvest of its terminal frame, so a stall
// also charges the jobs queued behind it.
#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "ingress/ingress_client.h"
#include "ingress/ingress_server.h"
#include "serve/serve_node.h"
#include "workloads/serve_kernel.h"

namespace perfbench {
namespace {

using aid::ingress::IngressClient;
using aid::serve::QosClass;

/// Arrivals per second, about half of the capacity measured on a 4-vCPU
/// host (see perfbench/README.md).
constexpr double kRatePerS = 250.0;
/// Harvest period while jobs are outstanding.
constexpr Nanos kTickNs = 100'000;
/// How long outstanding jobs may take to come back after a window.
constexpr Nanos kDrainNs = 5'000'000'000;

struct JobKind {
  QosClass qos;
  const char* tenant;
  const char* workload;
  i64 count;
  i64 deadline_ns;
  double share;
};

/// The deadlines sit far above the measured tail (p99 about 10 ms, with
/// host stalls past 100 ms now and then): every job arms one, and only a
/// real failure reaches it.
constexpr usize kKinds = 3;
constexpr std::array<JobKind, kKinds> kKind = {{
    {QosClass::kLatency, "qos-latency", "EP", 2048, 250'000'000, 0.6},
    {QosClass::kNormal, "qos-normal", "spmv", 8192, 1'000'000'000, 0.3},
    {QosClass::kBatch, "qos-batch", "stencil2d", 65536, 4'000'000'000, 0.1},
}};

/// The served node; members are destroyed in reverse: clients, server,
/// node (the server borrows the node).
struct Node {
  aid::serve::ServeNode node;
  aid::ingress::IngressServer server;
  std::vector<IngressClient> clients;

  static aid::serve::ServeNode::Config node_config() {
    aid::serve::ServeNode::Config c;
    c.emulate_amp = true;
    return c;
  }
  static aid::ingress::IngressServer::Config server_config(
      const std::string& path) {
    aid::ingress::IngressServer::Config c;
    c.socket_path = path;
    c.credit_window = 32;
    c.shm_submit_slots = 0;  // socket data plane only
    c.shm_hot_ns = 0;
    return c;
  }

  explicit Node(const std::string& path)
      : node(bench_platform(), node_config()),
        server(node, server_config(path)) {
    for (const JobKind& k : kKind) {
      std::string err;
      auto c = IngressClient::connect(path, k.tenant, &err);
      if (!c) throw std::runtime_error("served_jobs: connect: " + err);
      clients.push_back(std::move(*c));
    }
  }
};

IngressClient::Request request_of(const JobKind& k) {
  IngressClient::Request r;
  r.workload = k.workload;
  r.count = k.count;
  r.qos = k.qos;
  r.deadline_ns = k.deadline_ns;
  r.sched = aid::sched::ScheduleKind::kAidStatic;
  return r;
}

double local_checksum(const JobKind& k) {
  std::string err;
  auto kernel = aid::workloads::make_serve_kernel(k.workload, k.count, &err);
  if (!kernel) throw std::runtime_error("served_jobs: " + err);
  kernel->body(0, kernel->count, aid::rt::WorkerInfo{});
  return kernel->checksum();
}

struct Job {
  usize kind = 0;
  Nanos due = 0;
  bool traced = false;
  bool sent = false;
  bool harvested = false;
  u64 req = 0;
  Nanos submit0 = 0;  ///< before try_submit
  Nanos submit1 = 0;  ///< after it (traced jobs only)
  Nanos harvest = 0;
  IngressClient::Result res;
};

std::array<aid::serve::ClassStats, kKinds> class_stats(
    const aid::serve::ServeNode& node) {
  std::array<aid::serve::ClassStats, kKinds> s;
  for (usize c = 0; c < kKinds; ++c) s[c] = node.class_stats(kKind[c].qos);
  return s;
}

class ServedJobs final : public Section {
 public:
  ServedJobs(const Options& opt, Report& report)
      : opt_(opt), report_(report), rng_(opt.seed ^ 0x0A5E7B1D2C3F4E5DULL) {
    for (usize k = 0; k < kKinds; ++k) {
      reference_[k] = local_checksum(kKind[k]);
      requests_[k] = request_of(kKind[k]);
    }
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // wake on time, not +50 µs
  }

  const char* name() const override { return "served_jobs"; }
  double time_setup() const override {
    return time_build([this] { return std::make_unique<Node>(socket_path()); });
  }

  /// One arrival window of `window` ns (the arrivals come from the seeded
  /// stream), then the drain of every job still outstanding. The node
  /// lives only for the slice: an idle node's threads would otherwise
  /// share the vCPUs with the loop workloads' slices.
  void run_slice(Nanos window) override {
    start_node();
    const usize first = jobs_.size();
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng_.next_double()) / kRatePerS * 1e9;
      if (t >= static_cast<double>(window)) break;
      const double u = rng_.next_double();
      Job j;
      j.kind = u < kKind[0].share ? 0
               : u < kKind[0].share + kKind[1].share ? 1 : 2;
      j.due = static_cast<Nanos>(t);
      j.traced = opt_.trace && jobs_.size() % 2 == 1;
      jobs_.push_back(j);
    }

    const i64 ctx0 = process_ctx_switches();
    const Nanos start = now_ns() + 1'000'000;
    for (usize i = first; i < jobs_.size(); ++i) jobs_[i].due += start;
    std::vector<usize> outstanding;
    usize next = first;
    bool window_over = false;
    for (;;) {
      Nanos now = now_ns();
      for (; next < jobs_.size() && jobs_[next].due <= now; ++next) {
        Job& j = jobs_[next];
        j.submit0 = now_ns();
        j.sent = n_->clients[j.kind].try_submit(requests_[j.kind], &j.req);
        if (j.traced) j.submit1 = now_ns();
        if (j.sent) outstanding.push_back(next);
        const Nanos offset = j.due - start;
        if (offset < window / 2)
          backlog_first_half_.add(static_cast<double>(outstanding.size()));
        else if (offset >= window - window / 4)
          backlog_last_quarter_.add(static_cast<double>(outstanding.size()));
        now = now_ns();
      }
      if (next == jobs_.size() && !window_over) {
        window_over = true;
        backlog_end_ =
            std::max(backlog_end_, static_cast<i64>(outstanding.size()));
      }
      harvest(outstanding);
      if (next == jobs_.size() && outstanding.empty()) break;
      if (now > start + window + kDrainNs) break;
      Nanos wake = next < jobs_.size() ? jobs_[next].due : now + kTickNs;
      if (!outstanding.empty()) wake = std::min(wake, now + kTickNs);
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::max<Nanos>(0, wake - now_ns())));
    }
    ctx_ += process_ctx_switches() - ctx0;
    stop_node();
  }

  void finish() override;

 private:
  std::string socket_path() const {
    return opt_.out_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  }

  /// Build the node and warm it up with closed-loop jobs: connections,
  /// leases and code paths, all outside the measured window.
  void start_node() {
    n_ = std::make_unique<Node>(socket_path());
    for (int rep = 0; rep < 3; ++rep)
      for (usize k = 0; k < kKinds; ++k) {
        IngressClient& c = n_->clients[k];
        const u64 id = c.submit(requests_[k]);
        const IngressClient::Result r = c.wait(id);
        if (id == 0 || !r.transport_ok ||
            r.status != aid::serve::JobStatus::kDone)
          throw std::runtime_error("served_jobs: warm-up job failed: " +
                                   r.message);
      }
    stats0_ = class_stats(n_->node);
  }

  /// Add the slice's ClassStats deltas to the run's, then drop the node.
  void stop_node() {
    const auto stats1 = class_stats(n_->node);
    for (usize c = 0; c < kKinds; ++c) {
      rejected_ += stats1[c].rejected - stats0_[c].rejected;
      expired_q_ += stats1[c].expired_in_queue - stats0_[c].expired_in_queue;
      expired_run_ += stats1[c].expired_running - stats0_[c].expired_running;
      reused_ += stats1[c].lease_reused - stats0_[c].lease_reused;
      dispatched_ += stats1[c].dispatched - stats0_[c].dispatched;
    }
    n_.reset();
  }

  void harvest(std::vector<usize>& outstanding) {
    for (usize i = 0; i < outstanding.size();) {
      Job& j = jobs_[outstanding[i]];
      IngressClient& c = n_->clients[j.kind];
      auto r = c.try_take(j.req);
      if (!r && c.ok()) {
        ++i;
        continue;
      }
      j.harvest = now_ns();
      j.harvested = r.has_value();
      if (r) j.res = std::move(*r);
      outstanding[i] = outstanding.back();
      outstanding.pop_back();
    }
  }

  const Options& opt_;
  Report& report_;
  aid::Rng rng_;
  std::unique_ptr<Node> n_;
  std::array<double, kKinds> reference_{};
  std::array<IngressClient::Request, kKinds> requests_;
  std::array<aid::serve::ClassStats, kKinds> stats0_;
  u64 rejected_ = 0, expired_q_ = 0, expired_run_ = 0, reused_ = 0,
      dispatched_ = 0;
  std::vector<Job> jobs_;
  Samples backlog_first_half_, backlog_last_quarter_;
  i64 backlog_end_ = 0;
  i64 ctx_ = 0;
};

void ServedJobs::finish() {
  Report& report = report_;
  // Outcomes: done, checksum equal to the local serial run, and back
  // within the class deadline; everything else misses.
  std::array<Samples, kKinds> latency_ms, queue_ms, service_ms, wire_us;
  Samples traced_lat, untraced_lat, late_ms, submit_us;
  i64 ok = 0;
  i64 wrong = 0;
  std::map<std::string, i64> misses;  // by reason
  for (const Job& j : jobs_) {
    late_ms.add(static_cast<double>(j.submit0 - j.due) / 1e6);
    if (!j.sent || !j.harvested || !j.res.transport_ok) {
      ++misses[!j.sent ? "unsent" : "transport"];
      continue;
    }
    if (j.res.status != aid::serve::JobStatus::kDone) {
      ++misses[aid::serve::to_string(j.res.status)];
      continue;
    }
    const JobKind& k = kKind[j.kind];
    if (j.res.checksum != reference_[j.kind]) {
      ++wrong;
      std::fprintf(stderr, "served_jobs: %s/%lld checksum %.17g != %.17g\n",
                   k.workload, static_cast<long long>(k.count),
                   j.res.checksum, reference_[j.kind]);
      continue;
    }
    const Nanos lat = j.harvest - j.due;
    latency_ms[j.kind].add(static_cast<double>(lat) / 1e6);
    queue_ms[j.kind].add(static_cast<double>(j.res.queue_wait_ns) / 1e6);
    service_ms[j.kind].add(static_cast<double>(j.res.service_ns) / 1e6);
    if (lat <= k.deadline_ns)
      ++ok;
    else
      ++misses["late"];
    if (j.kind == 0)
      (j.traced ? traced_lat : untraced_lat)
          .add(static_cast<double>(lat) / 1e6);
    if (j.traced) {
      submit_us.add(static_cast<double>(j.submit1 - j.submit0) / 1e3);
      wire_us[j.kind].add(static_cast<double>(j.harvest - j.submit0 -
                                              j.res.queue_wait_ns -
                                              j.res.service_ns) / 1e3);
    }
  }
  const i64 total = static_cast<i64>(jobs_.size());
  report.attempted += total;
  report.failed += total - ok;
  if (wrong != 0) report.correct = false;

  // Open-loop validity: a backlog that keeps growing means the latencies
  // measure the length of the run, not the system.
  const double early = backlog_first_half_.mean();
  const double late = backlog_last_quarter_.mean();
  if (late > 2.0 * early + 4.0) {
    report.valid = false;
    report.invalid_reason =
        "served_jobs backlog grew: mean " + std::to_string(early) +
        " jobs in the first half, " + std::to_string(late) +
        " in the last quarter";
  }
  std::string miss_json;
  for (const auto& [reason, count] : misses)
    miss_json += (miss_json.empty() ? "\"" : ", \"") + reason +
                 "\": " + std::to_string(count);
  report.facts["served_jobs"] =
      "{\"jobs\": " + std::to_string(total) + ", \"ok\": " +
      std::to_string(ok) + ", \"rate_per_s\": " + std::to_string(kRatePerS) +
      ", \"backlog_mean_first_half\": " + std::to_string(early) +
      ", \"backlog_mean_last_quarter\": " + std::to_string(late) +
      ", \"misses\": {" + miss_json + "}}";

  report.put_ungated("job_p50_ms.qos-latency", latency_ms[0].median(), "ms",
                     latency_ms[0].size());
  report.put_ungated("job_p99_ms.qos-latency", latency_ms[0].quantile(0.99),
                     "ms", latency_ms[0].size());
  report.put_ungated("job_p50_ms.qos-batch", latency_ms[2].median(), "ms",
                     latency_ms[2].size());
  report.put_e2e("job_ok_pc",
                 100.0 * static_cast<double>(ok) /
                     static_cast<double>(std::max<i64>(1, total)),
                 "%", jobs_.size());

  for (usize c = 0; c < kKinds; ++c) {
    const std::string cls = aid::serve::to_string(kKind[c].qos);
    report.put_layer("serve.queue_wait_ms." + cls, queue_ms[c].median(), "ms",
                     queue_ms[c].size());
    report.put_layer("serve.queue_wait_ms_p99." + cls,
                     queue_ms[c].quantile(0.99), "ms", queue_ms[c].size());
    report.put_layer("serve.service_ms." + cls, service_ms[c].median(), "ms",
                     service_ms[c].size());
    if (opt_.trace)
      report.put_layer("ingress.wire_us." + cls, wire_us[c].median(), "us",
                       wire_us[c].size());
  }
  report.put_layer("serve.rejected", static_cast<double>(rejected_), "count",
                   jobs_.size());
  report.put_layer("serve.expired_in_queue", static_cast<double>(expired_q_),
                   "count", jobs_.size());
  report.put_layer("serve.expired_running", static_cast<double>(expired_run_),
                   "count", jobs_.size());
  report.put_layer("pool.lease_reuse_pc",
                   100.0 * static_cast<double>(reused_) /
                       static_cast<double>(std::max<u64>(1, dispatched_)),
                   "%", dispatched_);
  report.put_layer("os.ctx_switches_per_op.served_jobs",
                   static_cast<double>(ctx_) /
                       static_cast<double>(std::max<i64>(1, total)),
                   "count", jobs_.size());
  report.put_layer("gen.late_ms_p99", late_ms.quantile(0.99), "ms",
                   late_ms.size());
  report.put_layer("gen.backlog_end", static_cast<double>(backlog_end_),
                   "count", 1);
  if (opt_.trace) {
    report.put_layer("ingress.submit_us", submit_us.median(), "us",
                     submit_us.size());
    report.put_layer(
        "trace_overhead_pc.served_jobs",
        100.0 * (traced_lat.median() / untraced_lat.median() - 1.0), "%",
        traced_lat.size());
    for (const Job& j : jobs_) {
      if (!j.traced || !j.sent) continue;
      const i64 id = report.spans.add(
          std::string("served_jobs.job.") + kKind[j.kind].tenant, -1, j.due,
          j.harvest);
      if (id < 0) break;
      report.spans.add("ingress.try_submit", id, j.submit0, j.submit1);
    }
  }
}

}  // namespace

std::unique_ptr<Section> make_served_jobs(const Options& opt,
                                          Report& report) {
  return std::make_unique<ServedJobs>(opt, report);
}

}  // namespace perfbench
