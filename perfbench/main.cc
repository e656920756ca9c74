// The libaid benchmark: one binary runs all three workloads (amp_kernels,
// fine_loops, served_jobs) on the emulated AMP and prints every metric.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--source-digest <hash>]
//
// Every run measures all three, so every run reports every metric: in
// cycles of short slices, interleaved, where the named workload's slice is
// twice as long as the others' (half of the measured time). With --trace 0
// the loop bodies run unwrapped; with --trace 1 every other round (every
// other job) runs with chunk stamps, the per-layer metrics come from those,
// and the spans are written to <out-dir> once the run is over.
//
// Output: a report line with provenance, facts and every metric with its
// sample count, then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Exit codes: 0 success,
// 1 a checksum mismatch (the result is still printed), 2 bad usage or an
// AID_* variable in the environment, 3 an open-loop run whose backlog grew,
// 4 any other failure.
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "bench.h"
#include "harness/sysinfo.h"

extern char** environ;

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + '"';
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Report::Metric>& m,
                         bool with_samples) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit);
    if (with_samples)
      out += ", \"samples\": " + std::to_string(metric.samples);
    out += "}";
  }
  return out + "}";
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      opt.trace = val == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else if (key == "--source-digest") {
      opt.source_digest = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (opt.workload == "amp_kernels" || opt.workload == "fine_loops" ||
          opt.workload == "served_jobs");
}

/// AID_SHARDS, AID_FAULT and others are re-read per construct and would
/// silently change the measured program, so none may be set.
std::string aid_variable_set() {
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "AID_", 4) == 0) return *e;
  return "";
}

int run(const Options& opt) {
  Report report;
  // The runtime every loop workload shares: explicit config, no env.
  aid::rt::RuntimeConfig cfg;
  cfg.num_threads = kThreads;
  cfg.mapping = aid::platform::Mapping::kBigFirst;
  cfg.emulate_amp = true;
  const auto build_runtime = [&cfg] {
    return std::make_unique<aid::rt::Runtime>(bench_platform(), cfg);
  };
  std::unique_ptr<aid::rt::Runtime> rt = build_runtime();
  std::array<std::unique_ptr<Section>, 3> sections = {
      make_amp_kernels(opt, *rt, report), make_fine_loops(opt, *rt, report),
      make_served_jobs(opt, report)};

  // Cycles of slices: the named workload's slice is two units, the others'
  // one, so it gets half of the measured time and each section samples
  // the host across the whole run. Each cycle also times one set-up of
  // every part (the runtime and each section's state); setup_s is the sum
  // of the per-part medians.
  const i64 cycles = std::max<i64>(1, std::lround(opt.seconds / 4.0));
  const double unit_s = opt.seconds / (4.0 * static_cast<double>(cycles));
  std::array<Samples, 4> setup;  // runtime, then the sections in order
  for (i64 c = 0; c < cycles; ++c) {
    setup[0].add(time_build(build_runtime));
    for (usize i = 0; i < sections.size(); ++i)
      setup[i + 1].add(sections[i]->time_setup());
    for (const auto& s : sections)
      s->run_slice(static_cast<Nanos>(
          unit_s * (s->name() == opt.workload ? 2.0 : 1.0) * 1e9));
  }
  for (const auto& s : sections) s->finish();
  double setup_s = 0.0;
  for (const Samples& part : setup) setup_s += part.median();
  report.put_e2e("setup_s", setup_s, "s", setup[0].size());

  std::string spans = "null";
  if (opt.trace) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".jsonl";
    const bool ok = report.spans.write(path);
    spans = "{\"file\": " + json_string(path) + ", \"written\": " +
            (ok ? std::to_string(report.spans.size()) : "0") +
            ", \"dropped\": " + std::to_string(report.spans.dropped()) + "}";
  }

  for (const auto* m : {&report.e2e, &report.ungated, &report.layer})
    for (const auto& [name, metric] : *m)
      if (!std::isfinite(metric.value)) {
        std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                     name.c_str());
        return 4;
      }

  std::string facts = "{";
  for (const auto& [key, json] : report.facts) {
    if (facts.size() > 1) facts += ", ";
    facts += json_string(key) + ": " + json;
  }
  facts += "}";
  std::printf(
      "{\"report\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %s, \"provenance\": {\"sysinfo\": %s, \"source_digest\": "
      "%s}, \"setup_s\": {\"runtime\": %s, \"amp_kernels\": %s, "
      "\"fine_loops\": %s, \"served_jobs\": %s}, \"facts\": %s, "
      "\"valid\": %s, \"spans\": %s, \"end_to_end\": %s, \"ungated\": %s, "
      "\"per_layer\": %s}}\n",
      json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      json_number(opt.seconds).c_str(), opt.trace ? "true" : "false",
      aid::harness::sysinfo_json(aid::harness::collect_sysinfo()).c_str(),
      json_string(opt.source_digest).c_str(),
      json_number(setup[0].median()).c_str(),
      json_number(setup[1].median()).c_str(),
      json_number(setup[2].median()).c_str(),
      json_number(setup[3].median()).c_str(), facts.c_str(),
      report.valid ? "true" : "false", spans.c_str(),
      metrics_json(report.e2e, true).c_str(),
      metrics_json(report.ungated, true).c_str(),
      metrics_json(report.layer, true).c_str());
  if (!report.valid) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n",
                 report.invalid_reason.c_str());
    return 3;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed),
      metrics_json(opt.trace ? report.layer : report.e2e, false).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload amp_kernels|fine_loops|"
                 "served_jobs --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--source-digest HASH]\n");
    return 2;
  }
  const std::string var = perfbench::aid_variable_set();
  if (!var.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set: AID_* variables "
                 "change the measured program\n",
                 var.c_str());
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
