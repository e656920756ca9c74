#include "bench.h"

#include <sys/resource.h>

#include <cstdio>

#include "common/check.h"

namespace perfbench {

i64 process_ctx_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<i64>(ru.ru_nvcsw) + static_cast<i64>(ru.ru_nivcsw);
}

Nanos RegionTrace::first_start() const {
  Nanos t = LLONG_MAX;
  for (const auto& s : thr) t = std::min(t, s->first_start);
  return t;
}

Nanos RegionTrace::first_finish() const {
  Nanos t = LLONG_MAX;
  for (const auto& s : thr)
    if (s->chunks > 0) t = std::min(t, s->last_finish);
  return t;
}

Nanos RegionTrace::last_finish() const {
  Nanos t = 0;
  for (const auto& s : thr) t = std::max(t, s->last_finish);
  return t;
}

i64 RegionTrace::chunks() const {
  i64 n = 0;
  for (const auto& s : thr) n += s->chunks;
  return n;
}

i64 RegionTrace::iters(int core_type) const {
  i64 n = 0;
  for (const auto& s : thr)
    if (s->core_type == core_type) n += s->iters;
  return n;
}

Nanos RegionTrace::busy() const {
  Nanos t = 0;
  for (const auto& s : thr) t += s->busy;
  return t;
}

aid::rt::RangeBody stamped(const aid::rt::RangeBody& body,
                           RegionTrace& trace) {
  return [&body, &trace](i64 b, i64 e, const aid::rt::WorkerInfo& w) {
    const Nanos t0 = now_ns();
    body(b, e, w);
    const Nanos t1 = now_ns();
    ThreadStamps& s = *trace.thr[static_cast<usize>(w.tid)];
    const Nanos penalty =
        w.core_type == 0
            ? static_cast<Nanos>(static_cast<double>(t1 - t0) *
                                 (kSlowdown - 1.0))
            : 0;
    s.first_start = std::min(s.first_start, t0);
    s.last_finish = t1 + penalty;
    s.chunks += 1;
    s.iters += e - b;
    s.busy += t1 - t0;
    s.core_type = w.core_type;
  };
}

void InvocationTrace::clear() {
  for (int i = 0; i < nentries; ++i) entries[static_cast<usize>(i)].reset();
  nentries = 0;
  ncalls = 0;
}

void InvocationTrace::loop(aid::rt::Runtime& rt, i64 count,
                           const aid::sched::ScheduleSpec& spec,
                           const aid::rt::RangeBody& body) {
  AID_CHECK(nentries < kMax && ncalls < kMax);
  const aid::rt::RangeBody wrapped =
      stamped(body, entries[static_cast<usize>(nentries)]);
  Call& c = calls[static_cast<usize>(ncalls++)];
  c.first = nentries++;
  c.n = 1;
  c.call = now_ns();
  rt.run_loop(count, spec, wrapped);
  c.ret = now_ns();
  c.stats = rt.last_loop_stats();
}

void InvocationTrace::chain(aid::rt::Runtime& rt,
                            const aid::pipeline::LoopChain& chain, int n) {
  AID_CHECK(nentries == 0 && ncalls == 0 && n <= kMax);
  Call& c = calls[static_cast<usize>(ncalls++)];
  c.first = 0;
  c.n = n;
  nentries = n;
  c.call = now_ns();
  rt.run_chain(chain);
  c.ret = now_ns();
  c.stats = rt.last_loop_stats();
}

Nanos InvocationTrace::dispatch_ns(const Call& c) const {
  return entries[static_cast<usize>(c.first)].first_start() - c.call;
}

Nanos InvocationTrace::join_ns(const Call& c) const {
  Nanos last = 0;
  for (int e = c.first; e < c.first + c.n; ++e)
    last = std::max(last, entries[static_cast<usize>(e)].last_finish());
  return c.ret - last;
}

double InvocationTrace::imbalance_pc(const Call& c) const {
  const RegionTrace& r = entries[static_cast<usize>(c.first + c.n - 1)];
  return 100.0 * static_cast<double>(r.last_finish() - r.first_finish()) /
         static_cast<double>(c.ret - c.call);
}

i64 InvocationTrace::chunks(const Call& c) const {
  i64 n = 0;
  for (int e = c.first; e < c.first + c.n; ++e)
    n += entries[static_cast<usize>(e)].chunks();
  return n;
}

i64 SpanLog::add(const std::string& name, i64 parent, Nanos start, Nanos end,
                 i64 count) {
  if (spans_.size() >= kCap) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, parent, start, end, count});
  return static_cast<i64>(spans_.size()) - 1;
}

void SpanLog::add_invocation(const std::string& name,
                             const InvocationTrace& t) {
  for (int i = 0; i < t.ncalls; ++i) {
    const InvocationTrace::Call& c = t.calls[static_cast<usize>(i)];
    const i64 id = add(name, -1, c.call, c.ret, c.n);
    if (id < 0) return;
    for (int e = c.first; e < c.first + c.n; ++e)
      for (usize w = 0; w < kThreads; ++w) {
        const ThreadStamps& s = *t.entries[static_cast<usize>(e)].thr[w];
        if (s.chunks == 0) continue;
        add("construct" + std::to_string(e - c.first) + ".worker" +
                std::to_string(w) + (s.core_type == 0 ? ".small" : ".big"),
            id, s.first_start, s.last_finish, s.chunks);
      }
  }
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (usize i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"count\": %lld}\n",
                 i, static_cast<long long>(s.parent), s.name.c_str(),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<long long>(s.count));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
