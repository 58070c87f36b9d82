#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "harness/golden.h"
#include "harness/reports.h"

namespace pipebench {

using namespace rapwam;

unsigned pool_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

// -- spans -------------------------------------------------------------------

namespace {
/// Spans open on this thread, innermost last.
thread_local std::vector<u32> t_open;
}  // namespace

u32 SpanRecorder::open(const char* name, u64 group, unsigned pes) {
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? 0 : t_open.back();
  s.group = group;
  s.pes = pes;
  {
    std::scoped_lock lk(mu_);
    s.id = static_cast<u32>(spans_.size() + 1);
    s.t0 = Clock::now();
    spans_.push_back(s);
  }
  t_open.push_back(s.id);
  return s.id;
}

void SpanRecorder::close(u32 id) {
  Clock::time_point t1 = Clock::now();
  t_open.pop_back();
  std::scoped_lock lk(mu_);
  spans_[id - 1].t1 = t1;
}

std::vector<Span> SpanRecorder::snapshot() const {
  std::scoped_lock lk(mu_);
  return spans_;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::vector<Span> spans = snapshot();
  std::ofstream out(path);
  if (!out) fail("cannot write spans to " + path);
  if (spans.empty()) return;
  Clock::time_point origin = spans.front().t0;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  char buf[256];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"group\":%llu,"
                  "\"pes\":%u,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  s.name, s.id, s.parent, static_cast<unsigned long long>(s.group),
                  s.pes, us(s.t0), us(s.t1));
    out << buf;
  }
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans,
                                              u64 group, unsigned pes) {
  std::vector<double> child_wall(spans.size() + 1, 0.0);
  for (const Span& s : spans)
    if (s.parent) child_wall[s.parent] += s.seconds();
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    if (s.group != group || (pes && s.pes != pes)) continue;
    SpanTotals& t = out[s.name];
    t.wall += s.seconds();
    t.self += s.seconds() - child_wall[s.id];
  }
  return out;
}

// -- output checks -------------------------------------------------------------

void Digest::add(u64 v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(const std::string& s) {
  add(static_cast<u64>(s.size()));
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(const RunResult& r) {
  const RunStats& s = r.stats;
  for (u64 v : {s.instructions, s.calls, s.cycles, s.wait_polls, s.goals_pushed,
                s.goals_stolen, s.goals_local, s.parcalls, s.kills, s.solutions,
                static_cast<u64>(s.num_pes), s.refs.total, s.refs.reads,
                s.refs.writes, s.refs.busy})
    add(v);
  for (u64 v : s.refs.by_area) add(v);
  for (u64 v : s.refs.by_class) add(v);
  for (u64 v : s.refs.by_pe) add(v);
  for (u64 v : s.high_water) add(v);
  add(static_cast<u64>(r.success));
  for (const Solution& sol : r.solutions)
    for (const auto& [var, text] : sol.bindings) {
      add(var);
      add(text);
    }
}

void Digest::add(const TrafficStats& s) {
  for (const auto& [name, v] : traffic_fields(s)) add(v);
}

void Digest::add(const TimingStats& t) {
  for (const auto& [name, v] : timing_fields(t)) add(v);
}

CacheConfig standard_cache() {
  return paper_cache_config(Protocol::WriteInBroadcast, 1024);
}

TimingParams standard_timing() { return ReportOptions{}.timing; }

// -- statistics and results ------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

const std::vector<std::pair<const char*, const char*>>& end_to_end_metrics() {
  static const std::vector<std::pair<const char*, const char*>> m = {
      {"setup_s", "s"},          {"ns_per_ref_p50", "ns"},
      {"ns_per_ref_tail", "ns"}, {"refs_per_s", "1/s"},
      {"peak_rss_mb", "MB"},     {"ok_share", "ratio"},
  };
  return m;
}

const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> m = {
      {"pass_s", "s"},
      {"prolog.consult_ms", "ms"},
      {"compiler.compile_ms", "ms"},
      {"engine.solve_s", "s"},
      {"engine.solve_s.pes1", "s"},
      {"engine.solve_s.pes16", "s"},
      {"engine.solve_s.pes64", "s"},
      {"engine.solve_s.pes128", "s"},
      {"engine.instructions", "count"},
      {"engine.cycles", "cycles"},
      {"engine.refs_total", "count"},
      {"engine.refs_busy", "count"},
      {"engine.busy_share", "ratio"},
      {"engine.ns_per_busy_ref", "ns"},
      {"engine.goals_stolen", "count"},
      {"engine.wait_polls", "count"},
      {"trace.on_chunk_s", "s"},
      {"trace.chunks", "count"},
      {"cache.replay_s", "s"},
      {"cache.hier_replay_s", "s"},
      {"cache.ns_per_ref", "ns"},
      {"cache.refs_replayed", "count"},
      {"cache.bus_words", "count"},
      {"cache.replay_s.pes64", "s"},
      {"cache.replay_s.pes128", "s"},
      {"sweep.run_s", "s"},
      {"sweep.parallel_eff", "ratio"},
      {"timing.replay_s", "s"},
      {"timing.ns_per_ref", "ns"},
      {"timing.makespan_cycles", "cycles"},
      {"trace_lib.prefetch_s", "s"},
      {"server.req_p50_ms", "ms"},
      {"server.req_p90_ms", "ms"},
      {"server.req_per_s", "1/s"},
      {"server.replay_ms_p50", "ms"},
      {"server.time_ms_p50", "ms"},
      {"server.completed", "count"},
      {"server.failed", "count"},
      {"server.shed", "count"},
      {"spans.unattributed_share", "ratio"},
      {"trace_overhead_share", "ratio"},
      {"host.probe_ms", "ms"},
  };
  return m;
}

}  // namespace pipebench
