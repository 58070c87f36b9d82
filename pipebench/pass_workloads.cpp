// The two pass workloads. A pass is one repetition of a fixed piece of
// the pipeline on the seeded paper inputs:
//
//   fig4_sweep  generate 16 busy-only traces (4 programs x 1/2/4/8 PEs)
//               and replay them through run_sweep: 5 protocols x the 8
//               Figure 4 sizes, plus l2_report's L2 grid on the 8-PE
//               traces (676 points on a pool of pool_threads()).
//   pe_scaling  per program, the 1-PE sequential-WAM oracle and runs on
//               16, 64 and 128 PEs; each multi-PE trace replayed once
//               flat (broadcast, 1024 words) and once timed.
//
// Set-up (consult, query parse, compile of every code flavour) is timed
// apart from the passes, once at start and again between passes. A
// host-speed probe is read before the first pass and after every pass
// with its set-ups; the end-to-end times are scaled by the two readings
// around them (probe.h). Every pass must reproduce the warm-up pass's
// digest of all simulated statistics, and every parallel run must give
// the sequential-WAM oracle's solutions.
#include <functional>
#include <future>
#include <memory>

#include "bench.h"
#include "cache/refsim.h"
#include "cache/sweep.h"
#include "harness/programs.h"
#include "harness/reports.h"
#include "harness/runner.h"
#include "probe.h"

namespace pipebench {

using namespace rapwam;

namespace {

constexpr int kSetupRepsPerPass = 3;
constexpr u64 kAttributionGroup = ~u64(0);  ///< fig4 per-point replays
constexpr int kRefsimSamples = 6;

/// One paper program with its seeded query.
struct PaperInput {
  std::string name;
  std::string source;  ///< annotated Prolog (bench_program's text)
  std::string goal;    ///< query text without the final '.'
};

/// The four paper programs at paper size, as bench_program(name,
/// BenchScale::Paper) builds them, with only the data reseeded: the
/// qsort list, the deriv expression and the two matrices are drawn from
/// `seed`; tak(12,7,3) is fixed.
std::vector<PaperInput> paper_inputs(u32 seed) {
  auto source = [](const char* name) {
    return bench_program(name, BenchScale::Paper).source;
  };
  const u32 second = seed ^ 0x9e3779b9u;  // the other matrix's stream
  return {
      {"deriv", source("deriv"), "d(" + gen_deriv_expr(950, seed) + ",x,D)"},
      {"tak", source("tak"), "tak(12,7,3,A)"},
      {"qsort", source("qsort"), "qsort(" + gen_int_list(900, seed) + ",R)"},
      {"matrix", source("matrix"),
       "mmul(" + gen_matrix_text(16, 16, seed) + "," +
           gen_matrix_text(16, 16, second) + ",R)"},
  };
}

/// A consulted program with its parsed query, ready to solve. The
/// Program owns the goal term.
struct Loaded {
  std::string name;
  std::unique_ptr<Program> prog;
  const Term* goal = nullptr;
};

/// A code flavour the pass runs; set-up compiles each once per program.
struct Flavor {
  unsigned pes;
  bool strip;
};

/// One set-up: draw the seeded inputs, consult each program and parse
/// its query, and compile_program every flavour (compile + verify +
/// fuse). Machine::solve_term compiles again inside each solve; this
/// separate compile is what compiler.compile_ms times.
struct FrontEnd {
  std::vector<Loaded> programs;
  double total_s = 0, consult_s = 0, compile_s = 0;
};

FrontEnd front_end(u32 seed, const std::vector<Flavor>& flavors, SpanRecorder* rec) {
  FrontEnd fe;
  Clock::time_point t0 = Clock::now();
  for (PaperInput& in : paper_inputs(seed)) {
    Loaded l;
    l.name = in.name;
    l.prog = std::make_unique<Program>();
    Clock::time_point c0 = Clock::now();
    {
      SpanScope s(rec, "prolog.consult");
      l.prog->consult(in.source);
      l.goal = l.prog->parse_goal(in.goal + ".");
    }
    Clock::time_point c1 = Clock::now();
    {
      SpanScope s(rec, "compiler.compile");
      for (const Flavor& f : flavors) {
        CompileOptions co;
        co.strip_cge = f.strip;
        co.fuse = f.pes == 1;  // as Machine::solve_term decides
        compile_program(*l.prog, co);
      }
    }
    fe.consult_s += seconds_between(c0, c1);
    fe.compile_s += seconds_between(c1, Clock::now());
    fe.programs.push_back(std::move(l));
  }
  fe.total_s = seconds_between(t0, Clock::now());
  return fe;
}

/// Set-up times over every repetition in a run, in host seconds, and
/// the totals scaled to reference-host seconds. The first set-up runs
/// at process start; the others run between passes, so that the median
/// is not that of a cold CPU (timed back to back at start, a 1 ms
/// set-up read 0.9 to 1.7 ms from run to run).
struct SetupTimes {
  std::vector<double> total, consult, compile;
  std::vector<double> scaled_total;

  void add(const FrontEnd& fe) {
    total.push_back(fe.total_s);
    consult.push_back(fe.consult_s);
    compile.push_back(fe.compile_s);
  }
  /// Scales the set-ups added since the last call by `factor`.
  void scale_new(double factor) {
    for (std::size_t i = scaled_total.size(); i < total.size(); ++i)
      scaled_total.push_back(factor * total[i]);
  }
};

struct Generated {
  RunResult result;
  std::shared_ptr<const ChunkedTrace> trace;
  u64 chunks = 0;  ///< on_chunk calls (traced passes only)
};

/// One engine run into a busy-only ChunkingSink. The engine.solve span
/// covers Machine construction, solve and destruction; in traced passes
/// the sink sits behind a TimedSink so its time is a child span.
Generated generate(const Loaded& l, unsigned pes, bool strip, SpanRecorder* rec,
                   u64 group) {
  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.sizes = bench_area_sizes();
  cfg.strip_cge = strip;
  ChunkingSink chunks(/*busy_only=*/true);
  Generated g;
  {
    SpanScope s(rec, "engine.solve", group, pes);
    Machine m(*l.prog, cfg);
    if (rec) {
      TimedSink timed(chunks, rec, group);
      g.result = m.solve_term(l.goal, &timed);
      g.chunks = timed.chunks();
    } else {
      g.result = m.solve_term(l.goal, &chunks);
    }
  }
  g.trace = chunks.take();
  return g;
}

/// What a pass produced, beyond its digest.
struct PassOut {
  double seconds = 0;
  Digest digest;
  std::vector<std::string> problems;
  // Deterministic counters, summed over the pass.
  RunStats engine;  ///< instructions, cycles, refs, goals, polls summed
  u64 chunks = 0;
  u64 sim_refs = 0;  ///< references generated by the engine or replayed
  u64 refs_replayed = 0;
  u64 bus_words = 0;
  u64 makespan_cycles = 0;
  // fig4_sweep: what the per-point attribution replays need.
  std::vector<std::shared_ptr<const ChunkedTrace>> traces;
  std::vector<SweepResult> sweep;

  void count(const Generated& g) {
    const RunStats& s = g.result.stats;
    engine.instructions += s.instructions;
    engine.cycles += s.cycles;
    engine.refs.total += s.refs.total;
    engine.refs.busy += s.refs.busy;
    engine.goals_stolen += s.goals_stolen;
    engine.wait_polls += s.wait_polls;
    chunks += g.chunks;
    sim_refs += s.refs.total;
    digest.add(g.result);
  }
  void check_oracle(const Generated& g, const RunResult& oracle, const std::string& what) {
    if (!g.result.success || g.result.solutions != oracle.solutions)
      problems.push_back(what + ": solutions differ from the sequential-WAM oracle");
  }
};

std::string run_name(const Loaded& l, unsigned pes) {
  return l.name + "/" + std::to_string(pes) + "pe";
}

// -- fig4_sweep ------------------------------------------------------------------

constexpr Protocol kProtocols[] = {Protocol::WriteThrough, Protocol::WriteInBroadcast,
                                   Protocol::WriteThroughBroadcast, Protocol::Hybrid,
                                   Protocol::Copyback};

/// The 640 Figure 4 points (every trace x 5 protocols x 8 sizes), then
/// l2_report's grid (flat baseline + L2 size x inclusion) on the 8-PE
/// traces. `traces` is program-major, ReportOptions::fig4_pes-minor.
std::vector<SweepPoint> fig4_points(const std::vector<std::shared_ptr<const ChunkedTrace>>& traces) {
  const ReportOptions ro;
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    for (Protocol p : kProtocols) {
      for (u32 size : ro.fig4_sizes) {
        SweepPoint sp;
        sp.cfg = paper_cache_config(p, size);
        sp.num_pes = ro.fig4_pes[i % ro.fig4_pes.size()];
        sp.chunks = traces[i].get();
        points.push_back(sp);
      }
    }
  }
  std::vector<CacheConfig> l2 = {standard_cache()};
  for (u32 size : ro.l2_sizes) {
    for (L2Config::Inclusion inc :
         {L2Config::Inclusion::Inclusive, L2Config::Inclusion::NonInclusive}) {
      CacheConfig c = standard_cache();
      c.l2.size_words = size;
      c.l2.ways = ro.l2_ways;
      c.l2.inclusion = inc;
      l2.push_back(c);
    }
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (ro.fig4_pes[i % ro.fig4_pes.size()] != ro.l2_pes) continue;
    for (const CacheConfig& c : l2) {
      SweepPoint sp;
      sp.cfg = c;
      sp.num_pes = ro.l2_pes;
      sp.chunks = traces[i].get();
      points.push_back(sp);
    }
  }
  return points;
}

PassOut fig4_pass(const std::vector<Loaded>& programs,
                  const std::vector<RunResult>& oracle, ThreadPool& pool,
                  SpanRecorder* rec, u64 group) {
  PassOut out;
  Clock::time_point t0 = Clock::now();
  {
    SpanScope pass(rec, "pass", group);
    for (std::size_t i = 0; i < programs.size(); ++i) {
      for (unsigned pes : ReportOptions{}.fig4_pes) {
        Generated g = generate(programs[i], pes, /*strip=*/false, rec, group);
        out.check_oracle(g, oracle[i], run_name(programs[i], pes));
        out.count(g);
        out.traces.push_back(g.trace);
      }
    }
    std::vector<SweepPoint> points = fig4_points(out.traces);
    {
      SpanScope s(rec, "sweep.run_sweep", group);
      out.sweep = run_sweep(pool, points);
    }
    for (const SweepResult& r : out.sweep) {
      out.digest.add(r.stats);
      out.refs_replayed += r.stats.refs;
      out.sim_refs += r.stats.refs;
      out.bus_words += r.stats.bus_words;
    }
  }
  out.seconds = seconds_between(t0, Clock::now());
  return out;
}

// -- pe_scaling ------------------------------------------------------------------

constexpr unsigned kScalingPes[] = {16, 64, 128};

PassOut scaling_pass(const std::vector<Loaded>& programs, SpanRecorder* rec, u64 group) {
  PassOut out;
  Clock::time_point t0 = Clock::now();
  {
    SpanScope pass(rec, "pass", group);
    for (const Loaded& l : programs) {
      Generated oracle = generate(l, 1, /*strip=*/true, rec, group);
      if (!oracle.result.success)
        out.problems.push_back(l.name + ": the sequential-WAM oracle found no solution");
      out.count(oracle);
      for (unsigned pes : kScalingPes) {
        Generated g = generate(l, pes, /*strip=*/false, rec, group);
        out.check_oracle(g, oracle.result, run_name(l, pes));
        out.count(g);
        TrafficStats flat;
        {
          SpanScope s(rec, "cache.replay", group, pes);
          flat = replay_traffic(standard_cache(), pes, *g.trace);
        }
        TimingStats timed;
        TrafficStats timed_traffic;
        {
          SpanScope s(rec, "timing.replay", group, pes);
          TimedReplay tr(standard_cache(), pes, standard_timing());
          tr.replay(*g.trace);
          timed = tr.timing();
          timed_traffic = tr.traffic();
        }
        // Timing never changes coherence: the timed replay's traffic
        // must equal the untimed one bit for bit.
        if (!(timed_traffic == flat))
          out.problems.push_back(run_name(l, pes) + ": timed-replay traffic differs from replay_traffic");
        out.digest.add(flat);
        out.digest.add(timed);
        out.refs_replayed += flat.refs;
        out.sim_refs += flat.refs + timed_traffic.refs;
        out.bus_words += flat.bus_words;
        out.makespan_cycles += timed.makespan;
      }
    }
  }
  out.seconds = seconds_between(t0, Clock::now());
  return out;
}

// -- measurement loop ------------------------------------------------------------------

struct Measured {
  std::vector<double> untraced_s;           ///< host seconds per pass
  std::vector<double> untraced_ns_per_ref;  ///< host ns per simulated ref
  std::vector<double> scaled_ns_per_ref;    ///< the same, reference-host ns
  double scaled_s = 0;                      ///< summed reference-host seconds
  u64 untraced_refs = 0;
  std::vector<double> traced_s;
  std::vector<u64> traced_groups;
  PassOut last_traced;  ///< counters and fig4 traces of the last traced pass
};

/// Runs passes for opt.seconds, at least 3 (4 when traced, half of
/// them traced), calling `between` after each and then reading the
/// host-speed probe; a pass and the set-ups after it are scaled by the
/// readings before and after them. In traced runs passes alternate
/// untraced/traced; the traced ones record spans under group = pass
/// number. Every pass is an attempted operation; one whose digest or
/// oracle check fails is a failed one.
Measured measure(const Options& opt, SpanRecorder& spans, u64 reference,
                 const std::function<PassOut(SpanRecorder*, u64)>& pass,
                 const std::function<void()>& between, HostSpeed& host,
                 SetupTimes& setup, Result& res) {
  Measured m;
  std::size_t before = host.read();
  const std::size_t min_passes = opt.trace ? 4 : 3;
  Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  for (u64 i = 0; i < min_passes || Clock::now() < end; ++i) {
    bool traced = opt.trace && i % 2 == 1;
    u64 group = i + 1;
    PassOut p = pass(traced ? &spans : nullptr, group);
    u64 digest = p.digest.value();
    if (opt.plant_mismatch && i == 0) digest ^= 1;  // self-test of this check
    ++res.attempted;
    if (digest != reference) p.problems.push_back("digest differs from the warm-up pass");
    if (!p.problems.empty()) {
      ++res.failed;
      for (const std::string& what : p.problems)
        res.problems.push_back("pass " + std::to_string(group) + ": " + what);
    }
    between();
    std::size_t after = host.read();
    const double factor = host.factor(before, after);
    setup.scale_new(factor);
    before = after;
    if (traced) {
      m.traced_s.push_back(p.seconds);
      m.traced_groups.push_back(group);
      m.last_traced = std::move(p);
    } else {
      const double ns_per_ref = 1e9 * p.seconds / static_cast<double>(p.sim_refs);
      m.untraced_s.push_back(p.seconds);
      m.untraced_ns_per_ref.push_back(ns_per_ref);
      m.scaled_ns_per_ref.push_back(factor * ns_per_ref);
      m.scaled_s += factor * p.seconds;
      m.untraced_refs += p.sim_refs;
    }
  }
  return m;
}

/// Warm-up pass: fills allocator and page caches, and fixes the digest
/// every timed pass must reproduce. Its own check failures are set-up
/// failures.
PassOut warm_up(const std::function<PassOut(SpanRecorder*, u64)>& pass, Result& res) {
  PassOut w = pass(nullptr, 0);
  for (const std::string& what : w.problems) {
    res.checks_ok = false;
    res.problems.push_back("warm-up pass: " + what);
  }
  return w;
}

std::string fmt_ms(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f ms", 1e3 * s);
  return buf;
}

/// Report line: unscaled speed and the probe readings behind the scaling.
std::string host_line(const std::vector<double>& host_ns_per_ref, const HostSpeed& host) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "host: %.2f ns/ref unscaled (median); probe median %.1f ms, reference %.1f ms",
                median(host_ns_per_ref), 1e3 * host.median_s(), 1e3 * kReferenceProbeS);
  return buf;
}

/// End-to-end metrics of an untraced run, in reference-host time. The
/// speed metrics divide each pass's time by the references it
/// simulated, which the seed changes (qsort's parallel critical path
/// moves a 128-PE pass's reference count by about a quarter); raw
/// pass_s and host ns/ref are printed beside.
void report_passes(const Measured& m, const SetupTimes& setup, const HostSpeed& host,
                   Result& res) {
  res.metrics["setup_s"] = median(setup.scaled_total);
  res.metrics["ns_per_ref_p50"] = median(m.scaled_ns_per_ref);
  res.metrics["ns_per_ref_tail"] = quantile(m.scaled_ns_per_ref, 0.75);
  res.metrics["refs_per_s"] = static_cast<double>(m.untraced_refs) / m.scaled_s;
  res.metrics["peak_rss_mb"] = peak_rss_mb();
  res.report.push_back("pass_s: median " + fmt_ms(median(m.untraced_s)) + ", quartiles " +
           fmt_ms(quantile(m.untraced_s, 0.25)) + " .. " +
           fmt_ms(quantile(m.untraced_s, 0.75)) + " over " +
           std::to_string(m.untraced_s.size()) + " passes of " +
           std::to_string(m.untraced_refs / m.untraced_s.size()) + " simulated refs");
  res.report.push_back("setup: median " + fmt_ms(median(setup.total)) + " over " +
           std::to_string(setup.total.size()) + " repetitions");
  res.report.push_back(host_line(m.untraced_ns_per_ref, host));
}

/// Median over the traced passes of a per-pass span quantity.
double per_pass(const Measured& m, const std::function<double(u64 group)>& f) {
  std::vector<double> v;
  for (u64 g : m.traced_groups) v.push_back(f(g));
  return median(v);
}

/// Per-layer metrics both pass workloads share.
void report_layers(const std::vector<Span>& spans, const Measured& m,
                   const SetupTimes& setup, const HostSpeed& host, Result& res) {
  auto self_of = [&](const char* name, unsigned pes = 0) {
    return per_pass(m, [&](u64 g) {
      auto t = span_totals(spans, g, pes);
      return t.count(name) ? t.at(name).self : 0.0;
    });
  };
  const PassOut& p = m.last_traced;
  double solve_s = self_of("engine.solve");
  res.metrics["prolog.consult_ms"] = 1e3 * median(setup.consult);
  res.metrics["compiler.compile_ms"] = 1e3 * median(setup.compile);
  res.metrics["engine.solve_s"] = solve_s;
  for (unsigned pes : {1u, 16u, 64u, 128u})
    res.metrics["engine.solve_s.pes" + std::to_string(pes)] = self_of("engine.solve", pes);
  res.metrics["engine.instructions"] = static_cast<double>(p.engine.instructions);
  res.metrics["engine.cycles"] = static_cast<double>(p.engine.cycles);
  res.metrics["engine.refs_total"] = static_cast<double>(p.engine.refs.total);
  res.metrics["engine.refs_busy"] = static_cast<double>(p.engine.refs.busy);
  res.metrics["engine.busy_share"] = static_cast<double>(p.engine.refs.busy) /
                                     static_cast<double>(p.engine.refs.total);
  res.metrics["engine.ns_per_busy_ref"] =
      1e9 * solve_s / static_cast<double>(p.engine.refs.busy);
  res.metrics["engine.goals_stolen"] = static_cast<double>(p.engine.goals_stolen);
  res.metrics["engine.wait_polls"] = static_cast<double>(p.engine.wait_polls);
  res.metrics["trace.on_chunk_s"] = self_of("trace.on_chunk");
  res.metrics["trace.chunks"] = static_cast<double>(p.chunks);
  res.metrics["cache.refs_replayed"] = static_cast<double>(p.refs_replayed);
  res.metrics["cache.bus_words"] = static_cast<double>(p.bus_words);
  double unattributed = per_pass(m, [&](u64 g) {
    SpanTotals pass = span_totals(spans, g).at("pass");
    return pass.self / pass.wall;
  });
  res.metrics["spans.unattributed_share"] = unattributed;
  res.metrics["pass_s"] = median(m.untraced_s);
  res.metrics["host.probe_ms"] = 1e3 * host.median_s();
  res.metrics["trace_overhead_share"] = median(m.traced_s) / median(m.untraced_s);
}

/// Tolerance on spans.unattributed_share: the stage spans of a pass
/// must account for all but this share of its wall time.
constexpr double kUnattributedTolerance = 0.02;

void report_unattributed(Result& res) {
  double u = res.metrics.at("spans.unattributed_share");
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "spans: %.2f%% of pass wall time unattributed (tolerance %.0f%%): %s",
                100 * u, 100 * kUnattributedTolerance,
                u <= kUnattributedTolerance ? "within" : "EXCEEDED");
  res.report.push_back(buf);
}

}  // namespace

Result run_fig4_sweep(const Options& opt, SpanRecorder& spans) {
  Result res;
  const std::vector<Flavor> flavors = {{1, false}, {2, false}};
  FrontEnd fe = front_end(opt.seed, flavors, opt.trace ? &spans : nullptr);
  SetupTimes setup;
  setup.add(fe);
  auto set_up_again = [&] {
    for (int k = 0; k < kSetupRepsPerPass; ++k) setup.add(front_end(opt.seed, flavors, nullptr));
  };
  ThreadPool pool(pool_threads());

  // Oracle: the sequential-WAM solutions every parallel run must give.
  std::vector<RunResult> oracle;
  for (const Loaded& l : fe.programs)
    oracle.push_back(generate(l, 1, /*strip=*/true, nullptr, 0).result);
  auto pass = [&](SpanRecorder* rec, u64 group) {
    return fig4_pass(fe.programs, oracle, pool, rec, group);
  };
  PassOut ref = warm_up(pass, res);

  // Set-up check: a seeded sample of flat points against the naive
  // broadcast-snoop simulator.
  u64 lcg = opt.seed * 2654435761ull + 1;
  const std::size_t flat_points = ref.traces.size() * std::size(kProtocols) *
                                  ReportOptions{}.fig4_sizes.size();
  for (int k = 0; k < kRefsimSamples; ++k) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const SweepResult& r = ref.sweep[(lcg >> 33) % flat_points];
    ReferenceCacheSim naive(r.point.cfg, r.point.num_pes);
    naive.replay(r.point.chunks->to_packed());
    if (!(naive.stats() == r.stats)) {
      res.checks_ok = false;
      res.problems.push_back("set-up: sweep point (" + protocol_name(r.point.cfg.protocol) + ", " +
                  std::to_string(r.point.cfg.size_words) + " words, " +
                  std::to_string(r.point.num_pes) + " PEs) differs from ReferenceCacheSim");
    }
  }
  res.report.push_back("set-up checks: oracle solutions, " + std::to_string(kRefsimSamples) +
           " sweep points against ReferenceCacheSim");

  HostSpeed host;
  Measured m = measure(opt, spans, ref.digest.value(), pass, set_up_again, host, setup, res);
  if (!opt.trace) {
    report_passes(m, setup, host, res);
    return res;
  }

  // Per-point attribution: fan the last traced pass's points out once
  // more on the same pool, one job and one span per point, so flat and
  // L2 replay time can be told apart and the fan-out's parallel
  // efficiency read (run_sweep's own per-point work is not visible
  // from outside it).
  const PassOut& last = m.last_traced;
  std::vector<std::future<TrafficStats>> again;
  Clock::time_point a0 = Clock::now();
  for (const SweepResult& r : last.sweep) {
    const SweepPoint* p = &r.point;
    again.push_back(pool.submit([&spans, p] {
      SpanScope s(&spans, p->cfg.l2.enabled() ? "cache.hier_replay" : "cache.replay",
                  kAttributionGroup, p->num_pes);
      return replay_traffic(p->cfg, p->num_pes, *p->chunks);
    }));
  }
  for (std::future<TrafficStats>& f : again) f.wait();  // no job outlives `m`
  u64 flat_refs = 0;
  for (std::size_t i = 0; i < again.size(); ++i) {
    TrafficStats s = again[i].get();
    if (!last.sweep[i].point.cfg.l2.enabled()) flat_refs += s.refs;
    if (!(s == last.sweep[i].stats)) {
      res.checks_ok = false;
      res.problems.push_back("attribution replay differs from run_sweep's result");
    }
  }
  double fan_out_s = seconds_between(a0, Clock::now());
  std::vector<Span> all = spans.snapshot();
  auto attributed = span_totals(all, kAttributionGroup);
  double flat_s = attributed["cache.replay"].wall;
  double hier_s = attributed["cache.hier_replay"].wall;
  report_layers(all, m, setup, host, res);
  res.metrics["cache.replay_s"] = flat_s;
  res.metrics["cache.hier_replay_s"] = hier_s;
  res.metrics["cache.ns_per_ref"] = 1e9 * flat_s / static_cast<double>(flat_refs);
  res.metrics["sweep.run_s"] = per_pass(m, [&](u64 g) {
    return span_totals(all, g).at("sweep.run_sweep").wall;
  });
  res.metrics["sweep.parallel_eff"] = (flat_s + hier_s) / (pool.size() * fan_out_s);
  report_unattributed(res);
  return res;
}

Result run_pe_scaling(const Options& opt, SpanRecorder& spans) {
  Result res;
  const std::vector<Flavor> flavors = {{1, true}, {16, false}};
  FrontEnd fe = front_end(opt.seed, flavors, opt.trace ? &spans : nullptr);
  SetupTimes setup;
  setup.add(fe);
  auto set_up_again = [&] {
    for (int k = 0; k < kSetupRepsPerPass; ++k) setup.add(front_end(opt.seed, flavors, nullptr));
  };
  auto pass = [&](SpanRecorder* rec, u64 group) {
    return scaling_pass(fe.programs, rec, group);
  };
  PassOut ref = warm_up(pass, res);
  res.report.push_back("set-up checks: every parallel run against the oracle in the same pass");

  HostSpeed host;
  Measured m = measure(opt, spans, ref.digest.value(), pass, set_up_again, host, setup, res);
  if (!opt.trace) {
    report_passes(m, setup, host, res);
    return res;
  }
  std::vector<Span> all = spans.snapshot();
  report_layers(all, m, setup, host, res);
  auto wall_of = [&](const char* name, unsigned pes = 0) {
    return per_pass(m, [&](u64 g) {
      auto t = span_totals(all, g, pes);
      return t.count(name) ? t.at(name).wall : 0.0;
    });
  };
  const PassOut& p = m.last_traced;
  double replay_s = wall_of("cache.replay");
  double timed_s = wall_of("timing.replay");
  res.metrics["cache.replay_s"] = replay_s;
  res.metrics["cache.ns_per_ref"] = 1e9 * replay_s / static_cast<double>(p.refs_replayed);
  res.metrics["cache.replay_s.pes64"] = wall_of("cache.replay", 64);
  res.metrics["cache.replay_s.pes128"] = wall_of("cache.replay", 128);
  res.metrics["timing.replay_s"] = timed_s;
  res.metrics["timing.ns_per_ref"] = 1e9 * timed_s / static_cast<double>(p.refs_replayed);
  res.metrics["timing.makespan_cycles"] = static_cast<double>(p.makespan_cycles);
  report_unattributed(res);
  return res;
}

}  // namespace pipebench
