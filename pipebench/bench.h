// Shared pieces of the pipeline benchmark program: run options, the
// in-memory span recorder, output digests and the result each workload
// fills in (README.md in this directory).
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/machine.h"
#include "timing/timed_replay.h"

namespace pipebench {

using rapwam::u32;
using rapwam::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line settings of one run.
struct Options {
  std::string workload;
  u32 seed = 7;
  double seconds = 10;
  bool trace = false;           ///< per-layer (traced) run instead of end-to-end
  bool plant_mismatch = false;  ///< corrupt one digest: self-test of the checks
  std::string out_dir = ".";    ///< spans file and server socket go here
};

/// Host threads for pools: the machine's cores, at most 4, so runs on
/// bigger hosts stay comparable and small.
unsigned pool_threads();

// -- spans -------------------------------------------------------------------

/// One timed interval on one thread. `parent` is the span open on the
/// same thread when this one began (0 = none); `group` ties the spans
/// of one pass or one request together; `pes` tags engine/replay
/// spans with their PE count (0 = not applicable).
struct Span {
  const char* name = "";
  u32 id = 0;
  u32 parent = 0;
  u64 group = 0;
  unsigned pes = 0;
  Clock::time_point t0, t1;
  double seconds() const { return seconds_between(t0, t1); }
};

/// Keeps every span in memory; written out once the run ends.
class SpanRecorder {
 public:
  u32 open(const char* name, u64 group, unsigned pes);
  void close(u32 id);
  std::vector<Span> snapshot() const;
  /// One JSON object per line: name, id, parent, group, pes and the
  /// start/end in microseconds since the first span.
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< spans_[id - 1]
};

/// RAII span; does nothing when the recorder is null (untraced runs).
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name, u64 group = 0, unsigned pes = 0)
      : rec_(rec), id_(rec ? rec->open(name, group, pes) : 0) {}
  ~SpanScope() {
    if (rec_) rec_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  u32 id_;
};

/// Wall and self time (wall minus the direct children's wall) summed
/// over the spans of one name.
struct SpanTotals {
  double wall = 0;
  double self = 0;
};
/// Totals per span name over the spans whose group is `group`; with
/// `pes` nonzero, only spans tagged with that PE count.
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans,
                                              u64 group, unsigned pes = 0);

/// Forwards chunks to `inner`, recording one `trace.on_chunk` span per
/// call. Used in traced passes only; untraced passes hand the engine
/// the chunking sink itself.
class TimedSink : public rapwam::TraceSink {
 public:
  TimedSink(rapwam::TraceSink& inner, SpanRecorder* rec, u64 group)
      : inner_(inner), rec_(rec), group_(group) {}
  void on_chunk(const u64* packed, std::size_t n) override {
    SpanScope s(rec_, "trace.on_chunk", group_);
    inner_.on_chunk(packed, n);
    ++chunks_;
  }
  u64 chunks() const { return chunks_; }

 private:
  rapwam::TraceSink& inner_;
  SpanRecorder* rec_;
  u64 group_;
  u64 chunks_ = 0;
};

// -- output checks -----------------------------------------------------------

/// FNV-1a over the simulated quantities a pass or request produced.
class Digest {
 public:
  void add(u64 v);
  void add(const std::string& s);
  void add(const rapwam::RunResult& r);  ///< RunStats + solution text
  void add(const rapwam::TrafficStats& s);
  void add(const rapwam::TimingStats& t);
  u64 value() const { return h_; }

 private:
  u64 h_ = 1469598103934665603ull;
};

/// The broadcast/1024-word point every single-point replay uses, and
/// the timed-replay bus of ReportOptions::timing.
rapwam::CacheConfig standard_cache();
rapwam::TimingParams standard_timing();

// -- statistics and results ----------------------------------------------------

/// Linear-interpolation quantile (q in [0,1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// What one run measured. Metric names must be the ones listed in
/// BENCHMARK.json (end_to_end for untraced runs, per_layer for traced).
struct Result {
  u64 attempted = 0;  ///< timed passes or requests
  u64 failed = 0;     ///< of those, errored or failed an output check
  bool checks_ok = true;  ///< output checks outside the timed operations
  std::vector<std::string> problems;  ///< one line per failed check
  std::map<std::string, double> metrics;
  std::vector<std::string> report;  ///< human-readable lines
};

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Workloads (pass_workloads.cpp, serve_mix.cpp). Traced runs record
/// into `spans`; untraced runs never touch it.
Result run_fig4_sweep(const Options& opt, SpanRecorder& spans);
Result run_pe_scaling(const Options& opt, SpanRecorder& spans);
Result run_serve_mix(const Options& opt, SpanRecorder& spans);

/// Names of the per-layer metrics every traced run reports; the ones a
/// workload does not exercise read 0.
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics();
/// Names and units of the end-to-end metrics every untraced run reports.
const std::vector<std::pair<const char*, const char*>>& end_to_end_metrics();

}  // namespace pipebench
