// serve_mix: the resident server under a closed-loop request mix.
//
// An in-process Server listens on a per-run unix socket with 2 workers.
// Two client connections each send their next request as soon as the
// previous answer arrives. Each client draws a seeded stream of about
// 70% `replay`, 27% `time` and 3% `stats` requests over the 4 paper
// programs x {2,4,8} PEs x 5 protocols x 6 cache sizes. The
// TraceLibrary is warmed in set-up, so no trace generation runs while
// requests are timed. The clients run in rounds of kRoundS; between
// rounds, with no request in flight, the host-speed probe is read, and
// each request's time is scaled by the readings around its round
// (probe.h). Every replay/time answer is checked against a local
// replay_traffic / TimedReplay of the same trace.
#include <unistd.h>

#include <future>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <thread>
#include <tuple>

#include "bench.h"
#include "cache/sweep.h"
#include "harness/golden.h"
#include "harness/trace_lib.h"
#include "probe.h"
#include "server/server.h"

namespace pipebench {

using namespace rapwam;

namespace {

constexpr int kSetupRepsBefore = 3;
constexpr int kSetupRepsAfter = 4;
constexpr unsigned kClients = 2;
constexpr unsigned kWorkers = 2;
constexpr int kTimeoutMs = 60000;
constexpr double kRoundS = 2.0;
const std::vector<std::string> kBenches = {"deriv", "tak", "qsort", "matrix"};
const std::vector<unsigned> kPes = {2, 4, 8};
constexpr u32 kSizes[] = {128, 256, 512, 1024, 2048, 4096};
constexpr Protocol kProtocols[] = {Protocol::WriteThrough, Protocol::WriteInBroadcast,
                                   Protocol::WriteThroughBroadcast, Protocol::Hybrid,
                                   Protocol::Copyback};
/// kProtocols as the request parser spells them.
constexpr const char* kProtocolNames[] = {"write-thru", "broadcast", "update", "hybrid",
                                          "copyback"};

/// The request-stream generator (the same LCG as the input generators).
class Lcg {
 public:
  explicit Lcg(u64 seed) : s_(seed * 2654435761ull + 1) {}
  u32 next() {
    s_ = s_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<u32>(s_ >> 33);
  }

 private:
  u64 s_;
};

enum class Op { Replay, Time, Stats };

/// One request as sent and answered.
struct Call {
  Op op = Op::Stats;
  unsigned bench = 0, pes = 0, protocol = 0, size = 0;  ///< indices
  double ms = 0;
  double factor = 1;  ///< host-to-reference time factor of its round
  bool traced = false;
  bool ok = false;     ///< ok response (replay/time results still to check)
  std::string result;  ///< replay/time result object, as received
  u64 refs = 0;        ///< references the answer says were replayed

  using Key = std::tuple<Op, unsigned, unsigned, unsigned, unsigned>;
  Key key() const { return {op, bench, pes, protocol, size}; }
};

Call draw(Lcg& r) {
  Call c;
  u32 u = r.next() % 100;
  c.op = u < 70 ? Op::Replay : u < 97 ? Op::Time : Op::Stats;
  c.bench = r.next() % kBenches.size();
  c.pes = r.next() % kPes.size();
  c.protocol = r.next() % std::size(kProtocols);
  c.size = r.next() % std::size(kSizes);
  return c;
}

CacheConfig cache_of(const Call& c) {
  return paper_cache_config(kProtocols[c.protocol], kSizes[c.size]);
}

std::string request_line(const Call& c, u64 id) {
  if (c.op == Op::Stats) return "{\"op\":\"stats\",\"id\":" + std::to_string(id) + "}";
  std::string line = std::string("{\"op\":\"") + (c.op == Op::Replay ? "replay" : "time") +
                     "\",\"id\":" + std::to_string(id) + ",\"bench\":\"" + kBenches[c.bench] +
                     "\",\"scale\":\"paper\",\"pes\":" + std::to_string(kPes[c.pes]) +
                     ",\"protocol\":\"" + kProtocolNames[c.protocol] +
                     "\",\"size\":" + std::to_string(kSizes[c.size]);
  if (c.op == Op::Time) {
    TimingParams tp = standard_timing();
    line += ",\"cpr\":" + std::to_string(tp.cycles_per_ref) +
            ",\"service\":" + std::to_string(tp.bus_service_cycles) +
            ",\"interleave\":" + std::to_string(tp.interleave) +
            ",\"wbuf\":" + std::to_string(tp.write_buffer_depth);
  }
  return line + "}";
}

/// Sends one line and waits for its answer.
Response ask(Socket& sock, const std::string& line) {
  sock.send_all(line + "\n");
  std::string answer;
  if (!sock.recv_line(answer, JsonLimits{}.max_bytes, kTimeoutMs))
    fail("server closed the connection");
  return Response::parse(answer);
}

/// A started server with its connected clients.
struct Running {
  std::unique_ptr<Server> server;
  std::vector<Socket> clients;

  void stop() {
    clients.clear();  // EOF on every connection
    server->stop();   // drain: in-flight requests finish, threads join
    server.reset();
  }
};

/// Set-up: start a fresh server, warm an emptied TraceLibrary and
/// connect the clients (each answers a ping).
Running start(const std::string& socket_path, SpanRecorder* rec, double& prefetch_s) {
  TraceLibrary::instance().clear();
  ServiceConfig cfg;
  cfg.workers = kWorkers;
  Running r;
  r.server = std::make_unique<Server>(Endpoint::parse("unix:" + socket_path), cfg);
  r.server->start();
  {
    ThreadPool pool(pool_threads());
    SpanScope s(rec, "trace_lib.prefetch");
    Clock::time_point t0 = Clock::now();
    TraceLibrary::instance().prefetch(pool, kBenches, kPes, BenchScale::Paper);
    prefetch_s = seconds_between(t0, Clock::now());
  }
  for (unsigned c = 0; c < kClients; ++c) {
    r.clients.push_back(Socket::connect(r.server->endpoint(), kTimeoutMs));
    if (!ask(r.clients.back(), "{\"op\":\"ping\"}").ok) fail("ping failed");
  }
  return r;
}

/// One client connection with its seeded request stream, which goes
/// on from round to round.
struct Client {
  Socket* sock;
  Lcg rng;
  u64 sent = 0;
  std::vector<Call> calls;
  std::string error;
};

/// One client's closed loop until `end`. With `rec` set, every request
/// is traced: it records a `request` span (group = request id).
void client_round(Client& cl, unsigned client, Clock::time_point end, SpanRecorder* rec) {
  try {
    while (Clock::now() < end) {
      Call c = draw(cl.rng);
      u64 id = (u64(client) << 32) | cl.sent++;
      Clock::time_point t0 = Clock::now();
      c.traced = rec != nullptr;
      Response r;
      {
        SpanScope s(rec, "request", id);
        r = ask(*cl.sock, request_line(c, id));
      }
      c.ms = 1e3 * seconds_between(t0, Clock::now());
      c.ok = r.ok && r.id.is_int() && static_cast<u64>(r.id.as_int()) == id;
      if (c.ok && c.op != Op::Stats) {
        c.result = json_write(r.result);
        const JsonValue* traffic = c.op == Op::Time ? r.result.find("traffic") : &r.result;
        const JsonValue* refs = traffic ? traffic->find("refs") : nullptr;
        c.refs = refs && refs->is_int() ? static_cast<u64>(refs->as_int()) : 0;
      }
      cl.calls.push_back(std::move(c));
    }
  } catch (const std::exception& e) {
    cl.error = e.what();
  }
}

/// Does `obj` (a replay or time answer) carry these fields with these values?
bool fields_match(const JsonValue& obj, const std::vector<std::pair<std::string, u64>>& fields) {
  for (const auto& [name, value] : fields) {
    const JsonValue* v = obj.find(name);
    if (!v || !v->is_int() || static_cast<u64>(v->as_int()) != value) return false;
  }
  return true;
}

/// Checks every distinct answer of one (op, bench, pes, protocol, size)
/// against a local replay of the same memoized trace. Returns the
/// answers that match.
std::set<std::string> verify_key(const Call& c, const std::set<std::string>& answers) {
  std::shared_ptr<const GeneratedTrace> g =
      TraceLibrary::instance().get(kBenches[c.bench], BenchScale::Paper, kPes[c.pes]);
  const unsigned pes = kPes[c.pes];
  std::set<std::string> good;
  if (c.op == Op::Replay) {
    TrafficStats want = replay_traffic(cache_of(c), pes, *g->trace);
    for (const std::string& a : answers)
      if (fields_match(json_parse(a), traffic_fields(want))) good.insert(a);
  } else {
    TimedReplay tr(cache_of(c), pes, standard_timing());
    tr.replay(*g->trace);
    for (const std::string& a : answers) {
      JsonValue v = json_parse(a);
      const JsonValue* traffic = v.find("traffic");
      if (fields_match(v, timing_fields(tr.timing())) && traffic &&
          fields_match(*traffic, traffic_fields(tr.traffic())))
        good.insert(a);
    }
  }
  return good;
}

/// Corrupts the first replay answer (self-test of the checks).
void plant_mismatch(std::vector<Call>& calls) {
  for (Call& c : calls) {
    std::size_t at = c.result.find("\"bus_words\":");
    if (c.op != Op::Replay || !c.ok || at == std::string::npos) continue;
    c.result.insert(at + 12, "1");
    return;
  }
}

/// Latencies (ms) of the traced or untraced calls, optionally of one op.
std::vector<double> latencies(const std::vector<Call>& calls, bool traced,
                              std::optional<Op> op = {}) {
  std::vector<double> ms;
  for (const Call& c : calls)
    if (c.traced == traced && (!op || c.op == *op)) ms.push_back(c.ms);
  return ms;
}

}  // namespace

Result run_serve_mix(const Options& opt, SpanRecorder& spans) {
  Result res;
  SpanRecorder* rec = opt.trace ? &spans : nullptr;
  const std::string sock_base =
      opt.out_dir + "/pipebench-" + std::to_string(::getpid()) + "-";

  // One timed set-up. It runs kSetupRepsBefore times before the window
  // (the last server is the one measured) and kSetupRepsAfter times
  // after the checks, so the median does not rest on the process's
  // first second alone. Each is scaled by the probe readings around it.
  HostSpeed host;
  std::vector<double> setup_s, prefetch_s;
  int reps = 0;
  auto set_up = [&](SpanRecorder* r) {
    std::size_t before = host.read();
    Clock::time_point t0 = Clock::now();
    double prefetch = 0;
    Running fresh = start(sock_base + std::to_string(reps++) + ".sock", r, prefetch);
    double raw = seconds_between(t0, Clock::now());
    setup_s.push_back(host.factor(before, host.read()) * raw);
    prefetch_s.push_back(prefetch);
    return fresh;
  };
  Running run;
  for (int k = 0; k < kSetupRepsBefore; ++k) {
    if (run.server) run.stop();
    run = set_up(rec);
  }

  // Closed loop in rounds. A traced run times the rounds of the first
  // half untraced and the rest traced, for trace_overhead_share.
  std::vector<Client> clients;
  for (unsigned c = 0; c < kClients; ++c)
    clients.push_back({&run.clients[c], Lcg((u64(opt.seed) << 8) | c)});
  std::size_t before = host.read();
  Clock::time_point t0 = Clock::now();
  auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opt.seconds));
  auto round = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::min(kRoundS, opt.seconds / 4)));
  Clock::time_point end = t0 + window;
  Clock::time_point traced_from = opt.trace ? t0 + window / 2 : end;
  double untraced_s = 0, scaled_s = 0, traced_s = 0;  // summed round times
  auto failing = [&] {
    for (const Client& cl : clients)
      if (!cl.error.empty()) return true;
    return false;
  };
  for (Clock::time_point r0 = Clock::now(); r0 < end && !failing(); r0 = Clock::now()) {
    const bool traced = r0 >= traced_from;
    std::vector<std::size_t> first;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      first.push_back(clients[c].calls.size());
      threads.emplace_back(client_round, std::ref(clients[c]), c, std::min(end, r0 + round),
                           traced ? rec : nullptr);
    }
    for (std::thread& t : threads) t.join();
    const double wall = seconds_between(r0, Clock::now());
    std::size_t after = host.read();
    const double factor = host.factor(before, after);
    before = after;
    for (unsigned c = 0; c < kClients; ++c)
      for (std::size_t i = first[c]; i < clients[c].calls.size(); ++i)
        clients[c].calls[i].factor = factor;
    if (traced) {
      traced_s += wall;
    } else {
      untraced_s += wall;
      scaled_s += factor * wall;
    }
  }

  // The server's own counters, then drain it.
  Response stats;
  try {
    stats = ask(run.clients[0], "{\"op\":\"stats\"}");
  } catch (const std::exception& e) {
    res.problems.push_back(std::string("stats op: ") + e.what());
  }
  run.stop();
  auto counter = [&](const char* name) {
    const JsonValue* v = stats.ok ? stats.result.find(name) : nullptr;
    return v ? static_cast<double>(v->as_int()) : -1.0;
  };

  std::vector<Call> calls;
  for (unsigned c = 0; c < kClients; ++c) {
    if (!clients[c].error.empty()) {
      ++res.failed;  // the request that hit the transport error
      ++res.attempted;
      res.problems.push_back("client " + std::to_string(c) + ": " + clients[c].error);
    }
    calls.insert(calls.end(), clients[c].calls.begin(), clients[c].calls.end());
  }
  if (opt.plant_mismatch) plant_mismatch(calls);

  // Check every distinct answer of every (op, point) against a local
  // replay, on a pool, outside the timed window. Per point: one example
  // call and the distinct answers it got.
  std::map<Call::Key, std::pair<const Call*, std::set<std::string>>> answers;
  for (const Call& c : calls)
    if (c.ok && c.op != Op::Stats) {
      auto& [example, distinct] = answers[c.key()];
      example = &c;
      distinct.insert(c.result);
    }
  std::map<Call::Key, std::set<std::string>> good;
  {
    ThreadPool pool(pool_threads());
    std::vector<std::pair<Call::Key, std::future<std::set<std::string>>>> futs;
    for (const auto& [key, entry] : answers) {
      const auto* e = &entry;
      futs.emplace_back(key, pool.submit([e] { return verify_key(*e->first, e->second); }));
    }
    for (auto& [key, fut] : futs) good[key] = fut.get();
  }
  u64 ok_answers = 0;
  for (const Call& c : calls) {
    ++res.attempted;
    bool pass = c.ok && (c.op == Op::Stats || good[c.key()].count(c.result));
    if (!pass) {
      ++res.failed;
      res.problems.push_back(std::string(c.ok ? "answer differs from a local replay" : "error response"));
    }
    if (c.ok && c.op != Op::Stats) ++ok_answers;
  }
  res.report.push_back("checked " + std::to_string(answers.size()) +
           " distinct (op, program, PEs, protocol, size) points against local replays");
  // Server accounting must agree with what the clients saw.
  if (counter("completed") != static_cast<double>(ok_answers) || counter("shed") != 0) {
    res.checks_ok = false;
    res.problems.push_back("server stats op disagrees with the client-side counts");
  }
  // Peak memory of serving, before the extra set-ups below re-warm the
  // library (each leaves the allocator a new high-water mark).
  const double rss_mb = peak_rss_mb();
  for (int k = 0; k < kSetupRepsAfter; ++k) set_up(nullptr).stop();

  // Raw request latency, and latency per replayed reference (the
  // programs' traces differ in length by two orders of magnitude), in
  // host and in reference-host time.
  std::vector<double> ms = latencies(calls, false), ns_per_ref, scaled_ns_per_ref;
  u64 refs = 0;
  for (const Call& c : calls)
    if (!c.traced && c.refs) {
      ns_per_ref.push_back(1e6 * c.ms / static_cast<double>(c.refs));
      scaled_ns_per_ref.push_back(c.factor * ns_per_ref.back());
      refs += c.refs;
    }
  const double req_per_s = static_cast<double>(ms.size()) / untraced_s;
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "requests: %zu in %.2f s (req_per_s %.1f), req_p50_ms %.2f, req_p90_ms %.2f",
                ms.size(), untraced_s, req_per_s, median(ms), quantile(ms, 0.9));
  res.report.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "host: %.2f ns/ref unscaled (median); probe median %.1f ms, reference %.1f ms",
                median(ns_per_ref), 1e3 * host.median_s(), 1e3 * kReferenceProbeS);
  res.report.push_back(buf);
  if (!opt.trace) {
    res.metrics["setup_s"] = median(setup_s);
    res.metrics["ns_per_ref_p50"] = median(scaled_ns_per_ref);
    res.metrics["ns_per_ref_tail"] = quantile(scaled_ns_per_ref, 0.9);
    res.metrics["refs_per_s"] = static_cast<double>(refs) / scaled_s;
    res.metrics["peak_rss_mb"] = rss_mb;
    return res;
  }

  double busy = 0;  // client time spent inside traced requests
  std::vector<Span> all = spans.snapshot();
  for (const Span& s : all)
    if (std::string_view(s.name) == "request") busy += s.seconds();
  res.metrics["trace_lib.prefetch_s"] = median(prefetch_s);
  res.metrics["server.req_p50_ms"] = median(ms);
  res.metrics["server.req_p90_ms"] = quantile(ms, 0.9);
  res.metrics["server.req_per_s"] = req_per_s;
  res.metrics["server.replay_ms_p50"] = median(latencies(calls, true, Op::Replay));
  res.metrics["server.time_ms_p50"] = median(latencies(calls, true, Op::Time));
  res.metrics["server.completed"] = counter("completed");
  res.metrics["server.failed"] = counter("failed");
  res.metrics["server.shed"] = counter("shed");
  // Client-thread time outside any request: the generator's own share.
  res.metrics["spans.unattributed_share"] = 1.0 - busy / (kClients * traced_s);
  res.metrics["trace_overhead_share"] = median(latencies(calls, true)) / median(ms);
  res.metrics["host.probe_ms"] = 1e3 * host.median_s();
  return res;
}

}  // namespace pipebench
