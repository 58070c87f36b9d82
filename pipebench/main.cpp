// Pipeline benchmark program: runs one seeded workload and prints its
// metrics, ending with one JSON line (README.md in this directory).
//
//   pipebench --workload fig4_sweep|pe_scaling|serve_mix --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--plant-mismatch]
//
// Exit status: 0 when every output check passed, 1 when one failed
// (the JSON line still reports the run), 2 on a usage or run error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

using namespace pipebench;

namespace {

int usage(const std::string& why) {
  std::fprintf(stderr,
               "pipebench: %s\n"
               "usage: pipebench --workload fig4_sweep|pe_scaling|serve_mix --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--plant-mismatch]\n",
               why.c_str());
  return 2;
}

bool parse(int argc, char** argv, Options& opt, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--plant-mismatch") {
      opt.plant_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) {
      err = "missing value for " + a;
      return false;
    }
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      unsigned long s = std::strtoul(v.c_str(), &end, 10);
      if (*end || v.empty() || s > 0xFFFFFFFFul) {
        err = "bad seed " + v;
        return false;
      }
      opt.seed = static_cast<u32>(s);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end || !(opt.seconds > 0) || opt.seconds > 3600) {
        err = "bad seconds " + v;
        return false;
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") {
        err = "--trace takes 0 or 1";
        return false;
      }
      opt.trace = v == "1";
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      err = "unknown argument " + a;
      return false;
    }
  }
  if (opt.workload != "fig4_sweep" && opt.workload != "pe_scaling" &&
      opt.workload != "serve_mix") {
    err = "unknown workload '" + opt.workload + "'";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string err;
  if (!parse(argc, argv, opt, err)) return usage(err);

  Result res;
  SpanRecorder spans;
  try {
    if (opt.workload == "fig4_sweep") res = run_fig4_sweep(opt, spans);
    else if (opt.workload == "pe_scaling") res = run_pe_scaling(opt, spans);
    else res = run_serve_mix(opt, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }
  if (!opt.trace)
    res.metrics["ok_share"] = 1.0 - static_cast<double>(res.failed) /
                                        static_cast<double>(res.attempted);

  std::printf("pipebench %s seed=%u seconds=%g trace=%d\n", opt.workload.c_str(), opt.seed,
              opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& line : res.report) std::printf("  %s\n", line.c_str());
  std::printf("  failed_share: %llu of %llu operations\n",
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  std::size_t shown = 0;
  for (const std::string& p : res.problems)
    if (shown++ < 20) std::printf("  FAILED: %s\n", p.c_str());

  const auto& names = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string json = "{";
  bool finite = true;
  for (const auto& [name, unit] : names) {
    double v = res.metrics.count(name) ? res.metrics.at(name) : 0.0;
    if (!std::isfinite(v)) {
      finite = false;
      v = 0;
    }
    char buf[192];
    std::printf("  %-26s %16.6g %s\n", name, v, unit);
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", name, v, unit);
    json += buf;
  }
  json += "}";
  if (opt.trace) {
    std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                       std::to_string(opt.seed) + ".jsonl";
    try {
      spans.write_jsonl(path);
      std::printf("  spans written to %s\n", path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pipebench: %s\n", e.what());
    }
  }
  bool correct = finite && res.checks_ok && res.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), json.c_str());
  return correct ? 0 : 1;
}
