#include "probe.h"

#include <cstdint>
#include <thread>

#include "bench.h"

namespace pipebench {

namespace {

constexpr std::uint32_t kTableWords = 1u << 16;  // 256 KB of u32
constexpr std::uint32_t kCodeLen = 4096;
constexpr int kSteps = 16'000'000;

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

/// Keeps the probe's result alive so the loop is not optimised away;
/// one per thread, as probes run on several threads at once.
thread_local volatile std::uint32_t g_sink;

}  // namespace

double probe_seconds() {
  thread_local std::vector<std::uint32_t> table(kTableWords, 1);
  static const std::vector<std::uint8_t> code = [] {
    std::vector<std::uint8_t> c(kCodeLen);
    std::uint64_t s = 7;
    for (std::uint8_t& op : c) op = static_cast<std::uint8_t>(lcg(s) & 7);
    return c;
  }();
  const std::uint32_t mask = kTableWords - 1;
  Clock::time_point t0 = Clock::now();
  std::uint32_t a = 1, b = 2, pc = 0;
  for (int i = 0; i < kSteps; ++i) {
    switch (code[pc]) {
      case 0: a += b; break;
      case 1: b ^= a << 1; break;
      case 2: table[a & mask] = b; break;
      case 3: b += table[(a >> 3) & mask]; break;
      case 4: if (a & 4) pc = (pc + 17) & (kCodeLen - 1); break;
      case 5: a = a * 2654435761u + 1; break;
      case 6: if (b & 8) a ^= b; else b += 3; break;
      default: b = table[b & mask] + a; break;
    }
    pc = (pc + 1) & (kCodeLen - 1);
  }
  g_sink = a + b;
  return seconds_between(t0, Clock::now());
}

std::size_t HostSpeed::read() {
  Clock::time_point t0 = Clock::now();
  std::vector<std::thread> others;
  for (unsigned i = 1; i < pool_threads(); ++i) others.emplace_back([] { probe_seconds(); });
  probe_seconds();
  for (std::thread& t : others) t.join();
  readings_.push_back(seconds_between(t0, Clock::now()));
  return readings_.size() - 1;
}

double HostSpeed::factor(std::size_t a, std::size_t b) const {
  return kReferenceProbeS / (0.5 * (readings_.at(a) + readings_.at(b)));
}

double HostSpeed::median_s() const { return median(readings_); }

}  // namespace pipebench
