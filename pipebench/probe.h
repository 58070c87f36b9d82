// Host-speed probe: the yardstick the end-to-end times are scaled by
// (README.md in this directory, "Noise").
//
// The benchmark runs on a VM that shares its host with other tenants.
// Their load moves how fast this host runs the pipeline by up to ~2x,
// within seconds and between minutes. The probe is a fixed piece of
// work that uses no rapwam code, read between the timed operations;
// its time moves with the host's speed, so a time multiplied by
// kReferenceProbeS / (probe time around it) is what the operation
// would have taken at the reference speed.
#pragma once

#include <cstddef>
#include <vector>

namespace pipebench {

/// Host seconds one probe takes: a small switch-dispatched register
/// machine running a fixed random program, whose operations branch on
/// data and read or write a 256 KB table at pseudo-random places, as an
/// emulator's dispatch loop does. Of the kernels tried (a plain ALU
/// loop, random read-modify-writes over 1 to 32 MB, pointer chasing
/// over 1 and 4 MB), its time tracked pass times best.
double probe_seconds();

/// The probe's time on the reference host: a 4-vCPU Xeon VM, in a
/// quiet phase. Scaled times read in the units of that host.
constexpr double kReferenceProbeS = 0.110;

/// Probe readings taken through one run, one at each boundary between
/// timed operations. A reading runs one probe on each of pool_threads()
/// threads and takes the wall time of all. The timed threads move
/// between the cores, and when one core is slowed by another tenant
/// they slow with it; a probe on one thread mostly does not see that.
class HostSpeed {
 public:
  /// Takes a reading now; returns its index.
  std::size_t read();
  /// Turns host seconds measured between readings `a` and `b` into
  /// reference-host seconds: kReferenceProbeS over the readings' mean.
  double factor(std::size_t a, std::size_t b) const;
  /// Median reading in seconds; 0 before the first.
  double median_s() const;

 private:
  std::vector<double> readings_;
};

}  // namespace pipebench
