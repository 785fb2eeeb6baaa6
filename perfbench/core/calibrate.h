#pragma once

// The host probe: a fixed unit of work in the benchmark's own code, which no
// library change can speed up or slow down, timed at points spread over a
// run. Its median says how fast the host ran that run; the end-to-end timings
// are reported at the speed of the reference host through it.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Times one pass of the probe's work on `threads` threads at once, each
/// doing the whole pass, in milliseconds until the last one finishes. The
/// pass has the shapes of the program's own work: a distance scan (kNN), a
/// gather-sum over neighbour lists (sparse aggregation) and a dense product
/// (a linear layer), over about 1.3 MiB of inputs shared by every thread.
double ProbeMs(size_t threads);

/// The host speed every normalized timing is reported at: the single-thread
/// probe's typical median on the box the benchmark was defined on (a shared
/// 4-vCPU Xeon VM with AVX2). Any fixed value would do; this one keeps the
/// reported figures near the measured ones on that box.
inline constexpr double kReferenceProbeMs = 4.9;

/// Single-thread probe samples collected over a run, in groups taken between
/// its rounds of work.
class HostProbe {
 public:
  /// Takes a group of back-to-back samples on the calling thread. Call it
  /// where the library is idle: before each round of work and after the
  /// last.
  void Sample();
  double median_ms() const;
  /// Per round, the host speed of the two groups around it (one fewer entry
  /// than groups): kReferenceProbeMs over their median, below 1 when the
  /// host ran the round slower than the reference. A time t measured in
  /// round r is reported as t * RoundSpeeds()[r], at the reference speed.
  std::vector<double> RoundSpeeds() const;

 private:
  std::vector<std::vector<double>> groups_;
};

}  // namespace perfbench
