#pragma once

// The benchmark's own arithmetic: percentiles, ranking quality, open-loop
// schedules and request timing. Kept free of library types so the self-test
// can check every formula against hand-computed values.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Percentile `q` in [0, 1] of `values`, linearly interpolated between the
/// two nearest order statistics (numpy's default). 0 for an empty input.
double Percentile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// Area under the ROC curve of `scores` against 0/1 `labels`, by the
/// Mann-Whitney rank sum with tied scores given their average rank. 0.5 when
/// either class is absent.
double Auroc(const std::vector<double>& scores, const std::vector<int>& labels);

/// Poisson arrivals at `rate_per_s` over `duration_s`: nanosecond offsets
/// from the phase start, a pure function of the seed.
std::vector<int64_t> PoissonArrivals(uint64_t seed, double rate_per_s,
                                     double duration_s);

/// `count` row indices drawn uniformly from [0, pool_size), with
/// replacement, a pure function of the seed.
std::vector<size_t> UniformRows(uint64_t seed, size_t count, size_t pool_size);

/// Share of entries that equal some earlier entry.
double RepeatShare(const std::vector<size_t>& rows);

/// One open segment's latency figures. `latency_ms` holds one entry per
/// request sent, infinite for a request that was rejected or failed: those
/// count as misses of the limit and are left out of the percentiles.
struct LatencyFigures {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Requests answered within `slo_ms` / requests sent (0 when none was).
  double attainment = 0.0;
  size_t completed = 0;
};

LatencyFigures SummarizeLatencies(const std::vector<double>& latency_ms,
                                  double slo_ms);

/// Timestamps of one open-loop request. A request is due when the schedule
/// says it should be sent; it is submitted when the generator gets to it and
/// done when its logits are in the client's hands.
struct RequestTimes {
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
};

/// Latency as the user sees it: due -> done, so a generator stall counts
/// against every request it delayed.
inline double LatencyMs(const RequestTimes& t) {
  return static_cast<double>(t.done_ns - t.due_ns) * 1e-6;
}

/// How late the generator ran: due -> submitted.
inline double LagMs(const RequestTimes& t) {
  return static_cast<double>(t.submit_ns - t.due_ns) * 1e-6;
}

}  // namespace perfbench
