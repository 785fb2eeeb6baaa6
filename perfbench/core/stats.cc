#include "core/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Auroc(const std::vector<double>& scores,
             const std::vector<int>& labels) {
  const size_t n = std::min(scores.size(), labels.size());
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  double positive_rank_sum = 0.0;
  size_t positives = 0;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    const double average_rank = 0.5 * static_cast<double>(i + 1 + j);
    for (size_t t = i; t < j; ++t) {
      if (labels[order[t]] == 1) {
        positive_rank_sum += average_rank;
        ++positives;
      }
    }
    i = j;
  }
  const size_t negatives = n - positives;
  if (positives == 0 || negatives == 0) return 0.5;
  const double p = static_cast<double>(positives);
  return (positive_rank_sum - p * (p + 1.0) / 2.0) /
         (p * static_cast<double>(negatives));
}

namespace {

// 53 random bits -> [0, 1). Written out rather than taken from
// std::uniform_real_distribution, whose algorithm the standard leaves open.
double Unit(std::mt19937_64& engine) {
  return static_cast<double>(engine() >> 11) * 0x1.0p-53;
}

}  // namespace

std::vector<int64_t> PoissonArrivals(uint64_t seed, double rate_per_s,
                                     double duration_s) {
  std::vector<int64_t> arrivals;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return arrivals;
  std::mt19937_64 engine(seed);
  const double end_ns = duration_s * 1e9;
  double at_ns = 0.0;
  for (;;) {
    at_ns += -std::log1p(-Unit(engine)) / rate_per_s * 1e9;
    if (at_ns >= end_ns) break;
    arrivals.push_back(static_cast<int64_t>(at_ns));
  }
  return arrivals;
}

std::vector<size_t> UniformRows(uint64_t seed, size_t count,
                                size_t pool_size) {
  std::vector<size_t> rows(count);
  std::mt19937_64 engine(seed);
  for (size_t& r : rows) {
    r = static_cast<size_t>(Unit(engine) * static_cast<double>(pool_size));
  }
  return rows;
}

LatencyFigures SummarizeLatencies(const std::vector<double>& latency_ms,
                                  double slo_ms) {
  LatencyFigures f;
  std::vector<double> completed;
  size_t within = 0;
  for (double ms : latency_ms) {
    if (std::isfinite(ms)) completed.push_back(ms);
    if (ms <= slo_ms) ++within;
  }
  f.completed = completed.size();
  f.p50_ms = Percentile(completed, 0.50);
  f.p99_ms = Percentile(std::move(completed), 0.99);
  if (!latency_ms.empty()) {
    f.attainment = static_cast<double>(within) /
                   static_cast<double>(latency_ms.size());
  }
  return f;
}

double RepeatShare(const std::vector<size_t>& rows) {
  if (rows.empty()) return 0.0;
  std::vector<size_t> sorted = rows;
  std::sort(sorted.begin(), sorted.end());
  const size_t distinct = static_cast<size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  return static_cast<double>(rows.size() - distinct) /
         static_cast<double>(rows.size());
}

}  // namespace perfbench
