#include "core/calibrate.h"

#include <chrono>
#include <cstdint>
#include <thread>

#include "core/stats.h"

namespace perfbench {
namespace {

// The probe's inputs, built once and only read: a 8192 x 16 table (1 MiB),
// ten seeded neighbours per row and a 16 x 16 weight matrix.
constexpr size_t kRows = 8192, kDim = 16, kNeighbors = 10, kQueries = 24;

struct ProbeInputs {
  std::vector<double> table;
  std::vector<uint32_t> neighbors;
  std::vector<double> weights;

  ProbeInputs()
      : table(kRows * kDim), neighbors(kRows * kNeighbors),
        weights(kDim * kDim) {
    uint64_t s = 0x9e3779b97f4a7c15ull;
    auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return s;
    };
    for (double& v : table) v = static_cast<double>(next() % 1000) * 1e-3;
    for (uint32_t& n : neighbors) n = static_cast<uint32_t>(next() % kRows);
    for (double& v : weights) v = static_cast<double>(next() % 100) * 1e-2;
  }
};

const ProbeInputs& Inputs() {
  static const ProbeInputs inputs;
  return inputs;
}

// The shapes of the program's own work, on the benchmark's own code: a
// distance scan (kNN), a gather-sum over neighbour lists (sparse
// aggregation) and a dense product (a linear layer).
double Work(const ProbeInputs& in) {
  double checksum = 0.0;
  for (size_t q = 0; q < kQueries; ++q) {
    const double* query = &in.table[q * 997 % kRows * kDim];
    double best = 1e300;
    for (size_t r = 0; r < kRows; ++r) {
      const double* row = &in.table[r * kDim];
      double d = 0.0;
      for (size_t c = 0; c < kDim; ++c) {
        const double diff = row[c] - query[c];
        d += diff * diff;
      }
      best = d < best ? d : best;
    }
    checksum += best;
  }
  double agg[kDim], out[kDim];
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < kDim; ++c) agg[c] = 0.0;
    for (size_t k = 0; k < kNeighbors; ++k) {
      const double* row = &in.table[in.neighbors[r * kNeighbors + k] * kDim];
      for (size_t c = 0; c < kDim; ++c) agg[c] += row[c];
    }
    for (size_t j = 0; j < kDim; ++j) {
      double acc = 0.0;
      for (size_t c = 0; c < kDim; ++c) acc += agg[c] * in.weights[c * kDim + j];
      out[j] = acc > 0.0 ? acc : 0.0;
    }
    checksum += out[r % kDim];
  }
  return checksum;
}

}  // namespace

double ProbeMs(size_t threads) {
  const ProbeInputs& in = Inputs();
  std::vector<double> sink(threads);
  const auto start = std::chrono::steady_clock::now();
  if (threads <= 1) {
    sink[0] = Work(in);
  } else {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] { sink[t] = Work(in); });
    }
    for (std::thread& w : workers) w.join();
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  volatile double keep = 0.0;
  for (double v : sink) keep = keep + v;
  return ms;
}

void HostProbe::Sample() {
  // The first pass after an idle stretch also pays for waking the core; it
  // is not counted.
  ProbeMs(1);
  std::vector<double> group;
  for (int i = 0; i < 7; ++i) group.push_back(ProbeMs(1));
  groups_.push_back(std::move(group));
}

double HostProbe::median_ms() const {
  std::vector<double> all;
  for (const auto& g : groups_) all.insert(all.end(), g.begin(), g.end());
  return Median(all);
}

std::vector<double> HostProbe::RoundSpeeds() const {
  std::vector<double> speeds;
  for (size_t r = 0; r + 1 < groups_.size(); ++r) {
    std::vector<double> around = groups_[r];
    around.insert(around.end(), groups_[r + 1].begin(), groups_[r + 1].end());
    speeds.push_back(kReferenceProbeMs / Median(around));
  }
  return speeds;
}

}  // namespace perfbench
