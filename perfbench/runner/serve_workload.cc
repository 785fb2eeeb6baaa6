// serve-large and serve-small: load the fixture, serve a seeded request
// stream through one MultiTenantEngine tenant, check every answer.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>

#include "core/calibrate.h"
#include "core/stats.h"
#include "runner/bench.h"
#include "obs/clock.h"
#include "serve/tenant_engine.h"

namespace perfbench {

using gnn4tdl::FrozenModel;
using gnn4tdl::Matrix;

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

Matrix FirstRows(const Matrix& x, size_t n) {
  Matrix out(n, x.cols());
  for (size_t r = 0; r < n; ++r) {
    std::copy(x.row_data(r), x.row_data(r) + x.cols(), out.row_data(r));
  }
  return out;
}

// The served logits of the sample batch against the fitted model's
// PredictInductive: bit-equal at f64; within 1e-3 at f32, whose artifact is
// also loaded at f64 to hold the bit-exact contract there.
void CheckSample(const WorkloadConfig& cfg, const Fixture& fixture,
                 const FrozenModel& model, const Matrix& pool_x,
                 Report& report) {
  const Matrix sample = FirstRows(pool_x, fixture.sample_logits.rows());
  auto served = model.ScoreFeatures(sample);
  if (!served.ok()) {
    report.Fail("sample batch: " + served.status().ToString());
    return;
  }
  report.Require(model.precision() == cfg.precision,
                 "model serves at another precision than its artifact");
  if (cfg.precision == gnn4tdl::kernels::Precision::kF64) {
    report.Require(BitEqual(*served, fixture.sample_logits),
                   "f64 served logits are not bit-equal to PredictInductive");
    return;
  }
  const double diff = MaxAbsDiff(*served, fixture.sample_logits);
  report.Note("f32 vs f64 max |logit diff| on the sample batch: " +
              std::to_string(diff));
  report.Require(diff <= 1e-3, "f32 served logits differ from f64 by > 1e-3");
  gnn4tdl::FrozenModelOptions f64;
  f64.precision = gnn4tdl::kernels::Precision::kF64;
  auto reference = FrozenModel::Load(fixture.artifact_path, f64);
  if (!reference.ok()) {
    report.Fail("f64 reload: " + reference.status().ToString());
    return;
  }
  auto exact = reference->ScoreFeatures(sample);
  report.Require(exact.ok() && BitEqual(*exact, fixture.sample_logits),
                 "f64 served logits are not bit-equal to PredictInductive");
}

}  // namespace

RunTotals RunServeWorkload(const RunContext& ctx, Report& report) {
  const WorkloadConfig& cfg = *ctx.cfg;
  RunTotals totals;
  Fixture fixture;
  const std::string missing = ReadFixture(cfg, ctx.fixture_dir, &fixture);
  if (!missing.empty()) {
    report.Fail("fixture: " + missing);
    return totals;
  }
  const Tables tables = DrawTables(cfg, cfg.table_seed);
  const auto load = [&] { return FrozenModel::Load(fixture.artifact_path); };

  // Each round starts serving as a serving process does (Load, register,
  // engine start: setup_s) and then serves an open and a saturate segment.
  SessionOptions options;
  options.seed = ctx.seed;
  // Half a round goes to the open segment, whose tail needs the samples,
  // and most of the rest to the saturate segment; the set-ups take what is
  // left.
  options.open_s = 0.5 * ctx.seconds / kServeRounds;
  options.saturate_s = 0.4 * ctx.seconds / kServeRounds;
  Serving serving;
  Matrix pool_x;
  Session s;
  std::vector<double> setup_s;
  HostProbe probe;
  for (size_t round = 0; round < kServeRounds; ++round) {
    probe.Sample();
    auto started = StartServing(load, cfg, &serving);
    if (!started.ok()) {
      report.Fail("start serving: " + started.status().ToString());
      return totals;
    }
    setup_s.push_back(*started);
    if (round == 0) {
      auto featurized = serving.model().Featurize(tables.pool);
      if (!featurized.ok()) {
        report.Fail("featurize: " + featurized.status().ToString());
        return totals;
      }
      pool_x = std::move(*featurized);
      CheckSample(cfg, fixture, serving.model(), pool_x, report);
    }
    ServeRound(serving, cfg, pool_x, tables.pool.class_labels(), options,
               round, &s);
  }
  probe.Sample();
  CheckSession(s, report);
  const double auroc = Auroc(s.scores, s.labels);
  report.Require(auroc > 0.7, "served AUROC " + std::to_string(auroc) +
                                  " is below 0.7: predictions are broken");

  totals.attempted = s.open.sent + s.saturate.sent;
  totals.failed = s.open.rejected + s.open.failed + s.saturate.rejected +
                  s.saturate.failed;
  const double error_rate =
      totals.attempted > 0 ? static_cast<double>(totals.failed) /
                                 static_cast<double>(totals.attempted)
                           : 1.0;
  const std::vector<double> speeds = probe.RoundSpeeds();
  const ServeFigures raw = SummarizeSession(s, cfg.slo_ms);
  const ServeFigures f = SummarizeSession(s, cfg.slo_ms, speeds);
  std::vector<double> reference_setup_s;
  for (size_t r = 0; r < setup_s.size(); ++r) {
    reference_setup_s.push_back(setup_s[r] * speeds[r]);
  }
  report.Note("open phase: sent " + std::to_string(s.open.sent) +
              ", completed " + std::to_string(s.open.completed) +
              ", rejected " + std::to_string(s.open.rejected) + ", failed " +
              std::to_string(s.open.failed) + "; latency samples " +
              std::to_string(f.latency_samples) + " in " +
              std::to_string(s.open_rounds.size()) + " rounds");
  report.Note("saturate phase: sent " + std::to_string(s.saturate.sent) +
              ", completed " + std::to_string(s.saturate.completed) +
              ", rejected " + std::to_string(s.saturate.rejected) +
              ", failed " + std::to_string(s.saturate.failed));
  report.Note("error_rate " + std::to_string(error_rate));
  std::string rounds;
  for (size_t r = 0; r < s.open_rounds.size(); ++r) {
    char line[96];
    std::snprintf(line, sizeof(line), " %.3g/%.4g/%.3g", setup_s[r],
                  s.open_rounds[r].p50_ms, s.saturate_rps[r]);
    rounds += line;
  }
  report.Note("rounds (setup s/open p50 ms/saturate rows/s):" + rounds);
  report.Note("open p99 " + std::to_string(raw.latency_p99_ms) +
              " ms over the phase, median of round p99s " +
              std::to_string(raw.round_latency_p99_ms) + " ms");
  report.Note("host probe " + std::to_string(probe.median_ms()) +
              " ms, round speeds" + RoundSpeedsText(speeds) +
              "; as measured: latency_p50_ms " +
              std::to_string(raw.latency_p50_ms) + ", slo_attainment " +
              std::to_string(raw.slo_attainment) + ", throughput_rps " +
              std::to_string(raw.throughput_rps) + ", setup_s " +
              std::to_string(Median(setup_s)));

  if (!ctx.trace) {
    report.Add("latency_p50_ms", f.latency_p50_ms, "ms");
    report.Add("slo_attainment", f.slo_attainment, "ratio");
    report.Add("throughput_rps", f.throughput_rps, "rows/s");
    report.Add("success_rate", 1.0 - error_rate, "ratio");
    report.Add("auroc", auroc, "ratio");
    report.Add("setup_s", Median(reference_setup_s), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    return totals;
  }

  // The fixture rebuilt in this process, default path and split path: both
  // must reproduce the fixture's artifact byte for byte.
  SpanRecorder recorder(gnn4tdl::obs::RealClock());
  const FitLayers fit = ProfileFit(cfg, tables, &recorder, report);
  report.Require(fit.artifact == ReadFile(fixture.artifact_path),
                 "refitting the fixture's table does not rebuild its artifact "
                 "bit for bit");
  AddLayerMetrics(ctx, serving.model(), pool_x, s, fit, probe,
                  0.15 * ctx.seconds, recorder, report);
  return totals;
}

}  // namespace perfbench
