// train: table -> Fit -> FrozenModel::Save, repeated for the run's budget.

#include <chrono>
#include <sstream>

#include "construct/rule_based.h"
#include "core/calibrate.h"
#include "core/stats.h"
#include "runner/bench.h"
#include "obs/clock.h"
#include "obs/kernel_hooks.h"

namespace perfbench {

using gnn4tdl::FrozenModel;
using gnn4tdl::InstanceGraphGnn;
using gnn4tdl::Matrix;

namespace {

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// One fit job on the default path: table -> Fit -> artifact bytes. Empty
// bytes mean the job failed.
std::string FitJob(const WorkloadConfig& cfg, const Tables& tables,
                   std::unique_ptr<InstanceGraphGnn>* model, Report& report) {
  *model = std::make_unique<InstanceGraphGnn>(ModelOptions(cfg));
  gnn4tdl::Status fit = (*model)->Fit(tables.train, tables.split);
  if (!fit.ok()) {
    report.Note("fit failed: " + fit.ToString());
    return "";
  }
  std::ostringstream artifact;
  gnn4tdl::Status save = FrozenModel::Save(**model, artifact, cfg.precision);
  if (!save.ok()) {
    report.Note("save failed: " + save.ToString());
    return "";
  }
  return artifact.str();
}

// Test-split AUROC of the fitted model's transductive predictions.
double TestAuroc(InstanceGraphGnn& model, const Tables& tables) {
  auto logits = model.Predict(tables.train);
  if (!logits.ok()) return 0.0;
  std::vector<double> scores;
  std::vector<int> labels;
  for (size_t r : tables.split.test) {
    scores.push_back(PositiveScore(logits->row_data(r), logits->cols()));
    labels.push_back(tables.train.class_labels()[r]);
  }
  return Auroc(scores, labels);
}

// The loaded artifact must serve the sample batch bit-equal to
// PredictInductive.
void CheckArtifact(const FrozenModel& frozen, InstanceGraphGnn& model,
                   const Tables& tables, Report& report) {
  const gnn4tdl::TabularDataset sample =
      TakeRows(tables.pool, 0, kSampleRows);
  auto expected = model.PredictInductive(sample);
  if (!expected.ok()) {
    report.Fail("artifact check: " + expected.status().ToString());
    return;
  }
  auto served = frozen.Score(sample);
  report.Require(served.ok() && BitEqual(*served, *expected),
                 "served logits of the saved artifact are not bit-equal to "
                 "PredictInductive");
}

// Set-up of serving `artifact`, as the serve workloads time it.
gnn4tdl::StatusOr<double> StartServingArtifact(const std::string& artifact,
                                               const WorkloadConfig& cfg,
                                               Serving* serving) {
  return StartServing(
      [&artifact] {
        std::istringstream in(artifact);
        return FrozenModel::Load(in);
      },
      cfg, serving);
}

}  // namespace

FitLayers ProfileFit(const WorkloadConfig& cfg, const Tables& tables,
                     SpanRecorder* recorder, Report& report) {
  FitLayers out;
  std::unique_ptr<InstanceGraphGnn> reference;
  const auto start = std::chrono::steady_clock::now();
  out.artifact = FitJob(cfg, tables, &reference, report);
  const double default_job_s = Since(start);
  if (out.artifact.empty()) {
    report.Fail("fit on the default path failed");
    return out;
  }
  // KnnGraph needs the featurized table; the frozen featurizer gives exactly
  // the matrix Fit built.
  std::istringstream in(out.artifact);
  auto frozen = FrozenModel::Load(in);
  auto featurized = frozen.ok() ? frozen->Featurize(tables.train)
                                : gnn4tdl::StatusOr<Matrix>(frozen.status());
  if (!featurized.ok()) {
    report.Fail("featurize: " + featurized.status().ToString());
    return out;
  }

  gnn4tdl::InstanceGraphGnnOptions options = ModelOptions(cfg);
  options.graph_source = gnn4tdl::GraphSource::kPrecomputed;
  InstanceGraphGnn split_model(options);
  std::string split_artifact;
  int64_t job = -1, knn = -1, fit = -1, save = -1;
  {
    ScopedSpan job_span(recorder, "train.job", -1, 1);
    job = job_span.index();
    gnn4tdl::Graph graph;
    {
      ScopedSpan span(recorder, "construct.knn_graph", job, 1);
      knn = span.index();
      graph = gnn4tdl::KnnGraph(*featurized, options.knn);
    }
    split_model.SetGraph(std::move(graph));
    gnn4tdl::obs::KernelCounters::Reset();
    gnn4tdl::obs::KernelCounters::Enable();
    {
      ScopedSpan span(recorder, "train.fit", job, 1);
      fit = span.index();
      gnn4tdl::Status st = split_model.Fit(tables.train, tables.split);
      report.Require(st.ok(), "fit on the precomputed graph: " + st.ToString());
    }
    gnn4tdl::obs::KernelCounters::Disable();
    {
      ScopedSpan span(recorder, "train.save", job, 1);
      save = span.index();
      std::ostringstream artifact;
      gnn4tdl::Status st = FrozenModel::Save(split_model, artifact, cfg.precision);
      report.Require(st.ok(), "save: " + st.ToString());
      split_artifact = artifact.str();
    }
  }
  auto split_logits = split_model.Predict(tables.train);
  auto default_logits = reference->Predict(tables.train);
  report.Require(split_logits.ok() && default_logits.ok() &&
                     BitEqual(*split_logits, *default_logits),
                 "KnnGraph + Fit on the precomputed graph does not reach the "
                 "default path's logits bit for bit");
  report.Require(split_artifact == out.artifact,
                 "the split path's artifact differs from the default path's");

  const std::vector<Span>& spans = recorder->spans();
  out.knn_graph_s = SpanRecorder::DurationMs(spans[knn]) * 1e-3;
  out.fit_s = SpanRecorder::DurationMs(spans[fit]) * 1e-3;
  out.epoch_ms = SpanRecorder::DurationMs(spans[fit]) / cfg.epochs;
  out.save_ms = SpanRecorder::DurationMs(spans[save]);
  out.job_s = SpanRecorder::DurationMs(spans[job]) * 1e-3;
  out.uncovered_s = recorder->SelfMs()[job] * 1e-3;
  out.coverage = (out.knn_graph_s + out.fit_s + out.save_ms * 1e-3) / out.job_s;
  out.overhead_ratio = out.job_s / default_job_s;
  for (const auto& [name, st] : gnn4tdl::obs::KernelCounters::Snapshot()) {
    out.kernels_per_epoch.push_back(
        {name, {static_cast<double>(st.calls) / cfg.epochs,
                st.flops / cfg.epochs, st.bytes / cfg.epochs}});
  }
  return out;
}

RunTotals RunTrainWorkload(const RunContext& ctx, Report& report) {
  const WorkloadConfig& cfg = *ctx.cfg;
  RunTotals totals;
  const Tables tables = DrawTables(cfg, ctx.seed);

  if (!ctx.trace) {
    // Each round is one fit job (table -> artifact bytes), then serving set
    // up on its artifact (setup_s), as the serve workloads time it.
    std::vector<double> job_ms, setup_s;
    std::vector<size_t> job_round;
    std::string first_artifact;
    std::unique_ptr<InstanceGraphGnn> model;
    Serving serving;
    double busy_s = 0.0;
    const auto run_start = std::chrono::steady_clock::now();
    HostProbe probe;
    while (totals.attempted == 0 || Since(run_start) < ctx.seconds) {
      probe.Sample();
      ++totals.attempted;
      const auto start = std::chrono::steady_clock::now();
      const std::string artifact = FitJob(cfg, tables, &model, report);
      const double s = Since(start);
      if (artifact.empty()) {
        ++totals.failed;
        continue;
      }
      job_ms.push_back(s * 1e3);
      job_round.push_back(totals.attempted - 1);
      busy_s += s;
      auto started = StartServingArtifact(artifact, cfg, &serving);
      if (!started.ok()) {
        report.Fail("serving the fresh artifact: " +
                    started.status().ToString());
        return totals;
      }
      setup_s.push_back(*started);
      if (first_artifact.empty()) {
        first_artifact = artifact;
        CheckArtifact(serving.model(), *model, tables, report);
      }
      report.Require(artifact == first_artifact,
                     "two fits of one table produced different artifacts");
    }
    probe.Sample();
    if (job_ms.empty()) {
      report.Fail("every fit failed");
      return totals;
    }
    const double auroc = TestAuroc(*model, tables);
    report.Require(auroc > 0.7, "test AUROC " + std::to_string(auroc) +
                                    " is below 0.7: the model is broken");
    // Each job and its set-up at the reference host speed of its round.
    const std::vector<double> speeds = probe.RoundSpeeds();
    std::vector<double> reference_job_ms, reference_setup_s;
    double reference_busy_s = 0.0;
    size_t within_slo = 0;
    std::string jobs;
    for (size_t j = 0; j < job_ms.size(); ++j) {
      const double speed = speeds[job_round[j]];
      reference_job_ms.push_back(job_ms[j] * speed);
      reference_setup_s.push_back(setup_s[j] * speed);
      reference_busy_s += job_ms[j] * 1e-3 * speed;
      if (reference_job_ms[j] <= cfg.fit_slo_s * 1e3) ++within_slo;
      jobs += " " + std::to_string(job_ms[j]);
    }
    const double rows = static_cast<double>(cfg.train_rows * job_ms.size());
    report.Note("fit jobs as measured (ms):" + jobs);
    report.Note("fits: attempted " + std::to_string(totals.attempted) +
                ", failed " + std::to_string(totals.failed) +
                "; latency samples " + std::to_string(job_ms.size()));
    report.Note("host probe " + std::to_string(probe.median_ms()) +
                " ms, round speeds" + RoundSpeedsText(speeds) +
                "; as measured: latency_p50_ms " +
                std::to_string(Percentile(job_ms, 0.50)) +
                ", throughput_rps " + std::to_string(rows / busy_s) +
                ", setup_s " + std::to_string(Median(setup_s)));
    const double attempted = static_cast<double>(totals.attempted);
    report.Add("latency_p50_ms", Percentile(reference_job_ms, 0.50), "ms");
    report.Add("slo_attainment", static_cast<double>(within_slo) / attempted,
               "ratio");
    report.Add("throughput_rps", rows / reference_busy_s, "rows/s");
    report.Add("success_rate",
               1.0 - static_cast<double>(totals.failed) / attempted, "ratio");
    report.Add("auroc", auroc, "ratio");
    report.Add("setup_s", Median(reference_setup_s), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    return totals;
  }

  SpanRecorder recorder(gnn4tdl::obs::RealClock());
  const FitLayers fit = ProfileFit(cfg, tables, &recorder, report);
  totals.attempted = 1;
  if (fit.artifact.empty()) {
    totals.failed = 1;
    return totals;
  }

  // The train workload writes where serving reads: serve the fresh artifact
  // over the held-out rows of its draw.
  SessionOptions options;
  options.seed = ctx.seed;
  options.open_s = 0.3 * ctx.seconds / kServeRounds;
  options.saturate_s = 0.2 * ctx.seconds / kServeRounds;
  Serving serving;
  Matrix pool_x;
  Session s;
  HostProbe probe;
  for (size_t round = 0; round < kServeRounds; ++round) {
    probe.Sample();
    auto started = StartServingArtifact(fit.artifact, cfg, &serving);
    if (!started.ok()) {
      report.Fail("serving the fresh artifact: " +
                  started.status().ToString());
      return totals;
    }
    if (round == 0) {
      auto featurized = serving.model().Featurize(tables.pool);
      if (!featurized.ok()) {
        report.Fail("featurize: " + featurized.status().ToString());
        return totals;
      }
      pool_x = std::move(*featurized);
    }
    ServeRound(serving, cfg, pool_x, tables.pool.class_labels(), options,
               round, &s);
  }
  CheckSession(s, report);
  totals.attempted += s.open.sent + s.saturate.sent;
  totals.failed += s.open.rejected + s.open.failed + s.saturate.rejected +
                   s.saturate.failed;
  AddLayerMetrics(ctx, serving.model(), pool_x, s, fit, probe,
                  0.1 * ctx.seconds, recorder, report);
  return totals;
}

}  // namespace perfbench
