// Per-layer metrics of a traced run, named by the library module they time.

#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/stats.h"
#include "runner/bench.h"

namespace perfbench {
namespace {

// The kernel scopes of the GCN forward (f64 and f32 tiers) and of its
// training step. A kernel a workload does not run reads 0; the totals hold
// every kernel, so a renamed or added scope still counts.
constexpr const char* kServeKernels[] = {"matmul", "spmm", "matmul_f32",
                                         "bias_act_f32", "spmm_bias_act_f32"};
constexpr const char* kTrainKernels[] = {"matmul", "matmul_tn", "matmul_nt",
                                         "spmm", "spmm_t"};

// The layer split must explain the traced total to within this share.
constexpr double kCoverageTolerance = 0.05;

KernelWork Find(const KernelTotals& totals, const std::string& name) {
  for (const auto& [n, w] : totals) {
    if (n == name) return w;
  }
  return {};
}

KernelWork Sum(const KernelTotals& totals) {
  KernelWork sum;
  for (const auto& [n, w] : totals) {
    sum.calls += w.calls;
    sum.flops += w.flops;
    sum.bytes += w.bytes;
  }
  return sum;
}

}  // namespace

void AddLayerMetrics(const RunContext& ctx, const gnn4tdl::FrozenModel& model,
                     const gnn4tdl::Matrix& pool_x, const Session& session,
                     const FitLayers& fit, const HostProbe& probe,
                     double replay_budget_s, SpanRecorder& recorder,
                     Report& report) {
  const ReplayLayers replay = ReplayStream(
      model, pool_x, session.open_rows,
      static_cast<size_t>(std::lround(session.open.batch_rows())),
      replay_budget_s, &recorder);
  report.Require(replay.batches > 0, "the replay scored no batch");
  report.Require(replay.finite, "a replayed call failed or returned "
                                "non-finite logits");
  report.Note("replay: " + std::to_string(replay.batches) + " batches of " +
              std::to_string(replay.batch_rows) + " rows");

  // src/serve: index, attacher; src/gnn + nn + tensor (f64) or src/kernels
  // (f32): the forward.
  report.Add("serve.knn_ms", replay.knn_ms, "ms");
  report.Add("serve.attach_ms", replay.attach_ms, "ms");
  report.Add("serve.forward_ms", replay.forward_ms, "ms");
  report.Add("serve.batch_ms", replay.served_ms, "ms");
  report.Add("serve.uncovered_ms", replay.uncovered_ms, "ms");
  report.Add("serve.coverage_share", replay.coverage, "ratio");
  report.Add("serve.subgraph_nodes", replay.subgraph_nodes, "count");
  report.Add("serve.subgraph_share",
             replay.subgraph_nodes / static_cast<double>(model.num_train_rows()),
             "ratio");
  report.Add("serve.replay_batch_rows", static_cast<double>(replay.batch_rows),
             "count");
  report.Add("serve.trace_overhead_ratio", replay.overhead_ratio, "ratio");
  // The p99 over every open-phase request of the run. It lives here rather
  // than among the end-to-end metrics: on a shared VM it mostly measures
  // how often the host preempts the process, which swung it by more than
  // any usable bound from run to run. slo_attainment against a limit near
  // this p99 gates the tail instead.
  report.Add("serve.open.latency_p99_ms",
             SummarizeSession(session, ctx.cfg->slo_ms).latency_p99_ms, "ms");
  // src/serve engine, per phase; the load generator itself.
  report.Add("serve.open.queue_wait_ms", session.open.queue_wait_ms(), "ms");
  report.Add("serve.open.batch_rows", session.open.batch_rows(), "count");
  report.Add("serve.saturate.queue_wait_ms", session.saturate.queue_wait_ms(),
             "ms");
  report.Add("serve.saturate.batch_rows", session.saturate.batch_rows(),
             "count");
  report.Add("load.lag_p99_ms", Percentile(session.open_lag_ms, 0.99), "ms");
  // The benchmark's own fixed work: how fast the host ran this run.
  report.Add("host.probe_ms", probe.median_ms(), "ms");
  report.Add("input.repeat_share", RepeatShare(session.open_rows), "ratio");
  const KernelWork serve_total = Sum(replay.kernels_per_row);
  report.Add("kernels.total.flops_per_row", serve_total.flops, "flop");
  report.Add("kernels.total.bytes_per_row", serve_total.bytes, "B");
  for (const char* k : kServeKernels) {
    const KernelWork w = Find(replay.kernels_per_row, k);
    report.Add(std::string("kernels.") + k + ".flops_per_row", w.flops, "flop");
    report.Add(std::string("kernels.") + k + ".bytes_per_row", w.bytes, "B");
  }

  // src/construct, src/train + nn + gnn + tensor, src/serve + nn serialize.
  report.Add("construct.knn_graph_s", fit.knn_graph_s, "s");
  report.Add("train.epoch_ms", fit.epoch_ms, "ms");
  report.Add("train.save_ms", fit.save_ms, "ms");
  report.Add("train.job_s", fit.job_s, "s");
  report.Add("train.uncovered_s", fit.uncovered_s, "s");
  report.Add("train.coverage_share", fit.coverage, "ratio");
  report.Add("train.trace_overhead_ratio", fit.overhead_ratio, "ratio");
  const KernelWork train_total = Sum(fit.kernels_per_epoch);
  report.Add("kernels.total.calls_per_epoch", train_total.calls, "count");
  report.Add("kernels.total.bytes_per_epoch", train_total.bytes, "B");
  for (const char* k : kTrainKernels) {
    const KernelWork w = Find(fit.kernels_per_epoch, k);
    report.Add(std::string("kernels.") + k + ".calls_per_epoch", w.calls,
               "count");
    report.Add(std::string("kernels.") + k + ".bytes_per_epoch", w.bytes, "B");
  }

  report.Require(std::fabs(replay.coverage - 1.0) <= kCoverageTolerance,
                 "serve layers cover " + std::to_string(replay.coverage) +
                     " of the traced batch time, outside 1 +- 0.05");
  report.Require(std::fabs(fit.coverage - 1.0) <= kCoverageTolerance,
                 "train layers cover " + std::to_string(fit.coverage) +
                     " of the traced fit job, outside 1 +- 0.05");

  std::error_code ec;
  std::filesystem::create_directories(ctx.out_dir, ec);
  const std::string path = ctx.out_dir + "/" + ctx.cfg->name + "-seed" +
                           std::to_string(ctx.seed) + ".trace.json";
  std::ofstream out(path);
  recorder.WriteJson(out);
  std::printf("note   spans written to %s\n", path.c_str());
}

}  // namespace perfbench
