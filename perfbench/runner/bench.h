#pragma once

// Shared pieces of the benchmark runner: the workload table, the data draw,
// the model configuration, and the metric report.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/calibrate.h"
#include "core/stats.h"
#include "core/trace.h"
#include "data/split.h"
#include "data/tabular.h"
#include "kernels/kernels.h"
#include "models/knn_gnn.h"
#include "serve/frozen_model.h"
#include "serve/registry.h"
#include "serve/tenant_engine.h"
#include "tensor/matrix.h"

namespace perfbench {

/// One workload. Serve workloads load a fixture model trained from
/// `table_seed`; the run seed only shapes the request stream. The train
/// workload draws its table from the run seed.
struct WorkloadConfig {
  const char* name;
  bool serve;
  size_t train_rows;
  /// Held-out rows of the same draw: the request pool of a serve workload,
  /// the rows the train workload's traced serving session sends.
  size_t pool_rows;
  double class_sep;
  double confusion;
  uint64_t table_seed;
  int epochs;
  gnn4tdl::kernels::Precision precision;
  /// Engine tenant policy.
  size_t max_batch;
  double deadline_ms;
  /// Open-phase Poisson rate (rows/s) and the latency limit that
  /// slo_attainment is judged against.
  double open_rps;
  double slo_ms;
  /// Train workload: the limit a fit job (table -> artifact bytes) must meet.
  double fit_slo_s;
};

const WorkloadConfig* FindWorkload(const std::string& name);
std::string WorkloadsHelp();

/// Rows used for the bit-exactness and precision checks.
constexpr size_t kSampleRows = 16;

/// A serve run is this many rounds, each a set-up, an open segment and a
/// saturate segment. Spreading the repetitions over the whole run averages
/// out the host's slow stretches, which last from a fraction of a second to
/// a few seconds; setup_s is the median over rounds.
constexpr size_t kServeRounds = 10;

/// One draw of a workload's table, split into the rows the model trains on
/// and held-out rows from the same distribution.
struct Tables {
  gnn4tdl::TabularDataset train;
  gnn4tdl::TabularDataset pool;
  gnn4tdl::Split split;
};

Tables DrawTables(const WorkloadConfig& cfg, uint64_t seed);

/// Rows [begin, end) of a numeric table, labels included.
gnn4tdl::TabularDataset TakeRows(const gnn4tdl::TabularDataset& data,
                                 size_t begin, size_t end);

/// The served model shape: GCN, k=10, hidden 32, 2 layers, fixed epochs.
gnn4tdl::InstanceGraphGnnOptions ModelOptions(const WorkloadConfig& cfg);

/// Logit of class 1 minus logit of class 0, a monotone score for AUROC.
double PositiveScore(const double* logits, size_t num_outputs);

double PeakRssMb();

/// " 0.97 1.02 ...": per-round host speeds for the run log.
std::string RoundSpeedsText(const std::vector<double>& speeds);

/// Bit-for-bit comparison of two logit matrices.
bool BitEqual(const gnn4tdl::Matrix& a, const gnn4tdl::Matrix& b);
double MaxAbsDiff(const gnn4tdl::Matrix& a, const gnn4tdl::Matrix& b);

/// Metric lines plus the failures that make a run incorrect.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Prints a line that is not a metric (counts, context).
  void Note(const std::string& line);
  void Fail(const std::string& why);
  /// `if (!cond) Fail(why)`.
  void Require(bool cond, const std::string& why);

  bool correct() const { return failures_.empty(); }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultJson(size_t attempted, size_t failed) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

/// What every run knows: its workload, seed, measuring budget and where
/// fixtures and outputs live.
struct RunContext {
  const WorkloadConfig* cfg = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string fixture_dir;
  std::string out_dir;
};

/// Outcome of a workload run: the request (or fit) totals for the result
/// line. Metrics and failures go to the Report.
struct RunTotals {
  size_t attempted = 0;
  size_t failed = 0;
};

RunTotals RunServeWorkload(const RunContext& ctx, Report& report);
RunTotals RunTrainWorkload(const RunContext& ctx, Report& report);

/// A serve workload's model, built once per build of the benchmark by
/// BuildFixture in its own process (so its training shows in no metric).
struct Fixture {
  std::string artifact_path;
  /// PredictInductive logits of the first kSampleRows pool rows, computed on
  /// the fitted model before it was frozen.
  gnn4tdl::Matrix sample_logits;
};

int BuildFixture(const WorkloadConfig& cfg, const std::string& fixture_dir);
/// Empty on success, else why the fixture could not be read.
std::string ReadFixture(const WorkloadConfig& cfg,
                        const std::string& fixture_dir, Fixture* fixture);

// --- The serving session: rounds of set-up, open and saturate ------------

/// The one tenant every session registers.
inline constexpr const char* kTenant = "bench";

/// A started serving process: the loaded model registered as tenant kTenant
/// and an engine running over it.
struct Serving {
  std::unique_ptr<gnn4tdl::ModelRegistry> registry;
  std::unique_ptr<gnn4tdl::MultiTenantEngine> engine;
  const gnn4tdl::FrozenModel& model() const;
};

/// What a serving process pays before its first request: `load` (a
/// FrozenModel::Load) plus registering the tenant plus engine start.
/// Tears down `*serving` first, untimed, so one model is alive at a time.
/// Returns the seconds the set-up took.
gnn4tdl::StatusOr<double> StartServing(
    const std::function<gnn4tdl::StatusOr<gnn4tdl::FrozenModel>()>& load,
    const WorkloadConfig& cfg, Serving* serving);

/// Per-round phase lengths and the seed of the request streams.
struct SessionOptions {
  uint64_t seed = 0;
  double open_s = 0.0;
  double saturate_s = 0.0;
};

/// One phase's request accounting over every round, each round's engine
/// reconciled against the client's ledger (`accounting` is empty when they
/// all agree).
struct PhaseResult {
  size_t sent = 0;
  size_t completed = 0;
  size_t rejected = 0;
  size_t failed = 0;
  size_t engine_requests = 0;
  size_t engine_batches = 0;
  double queue_wait_ms_sum = 0.0;
  std::string accounting;

  double queue_wait_ms() const;  // engine: mean per request
  double batch_rows() const;     // engine: mean per batch
};

struct Session {
  PhaseResult open;
  PhaseResult saturate;
  /// Open phase, one entry per request sent, in order over every round:
  /// due -> logits (infinite when rejected or failed), due -> submitted, and
  /// its pool row.
  std::vector<double> open_latency_ms;
  std::vector<double> open_lag_ms;
  std::vector<size_t> open_rows;
  /// Per open-phase request, its round.
  std::vector<size_t> open_round;
  /// Saturate phase: rows scored and the time they took, over every round.
  size_t saturate_rows = 0;
  double saturate_s = 0.0;
  std::vector<double> saturate_round_s;
  /// Per round, for the run log: the open segment's latency figures and
  /// the saturate segment's rows scored per second.
  std::vector<LatencyFigures> open_rounds;
  std::vector<double> saturate_rps;
  /// Every served prediction of both phases, for AUROC.
  std::vector<double> scores;
  std::vector<int> labels;
  bool finite = true;
};

/// The session's figures, each over every round of the run, so the host's
/// slow stretches weigh in as often as they occur: latency figures over
/// every open-phase request, throughput as rows scored over saturate time.
/// With `round_speeds` (HostProbe::RoundSpeeds), each round's times are
/// multiplied by its host speed before they are combined, and
/// slo_attainment judges the latencies so scaled against the limit; with
/// none, the figures are as measured.
struct ServeFigures {
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double slo_attainment = 0.0;
  double throughput_rps = 0.0;
  double round_latency_p99_ms = 0.0;  // median of the rounds' p99s
  size_t latency_samples = 0;
};

ServeFigures SummarizeSession(const Session& session, double slo_ms,
                              const std::vector<double>& round_speeds = {});

/// Round `round` of a session: warms the freshly loaded model with a few
/// direct ScoreFeatures batches (counted nowhere), serves seeded Poisson
/// arrivals at cfg.open_rps on `serving`'s engine (then stops it), then runs
/// a closed loop keeping 2 x max_batch requests outstanding on a fresh
/// engine. Each phase has its own engine so its counters reconcile exactly.
void ServeRound(Serving& serving, const WorkloadConfig& cfg,
                const gnn4tdl::Matrix& pool_x,
                const std::vector<int>& pool_labels,
                const SessionOptions& options, size_t round, Session* s);

/// Fails the run on an accounting mismatch or a non-finite served logit.
void CheckSession(const Session& session, Report& report);

/// The workload's tenant policy: batch shape, deadline and latency limit.
gnn4tdl::TenantOptions TenantPolicy(const WorkloadConfig& cfg);

// --- Layers measured from outside, shared by every workload ----------------

/// Kernel work per served row or per training epoch, from
/// obs::KernelCounters. Names are the library's kernel scopes.
struct KernelWork {
  double calls = 0.0;
  double flops = 0.0;
  double bytes = 0.0;
};
using KernelTotals = std::vector<std::pair<std::string, KernelWork>>;

/// The traced serving layers: the open stream replayed against the
/// FrozenModel in fixed-size batches, each batch probed with
/// KnnIndex::QueryBatch and InductiveAttacher::Attach before the served
/// ScoreFeatures call.
struct ReplayLayers {
  size_t batches = 0;
  size_t batch_rows = 0;
  double knn_ms = 0.0;      // QueryBatch
  double attach_ms = 0.0;   // Attach - QueryBatch
  double forward_ms = 0.0;  // ScoreFeatures - Attach
  double served_ms = 0.0;   // per batch: served call plus the runner's glue
  double uncovered_ms = 0.0;
  double coverage = 0.0;    // (knn + attach + forward) / served
  double subgraph_nodes = 0.0;
  double overhead_ratio = 0.0;  // traced pass / untraced pass
  KernelTotals kernels_per_row;
  bool finite = true;
};

ReplayLayers ReplayStream(const gnn4tdl::FrozenModel& model,
                          const gnn4tdl::Matrix& pool_x,
                          const std::vector<size_t>& stream_rows,
                          size_t batch_rows, double budget_s,
                          SpanRecorder* recorder);

/// The traced training layers: KnnGraph on the featurized table, Fit on that
/// precomputed graph, FrozenModel::Save.
struct FitLayers {
  double knn_graph_s = 0.0;
  double fit_s = 0.0;
  double epoch_ms = 0.0;
  double save_ms = 0.0;
  double job_s = 0.0;
  double uncovered_s = 0.0;
  double coverage = 0.0;        // (construct + fit + save) / job
  double overhead_ratio = 0.0;  // traced job / untraced default-path job
  KernelTotals kernels_per_epoch;
  /// The default path's artifact, which the split path must reproduce.
  std::string artifact;
};

/// Fits `tables` on the default path once, untraced (the reference and the
/// baseline of the tracing overhead), then on the split path under spans:
/// KnnGraph, Fit on that precomputed graph, Save. Fails the run unless both
/// paths reach bit-identical logits and artifacts.
FitLayers ProfileFit(const WorkloadConfig& cfg, const Tables& tables,
                     SpanRecorder* recorder, Report& report);

/// The traced run's tail, shared by every workload: replays the session's
/// open stream against `model` in batches of the open phase's mean size
/// (for up to `replay_budget_s`), prints every per-layer metric in one fixed
/// order, checks that the layer split covers the traced totals, and writes
/// the spans to the run's output directory. Per-layer times are as measured;
/// `probe` gives the host speed they were measured at.
void AddLayerMetrics(const RunContext& ctx, const gnn4tdl::FrozenModel& model,
                     const gnn4tdl::Matrix& pool_x, const Session& session,
                     const FitLayers& fit, const HostProbe& probe,
                     double replay_budget_s, SpanRecorder& recorder,
                     Report& report);

/// The run header as one JSON object: source identity, core counts, pool
/// size, SIMD level, and the workload's configuration and seed. Call it
/// before the measured work: it spins every CPU for a moment.
std::string RunHeaderJson(const RunContext& ctx, const std::string& git_commit,
                          const std::string& source_sha256);

}  // namespace perfbench
