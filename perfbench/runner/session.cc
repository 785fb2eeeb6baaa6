// The serving session and the traced replay: everything the benchmark
// measures on the serving path.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <limits>
#include <thread>

#include "core/accounting.h"
#include "core/stats.h"
#include "runner/bench.h"
#include "obs/kernel_hooks.h"
#include "serve/tenant_engine.h"

namespace perfbench {

using gnn4tdl::Matrix;
using gnn4tdl::MultiTenantEngine;
using gnn4tdl::StatusCode;

gnn4tdl::TenantOptions TenantPolicy(const WorkloadConfig& cfg) {
  gnn4tdl::TenantOptions t;
  t.max_batch = cfg.max_batch;
  t.deadline_ms = cfg.deadline_ms;
  t.slo_ms = cfg.slo_ms;
  return t;
}

namespace {

using SteadyClock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

SteadyClock::time_point TimePoint(int64_t ns) {
  return SteadyClock::time_point(std::chrono::nanoseconds(ns));
}

std::vector<double> RowOf(const Matrix& x, size_t r) {
  return std::vector<double>(x.row_data(r), x.row_data(r) + x.cols());
}

// Resolves one reply: completed with finite logits, or failed.
struct Reply {
  bool ok = false;
  bool finite = true;
  double score = 0.0;
};

Reply Collect(std::future<std::vector<double>>& future) {
  Reply r;
  try {
    std::vector<double> logits = future.get();
    r.ok = true;
    for (double v : logits) r.finite = r.finite && std::isfinite(v);
    r.score = logits.empty() ? 0.0 : PositiveScore(logits.data(), logits.size());
  } catch (...) {
    r.ok = false;
  }
  return r;
}

// Submits one row; a rejected or failed submission is resolved on the spot.
// Returns true and fills `future` when the engine accepted the row.
bool SubmitRow(MultiTenantEngine& engine, const Matrix& pool_x, size_t row,
               size_t id, Ledger& ledger, size_t* failed_before_engine,
               std::future<std::vector<double>>* future) {
  auto submitted = engine.Submit(kTenant, RowOf(pool_x, row));
  if (submitted.ok()) {
    *future = std::move(*submitted);
    return true;
  }
  if (submitted.status().code() == StatusCode::kResourceExhausted) {
    ledger.Resolve(id, Outcome::kRejected);
  } else {
    ledger.Resolve(id, Outcome::kFailed);
    ++*failed_before_engine;
  }
  return false;
}

// Stops the engine and adds its phase segment to `phase`, reconciling the
// segment's ledger against the engine's counters.
void Finish(MultiTenantEngine& engine, const Ledger& ledger,
            size_t failed_before_engine, PhaseResult* phase) {
  engine.Stop();
  const gnn4tdl::ServeStats stats = engine.Stats();
  phase->sent += ledger.sent();
  phase->completed += ledger.completed();
  phase->rejected += ledger.rejected();
  phase->failed += ledger.failed();
  phase->engine_requests += stats.requests;
  phase->engine_batches += stats.batches;
  phase->queue_wait_ms_sum += stats.queue_wait_ms_sum;
  phase->accounting +=
      ledger.Check(stats.requests, stats.rejected, failed_before_engine);
  auto tenant = engine.TenantStats(kTenant);
  if (!tenant.ok()) {
    phase->accounting += "tenant stats: " + tenant.status().ToString() + "; ";
  } else if (tenant->requests != stats.requests ||
             tenant->rejected != stats.rejected) {
    phase->accounting += "tenant counters differ from the engine's; ";
  }
}

// Seeds of a round's streams: distinct per seed, round and stream.
uint64_t StreamSeed(uint64_t seed, size_t round, uint64_t stream) {
  return (seed * 1'000'003 + round) * 4 + stream;
}

void RunOpen(MultiTenantEngine& engine, const WorkloadConfig& cfg,
             const Matrix& pool_x, const std::vector<int>& pool_labels,
             const SessionOptions& options, size_t round, Session* s) {
  const std::vector<int64_t> arrivals = PoissonArrivals(
      StreamSeed(options.seed, round, 1), cfg.open_rps, options.open_s);
  const std::vector<size_t> rows = UniformRows(
      StreamSeed(options.seed, round, 2), arrivals.size(), pool_x.rows());
  const size_t n = arrivals.size();
  std::vector<RequestTimes> times(n);
  std::vector<Reply> replies(n);

  Ledger ledger;
  size_t failed_before_engine = 0;
  struct Pending {
    size_t id;
    std::future<std::vector<double>> future;
  };
  std::deque<Pending> pending;

  // One thread sends and collects. Replies arrive in submission order (one
  // tenant, one FIFO queue), so waiting on the oldest future until the next
  // request is due stamps each reply when it lands and each send on time,
  // without a second thread to wake.
  const int64_t start_ns = NowNs() + 1'000'000;
  size_t next = 0;
  while (next < n || !pending.empty()) {
    const int64_t due =
        next < n ? start_ns + arrivals[next] : std::numeric_limits<int64_t>::max();
    if (!pending.empty()) {
      if (pending.front().future.wait_until(TimePoint(due)) ==
          std::future_status::ready) {
        Pending p = std::move(pending.front());
        pending.pop_front();
        replies[p.id] = Collect(p.future);
        times[p.id].done_ns = NowNs();
        ledger.Resolve(p.id, replies[p.id].ok ? Outcome::kCompleted
                                              : Outcome::kFailed);
        continue;
      }
    } else {
      std::this_thread::sleep_until(TimePoint(due));
    }
    const size_t id = ledger.Send();
    times[id].due_ns = due;
    times[id].submit_ns = NowNs();
    std::future<std::vector<double>> future;
    if (SubmitRow(engine, pool_x, rows[next], id, ledger,
                  &failed_before_engine, &future)) {
      pending.push_back({id, std::move(future)});
    }
    ++next;
  }
  Finish(engine, ledger, failed_before_engine, &s->open);

  std::vector<double> latency_ms(n);
  for (size_t i = 0; i < n; ++i) {
    latency_ms[i] = replies[i].ok ? LatencyMs(times[i]) : INFINITY;
    s->open_lag_ms.push_back(LagMs(times[i]));
    if (!replies[i].ok) continue;
    s->finite = s->finite && replies[i].finite;
    s->scores.push_back(replies[i].score);
    s->labels.push_back(pool_labels[rows[i]]);
  }
  s->open_rounds.push_back(SummarizeLatencies(latency_ms, cfg.slo_ms));
  s->open_latency_ms.insert(s->open_latency_ms.end(), latency_ms.begin(),
                            latency_ms.end());
  s->open_rows.insert(s->open_rows.end(), rows.begin(), rows.end());
  s->open_round.insert(s->open_round.end(), n, round);
}

void RunSaturate(const gnn4tdl::ModelRegistry& registry,
                 const WorkloadConfig& cfg, const Matrix& pool_x,
                 const std::vector<int>& pool_labels,
                 const SessionOptions& options, size_t round, Session* s) {
  // Rows cycle through a fixed seeded sequence, longer than any segment
  // this workload runs at the capacities it reaches.
  const std::vector<size_t> rows =
      UniformRows(StreamSeed(options.seed, round, 3), 1 << 15, pool_x.rows());
  const size_t window = 2 * cfg.max_batch;

  MultiTenantEngine engine(&registry);
  Ledger ledger;
  size_t failed_before_engine = 0;
  struct Pending {
    size_t id;
    size_t row;
    std::future<std::vector<double>> future;
  };
  std::deque<Pending> outstanding;
  size_t next = 0, scored = 0;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(options.saturate_s * 1e9);
  int64_t last_done = start;

  auto collect_oldest = [&] {
    Pending p = std::move(outstanding.front());
    outstanding.pop_front();
    const Reply r = Collect(p.future);
    last_done = NowNs();
    ledger.Resolve(p.id, r.ok ? Outcome::kCompleted : Outcome::kFailed);
    if (!r.ok) return;
    ++scored;
    s->finite = s->finite && r.finite;
    s->scores.push_back(r.score);
    s->labels.push_back(pool_labels[p.row]);
  };

  while (NowNs() < end) {
    while (outstanding.size() < window) {
      const size_t row = rows[next++ % rows.size()];
      const size_t id = ledger.Send();
      std::future<std::vector<double>> future;
      if (SubmitRow(engine, pool_x, row, id, ledger, &failed_before_engine,
                    &future)) {
        outstanding.push_back({id, row, std::move(future)});
      }
    }
    collect_oldest();
  }
  while (!outstanding.empty()) collect_oldest();
  Finish(engine, ledger, failed_before_engine, &s->saturate);
  const double busy_s = static_cast<double>(last_done - start) * 1e-9;
  s->saturate_rows += scored;
  s->saturate_s += busy_s;
  s->saturate_round_s.push_back(busy_s);
  s->saturate_rps.push_back(static_cast<double>(scored) / busy_s);
}

// Touches the freshly loaded model's buffers before anything is timed.
void WarmUp(const gnn4tdl::FrozenModel& model, const Matrix& pool_x,
            size_t batch_rows) {
  Matrix x(std::min(batch_rows, pool_x.rows()), pool_x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    std::copy(pool_x.row_data(r), pool_x.row_data(r) + pool_x.cols(),
              x.row_data(r));
  }
  for (int i = 0; i < 4; ++i) (void)model.ScoreFeatures(x);
}

}  // namespace

double PhaseResult::queue_wait_ms() const {
  return engine_requests > 0
             ? queue_wait_ms_sum / static_cast<double>(engine_requests)
             : 0.0;
}

double PhaseResult::batch_rows() const {
  return engine_batches > 0 ? static_cast<double>(engine_requests) /
                                  static_cast<double>(engine_batches)
                            : 0.0;
}

const gnn4tdl::FrozenModel& Serving::model() const {
  return *registry->Find(kTenant)->model;
}

gnn4tdl::StatusOr<double> StartServing(
    const std::function<gnn4tdl::StatusOr<gnn4tdl::FrozenModel>()>& load,
    const WorkloadConfig& cfg, Serving* serving) {
  serving->engine.reset();
  serving->registry.reset();
  const int64_t start = NowNs();
  gnn4tdl::StatusOr<gnn4tdl::FrozenModel> loaded = load();
  if (!loaded.ok()) return loaded.status();
  auto registry = std::make_unique<gnn4tdl::ModelRegistry>();
  gnn4tdl::Status added =
      registry->AddTenant(kTenant, std::move(*loaded), TenantPolicy(cfg));
  if (!added.ok()) return added;
  auto engine = std::make_unique<MultiTenantEngine>(registry.get());
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  serving->registry = std::move(registry);
  serving->engine = std::move(engine);
  return seconds;
}

void ServeRound(Serving& serving, const WorkloadConfig& cfg,
                const Matrix& pool_x, const std::vector<int>& pool_labels,
                const SessionOptions& options, size_t round, Session* s) {
  WarmUp(serving.model(), pool_x, cfg.max_batch);
  RunOpen(*serving.engine, cfg, pool_x, pool_labels, options, round, s);
  RunSaturate(*serving.registry, cfg, pool_x, pool_labels, options, round, s);
}

ServeFigures SummarizeSession(const Session& s, double slo_ms,
                              const std::vector<double>& round_speeds) {
  ServeFigures f;
  std::vector<double> latency_ms = s.open_latency_ms;
  double saturate_s = s.saturate_s;
  if (!round_speeds.empty()) {
    for (size_t i = 0; i < latency_ms.size(); ++i) {
      latency_ms[i] *= round_speeds[s.open_round[i]];
    }
    saturate_s = 0.0;
    for (size_t r = 0; r < s.saturate_round_s.size(); ++r) {
      saturate_s += s.saturate_round_s[r] * round_speeds[r];
    }
  }
  const LatencyFigures all = SummarizeLatencies(latency_ms, slo_ms);
  f.latency_p50_ms = all.p50_ms;
  f.latency_p99_ms = all.p99_ms;
  f.slo_attainment = all.attainment;
  f.throughput_rps =
      saturate_s > 0.0 ? static_cast<double>(s.saturate_rows) / saturate_s
                       : 0.0;
  std::vector<double> p99;
  for (const LatencyFigures& r : s.open_rounds) p99.push_back(r.p99_ms);
  f.round_latency_p99_ms = Median(p99);
  f.latency_samples = all.completed;
  return f;
}

void CheckSession(const Session& s, Report& report) {
  report.Require(s.open.accounting.empty(),
                 "open-phase accounting: " + s.open.accounting);
  report.Require(s.saturate.accounting.empty(),
                 "saturate-phase accounting: " + s.saturate.accounting);
  report.Require(s.finite, "a served logit is not finite");
}

// --- Traced replay ----------------------------------------------------------

namespace {

Matrix GatherBatch(const Matrix& pool_x, const std::vector<size_t>& rows,
                   size_t first, size_t count) {
  Matrix x(count, pool_x.cols());
  for (size_t i = 0; i < count; ++i) {
    std::copy(pool_x.row_data(rows[first + i]),
              pool_x.row_data(rows[first + i]) + pool_x.cols(), x.row_data(i));
  }
  return x;
}

struct BatchSpans {
  int64_t batch = -1;
  int64_t knn = -1;
  int64_t attach = -1;
  int64_t forward = -1;
};

}  // namespace

ReplayLayers ReplayStream(const gnn4tdl::FrozenModel& model,
                          const Matrix& pool_x,
                          const std::vector<size_t>& stream_rows,
                          size_t batch_rows, double budget_s,
                          SpanRecorder* recorder) {
  ReplayLayers out;
  out.batch_rows = std::max<size_t>(batch_rows, 1);
  const size_t available = stream_rows.size() / out.batch_rows;
  const size_t k = model.attacher().options().k;
  const bool with_features =
      model.precision() == gnn4tdl::kernels::Precision::kF64;

  double subgraph_nodes = 0.0;
  std::vector<BatchSpans> spans;
  // Batch b through the probes and the served call, traced when `rec` is
  // set; returns how long it took.
  auto run_batch = [&](SpanRecorder* rec, size_t b) {
    const int64_t start = NowNs();
    BatchSpans ids;
    {
      ScopedSpan batch(rec, "serve.batch", -1, b);
      ids.batch = batch.index();
      const Matrix x = GatherBatch(pool_x, stream_rows, b * out.batch_rows,
                                   out.batch_rows);
      {
        ScopedSpan span(rec, "serve.knn", ids.batch, b);
        ids.knn = span.index();
        if (model.index().QueryBatch(x, k).size() != x.rows()) {
          out.finite = false;
        }
      }
      {
        ScopedSpan span(rec, "serve.attach", ids.batch, b);
        ids.attach = span.index();
        auto attached = model.attacher().Attach(x, with_features);
        if (!attached.ok()) {
          out.finite = false;
        } else if (rec != nullptr) {
          subgraph_nodes += static_cast<double>(attached->train_nodes.size());
        }
      }
      {
        ScopedSpan span(rec, "serve.forward", ids.batch, b);
        ids.forward = span.index();
        auto logits = model.ScoreFeatures(x);
        if (!logits.ok()) {
          out.finite = false;
        } else {
          for (size_t r = 0; r < logits->rows(); ++r) {
            for (size_t c = 0; c < logits->cols(); ++c) {
              out.finite = out.finite && std::isfinite((*logits)(r, c));
            }
          }
        }
      }
    }
    if (rec != nullptr) spans.push_back(ids);
    return static_cast<double>(NowNs() - start);
  };

  // Each batch runs untraced and traced back to back, the order alternating
  // so that neither side always finds the caches warm: the overhead ratio
  // compares the two under the same conditions.
  for (size_t b = 0; b < std::min<size_t>(available, 8); ++b) {
    run_batch(nullptr, b);  // warm-up
  }
  const int64_t start = NowNs();
  double untraced_ns = 0.0, traced_ns = 0.0;
  for (size_t b = 0; b < available; ++b) {
    if (static_cast<double>(NowNs() - start) * 1e-9 > budget_s) break;
    if (b % 2 == 0) untraced_ns += run_batch(nullptr, b);
    traced_ns += run_batch(recorder, b);
    if (b % 2 == 1) untraced_ns += run_batch(nullptr, b);
    ++out.batches;
  }
  if (out.batches == 0) return out;
  out.overhead_ratio = traced_ns / untraced_ns;

  const std::vector<Span>& all = recorder->spans();
  const std::vector<double> self = recorder->SelfMs();
  double knn = 0, attach = 0, forward = 0, served = 0, glue = 0;
  for (const BatchSpans& ids : spans) {
    const double d_knn = SpanRecorder::DurationMs(all[ids.knn]);
    const double d_attach = SpanRecorder::DurationMs(all[ids.attach]);
    const double d_forward = SpanRecorder::DurationMs(all[ids.forward]);
    knn += d_knn;
    attach += d_attach - d_knn;
    forward += d_forward - d_attach;
    // The probes are measurement calls, not served work: what one served
    // batch costs is the batch span without them.
    served += SpanRecorder::DurationMs(all[ids.batch]) - d_knn - d_attach;
    glue += self[ids.batch];
  }
  const double nb = static_cast<double>(spans.size());
  out.knn_ms = knn / nb;
  out.attach_ms = attach / nb;
  out.forward_ms = forward / nb;
  out.served_ms = served / nb;
  out.uncovered_ms = glue / nb;
  out.coverage = (out.knn_ms + out.attach_ms + out.forward_ms) / out.served_ms;
  out.subgraph_nodes = subgraph_nodes / nb;

  // Kernel work of the served call, counted in a separate pass so the
  // counters' bookkeeping stays out of the timed passes.
  const size_t counted = std::min<size_t>(out.batches, 16);
  gnn4tdl::obs::KernelCounters::Reset();
  gnn4tdl::obs::KernelCounters::Enable();
  for (size_t b = 0; b < counted; ++b) {
    const Matrix x =
        GatherBatch(pool_x, stream_rows, b * out.batch_rows, out.batch_rows);
    if (!model.ScoreFeatures(x).ok()) out.finite = false;
  }
  gnn4tdl::obs::KernelCounters::Disable();
  const double rows = static_cast<double>(counted * out.batch_rows);
  for (const auto& [name, st] : gnn4tdl::obs::KernelCounters::Snapshot()) {
    out.kernels_per_row.push_back(
        {name, {static_cast<double>(st.calls) / rows, st.flops / rows,
                st.bytes / rows}});
  }
  return out;
}

}  // namespace perfbench
