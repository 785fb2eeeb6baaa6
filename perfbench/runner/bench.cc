#include "runner/bench.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/rng.h"
#include "data/synthetic.h"

namespace perfbench {

using gnn4tdl::kernels::Precision;

namespace {

// Why each workload exists is recorded in BENCHMARK.json; the numbers that
// shape it live here.
// - open_rps sits well below the saturate-phase capacity measured on the
//   commit that defined the benchmark (serve-large about 1,000-1,400
//   rows/s, serve-small about 3,900-5,400): about a third and a quarter of
//   it. Nearer capacity, queueing amplified the run-to-run noise of a
//   shared 4-vCPU box past the metrics' bounds.
// - slo_ms sits near the open-phase p99 of a contended host: on the commit
//   that defined the benchmark the p99 was 7.4-9.0 ms (serve-large) and
//   5.0-6.6 ms (serve-small) on a quiet host, but 14-33 ms and 15-24 ms in
//   most runs while other tenants took a few percent of the VM's time.
//   Limits at or just above the quiet p99 (9/6 and 10/8 ms) let that
//   contention alone move slo_attainment by 0.11-0.28 across ten runs,
//   past its bound.
// - class_sep/confusion put AUROC between 0.8 and 0.95: with confusion 0.2
//   a tenth of the rows carry the other class's features, so the task
//   cannot saturate.
// - serve-large draws 20,000 pool rows, so few requests repeat a row;
//   serve-small's 1,000-row pool makes most of them repeats.
constexpr WorkloadConfig kWorkloads[] = {
    {.name = "serve-large",
     .serve = true,
     .train_rows = 20000,
     .pool_rows = 20000,
     .class_sep = 3.0,
     .confusion = 0.2,
     .table_seed = 11,
     .epochs = 10,
     .precision = Precision::kF64,
     .max_batch = 16,
     .deadline_ms = 2.0,
     .open_rps = 350.0,
     .slo_ms = 25.0,
     .fit_slo_s = 0.0},
    {.name = "serve-small",
     .serve = true,
     .train_rows = 1000,
     .pool_rows = 1000,
     .class_sep = 3.0,
     .confusion = 0.2,
     .table_seed = 12,
     .epochs = 40,
     .precision = Precision::kF32,
     .max_batch = 16,
     .deadline_ms = 2.0,
     .open_rps = 1000.0,
     .slo_ms = 20.0,
     .fit_slo_s = 0.0},
    {.name = "train",
     .serve = false,
     .train_rows = 10000,
     .pool_rows = 1000,
     .class_sep = 3.0,
     .confusion = 0.2,
     .table_seed = 0,
     .epochs = 12,
     .precision = Precision::kF64,
     .max_batch = 16,
     .deadline_ms = 2.0,
     .open_rps = 500.0,
     .slo_ms = 60.0,
     .fit_slo_s = 6.0},
};

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadsHelp() {
  std::string names;
  for (const WorkloadConfig& w : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += w.name;
  }
  return names;
}

gnn4tdl::TabularDataset TakeRows(const gnn4tdl::TabularDataset& data,
                                 size_t begin, size_t end) {
  gnn4tdl::TabularDataset out(end - begin);
  for (size_t c = 0; c < data.NumCols(); ++c) {
    const gnn4tdl::Column& col = data.column(c);
    std::vector<double> values(col.numeric.begin() + begin,
                               col.numeric.begin() + end);
    gnn4tdl::Status st = out.AddNumericColumn(col.name, std::move(values));
    if (!st.ok()) std::abort();
  }
  std::vector<int> labels(data.class_labels().begin() + begin,
                          data.class_labels().begin() + end);
  gnn4tdl::Status st =
      out.SetClassLabels(std::move(labels), data.num_classes(), data.task());
  if (!st.ok()) std::abort();
  return out;
}

Tables DrawTables(const WorkloadConfig& cfg, uint64_t seed) {
  const size_t n = cfg.train_rows + cfg.pool_rows;
  gnn4tdl::TabularDataset all = gnn4tdl::MakeClusters(
      {.num_rows = n,
       .num_classes = 2,
       .dim_informative = 8,
       .dim_noise = 4,
       .cluster_std = 1.0,
       .class_sep = cfg.class_sep,
       .confusion = cfg.confusion,
       .seed = seed});
  Tables t;
  t.train = TakeRows(all, 0, cfg.train_rows);
  t.pool = TakeRows(all, cfg.train_rows, n);
  gnn4tdl::Rng rng(seed + 1);
  t.split = gnn4tdl::StratifiedSplit(t.train.class_labels(), 0.7, 0.15, rng);
  return t;
}

gnn4tdl::InstanceGraphGnnOptions ModelOptions(const WorkloadConfig& cfg) {
  gnn4tdl::InstanceGraphGnnOptions o;
  o.backbone = gnn4tdl::GnnBackbone::kGcn;
  o.knn.k = 10;
  o.hidden_dim = 32;
  o.num_layers = 2;
  o.train.max_epochs = cfg.epochs;
  o.train.patience = 0;
  o.seed = 3;
  return o;
}

double PositiveScore(const double* logits, size_t num_outputs) {
  return num_outputs >= 2 ? logits[1] - logits[0] : logits[0];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

std::string RoundSpeedsText(const std::vector<double>& speeds) {
  std::string text;
  char value[32];
  for (double v : speeds) {
    std::snprintf(value, sizeof(value), " %.3f", v);
    text += value;
  }
  return text;
}

bool BitEqual(const gnn4tdl::Matrix& a, const gnn4tdl::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.row_data(r), b.row_data(r), a.cols() * sizeof(double)) !=
        0) {
      return false;
    }
  }
  return true;
}

double MaxAbsDiff(const gnn4tdl::Matrix& a, const gnn4tdl::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return INFINITY;
  double worst = 0.0;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      const double d = std::fabs(a(r, c) - b(r, c));
      if (!(d <= worst)) worst = d;  // NaN propagates as the worst
    }
  }
  return worst;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
  std::printf("metric %-36s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Note(const std::string& line) {
  std::printf("note   %s\n", line.c_str());
}

void Report::Fail(const std::string& why) {
  failures_.push_back(why);
  std::printf("FAIL   %s\n", why.c_str());
}

void Report::Require(bool cond, const std::string& why) {
  if (!cond) Fail(why);
}

std::string Report::ResultJson(size_t attempted, size_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Non-finite values are not JSON; they also mean the run is wrong.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
