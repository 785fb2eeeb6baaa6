// The run header: what was measured, on what, with which configuration.

#include <unistd.h>

#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "core/calibrate.h"
#include "core/stats.h"
#include "runner/bench.h"
#include "kernels/kernels.h"

namespace perfbench {
namespace {

double MedianProbeMs(size_t threads) {
  std::vector<double> ms;
  for (int i = 0; i < 9; ++i) ms.push_back(ProbeMs(threads));
  return Median(ms);
}

}  // namespace

std::string RunHeaderJson(const RunContext& ctx, const std::string& git_commit,
                          const std::string& source_sha256) {
  const long nproc_raw = sysconf(_SC_NPROCESSORS_ONLN);
  const size_t nproc = nproc_raw > 0 ? static_cast<size_t>(nproc_raw) : 1;
  // The same work on 1 thread and on nproc threads at once: if the box
  // delivers c cores, nproc copies take nproc / c times as long as one.
  const double one = MedianProbeMs(1);
  const double all = MedianProbeMs(nproc);
  const double measured_cores =
      all > 0.0 ? static_cast<double>(nproc) * one / all : 0.0;

  const WorkloadConfig& w = *ctx.cfg;
  std::ostringstream out;
  out << "{\"git_commit\": \"" << git_commit << "\""
      << ", \"source_sha256\": \"" << source_sha256 << "\""
      << ", \"nproc\": " << nproc
      << ", \"measured_cores\": " << measured_cores
      << ", \"probe_1_thread_ms\": " << one
      << ", \"probe_nproc_threads_ms\": " << all
      << ", \"pool_threads\": "
      << gnn4tdl::ThreadPool::Global().num_threads()
      << ", \"simd\": \""
      << gnn4tdl::kernels::SimdLevelName(gnn4tdl::kernels::Dispatch().level)
      << "\", \"workload\": {\"name\": \"" << w.name << "\""
      << ", \"kind\": \"" << (w.serve ? "serve" : "train") << "\""
      << ", \"model\": \"gcn k=10 hidden=32 layers=2\""
      << ", \"train_rows\": " << w.train_rows
      << ", \"pool_rows\": " << w.pool_rows
      << ", \"class_sep\": " << w.class_sep
      << ", \"confusion\": " << w.confusion
      << ", \"table_seed\": "
      << (w.serve ? w.table_seed : ctx.seed)
      << ", \"epochs\": " << w.epochs
      << ", \"precision\": \""
      << gnn4tdl::kernels::PrecisionName(w.precision) << "\""
      << ", \"max_batch\": " << w.max_batch
      << ", \"deadline_ms\": " << w.deadline_ms
      << ", \"open_rps\": " << w.open_rps
      << ", \"slo_ms\": " << w.slo_ms
      << ", \"fit_slo_s\": " << w.fit_slo_s << "}"
      << ", \"seed\": " << ctx.seed
      << ", \"seconds\": " << ctx.seconds
      << ", \"trace\": " << (ctx.trace ? 1 : 0) << "}";
  return out.str();
}

}  // namespace perfbench
