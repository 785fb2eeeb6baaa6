// gnn4tdl_perfbench: one workload run, or the build of a serve fixture.
//
//   gnn4tdl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --fixture-dir DIR --out-dir DIR
//                     [--git-commit ID] [--source-sha256 HASH]
//   gnn4tdl_perfbench --build-fixture NAME --fixture-dir DIR
//
// Prints a header line, one line per metric, and as its last line the result
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness or accounting check failed, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner/bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "gnn4tdl_perfbench: %s\nworkloads: %s\n"
               "usage: gnn4tdl_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --fixture-dir DIR --out-dir DIR\n"
               "       gnn4tdl_perfbench --build-fixture NAME --fixture-dir "
               "DIR\n",
               why, perfbench::WorkloadsHelp().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, build_fixture, git_commit = "unknown",
                                       source_sha256 = "unknown";
  perfbench::RunContext ctx;
  ctx.seconds = -1.0;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--build-fixture") {
      build_fixture = value;
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      ctx.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--fixture-dir") {
      ctx.fixture_dir = value;
    } else if (arg == "--out-dir") {
      ctx.out_dir = value;
    } else if (arg == "--git-commit") {
      git_commit = value;
    } else if (arg == "--source-sha256") {
      source_sha256 = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (ctx.fixture_dir.empty()) return Usage("--fixture-dir is required");

  if (!build_fixture.empty()) {
    const perfbench::WorkloadConfig* cfg =
        perfbench::FindWorkload(build_fixture);
    if (cfg == nullptr || !cfg->serve) {
      return Usage("--build-fixture needs a serve workload");
    }
    return perfbench::BuildFixture(*cfg, ctx.fixture_dir);
  }

  ctx.cfg = perfbench::FindWorkload(workload);
  if (ctx.cfg == nullptr) return Usage("unknown --workload");
  if (!have_seed || !have_trace || !(ctx.seconds > 0.0) ||
      ctx.out_dir.empty()) {
    return Usage("--seed, --seconds > 0, --trace 0|1 and --out-dir are "
                 "required");
  }

  std::printf("header %s\n",
              perfbench::RunHeaderJson(ctx, git_commit, source_sha256).c_str());
  perfbench::Report report;
  const perfbench::RunTotals totals =
      ctx.cfg->serve ? perfbench::RunServeWorkload(ctx, report)
                     : perfbench::RunTrainWorkload(ctx, report);
  for (const auto& m : report.metrics()) {
    report.Require(std::isfinite(m.value), "metric " + m.name +
                                               " is not finite");
  }
  if (report.metrics().empty()) report.Fail("no metric was measured");
  std::printf("%s\n", report.ResultJson(totals.attempted, totals.failed).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
