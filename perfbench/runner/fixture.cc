// Serve-workload fixtures: the model a serve workload loads, trained from a
// fixed seed by the build under test, in a process of its own.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "runner/bench.h"

namespace perfbench {
namespace {

std::string ArtifactPath(const WorkloadConfig& cfg, const std::string& dir) {
  return dir + "/" + cfg.name + ".gnn4tdl";
}
std::string ReferencePath(const WorkloadConfig& cfg, const std::string& dir) {
  return dir + "/" + cfg.name + ".ref";
}

// Writes through a temporary name so a reader never sees half a file.
bool WriteAtomically(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << bytes;
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

}  // namespace

int BuildFixture(const WorkloadConfig& cfg, const std::string& fixture_dir) {
  std::error_code ec;
  std::filesystem::create_directories(fixture_dir, ec);
  const Tables tables = DrawTables(cfg, cfg.table_seed);

  const auto start = std::chrono::steady_clock::now();
  gnn4tdl::InstanceGraphGnn model(ModelOptions(cfg));
  gnn4tdl::Status fit = model.Fit(tables.train, tables.split);
  if (!fit.ok()) {
    std::fprintf(stderr, "fixture %s: fit failed: %s\n", cfg.name,
                 fit.ToString().c_str());
    return 1;
  }
  std::ostringstream artifact;
  gnn4tdl::Status save =
      gnn4tdl::FrozenModel::Save(model, artifact, cfg.precision);
  const double fit_job_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!save.ok()) {
    std::fprintf(stderr, "fixture %s: save failed: %s\n", cfg.name,
                 save.ToString().c_str());
    return 1;
  }

  auto sample = model.PredictInductive(TakeRows(tables.pool, 0, kSampleRows));
  if (!sample.ok()) {
    std::fprintf(stderr, "fixture %s: PredictInductive failed: %s\n",
                 cfg.name, sample.status().ToString().c_str());
    return 1;
  }
  // Hex floats round-trip every bit.
  std::ostringstream ref;
  char buf[64];
  ref << sample->rows() << " " << sample->cols() << "\n";
  for (size_t r = 0; r < sample->rows(); ++r) {
    for (size_t c = 0; c < sample->cols(); ++c) {
      std::snprintf(buf, sizeof(buf), "%a", (*sample)(r, c));
      ref << buf << (c + 1 < sample->cols() ? " " : "\n");
    }
  }
  // The reference is written last: its presence marks a complete fixture.
  if (!WriteAtomically(ArtifactPath(cfg, fixture_dir), artifact.str()) ||
      !WriteAtomically(ReferencePath(cfg, fixture_dir), ref.str())) {
    std::fprintf(stderr, "fixture %s: cannot write to %s\n", cfg.name,
                 fixture_dir.c_str());
    return 1;
  }
  std::printf("fixture %s: fit+save %.3f s, artifact %zu bytes\n", cfg.name,
              fit_job_s, artifact.str().size());
  return 0;
}

std::string ReadFixture(const WorkloadConfig& cfg,
                        const std::string& fixture_dir, Fixture* fixture) {
  fixture->artifact_path = ArtifactPath(cfg, fixture_dir);
  std::ifstream in(ReferencePath(cfg, fixture_dir));
  size_t rows = 0, cols = 0;
  if (!(in >> rows >> cols) || rows == 0 || cols == 0 || rows > kSampleRows ||
      cols > 64) {
    return "missing or malformed " + ReferencePath(cfg, fixture_dir);
  }
  fixture->sample_logits = gnn4tdl::Matrix(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      std::string v;
      if (!(in >> v)) return "truncated " + ReferencePath(cfg, fixture_dir);
      fixture->sample_logits(r, c) = std::strtod(v.c_str(), nullptr);
    }
  }
  if (!std::filesystem::exists(fixture->artifact_path)) {
    return "missing " + fixture->artifact_path;
  }
  return "";
}

}  // namespace perfbench
