#include "nn/serialize.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/text_format.h"

namespace gnn4tdl {

namespace {
constexpr char kMagic[] = "gnn4tdl-params-v1";
}  // namespace

Status SaveParameters(const Module& module, std::ostream& out) {
  if (!out) return Status::IoError("parameter output stream is not writable");

  std::vector<Tensor> params = module.Parameters();
  std::string block = std::string(kMagic) + '\n' +
                      std::to_string(params.size()) + '\n';
  for (const Tensor& p : params) {
    block += std::to_string(p.rows()) + ' ' + std::to_string(p.cols()) + '\n';
    const Matrix& m = p.value();
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) {
        if (c > 0) block += ' ';
        AppendDouble(block, m(r, c));
      }
      block += '\n';
    }
  }
  out.write(block.data(), static_cast<std::streamsize>(block.size()));
  if (!out) return Status::IoError("write failure on parameter stream");
  return Status::OK();
}

Status LoadParameters(const Module& module, std::istream& in) {
  std::string magic;
  if (!(in >> magic) || magic != kMagic) {
    return Status::InvalidArgument("stream is not a gnn4tdl parameter block");
  }
  size_t count = 0;
  if (!(in >> count)) return Status::IoError("truncated parameter block");

  std::vector<Tensor> params = module.Parameters();
  if (count != params.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: file has " + std::to_string(count) +
        ", module has " + std::to_string(params.size()));
  }
  for (Tensor& p : params) {
    size_t rows = 0, cols = 0;
    if (!(in >> rows >> cols)) return Status::IoError("truncated parameter block");
    if (rows != p.rows() || cols != p.cols()) {
      return Status::InvalidArgument(
          "parameter shape mismatch: file has " + std::to_string(rows) + "x" +
          std::to_string(cols) + ", module has " + std::to_string(p.rows()) +
          "x" + std::to_string(p.cols()));
    }
    Matrix& m = p.mutable_value();
    for (size_t r = 0; r < rows; ++r)
      for (size_t c = 0; c < cols; ++c)
        if (!(in >> m(r, c))) return Status::IoError("truncated parameter block");
  }
  return Status::OK();
}

Status SaveParameters(const Module& module, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  Status s = SaveParameters(module, out);
  if (!s.ok()) return s;
  if (!out) return Status::IoError("write failure on '" + path + "'");
  return Status::OK();
}

Status LoadParameters(const Module& module, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  Status s = LoadParameters(module, in);
  if (!s.ok() && s.code() == StatusCode::kInvalidArgument &&
      s.message() == "stream is not a gnn4tdl parameter block") {
    return Status::InvalidArgument("'" + path +
                                   "' is not a gnn4tdl parameter file");
  }
  return s;
}

}  // namespace gnn4tdl
