#include "tensor/sparse.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "obs/kernel_hooks.h"

namespace gnn4tdl {

namespace {

// Row-block grain for SpMM-family kernels: each chunk holds roughly this many
// multiply-adds (nnz_in_chunk * dense_cols). Rows vary in nnz, so the grain
// is derived from the average row cost — good enough for the 4x-per-thread
// oversubscription ParallelFor already applies.
size_t SpmmRowGrain(size_t nnz, size_t rows, size_t dense_cols) {
  constexpr size_t kFlopGrain = 65536;
  const size_t avg_row_cost =
      std::max<size_t>(1, (nnz / std::max<size_t>(rows, 1)) * dense_cols);
  return std::max<size_t>(1, kFlopGrain / avg_row_cost);
}

}  // namespace

SparseMatrix::SparseMatrix() : csr_(std::make_shared<Csr>()) {
  csr_->row_ptr.assign(1, 0);
}

SparseMatrix SparseMatrix::FromTriplets(size_t rows, size_t cols,
                                        std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    GNN4TDL_CHECK_LT(t.row, rows);
    GNN4TDL_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  auto m = std::make_shared<Csr>();
  m->rows = rows;
  m->cols = cols;
  m->row_ptr.assign(rows + 1, 0);
  m->col_idx.reserve(triplets.size());
  m->values.reserve(triplets.size());

  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    m->col_idx.push_back(triplets[i].col);
    m->values.push_back(sum);
    m->row_ptr[triplets[i].row + 1]++;
    i = j;
  }
  for (size_t r = 0; r < rows; ++r) m->row_ptr[r + 1] += m->row_ptr[r];
  return SparseMatrix(std::move(m));
}

SparseMatrix SparseMatrix::FromCsr(size_t rows, size_t cols,
                                   std::vector<size_t> row_ptr,
                                   std::vector<size_t> col_idx,
                                   std::vector<double> values) {
  GNN4TDL_CHECK_EQ(row_ptr.size(), rows + 1);
  GNN4TDL_CHECK_EQ(col_idx.size(), values.size());
  GNN4TDL_CHECK_EQ(row_ptr.back(), col_idx.size());
  auto m = std::make_shared<Csr>();
  m->rows = rows;
  m->cols = cols;
  m->row_ptr = std::move(row_ptr);
  m->col_idx = std::move(col_idx);
  m->values = std::move(values);
  return SparseMatrix(std::move(m));
}

std::vector<double>& SparseMatrix::mutable_values() {
  // With one owner no other thread can reach the storage, so reading
  // `transpose` needs no synchronisation.
  if (csr_.use_count() != 1 || csr_->transpose != nullptr) {
    auto copy = std::make_shared<Csr>();
    copy->rows = csr_->rows;
    copy->cols = csr_->cols;
    copy->row_ptr = csr_->row_ptr;
    copy->col_idx = csr_->col_idx;
    copy->values = csr_->values;
    csr_ = std::move(copy);
  }
  return csr_->values;
}

const std::shared_ptr<SparseMatrix::Csr>& SparseMatrix::Transposed() const {
  Csr& a = *csr_;
  std::call_once(a.transpose_once, [&a] {
    // Stable counting sort of the entries by column: one pass counts each
    // column, a prefix sum turns counts into row starts of the transpose,
    // and a second pass in (row, position) order drops every entry into its
    // column's next slot — so each transposed row lists its source rows in
    // ascending order, duplicates kept in their original order.
    auto t = std::make_shared<Csr>();
    t->rows = a.cols;
    t->cols = a.rows;
    t->row_ptr.assign(a.cols + 1, 0);
    for (size_t c : a.col_idx) ++t->row_ptr[c + 1];
    for (size_t c = 0; c < a.cols; ++c) t->row_ptr[c + 1] += t->row_ptr[c];
    t->col_idx.resize(a.col_idx.size());
    t->values.resize(a.values.size());
    std::vector<size_t> next(t->row_ptr.begin(), t->row_ptr.end() - 1);
    for (size_t r = 0; r < a.rows; ++r) {
      for (size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
        const size_t slot = next[a.col_idx[k]]++;
        t->col_idx[slot] = r;
        t->values[slot] = a.values[k];
      }
    }
    a.transpose = std::move(t);
  });
  return a.transpose;
}

// out = a * dense. CSR rows are independent: parallel over output-row
// blocks, each row accumulating in serial k-order — bit-exact for every
// thread count.
Matrix SparseMatrix::RowSpmm(const char* kernel_name, const Csr& a,
                             const Matrix& dense) {
  GNN4TDL_CHECK_EQ(a.cols, dense.rows());
  Matrix out(a.rows, dense.cols());
  const size_t n = dense.cols();
  const size_t nnz = a.col_idx.size();
  obs::KernelScope kernel(
      kernel_name, 2.0 * static_cast<double>(nnz) * n,
      8.0 * (static_cast<double>(nnz) * (n + 2) +
             static_cast<double>(a.rows) * n));
  ParallelFor(0, a.rows, SpmmRowGrain(nnz, a.rows, n),
              [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      double* out_row = out.row_data(r);
      for (size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
        const double v = a.values[k];
        const double* d_row = dense.row_data(a.col_idx[k]);
        for (size_t j = 0; j < n; ++j) out_row[j] += v * d_row[j];
      }
    }
  });
  return out;
}

Matrix SparseMatrix::Multiply(const Matrix& dense) const {
  return RowSpmm("spmm", *csr_, dense);
}

Matrix SparseMatrix::TransposeMultiply(const Matrix& dense) const {
  // Row c of the transpose lists the entries of column c in ascending
  // source-row order, so out(c, :) sums the same products in the same order
  // as a serial scatter over the rows of this matrix.
  return RowSpmm("spmm_t", *Transposed(), dense);
}

SparseMatrix SparseMatrix::Transpose() const {
  return SparseMatrix(Transposed());
}

Matrix SparseMatrix::ToDense() const {
  const Csr& a = *csr_;
  Matrix out(a.rows, a.cols);
  for (size_t r = 0; r < a.rows; ++r)
    for (size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k)
      out(r, a.col_idx[k]) += a.values[k];
  return out;
}

namespace {

// Grain for per-edge segment kernels: scatter phases cost a handful of flops
// per edge, so chunks hold many edges; below this the per-chunk group arrays
// (num_groups doubles each) would dominate.
constexpr size_t kSegmentGrain = 8192;

// Folds per-edge contributions into per-group accumulators. The scatter is
// racy across threads, so each chunk fills its own group array (initialized
// to `init`) and the arrays are tree-combined with `fold`. One partial per
// pool lane bounds memory at threads * num_groups doubles.
template <typename PerEdge, typename Fold>
std::vector<double> SegmentAccumulate(size_t num_edges, size_t num_groups,
                                      double init, const PerEdge& per_edge,
                                      const Fold& fold) {
  std::vector<Range> ranges =
      PartitionRange(0, num_edges, kSegmentGrain,
                     ThreadPool::Global().num_threads());
  if (ranges.size() <= 1) {
    std::vector<double> acc(num_groups, init);
    for (size_t e = 0; e < num_edges; ++e) per_edge(e, acc);
    return acc;
  }
  std::vector<std::vector<double>> partials(ranges.size());
  ThreadPool::Global().Run(ranges.size(), [&](size_t c) {
    std::vector<double> acc(num_groups, init);
    for (size_t e = ranges[c].begin; e < ranges[c].end; ++e) per_edge(e, acc);
    partials[c] = std::move(acc);
  });
  TreeCombine(partials,
              [&](std::vector<double>& into, const std::vector<double>& from) {
                for (size_t g = 0; g < into.size(); ++g) fold(into[g], from[g]);
              });
  return std::move(partials[0]);
}

}  // namespace

Matrix SegmentSoftmax(const Matrix& logits, const std::vector<size_t>& seg,
                      size_t num_groups) {
  GNN4TDL_CHECK_EQ(logits.cols(), 1u);
  GNN4TDL_CHECK_EQ(logits.rows(), seg.size());
  const size_t e_count = seg.size();
  // ~5 flops per edge across the max/exp/sum/normalize phases.
  obs::KernelScope kernel("segment_softmax", 5.0 * static_cast<double>(e_count),
                          8.0 * (3.0 * e_count + 2.0 * num_groups));
  for (size_t e = 0; e < e_count; ++e) GNN4TDL_CHECK_LT(seg[e], num_groups);

  // Phase 1: per-group max (order-insensitive fold).
  std::vector<double> group_max = SegmentAccumulate(
      e_count, num_groups, -std::numeric_limits<double>::infinity(),
      [&](size_t e, std::vector<double>& acc) {
        acc[seg[e]] = std::max(acc[seg[e]], logits(e, 0));
      },
      [](double& into, double from) { into = std::max(into, from); });

  // Phase 2: shifted exponentials (elementwise, write-disjoint) ...
  Matrix out(e_count, 1);
  ParallelFor(0, e_count, kSegmentGrain, [&](size_t lo, size_t hi) {
    for (size_t e = lo; e < hi; ++e)
      out(e, 0) = std::exp(logits(e, 0) - group_max[seg[e]]);
  });
  // ... and per-group sums (tree-reduced, deterministic per thread count).
  std::vector<double> group_sum = SegmentAccumulate(
      e_count, num_groups, 0.0,
      [&](size_t e, std::vector<double>& acc) { acc[seg[e]] += out(e, 0); },
      [](double& into, double from) { into += from; });

  // Phase 3: normalize (elementwise).
  ParallelFor(0, e_count, kSegmentGrain, [&](size_t lo, size_t hi) {
    for (size_t e = lo; e < hi; ++e) out(e, 0) /= group_sum[seg[e]];
  });
  return out;
}

Matrix SegmentSoftmaxBackward(const Matrix& softmax, const Matrix& grad,
                              const std::vector<size_t>& seg,
                              size_t num_groups) {
  GNN4TDL_CHECK_EQ(softmax.cols(), 1u);
  GNN4TDL_CHECK_EQ(grad.cols(), 1u);
  GNN4TDL_CHECK_EQ(softmax.rows(), seg.size());
  GNN4TDL_CHECK_EQ(grad.rows(), seg.size());
  const size_t e_count = seg.size();
  obs::KernelScope kernel("segment_softmax_bwd",
                          5.0 * static_cast<double>(e_count),
                          8.0 * (4.0 * e_count + num_groups));

  std::vector<double> group_dot = SegmentAccumulate(
      e_count, num_groups, 0.0,
      [&](size_t e, std::vector<double>& acc) {
        acc[seg[e]] += grad(e, 0) * softmax(e, 0);
      },
      [](double& into, double from) { into += from; });

  Matrix out(e_count, 1);
  ParallelFor(0, e_count, kSegmentGrain, [&](size_t lo, size_t hi) {
    for (size_t e = lo; e < hi; ++e)
      out(e, 0) = softmax(e, 0) * (grad(e, 0) - group_dot[seg[e]]);
  });
  return out;
}

double SparseMatrix::At(size_t row, size_t col) const {
  const Csr& a = *csr_;
  GNN4TDL_CHECK_LT(row, a.rows);
  GNN4TDL_CHECK_LT(col, a.cols);
  auto begin = a.col_idx.begin() + static_cast<ptrdiff_t>(a.row_ptr[row]);
  auto end = a.col_idx.begin() + static_cast<ptrdiff_t>(a.row_ptr[row + 1]);
  auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return a.values[static_cast<size_t>(it - a.col_idx.begin())];
}

}  // namespace gnn4tdl
