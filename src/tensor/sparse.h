#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "tensor/matrix.h"

namespace gnn4tdl {

/// A single weighted directed edge row -> col, used when assembling sparse
/// matrices and graphs.
struct Triplet {
  size_t row;
  size_t col;
  double value;
};

/// Immutable sparse matrix in compressed sparse row (CSR) format. This is the
/// message-passing operator of the library: normalized adjacency matrices,
/// bipartite incidence blocks, and hypergraph incidences are all stored as
/// SparseMatrix and applied to dense feature matrices via Multiply().
///
/// The CSR arrays live in shared, immutable storage: copying a SparseMatrix
/// (into a tape closure, say) bumps a reference count instead of copying the
/// arrays, and every copy sees the same transpose, which the storage builds
/// once on first use (TransposeMultiply, Transpose) and keeps.
class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix();

  // No move operations: a moved-from operator would have no storage, and a
  // copy costs only a reference-count bump.
  SparseMatrix(const SparseMatrix&) = default;
  SparseMatrix& operator=(const SparseMatrix&) = default;

  /// Builds from triplets. Duplicate (row, col) entries are summed. Column
  /// indices within each row are sorted ascending.
  static SparseMatrix FromTriplets(size_t rows, size_t cols,
                                   std::vector<Triplet> triplets);

  /// Builds directly from CSR arrays (row_ptr has rows+1 entries).
  static SparseMatrix FromCsr(size_t rows, size_t cols,
                              std::vector<size_t> row_ptr,
                              std::vector<size_t> col_idx,
                              std::vector<double> values);

  size_t rows() const { return csr_->rows; }
  size_t cols() const { return csr_->cols; }
  size_t nnz() const { return csr_->col_idx.size(); }

  const std::vector<size_t>& row_ptr() const { return csr_->row_ptr; }
  const std::vector<size_t>& col_idx() const { return csr_->col_idx; }
  const std::vector<double>& values() const { return csr_->values; }

  /// Writable values with the same sparsity pattern. Copies the CSR arrays
  /// first (copy on write) unless this matrix is their only owner and no
  /// transpose has been built from them, so other copies and the cached
  /// transpose never see the write.
  std::vector<double>& mutable_values();

  /// Sparse-dense product: (this) * dense, dense has cols() rows.
  Matrix Multiply(const Matrix& dense) const;

  /// Transposed product: (this)^T * dense, dense has rows() rows. Runs
  /// Multiply's output-row-parallel loop over the cached transpose, so each
  /// output element adds its products in ascending input-row order — the
  /// serial scatter's order — and the result is bit-exact at every thread
  /// count.
  Matrix TransposeMultiply(const Matrix& dense) const;

  /// The transpose, sharing the cached transposed storage. Duplicate entries
  /// are kept (not summed), in their original order.
  SparseMatrix Transpose() const;

  /// Dense copy (tests / small matrices only).
  Matrix ToDense() const;

  /// Entry lookup (binary search within the row). Zero if absent.
  double At(size_t row, size_t col) const;

  /// Number of stored entries in `row`.
  size_t RowNnz(size_t row) const {
    GNN4TDL_CHECK_LT(row, rows());
    return csr_->row_ptr[row + 1] - csr_->row_ptr[row];
  }

 private:
  struct Csr {
    size_t rows = 0;
    size_t cols = 0;
    std::vector<size_t> row_ptr;
    std::vector<size_t> col_idx;
    std::vector<double> values;
    // Built once, on first use, by Transposed(); never modified after.
    std::once_flag transpose_once;
    std::shared_ptr<Csr> transpose;
  };

  explicit SparseMatrix(std::shared_ptr<Csr> csr) : csr_(std::move(csr)) {}

  // The cached transpose of csr_, built on the first call (thread-safe).
  const std::shared_ptr<Csr>& Transposed() const;

  // out = a * dense over output-row blocks of the thread pool.
  static Matrix RowSpmm(const char* kernel_name, const Csr& a,
                        const Matrix& dense);

  std::shared_ptr<Csr> csr_;
};

/// Segment (edge) softmax: given per-edge logits (e x 1) and each edge's
/// destination group in `seg`, returns max-shifted softmax weights normalized
/// within each group — the attention kernel of GAT-style layers and learned
/// graph construction. Parallelized with per-chunk partial group max/sum
/// arrays folded by a fixed pairwise tree: deterministic for a fixed thread
/// count, bit-exact with the serial kernel when one chunk suffices.
Matrix SegmentSoftmax(const Matrix& logits, const std::vector<size_t>& seg,
                      size_t num_groups);

/// Gradient of SegmentSoftmax w.r.t. the logits: given the forward output
/// `softmax` and upstream gradient `grad` (both e x 1),
///   d l_e = w_e * (g_e - sum_{e' in group(e)} g_{e'} w_{e'}).
/// Same parallelization and determinism contract as the forward kernel.
Matrix SegmentSoftmaxBackward(const Matrix& softmax, const Matrix& grad,
                              const std::vector<size_t>& seg,
                              size_t num_groups);

}  // namespace gnn4tdl
