#include "tensor/sparse.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"

namespace gnn4tdl {
namespace {

TEST(SparseTest, FromTripletsBuildsSortedCsr) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 3, {{2, 1, 5.0}, {0, 2, 1.0}, {0, 0, 2.0}});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.At(0, 0), 2.0);
  EXPECT_EQ(m.At(0, 2), 1.0);
  EXPECT_EQ(m.At(2, 1), 5.0);
  EXPECT_EQ(m.At(1, 1), 0.0);
}

TEST(SparseTest, DuplicateTripletsAreSummed) {
  SparseMatrix m =
      SparseMatrix::FromTriplets(2, 2, {{0, 1, 1.0}, {0, 1, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.At(0, 1), 3.5);
}

TEST(SparseTest, MultiplyMatchesDense) {
  Rng rng(11);
  std::vector<Triplet> trips;
  for (int i = 0; i < 20; ++i)
    trips.push_back({static_cast<size_t>(rng.Int(0, 4)),
                     static_cast<size_t>(rng.Int(0, 5)), rng.Normal()});
  SparseMatrix sp = SparseMatrix::FromTriplets(5, 6, trips);
  Matrix x = Matrix::Randn(6, 3, rng);
  EXPECT_TRUE(sp.Multiply(x).AllClose(sp.ToDense().Matmul(x), 1e-12));
}

TEST(SparseTest, TransposeMultiplyMatchesDense) {
  Rng rng(12);
  std::vector<Triplet> trips;
  for (int i = 0; i < 15; ++i)
    trips.push_back({static_cast<size_t>(rng.Int(0, 3)),
                     static_cast<size_t>(rng.Int(0, 6)), rng.Normal()});
  SparseMatrix sp = SparseMatrix::FromTriplets(4, 7, trips);
  Matrix x = Matrix::Randn(4, 2, rng);
  EXPECT_TRUE(sp.TransposeMultiply(x).AllClose(
      sp.ToDense().Transpose().Matmul(x), 1e-12));
}

TEST(SparseTest, TransposeRoundTrip) {
  SparseMatrix m =
      SparseMatrix::FromTriplets(2, 3, {{0, 2, 1.0}, {1, 0, -2.0}});
  SparseMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.At(2, 0), 1.0);
  EXPECT_EQ(t.At(0, 1), -2.0);
  EXPECT_TRUE(t.Transpose().ToDense().AllClose(m.ToDense(), 0.0));
}

TEST(SparseTest, RowNnzCountsEntries) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 3, {{0, 0, 1.0}, {0, 1, 1.0}, {2, 2, 1.0}});
  EXPECT_EQ(m.RowNnz(0), 2u);
  EXPECT_EQ(m.RowNnz(1), 0u);
  EXPECT_EQ(m.RowNnz(2), 1u);
}

TEST(SparseTest, EmptyMatrixMultiplies) {
  SparseMatrix m = SparseMatrix::FromTriplets(3, 4, {});
  Matrix x = Matrix::Ones(4, 2);
  Matrix out = m.Multiply(x);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.Sum(), 0.0);
}

TEST(SparseTest, FromCsrDirect) {
  SparseMatrix m = SparseMatrix::FromCsr(2, 2, {0, 1, 2}, {1, 0}, {3.0, 4.0});
  EXPECT_EQ(m.At(0, 1), 3.0);
  EXPECT_EQ(m.At(1, 0), 4.0);
}

// Square, duplicate-free: the case the old FromTriplets-based transpose
// handled, and the one Graph and BipartiteGraph rely on.
TEST(SparseTest, TransposeMatchesTripletTranspose) {
  Rng rng(13);
  std::vector<Triplet> trips;
  for (int i = 0; i < 400; ++i)
    trips.push_back({static_cast<size_t>(rng.Int(0, 29)),
                     static_cast<size_t>(rng.Int(0, 44)), rng.Normal()});
  SparseMatrix m = SparseMatrix::FromTriplets(30, 45, trips);

  std::vector<Triplet> swapped;
  for (size_t r = 0; r < m.rows(); ++r)
    for (size_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k)
      swapped.push_back({m.col_idx()[k], r, m.values()[k]});
  SparseMatrix oracle = SparseMatrix::FromTriplets(45, 30, swapped);

  SparseMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 45u);
  EXPECT_EQ(t.cols(), 30u);
  EXPECT_EQ(t.row_ptr(), oracle.row_ptr());
  EXPECT_EQ(t.col_idx(), oracle.col_idx());
  ASSERT_EQ(t.values().size(), oracle.values().size());
  EXPECT_EQ(std::memcmp(t.values().data(), oracle.values().data(),
                        t.values().size() * sizeof(double)),
            0);
}

TEST(SparseTest, TransposeKeepsDuplicatesInOrder) {
  // Row 0 holds (0,2) twice and row 1 holds (1,2): the transpose's row 2
  // lists source rows 0, 0, 1 with the values in their stored order.
  SparseMatrix m = SparseMatrix::FromCsr(2, 3, {0, 3, 4}, {2, 0, 2, 2},
                                         {1.0, 5.0, 2.0, 3.0});
  SparseMatrix t = m.Transpose();
  EXPECT_EQ(t.row_ptr(), (std::vector<size_t>{0, 1, 1, 4}));
  EXPECT_EQ(t.col_idx(), (std::vector<size_t>{0, 0, 0, 1}));
  EXPECT_EQ(t.values(), (std::vector<double>{5.0, 1.0, 2.0, 3.0}));
}

TEST(SparseTest, CopiesShareStorageAndWritesCopyFirst) {
  SparseMatrix m = SparseMatrix::FromCsr(2, 3, {0, 2, 3}, {0, 2, 1},
                                         {1.0, 2.0, 3.0});
  Matrix x = Matrix::Ones(2, 1);
  const Matrix mt_x = m.TransposeMultiply(x);  // builds the cached transpose

  SparseMatrix copy = m;
  EXPECT_EQ(copy.row_ptr().data(), m.row_ptr().data());
  EXPECT_EQ(copy.col_idx().data(), m.col_idx().data());
  EXPECT_EQ(copy.values().data(), m.values().data());

  copy.mutable_values()[0] = 10.0;
  EXPECT_NE(copy.values().data(), m.values().data());
  EXPECT_EQ(m.values(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(copy.values(), (std::vector<double>{10.0, 2.0, 3.0}));
  // The original's cached transpose still describes the original ...
  EXPECT_TRUE(m.TransposeMultiply(x).AllClose(mt_x, 0.0));
  EXPECT_EQ(m.Transpose().At(0, 0), 1.0);
  // ... and the copy builds its own from the new values.
  EXPECT_EQ(copy.Transpose().At(0, 0), 10.0);
  EXPECT_EQ(copy.TransposeMultiply(x)(0, 0), 10.0);

  // A sole owner whose transpose was never built writes in place.
  SparseMatrix fresh = SparseMatrix::FromCsr(1, 1, {0, 1}, {0}, {4.0});
  const double* before = fresh.values().data();
  fresh.mutable_values()[0] = 5.0;
  EXPECT_EQ(fresh.values().data(), before);
  EXPECT_EQ(fresh.At(0, 0), 5.0);
}

TEST(SparseTest, TransposeSharesCachedStorage) {
  SparseMatrix m =
      SparseMatrix::FromTriplets(2, 3, {{0, 2, 1.0}, {1, 0, -2.0}});
  const double* cached = m.Transpose().values().data();
  EXPECT_EQ(m.Transpose().values().data(), cached);
  SparseMatrix copy = m;
  EXPECT_EQ(copy.Transpose().values().data(), cached);
}

}  // namespace
}  // namespace gnn4tdl
