#include "common/parallel.h"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/ops.h"
#include "tensor/sparse.h"

namespace gnn4tdl {
namespace {

// Restores the global pool to its env-configured size when a test ends, so
// tests that resize it cannot leak thread counts into later tests.
class PoolSizeGuard {
 public:
  PoolSizeGuard() = default;
  ~PoolSizeGuard() { ThreadPool::Global().SetNumThreads(ThreadCountFromEnv()); }
};

TEST(ThreadPoolTest, StartupShutdownAndResize) {
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    std::vector<int> hits(8, 0);
    pool.Run(8, [&](size_t c) { hits[c]++; });
    for (int h : hits) EXPECT_EQ(h, 1);

    pool.SetNumThreads(2);
    EXPECT_EQ(pool.num_threads(), 2u);
    pool.Run(8, [&](size_t c) { hits[c]++; });
    for (int h : hits) EXPECT_EQ(h, 2);

    pool.SetNumThreads(1);  // serial mode: no workers at all
    EXPECT_EQ(pool.num_threads(), 1u);
    pool.Run(3, [&](size_t c) { hits[c]++; });
  }  // destructor joins whatever workers remain
}

TEST(ThreadPoolTest, RunWithZeroChunksIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.Run(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  PoolSizeGuard guard;
  ThreadPool::Global().SetNumThreads(4);
  const size_t n = 10007;  // prime: uneven chunk boundaries
  std::vector<int> hits(n, 0);
  ParallelFor(0, n, 16, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  bool called = false;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ExceptionPropagatesAndPoolStaysUsable) {
  PoolSizeGuard guard;
  ThreadPool::Global().SetNumThreads(4);
  EXPECT_THROW(ParallelFor(0, 1000, 1,
                           [&](size_t lo, size_t) {
                             if (lo >= 500) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // The pool must have fully retired the failed job: a fresh job runs clean.
  std::vector<int> hits(100, 0);
  ParallelFor(0, 100, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, NestedParallelismIsRejected) {
  PoolSizeGuard guard;
  ThreadPool::Global().SetNumThreads(2);
  EXPECT_THROW(ParallelFor(0, 100, 1,
                           [&](size_t, size_t) {
                             ParallelFor(0, 10, 1, [](size_t, size_t) {});
                           }),
               std::logic_error);
  // Same guard on the raw pool entry point (a nested Run would deadlock).
  EXPECT_THROW(ParallelFor(0, 100, 1,
                           [&](size_t, size_t) {
                             ThreadPool::Global().Run(2, [](size_t) {});
                           }),
               std::logic_error);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelForTest, InParallelRegionIsVisibleInsideBodies) {
  bool inside = false;
  ParallelFor(0, 1, 1, [&](size_t, size_t) { inside = InParallelRegion(); });
  EXPECT_TRUE(inside);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelReduceTest, SumMatchesSerialExactly) {
  PoolSizeGuard guard;
  ThreadPool::Global().SetNumThreads(4);
  const size_t n = 4096;
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 1.0 / static_cast<double>(i + 1);
  double parallel_sum = ParallelReduceSum(0, n, 64, [&](size_t lo, size_t hi) {
    double s = 0.0;
    for (size_t i = lo; i < hi; ++i) s += v[i];
    return s;
  });
  double serial_sum = 0.0;
  for (double x : v) serial_sum += x;
  EXPECT_NEAR(parallel_sum, serial_sum, 1e-12);

  // Fixed thread count => bit-identical across repeated runs.
  double again = ParallelReduceSum(0, n, 64, [&](size_t lo, size_t hi) {
    double s = 0.0;
    for (size_t i = lo; i < hi; ++i) s += v[i];
    return s;
  });
  EXPECT_EQ(parallel_sum, again);
}

TEST(PartitionRangeTest, CoversRangeWithBoundedChunks) {
  std::vector<Range> ranges = PartitionRange(10, 110, 7, 6);
  ASSERT_FALSE(ranges.empty());
  EXPECT_LE(ranges.size(), 6u);
  size_t at = 10;
  for (const Range& r : ranges) {
    EXPECT_EQ(r.begin, at);
    EXPECT_GE(r.size(), 7u);
    at = r.end;
  }
  EXPECT_EQ(at, 110u);

  EXPECT_TRUE(PartitionRange(3, 3, 1, 4).empty());
  // Grain larger than the range: one chunk.
  EXPECT_EQ(PartitionRange(0, 5, 100, 4).size(), 1u);
}

TEST(TreeCombineTest, FoldsPairwiseIntoFirstElement) {
  // Strings make the combine order observable: pairwise stride doubling
  // folds ((a+b)+(c+d)) rather than (((a+b)+c)+d).
  std::vector<std::string> parts = {"a", "b", "c", "d", "e"};
  std::vector<std::string> trace;
  TreeCombine(parts, [&](std::string& into, const std::string& from) {
    trace.push_back(into + "+" + from);
    into += from;
  });
  EXPECT_EQ(parts[0], "abcde");
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0], "a+b");
  EXPECT_EQ(trace[1], "c+d");
  EXPECT_EQ(trace[2], "ab+cd");
  EXPECT_EQ(trace[3], "abcd+e");
}

TEST(ThreadCountFromEnvTest, ParsesClampsAndFallsBack) {
  const char* saved = std::getenv("GNN4TDL_THREADS");
  std::string saved_value = saved ? saved : "";

  ASSERT_EQ(setenv("GNN4TDL_THREADS", "7", 1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 7u);
  ASSERT_EQ(setenv("GNN4TDL_THREADS", "0", 1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 1u);  // clamp to >= 1
  ASSERT_EQ(setenv("GNN4TDL_THREADS", "100000", 1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 256u);  // clamp to <= 256
  ASSERT_EQ(setenv("GNN4TDL_THREADS", "abc", 1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 1u);  // unparsable: serial
  ASSERT_EQ(setenv("GNN4TDL_THREADS", "4x", 1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 1u);  // trailing junk: serial
  ASSERT_EQ(unsetenv("GNN4TDL_THREADS"), 0);
  EXPECT_GE(ThreadCountFromEnv(), 1u);  // hardware default, clamped

  if (saved) {
    setenv("GNN4TDL_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("GNN4TDL_THREADS");
  }
}

// --- Kernel determinism across thread counts --------------------------------

Matrix RandomDense(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Randn(rows, cols, rng);
}

SparseMatrix RandomCsr(size_t rows, size_t cols, size_t per_row,
                       uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  triplets.reserve(rows * per_row);
  for (size_t r = 0; r < rows; ++r)
    for (size_t j = 0; j < per_row; ++j)
      triplets.push_back(
          {r, static_cast<size_t>(rng.Int(0, static_cast<int64_t>(cols) - 1)),
           rng.Uniform(-1.0, 1.0)});
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST(KernelDeterminismTest, MatmulBitExactAcrossThreadCounts) {
  PoolSizeGuard guard;
  Matrix a = RandomDense(37, 53, 1);
  Matrix b = RandomDense(53, 29, 2);
  ThreadPool::Global().SetNumThreads(1);
  Matrix serial = a.Matmul(b);
  Matrix serial_t = a.TransposeMatmul(a);
  Matrix serial_bt = a.MatmulTranspose(a);
  ThreadPool::Global().SetNumThreads(4);
  Matrix parallel = a.Matmul(b);
  Matrix parallel_t = a.TransposeMatmul(a);
  Matrix parallel_bt = a.MatmulTranspose(a);
  for (size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial.data()[i], parallel.data()[i]);
  for (size_t i = 0; i < serial_t.size(); ++i)
    ASSERT_EQ(serial_t.data()[i], parallel_t.data()[i]);
  for (size_t i = 0; i < serial_bt.size(); ++i)
    ASSERT_EQ(serial_bt.data()[i], parallel_bt.data()[i]);
}

TEST(KernelDeterminismTest, SpmmBitExactAcrossThreadCounts) {
  PoolSizeGuard guard;
  SparseMatrix adj = RandomCsr(400, 400, 6, 3);
  Matrix h = RandomDense(400, 16, 4);
  Matrix g = RandomDense(400, 16, 5);
  ThreadPool::Global().SetNumThreads(1);
  Matrix serial = adj.Multiply(h);
  Matrix serial_t = adj.TransposeMultiply(g);
  ThreadPool::Global().SetNumThreads(4);
  Matrix parallel = adj.Multiply(h);
  Matrix parallel_t = adj.TransposeMultiply(g);
  for (size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial.data()[i], parallel.data()[i]);
  for (size_t i = 0; i < serial_t.size(); ++i)
    ASSERT_EQ(serial_t.data()[i], parallel_t.data()[i]);
}

// The backward SpMM against the serial scatter it replaced: for each input
// row r in order, out(col, :) += value * g(r, :). The operator is rectangular
// and built straight from CSR arrays with duplicate (row, col) entries,
// unsorted columns and empty rows, and is large enough that the transpose's
// 500 output rows split into several chunks at 2 and 4 threads.
TEST(KernelDeterminismTest, TransposeMultiplyMatchesSerialScatterBitForBit) {
  PoolSizeGuard guard;
  const size_t rows = 3000, cols = 500, d = 16;
  Rng rng(21);
  std::vector<size_t> row_ptr{0}, col_idx;
  std::vector<double> values;
  for (size_t r = 0; r < rows; ++r) {
    if (r % 7 == 3) {  // empty row
      row_ptr.push_back(col_idx.size());
      continue;
    }
    const size_t count = static_cast<size_t>(rng.Int(1, 12));
    for (size_t j = 0; j < count; ++j) {
      // Descending-then-random columns: unsorted within the row.
      const size_t c =
          j < 2 ? cols - 1 - (2 * r + j) % cols
                : static_cast<size_t>(
                      rng.Int(0, static_cast<int64_t>(cols) - 1));
      col_idx.push_back(c);
      values.push_back(rng.Uniform(-1.0, 1.0));
      if (j == 3) {  // a duplicate of the entry just written
        col_idx.push_back(c);
        values.push_back(rng.Uniform(-1.0, 1.0));
      }
    }
    row_ptr.push_back(col_idx.size());
  }
  SparseMatrix adj = SparseMatrix::FromCsr(rows, cols, row_ptr, col_idx,
                                           values);
  Matrix g = RandomDense(rows, d, 22);

  Matrix oracle(cols, d);
  for (size_t r = 0; r < rows; ++r)
    for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      for (size_t j = 0; j < d; ++j)
        oracle(col_idx[k], j) += values[k] * g(r, j);

  for (size_t threads : {1, 2, 4}) {
    ThreadPool::Global().SetNumThreads(threads);
    Matrix out = adj.TransposeMultiply(g);
    ASSERT_EQ(out.rows(), cols);
    ASSERT_EQ(out.cols(), d);
    for (size_t i = 0; i < oracle.size(); ++i)
      ASSERT_EQ(out.data()[i], oracle.data()[i])
          << "threads " << threads << " element " << i;
  }
}

TEST(KernelDeterminismTest, TreeReducedKernelsWithin1e12OfSerial) {
  PoolSizeGuard guard;
  Matrix h = RandomDense(400, 16, 6);
  Matrix logits = RandomDense(500, 1, 7);
  std::vector<size_t> seg(500);
  Rng seg_rng(8);
  for (size_t& s : seg) s = static_cast<size_t>(seg_rng.Int(0, 49));

  ThreadPool::Global().SetNumThreads(1);
  double sum_serial = h.Sum();
  Matrix softmax_serial = SegmentSoftmax(logits, seg, 50);

  ThreadPool::Global().SetNumThreads(4);
  double sum_parallel = h.Sum();
  Matrix softmax_parallel = SegmentSoftmax(logits, seg, 50);

  EXPECT_NEAR(sum_serial, sum_parallel, 1e-12);
  for (size_t i = 0; i < softmax_serial.size(); ++i)
    ASSERT_NEAR(softmax_serial.data()[i], softmax_parallel.data()[i], 1e-12);

  // And for a fixed thread count the tree-reduced kernels are bit-stable.
  Matrix softmax_again = SegmentSoftmax(logits, seg, 50);
  EXPECT_EQ(h.Sum(), sum_parallel);
  for (size_t i = 0; i < softmax_parallel.size(); ++i)
    ASSERT_EQ(softmax_parallel.data()[i], softmax_again.data()[i]);
}

TEST(KernelDeterminismTest, EdgeSoftmaxGradientMatchesSerial) {
  PoolSizeGuard guard;
  Matrix logits_value = RandomDense(300, 1, 9);
  std::vector<size_t> dst(300);
  Rng seg_rng(10);
  for (size_t& s : dst) s = static_cast<size_t>(seg_rng.Int(0, 39));

  auto run = [&]() {
    Tensor logits = Tensor::Leaf(logits_value, true);
    Tensor w = ops::EdgeSoftmax(logits, dst, 40);
    ops::SumSquares(w).Backward();
    return logits.grad();
  };
  ThreadPool::Global().SetNumThreads(1);
  Matrix g_serial = run();
  ThreadPool::Global().SetNumThreads(4);
  Matrix g_parallel = run();
  for (size_t i = 0; i < g_serial.size(); ++i)
    ASSERT_NEAR(g_serial.data()[i], g_parallel.data()[i], 1e-12);
}

}  // namespace
}  // namespace gnn4tdl
