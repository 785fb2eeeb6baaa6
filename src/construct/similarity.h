#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"

namespace gnn4tdl {

/// Similarity measures used by rule-based graph construction (Table 3 of the
/// survey). All are expressed as similarities: higher = more alike. Distance
/// metrics (Euclidean, Manhattan) are negated.
enum class SimilarityMetric {
  kEuclidean,     // -||a - b||_2
  kManhattan,     // -||a - b||_1
  kCosine,        // <a, b> / (||a|| ||b||)
  kRbf,           // exp(-gamma ||a - b||^2): the RBF / Gaussian / heat kernel
  kPearson,       // correlation of the two vectors
  kInnerProduct,  // <a, b>
};

const char* SimilarityMetricName(SimilarityMetric m);

/// Parses a metric name produced by SimilarityMetricName (plus the "gaussian"
/// / "heat" aliases for rbf). Unknown names are InvalidArgument.
StatusOr<SimilarityMetric> SimilarityMetricFromName(const std::string& name);

/// Similarity between the length-`d` vectors `a` and `b`. `gamma` is the RBF
/// bandwidth (ignored by other metrics). The one definition of the
/// arithmetic: every neighbour ranking in the library calls it with the
/// query as `a`.
double Similarity(const double* a, const double* b, size_t d,
                  SimilarityMetric m, double gamma = 1.0);

/// Similarity between rows `a` and `b` of `x` (bounds-checked Similarity).
double RowSimilarity(const Matrix& x, size_t a, size_t b, SimilarityMetric m,
                     double gamma = 1.0);

/// A ranked neighbour: reference row index and its similarity to the query.
struct KnnHit {
  size_t index;
  double similarity;
};

/// The neighbour order: similarity descending, lower index first on exact
/// ties, and every NaN similarity after every number (NaN ties again by
/// index). A total order, so std::partial_sort always gets a strict weak
/// ordering, whatever the inputs.
inline bool BetterHit(const KnnHit& a, const KnnHit& b) {
  if (a.similarity > b.similarity) return true;
  if (a.similarity < b.similarity) return false;
  const bool a_nan = std::isnan(a.similarity);
  const bool b_nan = std::isnan(b.similarity);
  if (a_nan != b_nan) return b_nan;
  return a.index < b.index;
}

/// Row id meaning "exclude nothing" for TopKSimilar.
inline constexpr size_t kNoRow = std::numeric_limits<size_t>::max();

/// Exact top-k: the min(k, candidates) rows of `reference` most similar to
/// `query` (length reference.cols()), best first under BetterHit. Row
/// `exclude` is never a candidate (KnnGraph's self-skip). Graph construction,
/// inductive prediction and the serving index all rank neighbours here.
std::vector<KnnHit> TopKSimilar(const Matrix& reference, const double* query,
                                size_t k, SimilarityMetric m, double gamma,
                                size_t exclude = kNoRow);

/// The k nearest other rows of every row of `x`: entry i is
/// TopKSimilar(x, x.row_data(i), k, m, gamma, /*exclude=*/i). Query rows are
/// split across ThreadPool::Global() and each row's list is written only by
/// the chunk that owns the row, so the result is bit-identical at every
/// thread count. Tables too small to split run inline. Like every
/// ParallelFor caller it must not be called from inside a parallel body.
/// KnnGraph and KnnCandidates build their graphs from it.
std::vector<std::vector<KnnHit>> TopKSimilarPerRow(const Matrix& x, size_t k,
                                                   SimilarityMetric m,
                                                   double gamma);

/// Dense n x n similarity matrix over the rows of `x` (diagonal = self
/// similarity). Quadratic; intended for rule-based construction on
/// laptop-scale data.
Matrix PairwiseSimilarity(const Matrix& x, SimilarityMetric m,
                          double gamma = 1.0);

}  // namespace gnn4tdl
