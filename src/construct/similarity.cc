#include "construct/similarity.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"

namespace gnn4tdl {

const char* SimilarityMetricName(SimilarityMetric m) {
  switch (m) {
    case SimilarityMetric::kEuclidean:
      return "euclidean";
    case SimilarityMetric::kManhattan:
      return "manhattan";
    case SimilarityMetric::kCosine:
      return "cosine";
    case SimilarityMetric::kRbf:
      return "rbf";
    case SimilarityMetric::kPearson:
      return "pearson";
    case SimilarityMetric::kInnerProduct:
      return "inner_product";
  }
  return "unknown";
}

StatusOr<SimilarityMetric> SimilarityMetricFromName(const std::string& name) {
  if (name == "euclidean") return SimilarityMetric::kEuclidean;
  if (name == "manhattan") return SimilarityMetric::kManhattan;
  if (name == "cosine") return SimilarityMetric::kCosine;
  if (name == "rbf" || name == "gaussian" || name == "heat")
    return SimilarityMetric::kRbf;
  if (name == "pearson") return SimilarityMetric::kPearson;
  if (name == "inner_product") return SimilarityMetric::kInnerProduct;
  return Status::InvalidArgument("unknown similarity metric: '" + name + "'");
}

double Similarity(const double* ra, const double* rb, size_t d,
                  SimilarityMetric m, double gamma) {
  switch (m) {
    case SimilarityMetric::kEuclidean: {
      double s = 0.0;
      for (size_t j = 0; j < d; ++j) {
        double diff = ra[j] - rb[j];
        s += diff * diff;
      }
      return -std::sqrt(s);
    }
    case SimilarityMetric::kManhattan: {
      double s = 0.0;
      for (size_t j = 0; j < d; ++j) s += std::fabs(ra[j] - rb[j]);
      return -s;
    }
    case SimilarityMetric::kCosine: {
      double dot = 0.0, na = 0.0, nb = 0.0;
      for (size_t j = 0; j < d; ++j) {
        dot += ra[j] * rb[j];
        na += ra[j] * ra[j];
        nb += rb[j] * rb[j];
      }
      double denom = std::sqrt(na) * std::sqrt(nb);
      return denom > 1e-12 ? dot / denom : 0.0;
    }
    case SimilarityMetric::kRbf: {
      double s = 0.0;
      for (size_t j = 0; j < d; ++j) {
        double diff = ra[j] - rb[j];
        s += diff * diff;
      }
      return std::exp(-gamma * s);
    }
    case SimilarityMetric::kPearson: {
      double ma = 0.0, mb = 0.0;
      for (size_t j = 0; j < d; ++j) {
        ma += ra[j];
        mb += rb[j];
      }
      ma /= static_cast<double>(d);
      mb /= static_cast<double>(d);
      double cov = 0.0, va = 0.0, vb = 0.0;
      for (size_t j = 0; j < d; ++j) {
        double da = ra[j] - ma;
        double db = rb[j] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
      }
      double denom = std::sqrt(va) * std::sqrt(vb);
      return denom > 1e-12 ? cov / denom : 0.0;
    }
    case SimilarityMetric::kInnerProduct: {
      double dot = 0.0;
      for (size_t j = 0; j < d; ++j) dot += ra[j] * rb[j];
      return dot;
    }
  }
  return 0.0;
}

double RowSimilarity(const Matrix& x, size_t a, size_t b, SimilarityMetric m,
                     double gamma) {
  GNN4TDL_CHECK_LT(a, x.rows());
  GNN4TDL_CHECK_LT(b, x.rows());
  return Similarity(x.row_data(a), x.row_data(b), x.cols(), m, gamma);
}

std::vector<KnnHit> TopKSimilar(const Matrix& reference, const double* query,
                                size_t k, SimilarityMetric m, double gamma,
                                size_t exclude) {
  const size_t n = reference.rows();
  const size_t d = reference.cols();
  std::vector<KnnHit> hits;
  hits.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i == exclude) continue;
    hits.push_back({i, Similarity(query, reference.row_data(i), d, m, gamma)});
  }
  const size_t take = std::min(k, hits.size());
  // The lambda gives partial_sort a comparator it inlines; passing BetterHit
  // itself hands it a function pointer, which measured about 7% slower.
  std::partial_sort(hits.begin(), hits.begin() + static_cast<ptrdiff_t>(take),
                    hits.end(), [](const KnnHit& a, const KnnHit& b) {
                      return BetterHit(a, b);
                    });
  // A right-sized copy: callers such as KnnGraph keep one list per row.
  return std::vector<KnnHit>(hits.begin(),
                             hits.begin() + static_cast<ptrdiff_t>(take));
}

std::vector<std::vector<KnnHit>> TopKSimilarPerRow(const Matrix& x, size_t k,
                                                   SimilarityMetric m,
                                                   double gamma) {
  const size_t n = x.rows();
  // One query row scans n rows of x.cols() cells; a chunk gets about 64k
  // cells (the row grain of nn/ops.cc), so small tables stay on one chunk.
  constexpr size_t kCellGrain = 65536;
  const size_t grain =
      std::max<size_t>(1, kCellGrain / std::max<size_t>(n * x.cols(), 1));
  std::vector<std::vector<KnnHit>> lists(n);
  ParallelFor(0, n, grain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i)
      lists[i] = TopKSimilar(x, x.row_data(i), k, m, gamma, /*exclude=*/i);
  });
  return lists;
}

Matrix PairwiseSimilarity(const Matrix& x, SimilarityMetric m, double gamma) {
  const size_t n = x.rows();
  Matrix sim(n, n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a; b < n; ++b) {
      double s = RowSimilarity(x, a, b, m, gamma);
      sim(a, b) = s;
      sim(b, a) = s;
    }
  }
  return sim;
}

}  // namespace gnn4tdl
