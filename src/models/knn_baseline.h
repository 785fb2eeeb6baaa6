#pragma once

#include <string>
#include <vector>

#include "construct/similarity.h"
#include "data/transforms.h"
#include "models/model.h"

namespace gnn4tdl {

/// Options shared by the non-parametric kNN baselines.
struct KnnBaselineOptions {
  size_t k = 10;
  SimilarityMetric metric = SimilarityMetric::kEuclidean;
  double gamma = 1.0;
};

/// kNN classifier / regressor: majority vote (or mean target) over the k most
/// similar *labeled training* rows, ranked by TopKSimilar (tied training rows
/// go to the lower index). The simplest instance-correlation exploiter — the
/// non-learned counterpart of instance-graph GNNs.
class KnnBaseline : public TabularModel {
 public:
  explicit KnnBaseline(KnnBaselineOptions options = {});

  Status Fit(const TabularDataset& data, const Split& split) override;
  StatusOr<Matrix> Predict(const TabularDataset& data) override;
  std::string Name() const override { return "knn"; }

 private:
  KnnBaselineOptions options_;
  Featurizer featurizer_;
  Matrix x_train_;
  std::vector<int> y_train_cls_;
  std::vector<double> y_train_reg_;
  TaskType task_ = TaskType::kNone;
  int num_classes_ = 0;
};

/// kNN-distance anomaly detector: score = mean Euclidean distance to the k
/// nearest other rows (unsupervised; labels are ignored). The classical baseline
/// LUNAR generalizes (Section 5.1).
class KnnDistanceDetector : public TabularModel {
 public:
  explicit KnnDistanceDetector(KnnBaselineOptions options = {});

  Status Fit(const TabularDataset& data, const Split& split) override;
  /// Returns one score column: higher = more anomalous.
  StatusOr<Matrix> Predict(const TabularDataset& data) override;
  std::string Name() const override { return "knn_dist"; }

 private:
  KnnBaselineOptions options_;
  Featurizer featurizer_;
  bool fitted_ = false;
};

}  // namespace gnn4tdl
