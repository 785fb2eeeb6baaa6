// Tests for src/serve: KnnIndex, InductiveAttacher, FrozenModel artifacts,
// and the micro-batching ServingEngine. The load-bearing claims: frozen
// subgraph scoring is bit-exact with full-graph PredictInductive for the
// degree-normalized backbones, and the artifact round-trips through a file
// into a fresh process.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "construct/similarity.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "models/knn_gnn.h"
#include "serve/attacher.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "serve/knn_index.h"

namespace gnn4tdl {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Matrix RandomFeatures(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Randn(n, d, rng);
}

/// Oracle: every reference row scored, then one full sort under (similarity
/// descending, index ascending).
std::vector<size_t> BruteForceKnn(const Matrix& reference, const double* query,
                                  size_t k, SimilarityMetric metric,
                                  double gamma) {
  std::vector<std::pair<double, size_t>> scored;
  for (size_t j = 0; j < reference.rows(); ++j) {
    scored.push_back({Similarity(query, reference.row_data(j),
                                 reference.cols(), metric, gamma),
                      j});
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<size_t> ids;
  for (size_t t = 0; t < k; ++t) ids.push_back(scored[t].second);
  return ids;
}

TEST(KnnIndexTest, ExactModeMatchesBruteForce) {
  // Rows 40..79 repeat rows 0..39, so every similarity comes in a tied pair
  // and an odd k always splits one pair at rank k.
  Matrix reference = RandomFeatures(80, 6, 5);
  for (size_t r = 40; r < 80; ++r) {
    std::copy(reference.row_data(r - 40), reference.row_data(r - 40) + 6,
              reference.row_data(r));
  }
  Matrix queries = RandomFeatures(10, 6, 9).ConcatRows(
      reference.GatherRows({3, 45, 77}));
  for (SimilarityMetric metric :
       {SimilarityMetric::kEuclidean, SimilarityMetric::kCosine,
        SimilarityMetric::kRbf}) {
    StatusOr<KnnIndex> index = KnnIndex::Build(reference, metric, 0.5);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    for (size_t q = 0; q < queries.rows(); ++q) {
      std::vector<KnnHit> hits = index->Query(queries.row_data(q), 7);
      std::vector<size_t> expected =
          BruteForceKnn(reference, queries.row_data(q), 7, metric, 0.5);
      ASSERT_EQ(hits.size(), expected.size());
      for (size_t t = 0; t < hits.size(); ++t) {
        EXPECT_EQ(hits[t].index, expected[t])
            << "metric " << SimilarityMetricName(metric) << " query " << q
            << " rank " << t;
      }
    }
  }
}

TEST(KnnIndexTest, QueryOrdersBestFirstAndClampsK) {
  Matrix reference = RandomFeatures(20, 4, 11);
  StatusOr<KnnIndex> index =
      KnnIndex::Build(reference, SimilarityMetric::kEuclidean);
  ASSERT_TRUE(index.ok());
  std::vector<KnnHit> hits = index->Query(reference.row_data(3), 100);
  EXPECT_EQ(hits.size(), reference.rows());  // k clamps to n
  EXPECT_EQ(hits[0].index, 3u);              // a row is its own best match
  for (size_t t = 1; t < hits.size(); ++t)
    EXPECT_GE(hits[t - 1].similarity, hits[t].similarity);
}

TEST(KnnIndexTest, NanQueryRanksByIndex) {
  // Every euclidean similarity to a NaN query is NaN: all rows tie, so the
  // k hits are the k lowest indices in order.
  Matrix reference = RandomFeatures(30, 4, 13);
  StatusOr<KnnIndex> index =
      KnnIndex::Build(reference, SimilarityMetric::kEuclidean);
  ASSERT_TRUE(index.ok());
  std::vector<double> query(4, 0.0);
  query[2] = std::nan("");
  std::vector<KnnHit> hits = index->Query(query.data(), 6);
  ASSERT_EQ(hits.size(), 6u);
  for (size_t t = 0; t < hits.size(); ++t) {
    EXPECT_EQ(hits[t].index, t);
    EXPECT_TRUE(std::isnan(hits[t].similarity));
  }
}

TEST(KnnIndexTest, NanReferenceRowRanksAfterEveryFiniteRow) {
  // Row 0 equals the query except for one NaN; without the NaN it would be
  // the best match. It must come last, after all finite rows.
  Matrix reference = RandomFeatures(12, 3, 17);
  std::vector<double> query(reference.row_data(0), reference.row_data(0) + 3);
  reference(0, 1) = std::nan("");
  StatusOr<KnnIndex> index =
      KnnIndex::Build(reference, SimilarityMetric::kEuclidean);
  ASSERT_TRUE(index.ok());
  std::vector<KnnHit> hits = index->Query(query.data(), reference.rows());
  ASSERT_EQ(hits.size(), reference.rows());
  EXPECT_EQ(hits.back().index, 0u);
  for (size_t t = 0; t + 1 < hits.size(); ++t) {
    EXPECT_FALSE(std::isnan(hits[t].similarity)) << "rank " << t;
  }
  for (size_t k = 1; k < reference.rows(); ++k) {
    for (const KnnHit& hit : index->Query(query.data(), k)) {
      EXPECT_NE(hit.index, 0u) << "k " << k;
    }
  }
}

TEST(KnnIndexTest, RejectsEmptyReference) {
  StatusOr<KnnIndex> index =
      KnnIndex::Build(Matrix(), SimilarityMetric::kEuclidean);
  EXPECT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
}

class ServeModelTest : public ::testing::Test {
 protected:
  static InstanceGraphGnnOptions Options(GnnBackbone backbone) {
    InstanceGraphGnnOptions options;
    options.backbone = backbone;
    options.hidden_dim = 16;
    options.num_layers = 2;
    options.knn.k = 8;
    options.train.max_epochs = 30;
    options.train.verbose = false;
    options.seed = 3;
    return options;
  }

  static TabularDataset TrainData() {
    return MakeClusters({.num_rows = 200,
                         .num_classes = 3,
                         .dim_informative = 6,
                         .dim_noise = 2,
                         .seed = 7});
  }

  static TabularDataset FreshRows(size_t n) {
    return MakeClusters({.num_rows = n,
                         .num_classes = 3,
                         .dim_informative = 6,
                         .dim_noise = 2,
                         .seed = 91});
  }

  static Split TrainSplit(const TabularDataset& data) {
    Rng rng(17);
    return StratifiedSplit(data.class_labels(), 0.7, 0.15, rng);
  }
};

TEST_F(ServeModelTest, FrozenScoresBitExactWithPredictInductiveGcn) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());

  TabularDataset fresh = FreshRows(12);
  StatusOr<Matrix> reference = model.PredictInductive(fresh);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();

  StatusOr<Matrix> served = frozen->Score(fresh);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  // The k-hop subgraph forward pass must reproduce the full extended-graph
  // floating-point arithmetic exactly, through the artifact round trip.
  EXPECT_TRUE(served->AllClose(*reference, 0.0));

  // The attacher genuinely prunes: the 2-hop receptive field of 12 rows in a
  // k=8 graph of 200 nodes stays a strict subgraph.
  StatusOr<Matrix> x = frozen->Featurize(fresh);
  ASSERT_TRUE(x.ok());
  StatusOr<AttachedBatch> batch = frozen->attacher().Attach(*x);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_new, 12u);
  EXPECT_EQ(batch->graph.num_nodes(), batch->train_nodes.size() + 12);
  EXPECT_EQ(batch->degrees.size(), batch->graph.num_nodes());
}

TEST_F(ServeModelTest, FrozenScoresBitExactWithPredictInductiveSage) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kSage));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());

  TabularDataset fresh = FreshRows(10);
  StatusOr<Matrix> reference = model.PredictInductive(fresh);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  StatusOr<Matrix> served = frozen->Score(fresh);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->AllClose(*reference, 0.0));
}

TEST_F(ServeModelTest, FrozenScoresBitExactWithPredictInductiveGin) {
  // GIN aggregates over the raw adjacency (no degree normalization), so the
  // receptive-field subgraph is exact without any degree override.
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGin));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());

  TabularDataset fresh = FreshRows(8);
  StatusOr<Matrix> reference = model.PredictInductive(fresh);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  StatusOr<Matrix> served = frozen->Score(fresh);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->AllClose(*reference, 0.0));
}

TEST_F(ServeModelTest, FrozenScoresBitExactWithPredictInductiveOnTies) {
  // One column of repeated values: the query 0.0 has four exact matches and
  // nine rows tied at the next distance, so k=9 splits that tie. Serving and
  // PredictInductive must break it the same way (lower row index wins).
  const std::vector<double> values = {2, 1, 1, 1, 2, 1, 1, 0, 2, 0,
                                      3, 1, 0, 1, 1, 3, 0, 1, 3};
  TabularDataset data(values.size());
  ASSERT_TRUE(data.AddNumericColumn("v", values).ok());
  std::vector<int> labels;
  for (size_t i = 0; i < values.size(); ++i)
    labels.push_back(static_cast<int>(i % 2));
  ASSERT_TRUE(
      data.SetClassLabels(labels, 2, TaskType::kBinaryClassification).ok());

  InstanceGraphGnnOptions options = Options(GnnBackbone::kGcn);
  options.knn.k = 9;
  InstanceGraphGnn model(options);
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());

  TabularDataset query(1);
  ASSERT_TRUE(query.AddNumericColumn("v", {0.0}).ok());
  StatusOr<Matrix> reference = model.PredictInductive(query);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  ASSERT_EQ(frozen->precision(), kernels::Precision::kF64);
  StatusOr<Matrix> x = frozen->Featurize(query);
  ASSERT_TRUE(x.ok()) << x.status().ToString();
  StatusOr<Matrix> served = frozen->ScoreFeatures(*x);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->cols(), reference->cols());
  for (size_t c = 0; c < reference->cols(); ++c) {
    EXPECT_EQ((*served)(0, c), (*reference)(0, c)) << "logit " << c;
  }
}

TEST_F(ServeModelTest, SingleRowScoringIsDeterministic) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok());

  TabularDataset fresh = FreshRows(6);
  StatusOr<Matrix> x = frozen->Featurize(fresh);
  ASSERT_TRUE(x.ok());
  for (size_t i = 0; i < x->rows(); ++i) {
    Matrix row(1, x->cols());
    std::copy(x->row_data(i), x->row_data(i) + x->cols(), row.row_data(0));
    StatusOr<Matrix> first = frozen->ScoreFeatures(row);
    StatusOr<Matrix> second = frozen->ScoreFeatures(row);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(first->AllClose(*second, 0.0));
  }
}

// Copies the listed rows (in order) into a new dataset, labels included.
TabularDataset SubsetRows(const TabularDataset& data,
                          const std::vector<size_t>& rows) {
  TabularDataset out(rows.size());
  for (size_t c = 0; c < data.NumCols(); ++c) {
    const Column& col = data.column(c);
    if (col.type == ColumnType::kNumerical) {
      std::vector<double> values;
      values.reserve(rows.size());
      for (size_t r : rows) values.push_back(col.numeric[r]);
      EXPECT_TRUE(out.AddNumericColumn(col.name, std::move(values)).ok());
    } else {
      std::vector<int> codes;
      codes.reserve(rows.size());
      for (size_t r : rows) codes.push_back(col.codes[r]);
      EXPECT_TRUE(
          out.AddCategoricalColumn(col.name, std::move(codes), col.categories)
              .ok());
    }
  }
  std::vector<int> labels;
  labels.reserve(rows.size());
  for (size_t r : rows) labels.push_back(data.class_labels()[r]);
  EXPECT_TRUE(
      out.SetClassLabels(std::move(labels), data.num_classes(), data.task())
          .ok());
  return out;
}

TEST_F(ServeModelTest, FrozenAccuracyWithinNoiseOfTransductive) {
  // The acceptance check: fit on a training subset, freeze, reload, score
  // genuinely held-out rows of the same table; accuracy must be in the same
  // band as the transductive full-graph Predict on the train split.
  for (GnnBackbone backbone : {GnnBackbone::kGcn, GnnBackbone::kSage}) {
    TabularDataset full = MakeClusters({.num_rows = 300,
                                        .num_classes = 3,
                                        .dim_informative = 6,
                                        .dim_noise = 2,
                                        .seed = 7});
    Rng perm_rng(5);
    std::vector<size_t> perm = perm_rng.Permutation(full.NumRows());
    std::vector<size_t> train_rows(perm.begin(), perm.begin() + 200);
    std::vector<size_t> heldout_rows(perm.begin() + 200, perm.end());
    TabularDataset data = SubsetRows(full, train_rows);
    TabularDataset heldout = SubsetRows(full, heldout_rows);

    Split split = TrainSplit(data);
    InstanceGraphGnnOptions options = Options(backbone);
    options.train.max_epochs = 60;
    InstanceGraphGnn model(options);
    ASSERT_TRUE(model.Fit(data, split).ok());

    StatusOr<Matrix> transductive = model.Predict(data);
    ASSERT_TRUE(transductive.ok());
    size_t correct = 0;
    for (size_t i : split.test) {
      if (static_cast<int>(transductive->ArgMaxRow(i)) ==
          data.class_labels()[i])
        ++correct;
    }
    double transductive_acc =
        static_cast<double>(correct) / static_cast<double>(split.test.size());

    std::string path = TempPath(std::string("frozen_acc_") +
                                GnnBackboneName(backbone) + ".gnn4tdl");
    ASSERT_TRUE(FrozenModel::Save(model, path).ok());
    StatusOr<FrozenModel> frozen = FrozenModel::Load(path);
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();

    StatusOr<Matrix> served = frozen->Score(heldout);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    correct = 0;
    for (size_t i = 0; i < served->rows(); ++i) {
      if (static_cast<int>(served->ArgMaxRow(i)) == heldout.class_labels()[i])
        ++correct;
    }
    double frozen_acc =
        static_cast<double>(correct) / static_cast<double>(served->rows());

    EXPECT_GT(transductive_acc, 0.7) << GnnBackboneName(backbone);
    EXPECT_GT(frozen_acc, 0.7) << GnnBackboneName(backbone);
    EXPECT_NEAR(frozen_acc, transductive_acc, 0.15)
        << GnnBackboneName(backbone);
    std::remove(path.c_str());
  }
}

TEST_F(ServeModelTest, ArtifactFileRoundTrip) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());

  std::string path = TempPath("roundtrip.gnn4tdl");
  ASSERT_TRUE(FrozenModel::Save(model, path).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(path);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  EXPECT_EQ(frozen->task(), model.task());
  EXPECT_EQ(frozen->num_outputs(), model.output_dim());
  EXPECT_EQ(frozen->num_train_rows(), model.feature_cache().rows());
  EXPECT_EQ(frozen->feature_dim(), model.feature_cache().cols());
  EXPECT_EQ(frozen->model().graph().num_edges(), model.graph().num_edges());
  EXPECT_TRUE(
      frozen->model().feature_cache().AllClose(model.feature_cache(), 0.0));
  std::remove(path.c_str());
}

TEST_F(ServeModelTest, SaveLoadSaveIsByteIdentical) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());

  std::stringstream first;
  ASSERT_TRUE(FrozenModel::Save(model, first).ok());
  const std::string saved = first.str();
  StatusOr<FrozenModel> frozen = FrozenModel::Load(first);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  std::stringstream second;
  ASSERT_TRUE(FrozenModel::Save(frozen->model(), second).ok());
  EXPECT_EQ(second.str(), saved);
}

// Training is bit-exact at every thread count, so the saved artifact is too.
// 2000 rows at k=10 make the backward SpMM split into several chunks at four
// threads.
TEST(TrainThreadCountTest, ArtifactBytesEqualAtOneAndFourThreads) {
  TabularDataset data = MakeClusters({.num_rows = 2000,
                                      .num_classes = 3,
                                      .dim_informative = 8,
                                      .dim_noise = 4,
                                      .seed = 5});
  Rng split_rng(6);
  Split split = StratifiedSplit(data.class_labels(), 0.7, 0.15, split_rng);
  InstanceGraphGnnOptions options;
  options.backbone = GnnBackbone::kGcn;
  options.hidden_dim = 32;
  options.num_layers = 2;
  options.knn.k = 10;
  options.train.max_epochs = 4;
  options.train.verbose = false;
  options.seed = 8;

  auto fit_and_save = [&](size_t threads) {
    ThreadPool::Global().SetNumThreads(threads);
    InstanceGraphGnn model(options);
    EXPECT_TRUE(model.Fit(data, split).ok());
    std::stringstream artifact;
    EXPECT_TRUE(FrozenModel::Save(model, artifact).ok());
    return artifact.str();
  };
  const std::string one = fit_and_save(1);
  const std::string four = fit_and_save(4);
  ThreadPool::Global().SetNumThreads(ThreadCountFromEnv());
  EXPECT_EQ(one.size(), four.size());
  EXPECT_TRUE(one == four) << "artifacts differ at 1 and 4 threads";
}

TEST_F(ServeModelTest, SaveRejectsUnfittedAndIdentityInit) {
  InstanceGraphGnn unfitted(Options(GnnBackbone::kGcn));
  std::stringstream out;
  Status s = FrozenModel::Save(unfitted, out);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);

  InstanceGraphGnnOptions options = Options(GnnBackbone::kGcn);
  options.node_init = NodeInit::kIdentity;
  TabularDataset data = TrainData();
  InstanceGraphGnn identity(options);
  ASSERT_TRUE(identity.Fit(data, TrainSplit(data)).ok());
  Status s2 = FrozenModel::Save(identity, out);
  EXPECT_EQ(s2.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeModelTest, LoadRejectsGarbage) {
  std::stringstream garbage("definitely-not-a-frozen-model 1 2 3");
  StatusOr<FrozenModel> frozen = FrozenModel::Load(garbage);
  EXPECT_FALSE(frozen.ok());
  EXPECT_EQ(frozen.status().code(), StatusCode::kInvalidArgument);

  StatusOr<FrozenModel> missing = FrozenModel::Load("/nonexistent/m.gnn4tdl");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

TEST_F(ServeModelTest, EngineSingleRequestBatchesAreBitDeterministic) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok());

  TabularDataset fresh = FreshRows(10);
  StatusOr<Matrix> x = frozen->Featurize(fresh);
  ASSERT_TRUE(x.ok());

  ServingOptions opts;
  opts.max_batch = 1;  // every request scores alone -> equals ScoreFeatures
  opts.deadline_ms = 0.0;
  ServingEngine engine(&*frozen, opts);
  for (size_t i = 0; i < x->rows(); ++i) {
    StatusOr<std::future<std::vector<double>>> f = engine.Submit(
        std::vector<double>(x->row_data(i), x->row_data(i) + x->cols()));
    ASSERT_TRUE(f.ok());
    std::vector<double> served = f->get();

    Matrix row(1, x->cols());
    std::copy(x->row_data(i), x->row_data(i) + x->cols(), row.row_data(0));
    StatusOr<Matrix> direct = frozen->ScoreFeatures(row);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(served.size(), direct->cols());
    for (size_t c = 0; c < served.size(); ++c)
      EXPECT_EQ(served[c], (*direct)(0, c));
  }
  engine.Stop();
  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, x->rows());
  EXPECT_EQ(stats.batches, x->rows());
  EXPECT_DOUBLE_EQ(stats.mean_batch_rows, 1.0);
}

TEST_F(ServeModelTest, EngineMicroBatchingAgreesWithDirectScoring) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok());

  TabularDataset fresh = FreshRows(64);
  StatusOr<Matrix> x = frozen->Featurize(fresh);
  ASSERT_TRUE(x.ok());
  StatusOr<Matrix> direct = frozen->ScoreFeatures(*x);
  ASSERT_TRUE(direct.ok());

  ServingOptions opts;
  opts.max_batch = 8;
  opts.deadline_ms = 5.0;
  ServingEngine engine(&*frozen, opts);
  std::vector<std::future<std::vector<double>>> futures;
  for (size_t i = 0; i < x->rows(); ++i) {
    StatusOr<std::future<std::vector<double>>> f = engine.Submit(
        std::vector<double>(x->row_data(i), x->row_data(i) + x->cols()));
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  size_t agree = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    std::vector<double> served = futures[i].get();
    size_t served_argmax = 0;
    for (size_t c = 1; c < served.size(); ++c)
      if (served[c] > served[served_argmax]) served_argmax = c;
    if (served_argmax == direct->ArgMaxRow(i)) ++agree;
  }
  engine.Stop();
  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, 64u);
  EXPECT_GE(stats.batches, 64u / opts.max_batch);
  EXPECT_GT(stats.throughput_rps, 0.0);
  // Batch composition perturbs shared-anchor degrees slightly; predictions
  // must still agree with the one-shot batch scoring almost always.
  EXPECT_GE(static_cast<double>(agree) / 64.0, 0.9);
}

TEST_F(ServeModelTest, EngineRejectsWrongDimension) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok());

  ServingEngine engine(&*frozen, {});
  StatusOr<std::future<std::vector<double>>> f =
      engine.Submit(std::vector<double>(frozen->feature_dim() + 1, 0.0));
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
  engine.Stop();
  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, 0u);
  // Dimension mismatches are caller bugs, not admission-control shedding.
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ServeModelTest, AttacherFullNeighborhoodKeepsEveryTrainingNode) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());

  StatusOr<KnnIndex> index = KnnIndex::Build(
      model.feature_cache(), model.options().knn.metric,
      model.options().knn.gamma);
  ASSERT_TRUE(index.ok());
  InductiveAttacherOptions opts;
  opts.k = 8;
  opts.hops = 2;
  opts.full_neighborhood = true;
  InductiveAttacher attacher(&model.graph(), &model.feature_cache(),
                             &*index, opts);

  TabularDataset fresh = FreshRows(4);
  StatusOr<Matrix> x = model.featurizer().Transform(fresh);
  ASSERT_TRUE(x.ok());
  StatusOr<AttachedBatch> batch = attacher.Attach(*x);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->train_nodes.size(), model.feature_cache().rows());
  EXPECT_EQ(batch->graph.num_nodes(), model.feature_cache().rows() + 4);
}

}  // namespace
}  // namespace gnn4tdl
