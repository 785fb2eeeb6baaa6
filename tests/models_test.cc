// End-to-end model tests: every method family of Table 2 fits its natural
// workload and beats the sanity bar (chance / a weak baseline). Kept small so
// the whole suite stays fast.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "data/transforms.h"
#include "models/bipartite_imputer.h"
#include "models/feature_graph.h"
#include "models/gbdt.h"
#include "models/knn_baseline.h"
#include "models/knn_gnn.h"
#include "models/learned_graph.h"
#include "models/lunar.h"
#include "models/mlp.h"
#include "models/tabgnn.h"

namespace gnn4tdl {
namespace {

TrainOptions FastTrain(int epochs = 120) {
  TrainOptions t;
  t.max_epochs = epochs;
  t.learning_rate = 0.02;
  t.patience = 30;
  return t;
}

Split MakeSplit(const TabularDataset& data, double train_frac = 0.5,
                uint64_t seed = 1) {
  Rng rng(seed);
  if (data.task() == TaskType::kRegression) {
    return RandomSplit(data.NumRows(), train_frac, 0.2, rng);
  }
  return StratifiedSplit(data.class_labels(), train_frac, 0.2, rng);
}

TEST(MlpModelTest, LearnsClusters) {
  TabularDataset data = MakeClusters({.num_rows = 300, .num_classes = 3});
  Split split = MakeSplit(data);
  MlpModel model({.hidden_dims = {32}, .train = FastTrain()});
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->accuracy, 0.85);
}

TEST(MlpModelTest, RegressionBeatsMeanPredictor) {
  TabularDataset data = MakeRegressionData({.num_rows = 400, .dim = 6});
  Split split = MakeSplit(data);
  MlpModel model({.hidden_dims = {32, 32}, .train = FastTrain(200)});
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->r2, 0.5);
}

TEST(MlpModelTest, LinearFailsOnXor) {
  // Sanity check for the Section 2.5b claim: a linear model cannot learn a
  // pure interaction.
  TabularDataset data = MakeInteraction({.num_rows = 600, .order = 2});
  Split split = MakeSplit(data);
  auto linear = MakeLinearModel(FastTrain());
  auto result = FitAndEvaluate(*linear, data, split, split.test);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->accuracy, 0.62);
}

TEST(MlpModelTest, MiniBatchTrainingConverges) {
  TabularDataset data = MakeClusters({.num_rows = 300, .num_classes = 3});
  Split split = MakeSplit(data);
  MlpModelOptions opts;
  opts.hidden_dims = {32};
  opts.batch_size = 32;
  opts.train = FastTrain(300);
  MlpModel model(opts);
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->accuracy, 0.85);
}

TEST(MlpModelTest, PredictBeforeFitFails) {
  MlpModel model;
  TabularDataset data = MakeClusters({.num_rows = 10});
  EXPECT_FALSE(model.Predict(data).ok());
}

TEST(GbdtModelTest, LearnsClusters) {
  TabularDataset data = MakeClusters({.num_rows = 300, .num_classes = 3});
  Split split = MakeSplit(data);
  GbdtModel model({.num_rounds = 60});
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->accuracy, 0.85);
}

TEST(GbdtModelTest, WinsOnPiecewiseTarget) {
  // Section 6: tree models fit irregular axis-aligned targets that neural
  // models struggle with.
  TabularDataset data = MakePiecewise({.num_rows = 600, .tree_depth = 5});
  Split split = MakeSplit(data);
  GbdtModel gbdt({.num_rounds = 120});
  auto gbdt_result = FitAndEvaluate(gbdt, data, split, split.test);
  ASSERT_TRUE(gbdt_result.ok());
  EXPECT_GT(gbdt_result->accuracy, 0.8);
}

TEST(GbdtModelTest, RegressionConverges) {
  TabularDataset data = MakeRegressionData({.num_rows = 400, .dim = 6});
  Split split = MakeSplit(data);
  GbdtModel model({.num_rounds = 120});
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->r2, 0.5);
}

TEST(GbdtModelTest, EarlyStoppingTruncatesEnsemble) {
  TabularDataset data = MakeClusters({.num_rows = 200, .num_classes = 2});
  Split split = MakeSplit(data);
  GbdtModel model({.num_rounds = 300, .patience = 5});
  ASSERT_TRUE(model.Fit(data, split).ok());
  EXPECT_LT(model.NumRounds(), 300u);
}

TEST(KnnBaselineTest, ClassifiesClusters) {
  TabularDataset data = MakeClusters({.num_rows = 300, .num_classes = 3});
  Split split = MakeSplit(data);
  KnnBaseline model({.k = 7});
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->accuracy, 0.85);
}

TEST(KnnDistanceDetectorTest, ScoresOutliersHigher) {
  TabularDataset data = MakeAnomalyData({.num_inliers = 270,
                                         .num_outliers = 30});
  Split split;  // unused
  KnnDistanceDetector model({.k = 10});
  auto result = FitAndEvaluate(model, data, split, {});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->auroc, 0.9);
}

TEST(KnnBaselineTest, TiedPoolRowsGoToTheLowerIndex) {
  // Pool rows 0/1 tie at x = 1 and rows 2/3 at x = 3, each pair with
  // opposite labels; with k = 1 the lower pool index casts the only vote.
  TabularDataset data(6);
  ASSERT_TRUE(data.AddNumericColumn("x", {1, 1, 3, 3, 1, 3}).ok());
  ASSERT_TRUE(data.SetClassLabels({1, 0, 0, 1, 0, 0}, 2).ok());
  Split split;
  split.train = {0, 1, 2, 3};
  KnnBaseline model({.k = 1});
  ASSERT_TRUE(model.Fit(data, split).ok());
  auto votes = model.Predict(data);
  ASSERT_TRUE(votes.ok());
  for (size_t r : {size_t{0}, size_t{1}, size_t{4}}) {
    EXPECT_EQ((*votes)(r, 1), 1.0) << "row " << r;
    EXPECT_EQ((*votes)(r, 0), 0.0) << "row " << r;
  }
  for (size_t r : {size_t{2}, size_t{3}, size_t{5}}) {
    EXPECT_EQ((*votes)(r, 0), 1.0) << "row " << r;
    EXPECT_EQ((*votes)(r, 1), 0.0) << "row " << r;
  }
}

TEST(KnnDistanceDetectorTest, ScoresMatchBruteForceMeanDistance) {
  // Oracle: every row's Euclidean distances to the other rows, ascending,
  // averaged over the first k. Duplicated rows put exact ties at distance 0.
  TabularDataset data = MakeAnomalyData({.num_inliers = 50,
                                         .num_outliers = 6});
  TabularDataset dup(data.NumRows() + 4);
  for (size_t c = 0; c < data.NumCols(); ++c) {
    std::vector<double> v = data.column(c).numeric;
    for (size_t r = 0; r < 4; ++r) v.push_back(v[r]);
    ASSERT_TRUE(dup.AddNumericColumn(data.column(c).name, v).ok());
  }
  const size_t k = 5;
  KnnDistanceDetector model({.k = k});
  ASSERT_TRUE(model.Fit(dup, Split{}).ok());
  auto scores = model.Predict(dup);
  ASSERT_TRUE(scores.ok());

  Featurizer featurizer;
  auto x = featurizer.FitTransform(dup);
  ASSERT_TRUE(x.ok());
  for (size_t r = 0; r < x->rows(); ++r) {
    std::vector<double> dist;
    for (size_t j = 0; j < x->rows(); ++j) {
      if (j == r) continue;
      double s = 0.0;
      for (size_t c = 0; c < x->cols(); ++c) {
        double diff = (*x)(r, c) - (*x)(j, c);
        s += diff * diff;
      }
      dist.push_back(std::sqrt(s));
    }
    std::sort(dist.begin(), dist.end());
    double sum = 0.0;
    for (size_t t = 0; t < k; ++t) sum += dist[t];
    EXPECT_EQ((*scores)(r, 0), sum / static_cast<double>(k)) << "row " << r;
  }
}

TEST(InstanceGraphGnnTest, KnnGcnLearnsClusters) {
  TabularDataset data = MakeClusters({.num_rows = 300, .num_classes = 3});
  Split split = MakeSplit(data);
  InstanceGraphGnnOptions opts;
  opts.train = FastTrain();
  InstanceGraphGnn model(opts);
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->accuracy, 0.85);
  EXPECT_EQ(model.graph().num_nodes(), 300u);
}

TEST(InstanceGraphGnnTest, AllBackbonesTrain) {
  TabularDataset data = MakeClusters({.num_rows = 150, .num_classes = 2});
  Split split = MakeSplit(data);
  for (GnnBackbone b : {GnnBackbone::kGcn, GnnBackbone::kSage,
                        GnnBackbone::kGat, GnnBackbone::kGin,
                        GnnBackbone::kGgnn, GnnBackbone::kAppnp}) {
    InstanceGraphGnnOptions opts;
    opts.backbone = b;
    opts.hidden_dim = 16;
    opts.gat_heads = 2;
    opts.train = FastTrain(60);
    InstanceGraphGnn model(opts);
    auto result = FitAndEvaluate(model, data, split, split.test);
    ASSERT_TRUE(result.ok()) << GnnBackboneName(b);
    EXPECT_GT(result->accuracy, 0.7) << GnnBackboneName(b);
  }
}

TEST(InstanceGraphGnnTest, SemiSupervisedBeatsMlpUnderLabelScarcity) {
  // Section 2.5d: with very few labels, the GNN propagates supervision
  // through the instance graph while the MLP can only use the labeled rows.
  TabularDataset data = MakeClusters({.num_rows = 400,
                                      .num_classes = 4,
                                      .cluster_std = 1.3,
                                      .class_sep = 2.2});
  Rng rng(7);
  Split split = LabelScarceSplit(data.class_labels(), 3, 0.1, 0.4, rng);

  InstanceGraphGnnOptions gnn_opts;
  gnn_opts.train = FastTrain(150);
  InstanceGraphGnn gnn(gnn_opts);
  auto gnn_result = FitAndEvaluate(gnn, data, split, split.test);
  ASSERT_TRUE(gnn_result.ok());

  MlpModel mlp({.hidden_dims = {32}, .train = FastTrain(150)});
  auto mlp_result = FitAndEvaluate(mlp, data, split, split.test);
  ASSERT_TRUE(mlp_result.ok());

  EXPECT_GT(gnn_result->accuracy, mlp_result->accuracy - 0.02);
}

TEST(InstanceGraphGnnTest, PrecomputedGraphRequiresSetGraph) {
  TabularDataset data = MakeClusters({.num_rows = 50});
  Split split = MakeSplit(data);
  InstanceGraphGnnOptions opts;
  opts.graph_source = GraphSource::kPrecomputed;
  InstanceGraphGnn model(opts);
  EXPECT_FALSE(model.Fit(data, split).ok());
}

TEST(InstanceGraphGnnTest, AuxTasksRun) {
  TabularDataset data = MakeClusters({.num_rows = 120, .num_classes = 2});
  Split split = MakeSplit(data);
  InstanceGraphGnnOptions opts;
  opts.hidden_dim = 16;
  opts.reconstruction_weight = 0.3;
  opts.dae_weight = 0.3;
  opts.contrastive_weight = 0.1;
  opts.smoothness_weight = 0.05;
  opts.train = FastTrain(40);
  InstanceGraphGnn model(opts);
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->accuracy, 0.7);
}

TEST(InstanceGraphGnnTest, TwoStageAndPretrainFinetuneRun) {
  TabularDataset data = MakeClusters({.num_rows = 120, .num_classes = 2});
  Split split = MakeSplit(data);
  for (TrainStrategy s :
       {TrainStrategy::kTwoStage, TrainStrategy::kPretrainFinetune}) {
    InstanceGraphGnnOptions opts;
    opts.hidden_dim = 16;
    opts.strategy = s;
    opts.pretrain_epochs = 30;
    opts.train = FastTrain(60);
    InstanceGraphGnn model(opts);
    auto result = FitAndEvaluate(model, data, split, split.test);
    ASSERT_TRUE(result.ok()) << TrainStrategyName(s);
    EXPECT_GT(result->accuracy, 0.65) << TrainStrategyName(s);
  }
}

TEST(InstanceGraphGnnTest, JumpingKnowledgeTrains) {
  TabularDataset data = MakeClusters({.num_rows = 150, .num_classes = 2});
  Split split = MakeSplit(data);
  InstanceGraphGnnOptions opts;
  opts.num_layers = 3;
  opts.use_jumping_knowledge = true;
  opts.hidden_dim = 16;
  opts.train = FastTrain(60);
  InstanceGraphGnn model(opts);
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->accuracy, 0.8);
  // JK embeddings are num_layers * hidden wide.
  auto emb = model.Embeddings();
  ASSERT_TRUE(emb.ok());
  EXPECT_EQ(emb->cols(), 48u);
}

TEST(InstanceGraphGnnTest, EmbeddingsShape) {
  TabularDataset data = MakeClusters({.num_rows = 60, .num_classes = 2});
  Split split = MakeSplit(data);
  InstanceGraphGnnOptions opts;
  opts.hidden_dim = 8;
  opts.train = FastTrain(20);
  InstanceGraphGnn model(opts);
  ASSERT_TRUE(model.Fit(data, split).ok());
  auto emb = model.Embeddings();
  ASSERT_TRUE(emb.ok());
  EXPECT_EQ(emb->rows(), 60u);
  EXPECT_EQ(emb->cols(), 8u);
}

TEST(FeatureGraphModelTest, LearnsXorInteraction) {
  // Section 2.5b: the feature-graph model captures the pure interaction the
  // linear model misses (see MlpModelTest.LinearFailsOnXor).
  TabularDataset data = MakeInteraction({.num_rows = 600, .order = 2});
  Split split = MakeSplit(data);
  FeatureGraphOptions opts;
  opts.train = FastTrain(250);
  opts.train.learning_rate = 0.03;
  FeatureGraphModel model(opts);
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->accuracy, 0.75);
}

TEST(FeatureGraphModelTest, HandlesCategoricalColumns) {
  TabularDataset data = MakeMultiRelational({.num_rows = 200,
                                             .cardinality = 10});
  Split split = MakeSplit(data);
  FeatureGraphOptions opts;
  opts.train = FastTrain(80);
  FeatureGraphModel model(opts);
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->accuracy, 0.5);
}

TEST(FeatureGraphModelTest, LearnedAdjacencyIsRowStochastic) {
  TabularDataset data = MakeClusters({.num_rows = 100, .num_classes = 2});
  Split split = MakeSplit(data);
  FeatureGraphOptions opts;
  opts.train = FastTrain(20);
  FeatureGraphModel model(opts);
  ASSERT_TRUE(model.Fit(data, split).ok());
  auto adj = model.FeatureAdjacencyMatrix();
  ASSERT_TRUE(adj.ok());
  for (size_t r = 0; r < adj->rows(); ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < adj->cols(); ++c) sum += (*adj)(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(FeatureGraphModelTest, InductivePredictionOnFreshRows) {
  TabularDataset train_data = MakeClusters({.num_rows = 200,
                                            .num_classes = 2,
                                            .seed = 1});
  TabularDataset test_data = MakeClusters({.num_rows = 100,
                                           .num_classes = 2,
                                           .seed = 1});
  Split split = MakeSplit(train_data);
  FeatureGraphOptions opts;
  opts.train = FastTrain(80);
  FeatureGraphModel model(opts);
  ASSERT_TRUE(model.Fit(train_data, split).ok());
  auto pred = model.Predict(test_data);
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->rows(), 100u);
}

TEST(GrapeModelTest, PredictsLabelsWithMissingData) {
  TabularDataset data = MakeClusters({.num_rows = 250, .num_classes = 2});
  InjectMissing(data, 0.2, MissingMechanism::kMcar, 11);
  Split split = MakeSplit(data);
  GrapeOptions opts;
  opts.train = FastTrain(80);
  GrapeModel model(opts);
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->accuracy, 0.75);
}

TEST(GrapeModelTest, ImputationBeatsZeroBaseline) {
  // Hide 15% of the observed cells, fit on the remainder, and check the
  // imputation RMSE of the held-out standardized values beats predicting 0
  // (the column mean in standardized space).
  TabularDataset full = MakeClusters({.num_rows = 200,
                                      .num_classes = 2,
                                      .dim_informative = 6,
                                      .dim_noise = 0});
  // Build the bipartite edge targets from the *full* data first.
  BipartiteGraph truth = BipartiteFromTable(full);
  TabularDataset holey = full;
  Rng rng(12);
  std::vector<Triplet> held_out;
  for (size_t c = 0; c < holey.NumCols(); ++c) {
    Column& col = holey.mutable_column(c);
    for (size_t r = 0; r < holey.NumRows(); ++r) {
      if (rng.Bernoulli(0.15)) {
        held_out.push_back({r, c, truth.left_to_right().At(r, c)});
        col.numeric[r] = std::nan("");
      }
    }
  }
  Split split = MakeSplit(holey);
  GrapeOptions opts;
  opts.impute_weight = 3.0;
  opts.train = FastTrain(300);
  opts.train.patience = 0;  // early stopping tracks label accuracy only and
                            // would undertrain the imputation head
  opts.train.learning_rate = 0.03;
  GrapeModel model(opts);
  ASSERT_TRUE(model.Fit(holey, split).ok());
  auto rmse = model.ImputationRmse(held_out);
  ASSERT_TRUE(rmse.ok()) << rmse.status().ToString();
  // Zero-prediction RMSE in standardized space is ~1.
  EXPECT_LT(*rmse, 0.95);
}

TEST(TabGnnModelTest, BeatsMlpOnRelationalData) {
  // The TabGNN claim: when labels correlate through shared categorical
  // values, multiplex message passing beats a flat feature model.
  TabularDataset data = MakeMultiRelational({.num_rows = 600,
                                             .num_relations = 3,
                                             .cardinality = 60,
                                             .numeric_signal = 0.5,
                                             .effect_noise = 0.3});
  Rng rng(1);
  Split split = StratifiedSplit(data.class_labels(), 0.1, 0.15, rng);
  TrainOptions train = FastTrain(200);
  train.patience = 40;
  TabGnnOptions opts;
  opts.hidden_dim = 48;
  opts.train = train;
  TabGnnModel tabgnn(opts);
  auto tabgnn_result = FitAndEvaluate(tabgnn, data, split, split.test);
  ASSERT_TRUE(tabgnn_result.ok()) << tabgnn_result.status().ToString();

  MlpModel mlp({.hidden_dims = {64}, .train = train});
  auto mlp_result = FitAndEvaluate(mlp, data, split, split.test);
  ASSERT_TRUE(mlp_result.ok());

  EXPECT_GT(tabgnn_result->accuracy, mlp_result->accuracy);
}

TEST(TabGnnModelTest, ChannelAttentionSumsToOne) {
  TabularDataset data = MakeMultiRelational({.num_rows = 150,
                                             .num_relations = 2,
                                             .cardinality = 10});
  Split split = MakeSplit(data);
  TabGnnOptions opts;
  opts.train = FastTrain(30);
  TabGnnModel model(opts);
  ASSERT_TRUE(model.Fit(data, split).ok());
  ASSERT_TRUE(model.Predict(data).ok());
  auto attention = model.ChannelAttention();
  ASSERT_TRUE(attention.ok());
  EXPECT_EQ(attention->size(), 3u);  // 2 relations + self
  double sum = 0.0;
  for (double a : *attention) sum += a;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(TabGnnModelTest, RequiresCategoricalColumns) {
  TabularDataset data = MakeClusters({.num_rows = 50});
  Split split = MakeSplit(data);
  TabGnnModel model;
  EXPECT_FALSE(model.Fit(data, split).ok());
}

TEST(LunarDetectorTest, BeatsChanceOnAnomalies) {
  TabularDataset data = MakeAnomalyData({.num_inliers = 270,
                                         .num_outliers = 30});
  Split split;
  LunarOptions opts;
  opts.train = FastTrain(150);
  LunarDetector model(opts);
  auto result = FitAndEvaluate(model, data, split, {});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->auroc, 0.85);
}

TEST(LunarDetectorTest, ScoresInUnitInterval) {
  TabularDataset data = MakeAnomalyData({.num_inliers = 90,
                                         .num_outliers = 10});
  Split split;
  LunarOptions opts;
  opts.train = FastTrain(30);
  LunarDetector model(opts);
  ASSERT_TRUE(model.Fit(data, split).ok());
  auto scores = model.Predict(data);
  ASSERT_TRUE(scores.ok());
  for (size_t r = 0; r < scores->rows(); ++r) {
    EXPECT_GE((*scores)(r, 0), 0.0);
    EXPECT_LE((*scores)(r, 0), 1.0);
  }
}

TEST(LearnedGraphGnnTest, AllStrategiesTrain) {
  TabularDataset data = MakeClusters({.num_rows = 150, .num_classes = 2});
  Split split = MakeSplit(data);
  for (GslStrategy s :
       {GslStrategy::kMetric, GslStrategy::kNeural, GslStrategy::kDirect}) {
    LearnedGraphOptions opts;
    opts.strategy = s;
    opts.hidden_dim = 16;
    opts.train = FastTrain(60);
    LearnedGraphGnn model(opts);
    auto result = FitAndEvaluate(model, data, split, split.test);
    ASSERT_TRUE(result.ok()) << GslStrategyName(s);
    EXPECT_GT(result->accuracy, 0.75) << GslStrategyName(s);
  }
}

TEST(LearnedGraphGnnTest, EdgeWeightsWithinUnitInterval) {
  TabularDataset data = MakeClusters({.num_rows = 80, .num_classes = 2});
  Split split = MakeSplit(data);
  LearnedGraphOptions opts;
  opts.hidden_dim = 8;
  opts.train = FastTrain(20);
  LearnedGraphGnn model(opts);
  ASSERT_TRUE(model.Fit(data, split).ok());
  auto weights = model.LearnedEdgeWeights();
  ASSERT_TRUE(weights.ok());
  EXPECT_EQ(weights->rows(), model.candidate_edges().src.size());
  for (size_t e = 0; e < weights->rows(); ++e) {
    EXPECT_GE((*weights)(e, 0), 0.0);
    EXPECT_LE((*weights)(e, 0), 1.0 + 1e-9);
  }
}

TEST(LearnedGraphGnnTest, RegularizersRun) {
  TabularDataset data = MakeClusters({.num_rows = 100, .num_classes = 2});
  Split split = MakeSplit(data);
  LearnedGraphOptions opts;
  opts.hidden_dim = 16;
  opts.smoothness_weight = 0.05;
  opts.sparsity_weight = 0.01;
  opts.connectivity_weight = 0.05;
  opts.dae_weight = 0.2;
  opts.train = FastTrain(40);
  LearnedGraphGnn model(opts);
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->accuracy, 0.7);
}

TEST(BackboneNameTest, RoundTripsEveryBackbone) {
  for (GnnBackbone b :
       {GnnBackbone::kGcn, GnnBackbone::kSage, GnnBackbone::kGat,
        GnnBackbone::kGin, GnnBackbone::kGgnn, GnnBackbone::kAppnp,
        GnnBackbone::kTransformer}) {
    StatusOr<GnnBackbone> parsed = GnnBackboneFromName(GnnBackboneName(b));
    ASSERT_TRUE(parsed.ok()) << GnnBackboneName(b);
    EXPECT_EQ(*parsed, b);
  }
}

TEST(BackboneNameTest, UnknownNameIsInvalidArgument) {
  StatusOr<GnnBackbone> parsed = GnnBackboneFromName("resnet50");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("resnet50"), std::string::npos);
}

}  // namespace
}  // namespace gnn4tdl
