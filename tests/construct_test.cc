#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "construct/intrinsic.h"
#include "construct/learned.h"
#include "construct/rule_based.h"
#include "construct/similarity.h"
#include "data/synthetic.h"
#include "gradcheck_util.h"
#include "nn/optimizer.h"
#include "nn/ops.h"

namespace gnn4tdl {
namespace {

TEST(SimilarityTest, EuclideanIsNegativeDistance) {
  Matrix x = Matrix::FromRows({{0, 0}, {3, 4}});
  EXPECT_NEAR(RowSimilarity(x, 0, 1, SimilarityMetric::kEuclidean), -5.0,
              1e-12);
  EXPECT_NEAR(RowSimilarity(x, 0, 0, SimilarityMetric::kEuclidean), 0.0, 1e-12);
}

TEST(SimilarityTest, CosineOfParallelVectorsIsOne) {
  Matrix x = Matrix::FromRows({{1, 2}, {2, 4}, {-1, -2}});
  EXPECT_NEAR(RowSimilarity(x, 0, 1, SimilarityMetric::kCosine), 1.0, 1e-12);
  EXPECT_NEAR(RowSimilarity(x, 0, 2, SimilarityMetric::kCosine), -1.0, 1e-12);
}

TEST(SimilarityTest, RbfInUnitInterval) {
  Matrix x = Matrix::FromRows({{0, 0}, {1, 1}});
  double s = RowSimilarity(x, 0, 1, SimilarityMetric::kRbf, 0.5);
  EXPECT_NEAR(s, std::exp(-1.0), 1e-12);
  EXPECT_NEAR(RowSimilarity(x, 0, 0, SimilarityMetric::kRbf), 1.0, 1e-12);
}

TEST(SimilarityTest, PearsonInvariantToShiftScale) {
  Matrix x = Matrix::FromRows({{1, 2, 3}, {10, 20, 30}, {5, 7, 9}});
  EXPECT_NEAR(RowSimilarity(x, 0, 1, SimilarityMetric::kPearson), 1.0, 1e-12);
  EXPECT_NEAR(RowSimilarity(x, 0, 2, SimilarityMetric::kPearson), 1.0, 1e-12);
}

TEST(SimilarityTest, PairwiseMatrixSymmetric) {
  Rng rng(1);
  Matrix x = Matrix::Randn(6, 3, rng);
  Matrix sim = PairwiseSimilarity(x, SimilarityMetric::kRbf, 1.0);
  EXPECT_TRUE(sim.AllClose(sim.Transpose(), 1e-12));
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(sim(i, i), 1.0, 1e-12);
}

TEST(SimilarityTest, MetricNamesRoundTrip) {
  for (SimilarityMetric m :
       {SimilarityMetric::kEuclidean, SimilarityMetric::kCosine,
        SimilarityMetric::kRbf, SimilarityMetric::kPearson,
        SimilarityMetric::kManhattan, SimilarityMetric::kInnerProduct}) {
    StatusOr<SimilarityMetric> parsed =
        SimilarityMetricFromName(SimilarityMetricName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
}

TEST(SimilarityTest, UnknownMetricNameIsInvalidArgument) {
  StatusOr<SimilarityMetric> parsed = SimilarityMetricFromName("bogus");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(KnnGraphTest, ConnectsNearestNeighbors) {
  // Two tight pairs far apart.
  Matrix x = Matrix::FromRows({{0, 0}, {0.1, 0}, {10, 10}, {10.1, 10}});
  Graph g = KnnGraph(x, {.k = 1});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.IsSymmetric());
}

TEST(KnnGraphTest, TiesAtRankKGoToTheLowerIndex) {
  // One column of repeated values: at k=9 most rows' neighbour lists end
  // inside a run of tied distances. The oracle ranks each row's candidates
  // by one full sort (distance ascending, then index ascending) and takes
  // the symmetric union; KnnGraph must produce exactly that edge set.
  const std::vector<double> values = {2, 1, 1, 1, 2, 1, 1, 0, 2, 0,
                                      3, 1, 0, 1, 1, 3, 0, 1, 3};
  const size_t n = values.size();
  const size_t k = 9;
  Matrix x(n, 1);
  for (size_t i = 0; i < n; ++i) x(i, 0) = values[i];
  Graph g = KnnGraph(x, {.k = k});

  std::vector<std::vector<bool>> want(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::pair<double, size_t>> order;
    for (size_t j = 0; j < n; ++j) {
      if (j != i) order.push_back({std::fabs(values[i] - values[j]), j});
    }
    std::sort(order.begin(), order.end());
    for (size_t t = 0; t < k; ++t) {
      want[i][order[t].second] = true;
      want[order[t].second][i] = true;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(g.HasEdge(i, j), want[i][j]) << "edge " << i << "-" << j;
    }
  }
}

TEST(KnnGraphTest, DegreeBoundedByUnionOfK) {
  Rng rng(2);
  Matrix x = Matrix::Randn(50, 4, rng);
  KnnGraphOptions opts;
  opts.k = 5;
  Graph g = KnnGraph(x, opts);
  // Union symmetrization: min degree >= k, and no self-loops.
  std::vector<double> deg = g.Degrees();
  for (size_t v = 0; v < 50; ++v) {
    EXPECT_GE(deg[v], 5.0);
    EXPECT_FALSE(g.HasEdge(v, v));
  }
}

TEST(KnnGraphTest, MutualSparserThanUnion) {
  Rng rng(3);
  Matrix x = Matrix::Randn(60, 4, rng);
  Graph u = KnnGraph(x, {.k = 5, .mutual = false});
  Graph m = KnnGraph(x, {.k = 5, .mutual = true});
  EXPECT_LT(m.num_edges(), u.num_edges());
}

TEST(KnnGraphTest, WeightedEdgesPositive) {
  Rng rng(4);
  Matrix x = Matrix::Randn(20, 3, rng);
  Graph g = KnnGraph(x, {.k = 3, .weighted = true});
  for (double v : g.adjacency().values()) EXPECT_GT(v, 0.0);
}

TEST(KnnGraphTest, HighHomophilyOnClusteredData) {
  TabularDataset data = MakeClusters({.num_rows = 200, .num_classes = 3});
  Matrix x(200, data.NumCols());
  for (size_t c = 0; c < data.NumCols(); ++c)
    for (size_t r = 0; r < 200; ++r) x(r, c) = data.column(c).numeric[r];
  Graph g = KnnGraph(x, {.k = 5});
  EXPECT_GT(g.EdgeHomophily(data.class_labels()), 0.8);
}

TEST(ThresholdGraphTest, KeepsOnlySimilarPairs) {
  Matrix x = Matrix::FromRows({{1, 0}, {1, 0.01}, {0, 1}});
  Graph g = ThresholdGraph(x, {.threshold = 0.95,
                               .metric = SimilarityMetric::kCosine});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(FullyConnectedTest, AllPairsPresent) {
  Graph g = FullyConnectedGraph(4);
  EXPECT_EQ(g.num_edges(), 12u);  // 4*3 directed
  EXPECT_FALSE(g.HasEdge(1, 1));
}

TEST(FullyConnectedTest, WeightedBySimilarity) {
  Matrix x = Matrix::FromRows({{1, 0}, {1, 0}, {0, 1}});
  Graph g = FullyConnectedGraph(3, &x);
  EXPECT_GT(g.adjacency().At(0, 1), g.adjacency().At(0, 2));
}

TEST(SameFeatureValueTest, CliquesPerValue) {
  TabularDataset data(5);
  ASSERT_TRUE(data.AddCategoricalColumn("g", {0, 0, 1, 1, -1},
                                        {"a", "b"}).ok());
  Graph g = SameFeatureValueGraph(data, 0);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(1, 2));
  // Missing value row stays isolated.
  EXPECT_TRUE(g.Neighbors(4).empty());
}

TEST(SameFeatureValueTest, GroupSizeCapBoundsEdges) {
  TabularDataset data(100);
  std::vector<int> codes(100, 0);
  ASSERT_TRUE(data.AddCategoricalColumn("g", codes, {"a"}).ok());
  Graph capped = SameFeatureValueGraph(data, 0, /*max_group_size=*/10);
  EXPECT_LE(capped.num_edges(), 10u * 9u);
  Graph full = SameFeatureValueGraph(data, 0);
  EXPECT_EQ(full.num_edges(), 100u * 99u);
}

TEST(MultiplexTest, OneLayerPerCategoricalColumn) {
  TabularDataset data = MakeMultiRelational({.num_rows = 50,
                                             .num_relations = 3,
                                             .cardinality = 5});
  MultiplexGraph mg = MultiplexFromCategoricals(data);
  EXPECT_EQ(mg.num_layers(), 3u);
  EXPECT_EQ(mg.num_nodes(), 50u);
}

TEST(FeatureCorrelationTest, CorrelatedFeaturesConnected) {
  Rng rng(5);
  Matrix x(100, 3);
  for (size_t i = 0; i < 100; ++i) {
    double base = rng.Normal();
    x(i, 0) = base;
    x(i, 1) = base + rng.Normal(0, 0.1);  // highly correlated with 0
    x(i, 2) = rng.Normal();               // independent
  }
  Graph g = FeatureCorrelationGraph(x, 0.5);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(BipartiteFromTableTest, ObservedCellsBecomeEdges) {
  TabularDataset data(2);
  ASSERT_TRUE(data.AddNumericColumn("x", {1.0, std::nan("")}).ok());
  ASSERT_TRUE(data.AddCategoricalColumn("c", {1, 0}, {"a", "b"}).ok());
  std::vector<std::string> names;
  BipartiteGraph b = BipartiteFromTable(data, {}, &names);
  EXPECT_EQ(b.num_left(), 2u);
  EXPECT_EQ(b.num_right(), 3u);  // 1 numeric + 2 categories
  EXPECT_EQ(b.num_edges(), 3u);  // missing cell has no edge
  EXPECT_EQ(names[1], "c=a");
  EXPECT_EQ(names[2], "c=b");
}

TEST(BipartiteFromTableTest, StandardizedNumericEdgeWeights) {
  TabularDataset data(4);
  ASSERT_TRUE(data.AddNumericColumn("x", {0.0, 0.0, 10.0, 10.0}).ok());
  BipartiteGraph b = BipartiteFromTable(data);
  // Standardized values are symmetric around 0.
  EXPECT_NEAR(b.edge_values()[0] + b.edge_values()[2], 0.0, 1e-12);
}

TEST(HeteroFromTableTest, InstancePlusValueNodeTypes) {
  TabularDataset data(3);
  ASSERT_TRUE(data.AddCategoricalColumn("city", {0, 1, 0},
                                        {"tpe", "nyc"}).ok());
  ASSERT_TRUE(data.AddNumericColumn("age", {1, 2, 3}).ok());
  HeteroGraph hg = HeteroFromTable(data);
  EXPECT_EQ(hg.num_node_types(), 2u);  // instance + city (numeric skipped)
  EXPECT_EQ(hg.num_nodes(), 5u);
  EXPECT_EQ(hg.num_relations(), 1u);
  // Instances 0 and 2 both connect to value node "tpe" (global id 3).
  EXPECT_TRUE(hg.relation(0).HasEdge(0, 3));
  EXPECT_TRUE(hg.relation(0).HasEdge(2, 3));
  EXPECT_TRUE(hg.relation(0).HasEdge(1, 4));
}

TEST(HypergraphFromTableTest, RowsBecomeHyperedges) {
  TabularDataset data(3);
  ASSERT_TRUE(data.AddCategoricalColumn("c", {0, 1, 0}, {"a", "b"}).ok());
  ASSERT_TRUE(data.AddNumericColumn("x", {0.0, 5.0, 10.0}).ok());
  std::vector<std::string> names;
  Hypergraph h = HypergraphFromTable(data, {.numeric_bins = 2}, &names);
  EXPECT_EQ(h.num_hyperedges(), 3u);
  EXPECT_EQ(h.num_nodes(), 4u);  // 2 categories + 2 bins
  // Rows 0 and 2 share the category-"a" node.
  EXPECT_EQ(h.incidence().At(0, 0), 1.0);
  EXPECT_EQ(h.incidence().At(0, 2), 1.0);
}

TEST(LearnedTest, KnnCandidatesSymmetricNoSelf) {
  Rng rng(6);
  Matrix x = Matrix::Randn(30, 3, rng);
  CandidateEdges e = KnnCandidates(x, 4);
  ASSERT_EQ(e.src.size(), e.dst.size());
  EXPECT_EQ(e.src.size() % 2, 0u);
  for (size_t k = 0; k < e.src.size(); ++k) EXPECT_NE(e.src[k], e.dst[k]);
  // Symmetric: every (s,d) has matching (d,s) at the adjacent slot.
  for (size_t k = 0; k < e.src.size(); k += 2) {
    EXPECT_EQ(e.src[k], e.dst[k + 1]);
    EXPECT_EQ(e.dst[k], e.src[k + 1]);
  }
}

TEST(LearnedTest, FullCandidatesCount) {
  CandidateEdges e = FullCandidates(4);
  EXPECT_EQ(e.src.size(), 12u);
}

// --- kNN construction across thread counts ---------------------------------

// 3000 x 12: rows below 1500 are 125 distinct rows repeated 12 times
// (interleaved), so every one of their neighbour lists ends inside a run of
// 11 exact ties at rank k = 10; the rest are distinct random rows. Large
// enough that the row scan splits into many chunks at 2 and 4 threads.
Matrix TiedTable() {
  Rng rng(21);
  Matrix base = Matrix::Randn(125, 12, rng);
  Matrix x = Matrix::Randn(3000, 12, rng);
  for (size_t i = 0; i < 1500; ++i)
    std::copy(base.row_data(i % 125), base.row_data(i % 125) + 12,
              x.row_data(i));
  return x;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// (src, dst, weight bits) of every stored edge, in CSR order.
std::vector<std::tuple<size_t, size_t, uint64_t>> EdgeBits(const Graph& g) {
  std::vector<std::tuple<size_t, size_t, uint64_t>> out;
  for (const Edge& e : g.EdgeList())
    out.emplace_back(e.src, e.dst, Bits(e.weight));
  return out;
}

// The serial oracle: one TopKSimilar call per row on the calling thread.
std::vector<std::vector<KnnHit>> SerialLists(const Matrix& x, size_t k,
                                             SimilarityMetric m, double gamma) {
  std::vector<std::vector<KnnHit>> lists;
  for (size_t i = 0; i < x.rows(); ++i)
    lists.push_back(TopKSimilar(x, x.row_data(i), k, m, gamma, /*exclude=*/i));
  return lists;
}

bool Contains(const std::vector<KnnHit>& hits, size_t j) {
  return std::any_of(hits.begin(), hits.end(),
                     [j](const KnnHit& h) { return h.index == j; });
}

TEST(KnnThreadCountTest, GraphsAndCandidatesAreBitExactAtEveryThreadCount) {
  const Matrix x = TiedTable();
  const size_t k = 10;
  const double gamma = 0.05;
  const KnnGraphOptions mutual_rbf = {.k = k,
                                      .metric = SimilarityMetric::kRbf,
                                      .gamma = gamma,
                                      .mutual = true,
                                      .weighted = true};
  const KnnGraphOptions union_euclid = {.k = k, .weighted = true};

  // Oracle edge sets, keyed (src, dst) so iteration is CSR order.
  std::map<std::pair<size_t, size_t>, double> want_mutual, want_union;
  const auto rbf = SerialLists(x, k, SimilarityMetric::kRbf, gamma);
  for (size_t i = 0; i < x.rows(); ++i)
    for (const KnnHit& h : rbf[i])
      if (h.index > i && Contains(rbf[h.index], i)) {
        const double w = std::max(h.similarity, 1e-6);
        want_mutual[{i, h.index}] = w;
        want_mutual[{h.index, i}] = w;
      }
  const auto euclid = SerialLists(x, k, SimilarityMetric::kEuclidean, 1.0);
  std::set<std::pair<size_t, size_t>> want_pairs;
  for (size_t i = 0; i < x.rows(); ++i)
    for (const KnnHit& h : euclid[i]) {
      // Both directions of a pair carry the same distance, so the max is
      // either one.
      const double w = std::exp(h.similarity);
      want_union[{i, h.index}] = w;
      want_union[{h.index, i}] = w;
      want_pairs.insert(std::minmax(i, h.index));
    }
  std::vector<std::tuple<size_t, size_t, uint64_t>> mutual_bits, union_bits;
  for (const auto& [e, w] : want_mutual)
    mutual_bits.emplace_back(e.first, e.second, Bits(w));
  for (const auto& [e, w] : want_union)
    union_bits.emplace_back(e.first, e.second, Bits(w));
  CandidateEdges want_cand;
  for (const auto& [a, b] : want_pairs) {
    want_cand.src.insert(want_cand.src.end(), {a, b});
    want_cand.dst.insert(want_cand.dst.end(), {b, a});
  }
  ASSERT_FALSE(mutual_bits.empty());

  const size_t restore = ThreadPool::Global().num_threads();
  for (size_t threads : {1, 2, 4}) {
    ThreadPool::Global().SetNumThreads(threads);
    const Graph mutual = KnnGraph(x, mutual_rbf);
    const Graph uni = KnnGraph(x, union_euclid);
    const CandidateEdges cand = KnnCandidates(x, k);
    ThreadPool::Global().SetNumThreads(restore);
    EXPECT_TRUE(EdgeBits(mutual) == mutual_bits) << threads << " threads";
    EXPECT_TRUE(EdgeBits(uni) == union_bits) << threads << " threads";
    EXPECT_EQ(cand.src, want_cand.src) << threads << " threads";
    EXPECT_EQ(cand.dst, want_cand.dst) << threads << " threads";
  }
}

TEST(LearnedTest, MetricLearnerWeightsInRange) {
  Rng rng(7);
  Matrix x = Matrix::Randn(10, 4, rng);
  CandidateEdges edges = KnnCandidates(x, 3);
  MetricGraphLearner learner(4, rng);
  Tensor w = learner.EdgeWeights(Tensor::Constant(x), edges);
  EXPECT_EQ(w.rows(), edges.src.size());
  for (size_t e = 0; e < w.rows(); ++e) {
    EXPECT_GE(w.value()(e, 0), 0.0);
    EXPECT_LE(w.value()(e, 0), 1.0 + 1e-9);
  }
}

TEST(LearnedTest, MetricLearnerGradCheck) {
  Rng rng(8);
  Matrix x = Matrix::Randn(6, 3, rng);
  CandidateEdges edges = KnnCandidates(x, 2);
  MetricGraphLearner learner(3, rng);
  testing::ExpectGradientsMatch(learner.Parameters(), [&] {
    Tensor w = learner.EdgeWeights(Tensor::Constant(x), edges);
    // Keep away from the relu kink by shifting the loss.
    return ops::SumSquares(ops::AddScalar(w, 0.1));
  });
}

TEST(LearnedTest, NeuralScorerGradCheck) {
  Rng rng(9);
  Matrix x = Matrix::Randn(6, 3, rng);
  CandidateEdges edges = KnnCandidates(x, 2);
  NeuralEdgeScorer scorer(3, 5, rng);
  testing::ExpectGradientsMatch(scorer.Parameters(), [&] {
    return ops::SumSquares(scorer.EdgeWeights(Tensor::Constant(x), edges));
  });
}

TEST(LearnedTest, DirectAdjacencyLearnsToKillBadEdge) {
  Rng rng(10);
  DirectAdjacency adj(2, rng);
  // Push edge 0 weight to 1 and edge 1 weight to 0.
  Adam opt(adj.Parameters(), {.learning_rate = 0.5});
  Matrix target = Matrix::FromRows({{1.0}, {0.0}});
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    ops::MseLoss(adj.EdgeWeights(), target).Backward();
    opt.Step();
  }
  Tensor w = adj.EdgeWeights();
  EXPECT_GT(w.value()(0, 0), 0.9);
  EXPECT_LT(w.value()(1, 0), 0.1);
}

TEST(LearnedTest, WeightedAggregateIsConvexCombination) {
  Rng rng(11);
  Matrix h_val = Matrix::Randn(4, 2, rng);
  CandidateEdges edges;
  edges.src = {0, 1, 2};
  edges.dst = {3, 3, 3};
  Tensor h = Tensor::Constant(h_val);
  Tensor w = Tensor::Constant(Matrix::FromRows({{0.5}, {0.5}, {0.5}}));
  Tensor out = WeightedAggregate(h, w, edges, 4);
  // Equal weights -> node 3 receives the mean of rows 0..2.
  for (size_t c = 0; c < 2; ++c) {
    double mean = (h_val(0, c) + h_val(1, c) + h_val(2, c)) / 3.0;
    EXPECT_NEAR(out.value()(3, c), mean, 1e-9);
  }
}

}  // namespace
}  // namespace gnn4tdl
