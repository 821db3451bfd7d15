// Parameterized property sweeps: invariants checked across configuration
// grids (TEST_P/INSTANTIATE_TEST_SUITE_P), complementing the per-module
// unit tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "columnstore/column.h"
#include "common/random.h"
#include "common/temp_dir.h"
#include "dataflow/algorithms.h"
#include "datagen/degree_plugin.h"
#include "datagen/social_datagen.h"
#include "graph/graph.h"
#include "mapreduce/job.h"
#include "mapreduce/record.h"
#include "pregel/algorithms.h"
#include "ref/algorithms.h"

namespace gly {
namespace {

// ------------------------------------------------- degree plugin invariants
//
// For every plugin spec: samples are >= 1, the sample mean tracks the
// declared mean, and sampling is a pure function of the RNG state.

class DegreePluginSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(DegreePluginSweep, SamplesPositiveMeanTracksDeterministic) {
  auto plugin = datagen::MakeDegreePlugin(GetParam());
  ASSERT_TRUE(plugin.ok()) << GetParam();
  Rng rng_a(12345);
  Rng rng_b(12345);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    uint64_t a = (*plugin)->Sample(rng_a);
    uint64_t b = (*plugin)->Sample(rng_b);
    EXPECT_EQ(a, b);  // pure function of RNG state
    ASSERT_GE(a, 1u);
    sum += static_cast<double>(a);
  }
  double mean = sum / n;
  double declared = (*plugin)->MeanDegree();
  EXPECT_NEAR(mean, declared, declared * 0.15) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllPlugins, DegreePluginSweep,
    ::testing::Values("zeta:alpha=1.7,max=5000", "zeta:alpha=2.5",
                      "geometric:p=0.05", "geometric:p=0.5",
                      "weibull:shape=0.7,scale=12",
                      "weibull:shape=1.5,scale=6", "poisson:lambda=3",
                      "poisson:lambda=40", "facebook:mean=10",
                      "facebook:mean=50"));

// --------------------------------------------------- column codec invariants
//
// For every (shape, size): encoding round-trips exactly and never inflates
// beyond the plain-encoding footprint by more than the block directory.

enum class Shape { kSorted, kClustered, kRandom, kConstant, kSmallRange };

std::vector<uint32_t> MakeData(Shape shape, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> values(n);
  switch (shape) {
    case Shape::kSorted: {
      uint32_t acc = 0;
      for (auto& v : values) {
        acc += static_cast<uint32_t>(rng.NextBounded(7));
        v = acc;
      }
      break;
    }
    case Shape::kClustered:
      for (size_t i = 0; i < n; ++i) {
        values[i] = static_cast<uint32_t>((i / 512) * 100000 +
                                          rng.NextBounded(1024));
      }
      break;
    case Shape::kRandom:
      for (auto& v : values) v = static_cast<uint32_t>(rng.Next());
      break;
    case Shape::kConstant:
      std::fill(values.begin(), values.end(), 123456u);
      break;
    case Shape::kSmallRange:
      for (auto& v : values) {
        v = 7777777u + static_cast<uint32_t>(rng.NextBounded(3));
      }
      break;
  }
  return values;
}

class ColumnCodecSweep
    : public ::testing::TestWithParam<std::tuple<Shape, size_t>> {};

TEST_P(ColumnCodecSweep, RoundTripsAndBoundsFootprint) {
  auto [shape, n] = GetParam();
  std::vector<uint32_t> values = MakeData(shape, n, 99);
  columnstore::Column col = columnstore::Column::Encode(values);
  ASSERT_EQ(col.size(), values.size());
  std::vector<uint32_t> decoded;
  col.ReadRange(0, col.size(), &decoded);
  EXPECT_EQ(decoded, values);
  // Spot random access.
  Rng rng(7);
  for (int i = 0; i < 50 && n > 0; ++i) {
    uint64_t row = rng.NextBounded(n);
    EXPECT_EQ(col.Get(row), values[row]);
  }
  // Footprint bound: never worse than plain + directory slack.
  EXPECT_LE(col.compressed_bytes(), col.raw_bytes() + 64 * (n / 2048 + 1));
}

std::string ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kSorted: return "sorted";
    case Shape::kClustered: return "clustered";
    case Shape::kRandom: return "random";
    case Shape::kConstant: return "constant";
    case Shape::kSmallRange: return "smallrange";
  }
  return "?";
}

std::string ColumnSweepName(
    const ::testing::TestParamInfo<std::tuple<Shape, size_t>>& info) {
  return ShapeName(std::get<0>(info.param)) + "_" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSizes, ColumnCodecSweep,
    ::testing::Combine(::testing::Values(Shape::kSorted, Shape::kClustered,
                                         Shape::kRandom, Shape::kConstant,
                                         Shape::kSmallRange),
                       ::testing::Values(size_t{1}, size_t{2047},
                                         size_t{2048}, size_t{2049},
                                         size_t{50000})),
    ColumnSweepName);

// ----------------------------------------------------- MapReduce invariance
//
// The reduce output must be identical (as a multiset) for any mapper/
// reducer/sort-buffer configuration.

class IdentityMapper : public mapreduce::Mapper {
 public:
  void Map(uint64_t key, std::string_view value, mapreduce::Emitter* out,
           mapreduce::Counters*) override {
    out->Emit(key % 37, value);
  }
};

class ConcatLengthReducer : public mapreduce::Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              mapreduce::Emitter* out, mapreduce::Counters*) override {
    size_t total = 0;
    for (const auto& v : values) total += v.size();
    out->Emit(key, std::to_string(total));
  }
};

class MapReduceConfigSweep
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint32_t, uint64_t>> {};

TEST_P(MapReduceConfigSweep, OutputInvariantUnderConfiguration) {
  auto [mappers, reducers, buffer] = GetParam();
  auto dir = TempDir::Create("gly-sweep");
  ASSERT_TRUE(dir.ok());
  std::vector<mapreduce::Record> input;
  Rng rng(5);
  for (uint64_t i = 0; i < 500; ++i) {
    input.push_back({i, std::string(rng.NextBounded(20), 'x')});
  }
  ASSERT_TRUE(mapreduce::WriteAllRecords(input, dir->File("in.bin")).ok());

  mapreduce::JobConfig config;
  config.num_mappers = mappers;
  config.num_reducers = reducers;
  config.sort_buffer_bytes = buffer;
  config.scratch_dir = dir->File("scratch");
  mapreduce::Job job(
      config, [] { return std::make_unique<IdentityMapper>(); },
      [] { return std::make_unique<ConcatLengthReducer>(); });
  ThreadPool pool(4);
  mapreduce::Counters counters;
  auto outputs =
      job.Run({dir->File("in.bin")}, dir->File("out"), &pool, &counters);
  ASSERT_TRUE(outputs.ok());

  std::vector<mapreduce::Record> all;
  for (const auto& path : *outputs) {
    auto records = mapreduce::ReadAllRecords(path);
    ASSERT_TRUE(records.ok());
    all.insert(all.end(), records->begin(), records->end());
  }
  std::sort(all.begin(), all.end(),
            [](const mapreduce::Record& a, const mapreduce::Record& b) {
              return a.key < b.key;
            });
  ASSERT_EQ(all.size(), 37u);  // keys 0..36 regardless of configuration
  // Total concatenated length is configuration-invariant.
  size_t expected_total = 0;
  for (const auto& r : input) expected_total += r.value.size();
  size_t total = 0;
  for (const auto& r : all) {
    total += static_cast<size_t>(std::stoull(r.value));
  }
  EXPECT_EQ(total, expected_total);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MapReduceConfigSweep,
    ::testing::Combine(::testing::Values(1u, 3u, 8u),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(uint64_t{512},
                                         uint64_t{8} << 20)),
    [](const ::testing::TestParamInfo<std::tuple<uint32_t, uint32_t,
                                                 uint64_t>>& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_b" +
             std::to_string(std::get<2>(info.param));
    });

// --------------------------------------------- pregel engine configuration
//
// Algorithm outputs must be bit-identical across (workers, threads) grids.

class PregelConfigSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(PregelConfigSweep, OutputsInvariantAcrossParallelism) {
  auto [workers, threads] = GetParam();
  EdgeList edges(300);
  Rng rng(31);
  for (int i = 0; i < 900; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(300));
    VertexId b = static_cast<VertexId>(rng.NextBounded(300));
    if (a != b) edges.Add(a, b);
  }
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();

  pregel::EngineConfig reference_config;
  reference_config.num_workers = 1;
  reference_config.num_threads = 1;
  pregel::EngineConfig sweep_config;
  sweep_config.num_workers = workers;
  sweep_config.num_threads = threads;

  AlgorithmParams params;
  params.cd = CdParams{4, 0.05};
  params.pr = PrParams{8, 0.85};
  for (AlgorithmKind kind : {AlgorithmKind::kBfs, AlgorithmKind::kConn,
                             AlgorithmKind::kCd}) {
    auto a = pregel::RunAlgorithm(pregel::Engine(reference_config), g, kind,
                                  params);
    auto b =
        pregel::RunAlgorithm(pregel::Engine(sweep_config), g, kind, params);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->vertex_values, b->vertex_values) << AlgorithmKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Parallelism, PregelConfigSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 16u),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<std::tuple<uint32_t, uint32_t>>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------ datagen window invariants
//
// For any window size: determinism, no self loops, no duplicate edges,
// vertex bound respected.

class DatagenWindowSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DatagenWindowSweep, StructuralInvariants) {
  datagen::SocialDatagenConfig config;
  config.num_persons = 2000;
  config.degree_spec = "geometric:p=0.25";
  config.window_size = GetParam();
  config.seed = 77;
  auto a = datagen::SocialDatagen(config).Generate(nullptr);
  auto b = datagen::SocialDatagen(config).Generate(nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->edges.edges(), b->edges.edges());
  std::set<std::pair<VertexId, VertexId>> seen;
  for (const Edge& e : a->edges.edges()) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_LT(e.src, 2000u);
    EXPECT_LT(e.dst, 2000u);
    EXPECT_LT(e.src, e.dst) << "canonical orientation";
    EXPECT_TRUE(seen.emplace(e.src, e.dst).second) << "duplicate edge";
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, DatagenWindowSweep,
                         ::testing::Values(2u, 16u, 64u, 333u, 4096u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "w" + std::to_string(info.param);
                         });

// -------------------------------------------- BFS strategy/alpha/beta sweep
//
// The direction-optimizing kernel must produce the naive queue BFS's exact
// levels for EVERY point of the (strategy, alpha, beta) grid — including
// the degenerate corners (alpha/beta near zero or huge, which pin the
// kernel to always-top-down or always-bottom-up) — on graphs engineered to
// stress the switch: isolated vertices, self-loops (dropped by the
// builder), and a giant hub whose first expansion floods the frontier.

enum class BfsAdversary { kGiantHub, kIsolated, kSelfLoops, kTwoComponents };

std::string AdversaryName(BfsAdversary which) {
  switch (which) {
    case BfsAdversary::kGiantHub: return "gianthub";
    case BfsAdversary::kIsolated: return "isolated";
    case BfsAdversary::kSelfLoops: return "selfloops";
    case BfsAdversary::kTwoComponents: return "twocomponents";
  }
  return "?";
}

const Graph& AdversaryGraph(BfsAdversary which) {
  static const Graph giant_hub = [] {
    // Hub 0 touches 2000 leaves; a 50-vertex chain hangs off leaf 1 so the
    // sweep exercises both the flood level and a long sparse tail.
    EdgeList edges;
    for (VertexId v = 1; v <= 2000; ++v) edges.Add(0, v);
    for (VertexId v = 2000; v < 2050; ++v) edges.Add(v, v + 1);
    return GraphBuilder::Undirected(edges).ValueOrDie();
  }();
  static const Graph isolated = [] {
    // A small random core inside a vertex space 8x larger: most ids are
    // isolated, including the maximum vertex id.
    EdgeList edges(1600);
    Rng rng(41);
    for (int i = 0; i < 600; ++i) {
      VertexId a = static_cast<VertexId>(rng.NextBounded(200));
      VertexId b = static_cast<VertexId>(rng.NextBounded(200));
      if (a != b) edges.Add(a, b);
    }
    return GraphBuilder::Undirected(edges).ValueOrDie();
  }();
  static const Graph self_loops = [] {
    EdgeList edges;
    Rng rng(43);
    for (VertexId v = 0; v < 120; ++v) edges.Add(v, v);  // loop on every id
    for (int i = 0; i < 400; ++i) {
      VertexId a = static_cast<VertexId>(rng.NextBounded(120));
      VertexId b = static_cast<VertexId>(rng.NextBounded(120));
      edges.Add(a, b);  // loops allowed here too
    }
    return GraphBuilder::Undirected(edges).ValueOrDie();
  }();
  static const Graph two_components = [] {
    // Two dense blobs with no bridge: bottom-up probing must never leak
    // distances into the unreached component.
    EdgeList edges;
    Rng rng(47);
    for (int c = 0; c < 2; ++c) {
      for (int i = 0; i < 700; ++i) {
        VertexId a = static_cast<VertexId>(c * 150 + rng.NextBounded(150));
        VertexId b = static_cast<VertexId>(c * 150 + rng.NextBounded(150));
        if (a != b) edges.Add(a, b);
      }
    }
    return GraphBuilder::Undirected(edges).ValueOrDie();
  }();
  switch (which) {
    case BfsAdversary::kGiantHub: return giant_hub;
    case BfsAdversary::kIsolated: return isolated;
    case BfsAdversary::kSelfLoops: return self_loops;
    case BfsAdversary::kTwoComponents: return two_components;
  }
  return giant_hub;
}

struct BfsGridPoint {
  BfsStrategy strategy;
  double alpha;
  double beta;
  const char* name;
};

class BfsStrategySweep
    : public ::testing::TestWithParam<std::tuple<BfsAdversary, BfsGridPoint>> {
};

TEST_P(BfsStrategySweep, DirOptMatchesNaiveBfsEverywhere) {
  const auto& [adversary, point] = GetParam();
  const Graph& graph = AdversaryGraph(adversary);

  // Sweep sources: the (likely hub) vertex 0, a mid-id vertex, and the
  // maximum id — isolated sources must yield an all-unreachable output.
  const std::vector<VertexId> sources = {
      0, graph.num_vertices() / 2, graph.num_vertices() - 1};
  for (VertexId source : sources) {
    BfsParams params;
    params.source = source;
    params.strategy = point.strategy;
    params.alpha = point.alpha;
    params.beta = point.beta;
    AlgorithmOutput expected = ref::Bfs(graph, BfsParams{source});
    AlgorithmOutput got = ref::BfsDirOpt(graph, params);
    ASSERT_EQ(got.vertex_values, expected.vertex_values)
        << AdversaryName(adversary) << " " << point.name << " src " << source;

    // The dataflow engine routes through the same frontier kernel; its
    // grid behaviour must be identical.
    dataflow::ContextConfig ctx;
    ctx.num_partitions = 4;
    AlgorithmParams engine_params;
    engine_params.bfs = params;
    auto engine_out =
        dataflow::RunAlgorithm(ctx, graph, AlgorithmKind::kBfs, engine_params);
    ASSERT_TRUE(engine_out.ok());
    ASSERT_EQ(engine_out->vertex_values, expected.vertex_values)
        << "dataflow " << AdversaryName(adversary) << " " << point.name
        << " src " << source;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BfsStrategySweep,
    ::testing::Combine(
        ::testing::Values(BfsAdversary::kGiantHub, BfsAdversary::kIsolated,
                          BfsAdversary::kSelfLoops,
                          BfsAdversary::kTwoComponents),
        ::testing::Values(
            BfsGridPoint{BfsStrategy::kTopDown, 15.0, 18.0, "topdown"},
            BfsGridPoint{BfsStrategy::kBottomUp, 15.0, 18.0, "bottomup"},
            BfsGridPoint{BfsStrategy::kDirectionOptimizing, 15.0, 18.0,
                         "diropt_default"},
            // alpha tiny: the frontier never looks big enough -> top-down.
            BfsGridPoint{BfsStrategy::kDirectionOptimizing, 1e-6, 18.0,
                         "diropt_alpha_tiny"},
            // alpha huge: switches bottom-up on the first level.
            BfsGridPoint{BfsStrategy::kDirectionOptimizing, 1e9, 18.0,
                         "diropt_alpha_huge"},
            // beta tiny: snaps back top-down immediately after switching.
            BfsGridPoint{BfsStrategy::kDirectionOptimizing, 1e9, 1e-6,
                         "diropt_beta_tiny"},
            // beta huge: once bottom-up, stays bottom-up to the end.
            BfsGridPoint{BfsStrategy::kDirectionOptimizing, 1e9, 1e9,
                         "diropt_beta_huge"},
            BfsGridPoint{BfsStrategy::kDirectionOptimizing, 1.0, 1.0,
                         "diropt_ones"})),
    [](const ::testing::TestParamInfo<std::tuple<BfsAdversary, BfsGridPoint>>&
           info) {
      return AdversaryName(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param).name;
    });

}  // namespace
}  // namespace gly
