// Hot-path frozen-oracle suite (`ctest -L hotpath`, DESIGN.md §13).
//
// Each engine has one hot path: arena outboxes with sender-side combining
// in Pregel, recycled partition buffers and the radix shuffle in dataflow,
// the lock-striped clock page cache in graphdb. They replaced per-superstep
// heap containers and per-record appends under an exact-equivalence
// contract, so the answers of the replaced heap paths are committed here as
// a frozen oracle: for every cell of TestGraph() x {BFS, CONN, PR, CD} x
// {1, 2, 8} threads/partitions the output checksum (harness::OutputChecksum,
// the value a journal records as output_checksum) and traversed edges, plus
// superstep and message counts for Pregel, and for the seeded message-drop
// runs the drop count. The constants were produced by running the heap
// paths on this graph and cross-checked against the pooled paths, which
// reproduced every value. Checksums cover PR's doubles bit for bit, so they
// hold for IEEE builds without -ffast-math. A mismatch means the hot path
// changed an answer, not that the oracle needs regenerating. Failure
// behaviour (worker crash, mid-superstep cancellation, shuffle fault) is
// checked on the one path. ci.sh runs the suite under both ASan and TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "common/temp_dir.h"
#include "dataflow/algorithms.h"
#include "graphdb/algorithms.h"
#include "graphdb/page_cache.h"
#include "graphdb/store.h"
#include "harness/validator.h"
#include "pregel/algorithms.h"

namespace gly {
namespace {

// Power-law-ish random graph, big enough for several BFS supersteps and
// real eviction/shuffle pressure, small enough for a TSan run.
Graph TestGraph() {
  static const Graph g = [] {
    const VertexId n = 600;
    EdgeList edges(n);
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
      // Square one endpoint toward low ids to create hubs (skew is what
      // stresses the steal scheduler and the combining accumulator).
      VertexId a = static_cast<VertexId>(
          rng.NextBounded(n) * rng.NextBounded(n) / n);
      VertexId b = static_cast<VertexId>(rng.NextBounded(n));
      if (a != b) edges.Add(a, b);
    }
    edges.DeduplicateAndDropLoops();
    return GraphBuilder::Undirected(edges).ValueOrDie();
  }();
  return g;
}

AlgorithmParams TestParams() {
  AlgorithmParams params;
  params.bfs.source = 1;  // a hub under the skewed generator
  params.pr = PrParams{/*iterations=*/8, /*damping=*/0.85};
  params.cd.max_iterations = 6;
  return params;
}

const uint32_t kThreadCounts[] = {1, 2, 8};

// Bit-exact output comparison: the validator journals a checksum over
// vertex_values / vertex_scores, so "equal journals" means these vectors
// match verbatim (doubles compared by ==, not a tolerance).
void ExpectSameOutput(const AlgorithmOutput& got, const AlgorithmOutput& want,
                      const std::string& what) {
  EXPECT_EQ(got.vertex_values, want.vertex_values) << what;
  ASSERT_EQ(got.vertex_scores.size(), want.vertex_scores.size()) << what;
  for (size_t i = 0; i < got.vertex_scores.size(); ++i) {
    EXPECT_EQ(got.vertex_scores[i], want.vertex_scores[i])
        << what << " score of vertex " << i;
  }
  EXPECT_EQ(got.traversed_edges, want.traversed_edges) << what;
}

// One recorded cell of the frozen oracle.
struct OracleCell {
  AlgorithmKind kind;
  uint32_t threads;  ///< Pregel threads / dataflow partitions
  uint32_t checksum;
  uint64_t traversed_edges;
  uint32_t supersteps = 0;      ///< Pregel only
  uint64_t total_messages = 0;  ///< Pregel only
};

std::string CellName(const OracleCell& cell) {
  return AlgorithmKindName(cell.kind) + " @" + std::to_string(cell.threads);
}

void ExpectOracleOutput(const AlgorithmOutput& out, const OracleCell& cell,
                        const std::string& what) {
  EXPECT_EQ(harness::OutputChecksum(out), cell.checksum) << what;
  EXPECT_EQ(out.traversed_edges, cell.traversed_edges) << what;
}

// ------------------------------------------------------------------ Pregel

// Pregel answers are independent of the thread count; equal superstep and
// message counts pin the combined message stream, not just the answer.
constexpr OracleCell kPregelOracle[] = {
    {AlgorithmKind::kBfs, 1, 0xd7882d3du, 5443, 5, 5443},
    {AlgorithmKind::kBfs, 2, 0xd7882d3du, 5443, 5, 5443},
    {AlgorithmKind::kBfs, 8, 0xd7882d3du, 5443, 5, 5443},
    {AlgorithmKind::kConn, 1, 0x284d4c20u, 12212, 5, 12212},
    {AlgorithmKind::kConn, 2, 0x284d4c20u, 12212, 5, 12212},
    {AlgorithmKind::kConn, 8, 0x284d4c20u, 12212, 5, 12212},
    {AlgorithmKind::kPr, 1, 0x134d0defu, 31624, 9, 31624},
    {AlgorithmKind::kPr, 2, 0x134d0defu, 31624, 9, 31624},
    {AlgorithmKind::kPr, 8, 0x134d0defu, 31624, 9, 31624},
    {AlgorithmKind::kCd, 1, 0x284d4c20u, 58440, 7, 58440},
    {AlgorithmKind::kCd, 2, 0x284d4c20u, 58440, 7, 58440},
    {AlgorithmKind::kCd, 8, 0x284d4c20u, 58440, 7, 58440},
};

pregel::EngineConfig PregelConfig(uint32_t threads) {
  pregel::EngineConfig config;
  config.num_workers = 8;
  config.num_threads = threads;
  return config;
}

void ExpectPregelOracle(const Result<AlgorithmOutput>& out,
                        const pregel::RunStats& stats, const OracleCell& cell,
                        const std::string& what) {
  ASSERT_TRUE(out.ok()) << what << ": " << out.status().ToString();
  ExpectOracleOutput(*out, cell, what);
  EXPECT_EQ(stats.supersteps, cell.supersteps) << what;
  EXPECT_EQ(stats.total_messages, cell.total_messages) << what;
}

TEST(PregelHotpathParity, PooledMatchesLegacyAcrossThreadCounts) {
  const Graph g = TestGraph();
  const AlgorithmParams params = TestParams();
  for (const OracleCell& cell : kPregelOracle) {
    pregel::RunStats stats;
    pregel::Engine engine(PregelConfig(cell.threads));
    auto out = pregel::RunAlgorithm(engine, g, cell.kind, params, &stats);
    ExpectPregelOracle(out, stats, cell, CellName(cell) + " threads");
  }
}

TEST(PregelHotpathParity, FixedPartitionScheduleAlsoMatches) {
  // steal_chunk_vertices = 0 makes each worker's vertex list one chunk
  // (the fixed one-task-per-worker schedule); the arenas are shared by
  // every chunk size.
  const Graph g = TestGraph();
  const AlgorithmParams params = TestParams();
  const OracleCell& cell = kPregelOracle[1];  // BFS @2 threads
  pregel::EngineConfig config = PregelConfig(cell.threads);
  config.steal_chunk_vertices = 0;
  pregel::Engine engine(config);
  pregel::RunStats stats;
  auto out = pregel::RunAlgorithm(engine, g, cell.kind, params, &stats);
  ExpectPregelOracle(out, stats, cell, "fixed schedule " + CellName(cell));
}

TEST(PregelHotpathParity, IdenticalUnderDeterministicMessageDrops) {
  // With one thread the i-th hit of pregel.message.deliver is the i-th
  // delivered message, so a seeded drop plan selects the same messages
  // exactly when the delivery stream is the recorded one. Equal outputs,
  // counts and trigger counts pin that stream.
  struct DropCell {
    OracleCell cell;
    uint64_t dropped;
  };
  constexpr DropCell kDropOracle[] = {
      {{AlgorithmKind::kBfs, 1, 0xde5e5b8du, 4556, 6, 4556}, 1492},
      {{AlgorithmKind::kConn, 1, 0x284d4c20u, 9673, 6, 9673}, 3189},
  };
  const Graph g = TestGraph();
  const AlgorithmParams params = TestParams();
  for (const DropCell& drop : kDropOracle) {
    fault::FaultPlan plan(/*seed=*/1234);
    plan.Add({.site = "pregel.message.deliver",
              .kind = fault::FaultKind::kDrop,
              .probability = 0.25});
    fault::ScopedFaultPlan active(&plan);
    pregel::Engine engine(PregelConfig(drop.cell.threads));
    pregel::RunStats stats;
    auto out = pregel::RunAlgorithm(engine, g, drop.cell.kind, params, &stats);
    const std::string what = CellName(drop.cell) + " under message drops";
    ExpectPregelOracle(out, stats, drop.cell, what);
    EXPECT_EQ(plan.TriggeredCount("pregel.message.deliver"), drop.dropped)
        << what;
  }
}

TEST(PregelHotpathParity, SameFailureStatusUnderWorkerCrash) {
  // A journal records a failed cell's status; the injected crash must
  // journal Internal, as it did before the hot path existed.
  const Graph g = TestGraph();
  const AlgorithmParams params = TestParams();
  for (uint32_t threads : kThreadCounts) {
    fault::FaultPlan plan(/*seed=*/99);
    plan.Add({.site = "pregel.worker.compute",
              .kind = fault::FaultKind::kCrash,
              .skip_hits = 2,
              .max_triggers = 1});
    fault::ScopedFaultPlan active(&plan);
    pregel::Engine engine(PregelConfig(threads));
    auto out = pregel::RunAlgorithm(engine, g, AlgorithmKind::kBfs, params);
    EXPECT_FALSE(out.ok()) << threads << " threads";
    EXPECT_TRUE(out.status().IsInternal())
        << threads << " threads: " << out.status().ToString();
  }
}

TEST(PregelHotpathParity, MidSuperstepCancellationReturnsTimeout) {
  // A stall injected inside a compute chunk holds the run mid-superstep
  // while another thread arms the deadline token; the engine must notice
  // at the next poll and unwind with Timeout — the arenas must not skip
  // the cancellation checks.
  const Graph g = TestGraph();
  AlgorithmParams params = TestParams();
  fault::FaultPlan plan(/*seed=*/5);
  plan.Add({.site = "pregel.worker.compute",
            .kind = fault::FaultKind::kStall,
            .skip_hits = 1,
            .max_triggers = 2,
            .delay_seconds = 0.4});
  fault::ScopedFaultPlan active(&plan);
  CancelToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.Cancel(CancelReason::kDeadline, "mid-superstep deadline");
  });
  pregel::EngineConfig config = PregelConfig(2);
  config.cancel = &token;
  params.cancel = &token;
  pregel::Engine engine(config);
  auto out = pregel::RunAlgorithm(engine, g, AlgorithmKind::kPr, params);
  canceller.join();
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsTimeout()) << out.status().ToString();
}

// ---------------------------------------------------------------- Dataflow

// PR's floating-point sums follow partition order, so its checksum depends
// on the partition count; the other kernels' answers do not.
constexpr OracleCell kDataflowOracle[] = {
    {AlgorithmKind::kBfs, 1, 0xd7882d3du, 3189},
    {AlgorithmKind::kBfs, 2, 0xd7882d3du, 3189},
    {AlgorithmKind::kBfs, 8, 0xd7882d3du, 3189},
    {AlgorithmKind::kConn, 1, 0x284d4c20u, 2171},
    {AlgorithmKind::kConn, 2, 0x284d4c20u, 2171},
    {AlgorithmKind::kConn, 8, 0x284d4c20u, 2171},
    {AlgorithmKind::kPr, 1, 0xc50b1a93u, 4800},
    {AlgorithmKind::kPr, 2, 0x2bb19a4au, 4800},
    {AlgorithmKind::kPr, 8, 0x585996c9u, 4800},
    {AlgorithmKind::kCd, 1, 0x284d4c20u, 3600},
    {AlgorithmKind::kCd, 2, 0x284d4c20u, 3600},
    {AlgorithmKind::kCd, 8, 0x284d4c20u, 3600},
};

TEST(DataflowHotpathParity, PooledMatchesLegacyAcrossPartitionCounts) {
  const Graph g = TestGraph();
  const AlgorithmParams params = TestParams();
  for (const OracleCell& cell : kDataflowOracle) {
    dataflow::ContextConfig config;
    config.num_partitions = cell.threads;
    config.num_threads = cell.threads;
    auto out = dataflow::RunAlgorithm(config, g, cell.kind, params);
    const std::string what = CellName(cell) + " partitions";
    ASSERT_TRUE(out.ok()) << what << ": " << out.status().ToString();
    ExpectOracleOutput(*out, cell, what);
  }
}

TEST(DataflowHotpathParity, SameFailureStatusUnderShuffleFault) {
  const Graph g = TestGraph();
  const AlgorithmParams params = TestParams();
  fault::FaultPlan plan(/*seed=*/17);
  plan.Add({.site = "dataflow.shuffle",
            .kind = fault::FaultKind::kIOError,
            .skip_hits = 1,
            .max_triggers = 1});
  fault::ScopedFaultPlan active(&plan);
  dataflow::ContextConfig config;
  config.num_partitions = 4;
  auto out = dataflow::RunAlgorithm(config, g, AlgorithmKind::kConn, params);
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsIOError()) << out.status().ToString();
}

TEST(DataflowHotpathParity, CancellationStopsPooledRuns) {
  const Graph g = TestGraph();
  AlgorithmParams params = TestParams();
  fault::FaultPlan plan(/*seed=*/5);
  plan.Add({.site = "dataflow.materialize",
            .kind = fault::FaultKind::kStall,
            .skip_hits = 2,
            .max_triggers = 2,
            .delay_seconds = 0.4});
  fault::ScopedFaultPlan active(&plan);
  CancelToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.Cancel(CancelReason::kDeadline, "dataflow deadline");
  });
  dataflow::ContextConfig config;
  config.num_partitions = 4;
  config.cancel = &token;
  params.cancel = &token;
  auto out = dataflow::RunAlgorithm(config, g, AlgorithmKind::kPr, params);
  canceller.join();
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsTimeout()) << out.status().ToString();
}

// ----------------------------------------------------------------- Graphdb

TEST(GraphdbHotpathParity, ShardCountDoesNotChangeResults) {
  // The shard count is a pure concurrency knob: 1 shard is the legacy
  // single-mutex cache, 8 shards the striped one. Same store, same
  // algorithm output, eviction pressure included (64 KiB cache = 8 pages).
  const Graph g = TestGraph();
  const AlgorithmParams params = TestParams();
  AlgorithmOutput baseline;
  for (uint32_t shards : {1u, 8u}) {
    auto dir = TempDir::Create("gly-hotpath-db");
    ASSERT_TRUE(dir.ok());
    graphdb::StoreConfig config;
    config.directory = dir->path() + "/store";
    config.page_cache_bytes = 64 << 10;
    config.page_cache_shards = shards;
    auto store = graphdb::GraphStore::Open(config);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->BulkImport(g.ToEdgeList()).ok());
    auto out = graphdb::RunAlgorithmOnStore(store->get(), g.undirected(),
                                            /*memory_budget_bytes=*/0,
                                            AlgorithmKind::kBfs, params);
    ASSERT_TRUE(out.ok()) << shards << " shards: " << out.status().ToString();
    if (shards == 1) {
      baseline = std::move(*out);
    } else {
      ExpectSameOutput(*out, baseline, "sharded vs single-mutex cache");
    }
  }
}

TEST(PageCacheHotpath, ConcurrentReadersSeeConsistentPages) {
  // 8 reader threads hammer a cache whose capacity (16 pages) is far below
  // the 64-page working set, so the clock sweep runs concurrently with the
  // lookups. Every page carries a seeded pattern; any torn read, lost
  // writeback, or cross-shard aliasing surfaces as a payload mismatch (and
  // under TSan, as a race).
  auto dir = TempDir::Create("gly-hotpath-cache");
  ASSERT_TRUE(dir.ok());
  constexpr uint32_t kPages = 64;
  auto fill = [](uint32_t page, char* buf) {
    Rng rng(1000 + page);
    for (size_t i = 0; i < graphdb::kPageSize; ++i) {
      buf[i] = static_cast<char>(rng.NextBounded(256));
    }
  };
  graphdb::PageCache cache(16 * graphdb::kPageSize, /*shards=*/8);
  EXPECT_EQ(cache.shard_count(), 8u);
  auto file = cache.OpenFile(dir->File("hammer.db"));
  ASSERT_TRUE(file.ok());
  std::vector<char> page(graphdb::kPageSize);
  for (uint32_t p = 0; p < kPages; ++p) {
    fill(p, page.data());
    ASSERT_TRUE(cache
                    .Write(*file, uint64_t{p} * graphdb::kPageSize,
                           page.data(), page.size())
                    .ok());
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (uint32_t t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(t);
      std::vector<char> got(graphdb::kPageSize);
      std::vector<char> want(graphdb::kPageSize);
      for (int i = 0; i < 400; ++i) {
        const uint32_t p = static_cast<uint32_t>(rng.NextBounded(kPages));
        if (!cache.Read(*file, uint64_t{p} * graphdb::kPageSize, got.data(),
                        got.size())
                 .ok() ||
            (fill(p, want.data()), got != want)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
  const graphdb::PageCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);  // working set really exceeded capacity
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(cache.resident_pages(), cache.capacity_pages());
  // After the dust settles the file must hold every pattern byte-for-byte.
  ASSERT_TRUE(cache.Flush().ok());
  std::vector<char> want(graphdb::kPageSize);
  for (uint32_t p = 0; p < kPages; ++p) {
    fill(p, want.data());
    ASSERT_TRUE(cache
                    .Read(*file, uint64_t{p} * graphdb::kPageSize, page.data(),
                          page.size())
                    .ok());
    EXPECT_EQ(page, want) << "page " << p;
  }
}

TEST(PageCacheHotpath, ShardCountClampsToCapacity) {
  // An explicit shard count never exceeds the page budget (every shard
  // owns at least one frame) and 0 selects the auto policy.
  graphdb::PageCache tiny(4 * graphdb::kPageSize, /*shards=*/16);
  EXPECT_LE(tiny.shard_count(), 4u);
  EXPECT_GE(tiny.shard_count(), 1u);
  graphdb::PageCache auto_cache(64 * graphdb::kPageSize);
  EXPECT_EQ(auto_cache.shard_count(), 8u);
  graphdb::PageCache one_page(1);  // rounds up to one page, one shard
  EXPECT_EQ(one_page.shard_count(), 1u);
  EXPECT_EQ(one_page.capacity_pages(), 1u);
}

}  // namespace
}  // namespace gly
