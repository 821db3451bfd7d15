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
// reproduced every value. The graphdb page cache has its own oracle:
// per-run cache counters of the graphdb algorithms and seeded cache traces,
// recorded from the hash-indexed cache its translation tables replaced.
// Checksums cover PR's doubles bit for bit, so they hold for IEEE builds
// without -ffast-math. A mismatch means the hot path changed an answer,
// not that the oracle needs regenerating. Failure behaviour (worker crash,
// mid-superstep cancellation, shuffle fault) is checked on the one path.
// ci.sh runs the suite under both ASan and TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/crc32.h"
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

// Per-run cache counters of BFS, CONN and PR, run in that order on one
// store whose cache holds a quarter of it. `shards` 0 is the auto policy,
// which the quarter cache (6 pages) clamps to 6 shards.
struct DbCacheOracleCell {
  uint32_t shards;
  AlgorithmKind kind;
  uint32_t checksum;
  uint64_t traversed_edges;
  uint64_t hits;
  uint64_t misses;
  uint64_t evictions;
  uint64_t writebacks;
};

constexpr DbCacheOracleCell kDbCacheOracle[] = {
    {1u, AlgorithmKind::kBfs, 0xd7882d3du, 9740, 5969, 4371, 4371, 0},
    {1u, AlgorithmKind::kConn, 0x284d4c20u, 9740, 5956, 4384, 4384, 0},
    {1u, AlgorithmKind::kPr, 0xc50b1a93u, 77920, 54189, 38871, 38871, 0},
    {0u, AlgorithmKind::kBfs, 0xd7882d3du, 9740, 6292, 4048, 4048, 0},
    {0u, AlgorithmKind::kConn, 0x284d4c20u, 9740, 6295, 4045, 4045, 0},
    {0u, AlgorithmKind::kPr, 0xc50b1a93u, 77920, 57744, 35316, 35316, 0},
};

TEST(GraphdbHotpathParity, PerRunCacheStatsOnQuarterCache) {
  const Graph g = TestGraph();
  const AlgorithmParams params = TestParams();
  const EdgeList edges = g.ToEdgeList();
  const uint64_t store_bytes =
      16 * uint64_t{g.num_vertices()} + 32 * uint64_t{edges.num_edges()};
  for (uint32_t shards : {1u, 0u}) {
    auto dir = TempDir::Create("gly-hotpath-db");
    ASSERT_TRUE(dir.ok());
    graphdb::StoreConfig config;
    config.directory = dir->path() + "/store";
    config.page_cache_bytes = store_bytes / 4;
    config.page_cache_shards = shards;
    auto store = graphdb::GraphStore::Open(config);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->BulkImport(edges).ok());
    for (AlgorithmKind kind :
         {AlgorithmKind::kBfs, AlgorithmKind::kConn, AlgorithmKind::kPr}) {
      const graphdb::PageCacheStats before = (*store)->cache_stats();
      graphdb::DbRunStats run;
      auto out = graphdb::RunAlgorithmOnStore(store->get(), g.undirected(),
                                              /*memory_budget_bytes=*/0, kind,
                                              params, &run);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      const std::string what = AlgorithmKindName(kind) + " @" +
                               std::to_string(shards) + " shards";
      // The run reports exactly what the store's counters moved by.
      const graphdb::PageCacheStats moved = (*store)->cache_stats() - before;
      EXPECT_EQ(run.cache.hits, moved.hits) << what;
      EXPECT_EQ(run.cache.misses, moved.misses) << what;
      const DbCacheOracleCell got{shards,
                                  kind,
                                  harness::OutputChecksum(*out),
                                  out->traversed_edges,
                                  run.cache.hits,
                                  run.cache.misses,
                                  run.cache.evictions,
                                  run.cache.writebacks};
      const DbCacheOracleCell* want = nullptr;
      for (const DbCacheOracleCell& cell : kDbCacheOracle) {
        if (cell.shards == shards && cell.kind == kind) want = &cell;
      }
      if (want == nullptr) {
        ADD_FAILURE() << what << " has no oracle cell: checksum 0x" << std::hex
                      << got.checksum << std::dec << ", traversed "
                      << got.traversed_edges << ", hits " << got.hits
                      << ", misses " << got.misses << ", evictions "
                      << got.evictions << ", writebacks " << got.writebacks;
        continue;
      }
      EXPECT_EQ(got.checksum, want->checksum) << what;
      EXPECT_EQ(got.traversed_edges, want->traversed_edges) << what;
      EXPECT_EQ(got.hits, want->hits) << what;
      EXPECT_EQ(got.misses, want->misses) << what;
      EXPECT_EQ(got.evictions, want->evictions) << what;
      EXPECT_EQ(got.writebacks, want->writebacks) << what;
    }
  }
}

// ------------------------------------------------------- Page cache oracle

// One seeded read/write trace over two files under eviction pressure: the
// counters the cache ends with and a CRC32C over every byte the trace read.
struct CacheOracleCell {
  uint32_t shards;
  uint32_t capacity_pages;
  uint64_t hits;
  uint64_t misses;
  uint64_t evictions;
  uint64_t writebacks;
  uint64_t resident_pages;
  uint32_t read_crc;
};

// Recorded from the hash-indexed cache the translation tables replaced.
constexpr CacheOracleCell kCacheOracle[] = {
    {1, 2, 95, 4923, 4921, 1606, 2, 0xff3588e3u},
    {1, 5, 215, 4764, 4759, 1468, 5, 0x5c515639u},
    {1, 16, 717, 4294, 4278, 1510, 16, 0xcf666183u},
    {1, 37, 1617, 3431, 3394, 1351, 37, 0x380cd628u},
    {1, 128, 4463, 551, 423, 440, 128, 0x7a14c0ffu},
    {3, 2, 89, 4941, 4939, 1574, 2, 0x8f6c4722u},
    {3, 5, 236, 4748, 4743, 1531, 5, 0x8fe34ca7u},
    {3, 16, 697, 4315, 4299, 1545, 16, 0xb6c4a6b3u},
    {3, 37, 1625, 3416, 3379, 1339, 37, 0xb3802aa3u},
    {3, 128, 4339, 588, 460, 450, 128, 0x9384af07u},
    {8, 2, 81, 4933, 4931, 1584, 2, 0xde3e3444u},
    {8, 5, 209, 4820, 4815, 1595, 5, 0xd88abfe1u},
    {8, 16, 704, 4201, 4185, 1465, 16, 0xb965f914u},
    {8, 37, 1649, 3316, 3279, 1346, 37, 0xdab3e4u},
    {8, 128, 4411, 587, 459, 482, 128, 0x568616c7u},
};

// 4000 operations: a third writes, the rest reads, one read in sixteen
// lands up to 400 pages past the 48-page region writes keep to (zeros),
// lengths are mostly record-sized with a quarter spanning up to two pages,
// and every 1000th operation flushes.
CacheOracleCell RunCacheTrace(uint32_t shards, uint32_t capacity_pages) {
  constexpr uint64_t kWritePages = 48;
  auto dir = TempDir::Create("gly-hotpath-trace");
  dir.status().Check();
  graphdb::PageCache cache(uint64_t{capacity_pages} * graphdb::kPageSize,
                           shards);
  const uint32_t files[] = {cache.OpenFile(dir->File("a.db")).ValueOrDie(),
                            cache.OpenFile(dir->File("b.db")).ValueOrDie()};
  Rng rng(uint64_t{capacity_pages} * 1000 + shards);
  std::vector<char> buf(2 * graphdb::kPageSize);
  uint32_t crc = kCrc32cInit;
  for (int op = 0; op < 4000; ++op) {
    const uint32_t file = files[rng.NextBounded(2)];
    const bool past_eof = rng.NextBounded(16) == 0;
    const bool write = !past_eof && rng.NextBounded(3) == 0;
    const uint64_t page = past_eof ? kWritePages + rng.NextBounded(400)
                                   : rng.NextBounded(kWritePages);
    const uint64_t offset =
        page * graphdb::kPageSize + rng.NextBounded(graphdb::kPageSize);
    const size_t len = rng.NextBounded(4) == 0
                           ? 1 + rng.NextBounded(buf.size())
                           : 8 * (1 + rng.NextBounded(4));
    if (write) {
      for (size_t i = 0; i < len; i += 8) {
        const uint64_t word = rng.Next();
        std::memcpy(buf.data() + i, &word, std::min<size_t>(8, len - i));
      }
      cache.Write(file, offset, buf.data(), len).Check();
    } else {
      cache.Read(file, offset, buf.data(), len).Check();
      crc = Crc32cUpdate(crc, buf.data(), len);
    }
    if (op % 1000 == 999) cache.Flush().Check();
  }
  const graphdb::PageCacheStats stats = cache.stats();
  return CacheOracleCell{shards,           capacity_pages,
                         stats.hits,       stats.misses,
                         stats.evictions,  stats.writebacks,
                         cache.resident_pages(), Crc32cFinalize(crc)};
}

TEST(PageCacheHotpath, SeededTracesMatchFrozenOracle) {
  for (uint32_t shards : {1u, 3u, 8u}) {
    for (uint32_t capacity : {2u, 5u, 16u, 37u, 128u}) {
      const CacheOracleCell got = RunCacheTrace(shards, capacity);
      const std::string what = std::to_string(shards) + " shards, " +
                               std::to_string(capacity) + " pages";
      const CacheOracleCell* want = nullptr;
      for (const CacheOracleCell& cell : kCacheOracle) {
        if (cell.shards == shards && cell.capacity_pages == capacity) {
          want = &cell;
        }
      }
      if (want == nullptr) {
        ADD_FAILURE() << what << " has no oracle cell: {" << shards << ", "
                      << capacity << ", " << got.hits << ", " << got.misses
                      << ", " << got.evictions << ", " << got.writebacks
                      << ", " << got.resident_pages << ", 0x" << std::hex
                      << got.read_crc << std::dec << "u}";
        continue;
      }
      EXPECT_EQ(got.hits, want->hits) << what;
      EXPECT_EQ(got.misses, want->misses) << what;
      EXPECT_EQ(got.evictions, want->evictions) << what;
      EXPECT_EQ(got.writebacks, want->writebacks) << what;
      EXPECT_EQ(got.resident_pages, want->resident_pages) << what;
      EXPECT_EQ(got.read_crc, want->read_crc) << what;
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

TEST(PageCacheHotpath, OpenFileWhileReadersHammerAnotherFile) {
  // Readers index the fd table without a lock; registering a file must not
  // disturb them (under TSan: no race between OpenFile and Read).
  auto dir = TempDir::Create("gly-hotpath-open");
  ASSERT_TRUE(dir.ok());
  graphdb::PageCache cache(8 * graphdb::kPageSize, /*shards=*/8);
  auto first = cache.OpenFile(dir->File("first.db"));
  ASSERT_TRUE(first.ok());
  constexpr uint32_t kPages = 32;
  for (uint32_t p = 0; p < kPages; ++p) {
    const uint64_t tag = p;
    ASSERT_TRUE(
        cache.Write(*first, uint64_t{p} * graphdb::kPageSize, &tag, sizeof(tag))
            .ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (uint32_t t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(50 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint32_t p = static_cast<uint32_t>(rng.NextBounded(kPages));
        uint64_t tag = ~0ULL;
        if (!cache.Read(*first, uint64_t{p} * graphdb::kPageSize, &tag,
                        sizeof(tag))
                 .ok() ||
            tag != p) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::vector<uint32_t> opened;
  for (int i = 0; i < 6; ++i) {
    auto id = cache.OpenFile(dir->File("second" + std::to_string(i) + ".db"));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    const uint64_t tag = 1000 + i;
    ASSERT_TRUE(
        cache.Write(*id, 3 * graphdb::kPageSize, &tag, sizeof(tag)).ok());
    opened.push_back(*id);
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (int i = 0; i < 6; ++i) {
    uint64_t tag = 0;
    ASSERT_TRUE(
        cache.Read(opened[i], 3 * graphdb::kPageSize, &tag, sizeof(tag)).ok());
    EXPECT_EQ(tag, 1000u + i);
  }
  EXPECT_TRUE(cache.Flush().ok());
}

TEST(PageCacheHotpath, PageNumbersPastTheBoundAreAStatus) {
  // A corrupt record id times the record size (kNilRecord-style garbage)
  // is an offset no translation table may cover: the access fails with a
  // Status and allocates nothing in proportion to the offset. The last
  // page below the bound still reads as zeros.
  auto dir = TempDir::Create("gly-hotpath-bound");
  ASSERT_TRUE(dir.ok());
  graphdb::PageCache cache(4 * graphdb::kPageSize, /*shards=*/1);
  auto file = cache.OpenFile(dir->File("bound.db"));
  ASSERT_TRUE(file.ok());
  constexpr uint64_t kBound =
      graphdb::PageCache::kMaxPages * graphdb::kPageSize;
  char buf[64];
  const uint64_t garbage[] = {graphdb::kNilRecord * 32,
                              graphdb::kNilRecord * 16,
                              graphdb::kNilRecord - 7,
                              kBound,
                              kBound + 1,
                              (uint64_t{1} << 48) * graphdb::kPageSize,
                              kBound - 8};
  for (uint64_t offset : garbage) {
    std::memset(buf, 0x5a, sizeof(buf));
    const Status read = cache.Read(*file, offset, buf, sizeof(buf));
    EXPECT_TRUE(read.IsInvalidArgument()) << offset << ": " << read.ToString();
    const Status write = cache.Write(*file, offset, buf, sizeof(buf));
    EXPECT_TRUE(write.IsInvalidArgument())
        << offset << ": " << write.ToString();
  }
  std::memset(buf, 0x5a, sizeof(buf));
  ASSERT_TRUE(cache.Read(*file, kBound - sizeof(buf), buf, sizeof(buf)).ok());
  EXPECT_TRUE(
      std::all_of(buf, buf + sizeof(buf), [](char c) { return c == 0; }));
  EXPECT_TRUE(cache.Read(*file + 1, 0, buf, sizeof(buf)).IsInvalidArgument());
  const graphdb::PageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // only the in-bound read reached the cache
  EXPECT_EQ(cache.resident_pages(), 1u);
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
