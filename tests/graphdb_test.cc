// Tests for the graph database: page cache, WAL + crash recovery, record
// store, transactions, properties, traversal, and the algorithms.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/fault_injection.h"

#include "common/random.h"
#include "common/temp_dir.h"
#include "graphdb/algorithms.h"
#include "graphdb/page_cache.h"
#include "graphdb/store.h"
#include "graphdb/traversal.h"
#include "graphdb/wal.h"
#include "harness/validator.h"

namespace gly::graphdb {
namespace {

Graph RandomUndirected(VertexId n, size_t m, uint64_t seed) {
  EdgeList edges(n);
  Rng rng(seed);
  while (edges.num_edges() < m) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.Add(a, b);
  }
  edges.DeduplicateAndDropLoops();
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

// --------------------------------------------------------------- PageCache

TEST(PageCacheTest, ReadBeyondEofIsZeros) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  PageCache cache(1 << 20);
  auto file = cache.OpenFile(dir->File("a.db"));
  ASSERT_TRUE(file.ok());
  char buf[16];
  ASSERT_TRUE(cache.Read(*file, 1 << 16, buf, sizeof(buf)).ok());
  for (char c : buf) EXPECT_EQ(c, 0);
}

TEST(PageCacheTest, WriteReadRoundTrip) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  PageCache cache(1 << 20);
  auto file = cache.OpenFile(dir->File("a.db"));
  ASSERT_TRUE(file.ok());
  const char data[] = "hello page cache";
  ASSERT_TRUE(cache.Write(*file, 12345, data, sizeof(data)).ok());
  char buf[sizeof(data)];
  ASSERT_TRUE(cache.Read(*file, 12345, buf, sizeof(buf)).ok());
  EXPECT_STREQ(buf, data);
}

TEST(PageCacheTest, CrossPageBoundaryAccess) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  PageCache cache(1 << 20);
  auto file = cache.OpenFile(dir->File("a.db"));
  ASSERT_TRUE(file.ok());
  std::vector<char> data(kPageSize, 'x');
  ASSERT_TRUE(
      cache.Write(*file, kPageSize - 100, data.data(), data.size()).ok());
  std::vector<char> buf(data.size());
  ASSERT_TRUE(
      cache.Read(*file, kPageSize - 100, buf.data(), buf.size()).ok());
  EXPECT_EQ(buf, data);
}

TEST(PageCacheTest, EvictsAndWritesBackUnderPressure) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  {
    PageCache cache(4 * kPageSize);  // 4-page cache
    auto file = cache.OpenFile(dir->File("a.db"));
    ASSERT_TRUE(file.ok());
    // Write 32 pages: forces eviction with writeback.
    for (uint64_t p = 0; p < 32; ++p) {
      uint64_t value = p * 7;
      ASSERT_TRUE(
          cache.Write(*file, p * kPageSize, &value, sizeof(value)).ok());
    }
    EXPECT_GT(cache.stats().evictions, 0u);
    EXPECT_LE(cache.resident_pages(), 4u);
    // Read everything back through the same (small) cache.
    for (uint64_t p = 0; p < 32; ++p) {
      uint64_t value = 0;
      ASSERT_TRUE(
          cache.Read(*file, p * kPageSize, &value, sizeof(value)).ok());
      EXPECT_EQ(value, p * 7);
    }
    ASSERT_TRUE(cache.Flush().ok());
  }
  // And through a fresh cache (data durably on disk).
  PageCache cache2(1 << 20);
  auto file2 = cache2.OpenFile(dir->File("a.db"));
  ASSERT_TRUE(file2.ok());
  uint64_t value = 0;
  ASSERT_TRUE(cache2.Read(*file2, 5 * kPageSize, &value, sizeof(value)).ok());
  EXPECT_EQ(value, 35u);
}

TEST(PageCacheTest, HitRateImprovesOnRepeatedAccess) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  PageCache cache(1 << 20);
  auto file = cache.OpenFile(dir->File("a.db"));
  ASSERT_TRUE(file.ok());
  char buf[8];
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cache.Read(*file, 0, buf, sizeof(buf)).ok());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 99u);
}

// --------------------------------------------------------------------- WAL

TEST(WalTest, AppendAndReadAll) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  auto wal = Wal::Open(dir->File("wal.log"));
  ASSERT_TRUE(wal.ok());
  std::vector<WalChange> tx1 = {{0, 100, {'a', 'b'}}};
  std::vector<WalChange> tx2 = {{1, 200, {'c'}}, {0, 300, {'d', 'e', 'f'}}};
  ASSERT_TRUE(wal->Append(tx1).ok());
  ASSERT_TRUE(wal->Append(tx2).ok());
  auto entries = wal->ReadAll();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0][0].offset, 100u);
  EXPECT_EQ((*entries)[1][1].bytes.size(), 3u);
}

TEST(WalTest, IgnoresTornTail) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  {
    auto wal = Wal::Open(dir->File("wal.log"));
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append({{0, 1, {'x'}}}).ok());
    ASSERT_TRUE(wal->Append({{0, 2, {'y'}}}).ok());
  }
  // Corrupt the tail: truncate into the second entry.
  auto size = std::filesystem::file_size(dir->File("wal.log"));
  std::filesystem::resize_file(dir->File("wal.log"), size - 3);
  auto wal = Wal::Open(dir->File("wal.log"));
  ASSERT_TRUE(wal.ok());
  auto entries = wal->ReadAll();
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);  // only the intact first entry
}

TEST(WalTest, TruncateEmptiesLog) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  auto wal = Wal::Open(dir->File("wal.log"));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append({{0, 1, {'x'}}}).ok());
  ASSERT_TRUE(wal->Truncate().ok());
  auto entries = wal->ReadAll();
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
}

TEST(WalTest, RecoverTruncatesTornTailSoNewAppendsStayVisible) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->File("wal.log");
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append({{0, 1, {'x'}}}).ok());
    ASSERT_TRUE(wal->Append({{0, 2, {'y'}}}).ok());
  }
  // Tear the second entry (a crash mid-append).
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);

  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  auto recovery = wal->Recover();
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->entries.size(), 1u);
  EXPECT_GT(recovery->truncated_bytes, 0u);
  // The torn bytes are physically gone, not just skipped.
  EXPECT_EQ(std::filesystem::file_size(path), recovery->valid_bytes);

  // This is why truncation matters: an append landing *behind* a merely
  // ignored torn tail would be unreachable for every future reader.
  ASSERT_TRUE(wal->Append({{0, 3, {'z'}}}).ok());
  auto entries = wal->ReadAll();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[1][0].offset, 3u);
}

TEST(WalTest, BogusFrameLengthIsATornTailNotAnAllocation) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->File("wal.log");
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append({{0, 1, {'x'}}}).ok());
  }
  // Append a frame header claiming ~4 GB of payload: the scanner must
  // treat it as torn (len exceeds the file) instead of allocating.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    uint32_t len = 0xF0000000u;
    uint32_t crc = 0;
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out << "junk";
  }
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  auto recovery = wal->Recover();
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->entries.size(), 1u);
  EXPECT_EQ(recovery->truncated_bytes, 12u);
}

#ifndef GLY_DISABLE_FAULT_POINTS

TEST(WalTest, InjectedAppendFailureIsTransient) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  auto wal = Wal::Open(dir->File("wal.log"));
  ASSERT_TRUE(wal.ok());
  fault::FaultPlan plan(0xDB1);
  plan.Add({.site = "graphdb.wal.append", .kind = fault::FaultKind::kIOError,
            .max_triggers = 1});
  {
    fault::ScopedFaultPlan active(&plan);
    EXPECT_FALSE(wal->Append({{0, 1, {'x'}}}).ok());
    ASSERT_TRUE(wal->Append({{0, 2, {'y'}}}).ok());  // transient: next works
  }
  auto entries = wal->ReadAll();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);  // the failed append left no frame behind
  EXPECT_EQ((*entries)[0][0].offset, 2u);
}

#endif  // GLY_DISABLE_FAULT_POINTS

TEST(Crc32cTest, DetectsCorruption) {
  const char a[] = "hello";
  const char b[] = "hellp";
  EXPECT_NE(Crc32c(a, 5), Crc32c(b, 5));
  EXPECT_EQ(Crc32c(a, 5), Crc32c(a, 5));
}

// ------------------------------------------------------------------- store

TEST(GraphStoreTest, BulkImportAndNeighbors) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(0, 2);
  edges.Add(1, 2);
  ASSERT_TRUE((*store)->BulkImport(edges).ok());
  EXPECT_EQ((*store)->node_count(), 3u);
  EXPECT_EQ((*store)->relationship_count(), 3u);

  std::vector<VertexId> nbrs;
  ASSERT_TRUE((*store)->CollectNeighbors(0, false, &nbrs).ok());
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(nbrs, (std::vector<VertexId>{1, 2}));
  ASSERT_TRUE((*store)->CollectNeighbors(2, true, &nbrs).ok());
  EXPECT_TRUE(nbrs.empty());  // 2 has only incoming relationships
  ASSERT_TRUE((*store)->CollectNeighbors(2, false, &nbrs).ok());
  EXPECT_EQ(nbrs.size(), 2u);
}

TEST(GraphStoreTest, TransactionsCreateNodesAndRels) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  auto tx = (*store)->Begin();
  auto a = tx.CreateNode();
  auto b = tx.CreateNode();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(tx.CreateRelationship(*a, *b).ok());
  ASSERT_TRUE(tx.SetNodeProperty(*a, 7, 42).ok());
  ASSERT_TRUE(tx.Commit().ok());

  EXPECT_EQ((*store)->node_count(), 2u);
  EXPECT_EQ((*store)->relationship_count(), 1u);
  EXPECT_EQ(*(*store)->GetNodeProperty(*a, 7), 42);
  EXPECT_TRUE((*store)->GetNodeProperty(*b, 7).status().IsNotFound());
  std::vector<VertexId> nbrs;
  ASSERT_TRUE((*store)->CollectNeighbors(*a, true, &nbrs).ok());
  EXPECT_EQ(nbrs, (std::vector<VertexId>{*b}));
}

TEST(GraphStoreTest, UncommittedTransactionIsInvisible) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  {
    auto tx = (*store)->Begin();
    ASSERT_TRUE(tx.CreateNode().ok());
    // dropped without Commit
  }
  EXPECT_EQ((*store)->node_count(), 0u);
}

TEST(GraphStoreTest, PropertyUpdateInPlace) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  auto tx = (*store)->Begin();
  auto node = tx.CreateNode();
  ASSERT_TRUE(tx.SetNodeProperty(*node, 1, 10).ok());
  ASSERT_TRUE(tx.SetNodeProperty(*node, 2, 20).ok());
  ASSERT_TRUE(tx.SetNodeProperty(*node, 1, 11).ok());  // overwrite
  ASSERT_TRUE(tx.Commit().ok());
  EXPECT_EQ(*(*store)->GetNodeProperty(*node, 1), 11);
  EXPECT_EQ(*(*store)->GetNodeProperty(*node, 2), 20);
}

TEST(GraphStoreTest, CommittedDataSurvivesReopenWithoutCheckpoint) {
  // Crash-recovery: commit (WAL fsync) but never checkpoint; the page cache
  // contents are lost with the process, and recovery must replay the WAL.
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  VertexId a = 0;
  VertexId b = 0;
  {
    auto store = GraphStore::Open(config);
    ASSERT_TRUE(store.ok());
    auto tx = (*store)->Begin();
    a = *tx.CreateNode();
    b = *tx.CreateNode();
    ASSERT_TRUE(tx.CreateRelationship(a, b).ok());
    ASSERT_TRUE(tx.SetNodeProperty(a, 3, 99).ok());
    ASSERT_TRUE(tx.Commit().ok());
    // NO Checkpoint(); destructor flushes best-effort, but recovery must
    // not depend on it — delete the store files' pages by reopening fresh.
  }
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->node_count(), 2u);
  EXPECT_EQ((*store)->relationship_count(), 1u);
  EXPECT_EQ(*(*store)->GetNodeProperty(a, 3), 99);
  std::vector<VertexId> nbrs;
  ASSERT_TRUE((*store)->CollectNeighbors(a, true, &nbrs).ok());
  EXPECT_EQ(nbrs, (std::vector<VertexId>{b}));
}

#ifndef GLY_DISABLE_FAULT_POINTS

TEST(GraphStoreTest, CrashDuringCheckpointWritebackIsRecoverable) {
  // A checkpoint is flush-then-truncate; a crash inside the page-cache
  // writeback aborts it *before* the WAL truncate. Reopening must replay
  // the intact WAL and reproduce the committed state.
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  VertexId a = 0;
  VertexId b = 0;
  {
    auto store = GraphStore::Open(config);
    ASSERT_TRUE(store.ok());
    auto tx = (*store)->Begin();
    a = *tx.CreateNode();
    b = *tx.CreateNode();
    ASSERT_TRUE(tx.CreateRelationship(a, b).ok());
    ASSERT_TRUE(tx.SetNodeProperty(a, 3, 99).ok());
    ASSERT_TRUE(tx.Commit().ok());

    fault::FaultPlan plan(0xDB2);
    plan.Add({.site = "graphdb.pagecache.writeback",
              .kind = fault::FaultKind::kCrash, .max_triggers = 1});
    fault::ScopedFaultPlan active(&plan);
    EXPECT_FALSE((*store)->Checkpoint().ok());
    EXPECT_EQ(plan.TotalTriggered(), 1u);
  }
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  EXPECT_GT((*store)->wal_entries_recovered(), 0u);
  EXPECT_EQ((*store)->node_count(), 2u);
  EXPECT_EQ((*store)->relationship_count(), 1u);
  EXPECT_EQ(*(*store)->GetNodeProperty(a, 3), 99);
  std::vector<VertexId> nbrs;
  ASSERT_TRUE((*store)->CollectNeighbors(a, true, &nbrs).ok());
  EXPECT_EQ(nbrs, (std::vector<VertexId>{b}));
}

#endif  // GLY_DISABLE_FAULT_POINTS

TEST(GraphStoreTest, ReopenAfterTornWalTailSurfacesTruncationCounters) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  VertexId a = 0;
  {
    auto store = GraphStore::Open(config);
    ASSERT_TRUE(store.ok());
    auto tx = (*store)->Begin();
    a = *tx.CreateNode();
    ASSERT_TRUE(tx.SetNodeProperty(a, 1, 7).ok());
    ASSERT_TRUE(tx.Commit().ok());
    auto tx2 = (*store)->Begin();
    ASSERT_TRUE(tx2.CreateNode().ok());
    ASSERT_TRUE(tx2.Commit().ok());
  }
  // Tear into the last committed entry: that transaction is lost, but the
  // store must reopen cleanly with everything before it.
  std::string wal_path = config.directory + "/wal.log";
  auto size = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, size - 2);

  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  EXPECT_GT((*store)->wal_bytes_truncated(), 0u);
  EXPECT_EQ(*(*store)->GetNodeProperty(a, 1), 7);
}

TEST(GraphStoreTest, WorksWithTinyPageCache) {
  // Store much larger than the cache: pure eviction traffic, still correct.
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  config.page_cache_bytes = 4 * kPageSize;
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  Graph g = RandomUndirected(500, 2000, 41);
  ASSERT_TRUE((*store)->BulkImport(g.ToEdgeList()).ok());
  // Spot-check neighborhoods against the CSR graph.
  std::vector<VertexId> nbrs;
  for (VertexId v = 0; v < 500; v += 37) {
    ASSERT_TRUE((*store)->CollectNeighbors(v, false, &nbrs).ok());
    std::sort(nbrs.begin(), nbrs.end());
    auto expected_span = g.OutNeighbors(v);
    std::vector<VertexId> expected(expected_span.begin(), expected_span.end());
    EXPECT_EQ(nbrs, expected) << "vertex " << v;
  }
  EXPECT_GT((*store)->cache_stats().evictions, 0u);
}

TEST(GraphStoreTest, DeleteRelationshipUnlinksBothChains) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  // Triangle 0-1, 0-2, 1-2; delete 0-2.
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(0, 2);
  edges.Add(1, 2);
  ASSERT_TRUE((*store)->BulkImport(edges).ok());
  auto tx = (*store)->Begin();
  ASSERT_TRUE(tx.DeleteRelationship(1).ok());  // bulk import id order
  ASSERT_TRUE(tx.Commit().ok());
  EXPECT_EQ((*store)->relationship_count(), 2u);
  std::vector<VertexId> nbrs;
  ASSERT_TRUE((*store)->CollectNeighbors(0, false, &nbrs).ok());
  EXPECT_EQ(nbrs, (std::vector<VertexId>{1}));
  ASSERT_TRUE((*store)->CollectNeighbors(2, false, &nbrs).ok());
  EXPECT_EQ(nbrs, (std::vector<VertexId>{1}));
}

TEST(GraphStoreTest, DeleteRelationshipErrors) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  EdgeList edges;
  edges.Add(0, 1);
  ASSERT_TRUE((*store)->BulkImport(edges).ok());
  {
    auto tx = (*store)->Begin();
    EXPECT_TRUE(tx.DeleteRelationship(99).IsNotFound());
    ASSERT_TRUE(tx.DeleteRelationship(0).ok());
    // Double delete within the same transaction is caught via shadow reads.
    EXPECT_TRUE(tx.DeleteRelationship(0).IsNotFound());
    ASSERT_TRUE(tx.Commit().ok());
  }
  auto tx = (*store)->Begin();
  EXPECT_TRUE(tx.DeleteRelationship(0).IsNotFound());
}

TEST(GraphStoreTest, DeleteSurvivesRecovery) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  {
    auto store = GraphStore::Open(config);
    ASSERT_TRUE(store.ok());
    EdgeList edges;
    edges.Add(0, 1);
    edges.Add(1, 2);
    ASSERT_TRUE((*store)->BulkImport(edges).ok());
    auto tx = (*store)->Begin();
    ASSERT_TRUE(tx.DeleteRelationship(0).ok());
    ASSERT_TRUE(tx.Commit().ok());
    // No checkpoint: recovery must replay the deletion from the WAL.
  }
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->relationship_count(), 1u);
  std::vector<VertexId> nbrs;
  ASSERT_TRUE((*store)->CollectNeighbors(0, false, &nbrs).ok());
  EXPECT_TRUE(nbrs.empty());
  ASSERT_TRUE((*store)->CollectNeighbors(1, false, &nbrs).ok());
  EXPECT_EQ(nbrs, (std::vector<VertexId>{2}));
}

TEST(GraphStoreTest, DeleteMiddleOfLongChain) {
  // Vertex 0 has many relationships; delete one from the middle of its
  // chain and verify the walk-based unlink.
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  EdgeList edges;
  for (VertexId v = 1; v <= 10; ++v) edges.Add(0, v);
  ASSERT_TRUE((*store)->BulkImport(edges).ok());
  auto tx = (*store)->Begin();
  ASSERT_TRUE(tx.DeleteRelationship(4).ok());  // edge 0-5
  ASSERT_TRUE(tx.Commit().ok());
  std::vector<VertexId> nbrs;
  ASSERT_TRUE((*store)->CollectNeighbors(0, false, &nbrs).ok());
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(nbrs.size(), 9u);
  EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), 5u) == nbrs.end());
}

// --------------------------------------------------------------- traversal

TEST(TraversalTest, BfsOrderDepths) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  edges.Add(2, 3);
  ASSERT_TRUE((*store)->BulkImport(edges).ok());
  std::vector<uint32_t> depth(4, 99);
  TraversalStats stats;
  ASSERT_TRUE(Traverse(store->get(), 0, TraversalOrder::kBreadthFirst,
                       Expand::kBoth,
                       [&depth](VertexId v, uint32_t d) {
                         depth[v] = d;
                         return true;
                       },
                       &stats)
                  .ok());
  EXPECT_EQ(depth, (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(stats.nodes_visited, 4u);
  EXPECT_EQ(stats.max_depth, 3u);
}

TEST(TraversalTest, PruningStopsExpansion) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  ASSERT_TRUE((*store)->BulkImport(edges).ok());
  size_t visited = 0;
  ASSERT_TRUE(Traverse(store->get(), 0, TraversalOrder::kBreadthFirst,
                       Expand::kBoth,
                       [&visited](VertexId, uint32_t d) {
                         ++visited;
                         return d < 1;  // prune below depth 1
                       })
                  .ok());
  EXPECT_EQ(visited, 2u);  // 0 and 1; 2 never discovered
}

TEST(TraversalTest, SharedVisitedArraySkipsMarkedNodes) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  edges.Add(2, 3);
  ASSERT_TRUE((*store)->BulkImport(edges).ok());
  std::vector<uint8_t> seen(4, 0);
  seen[2] = 1;  // discovered by an earlier traversal: a wall
  std::vector<VertexId> visited;
  auto record = [&visited](VertexId v, uint32_t) {
    visited.push_back(v);
    return true;
  };
  ASSERT_TRUE(Traverse(store->get(), 0, TraversalOrder::kBreadthFirst,
                       Expand::kBoth, record, &seen)
                  .ok());
  EXPECT_EQ(visited, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(seen, (std::vector<uint8_t>{1, 1, 1, 0}));
  std::vector<uint8_t> short_seen(2, 0);
  EXPECT_FALSE(Traverse(store->get(), 0, TraversalOrder::kBreadthFirst,
                        Expand::kBoth, record, &short_seen)
                   .ok());
}

TEST(TraversalTest, RejectsBadSeed) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(Traverse(store->get(), 5, TraversalOrder::kBreadthFirst,
                        Expand::kBoth, [](VertexId, uint32_t) { return true; })
                   .ok());
}

// -------------------------------------------------------------- algorithms

DbPlatformConfig DbConfig(const TempDir& dir) {
  DbPlatformConfig config;
  config.store_dir = dir.path() + "/store";
  return config;
}

TEST(GraphDbAlgorithmsTest, AllAlgorithmsMatchReference) {
  Graph g = RandomUndirected(150, 450, 43);
  AlgorithmParams params;
  params.bfs.source = 4;
  params.cd = CdParams{4, 0.05};
  params.evo.num_new_vertices = 6;
  for (AlgorithmKind kind :
       {AlgorithmKind::kBfs, AlgorithmKind::kConn, AlgorithmKind::kCd,
        AlgorithmKind::kStats, AlgorithmKind::kEvo}) {
    auto dir = TempDir::Create("gly-db");
    ASSERT_TRUE(dir.ok());
    auto out = RunAlgorithm(DbConfig(*dir), g, kind, params);
    ASSERT_TRUE(out.ok()) << AlgorithmKindName(kind) << ": "
                          << out.status().ToString();
    EXPECT_TRUE(harness::ValidateOutput(g, kind, params, *out).ok())
        << AlgorithmKindName(kind);
  }
}

TEST(GraphDbAlgorithmsTest, ConnOverManyIsolatedVertices) {
  // 3000 isolated vertices around three components (a path, a star, a
  // triangle): every vertex is its own CONN start or joins its component.
  EdgeList edges(3100);
  for (VertexId v = 100; v < 109; ++v) edges.Add(v, v + 1);     // path
  for (VertexId v = 1001; v < 1020; ++v) edges.Add(1000, v);    // star
  edges.Add(2500, 2501);
  edges.Add(2501, 2502);
  edges.Add(2502, 2500);                                        // triangle
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  AlgorithmParams params;
  auto out = RunAlgorithm(DbConfig(*dir), g, AlgorithmKind::kConn, params);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kConn, params, *out).ok());
  size_t labels = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (out->vertex_values[v] == static_cast<int64_t>(v)) ++labels;
  }
  // 3100 vertices, 10 + 20 + 3 of them in three components.
  EXPECT_EQ(labels, 3100u - 33u + 3u);
  EXPECT_EQ(out->vertex_values[109], 100);
  EXPECT_EQ(out->vertex_values[1019], 1000);
  EXPECT_EQ(out->vertex_values[2502], 2500);
  EXPECT_EQ(out->traversed_edges, 2u * (9 + 19 + 3));
}

TEST(GraphDbAlgorithmsTest, IdenticalRunsReportTheSameCacheCounters) {
  // Per-run counters: BulkImport's writes and earlier runs are not in them.
  // The cache holds the whole store, so both runs are all hits.
  Graph g = RandomUndirected(300, 1200, 46);
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  StoreConfig config;
  config.directory = dir->File("store");
  config.page_cache_bytes = 4 << 20;
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkImport(g.ToEdgeList()).ok());
  AlgorithmParams params;
  params.bfs.source = 3;
  DbRunStats first;
  DbRunStats second;
  ASSERT_TRUE(RunAlgorithmOnStore(store->get(), true, 0, AlgorithmKind::kBfs,
                                  params, &first)
                  .ok());
  ASSERT_TRUE(RunAlgorithmOnStore(store->get(), true, 0, AlgorithmKind::kBfs,
                                  params, &second)
                  .ok());
  EXPECT_GT(first.cache.hits, 0u);
  EXPECT_EQ(first.cache.hits, second.cache.hits);
  EXPECT_EQ(first.cache.misses, second.cache.misses);
  EXPECT_EQ(second.cache.misses, 0u);
  EXPECT_EQ(first.cache.writebacks, 0u);
  EXPECT_LT(second.cache.hits, (*store)->cache_stats().hits);
}

TEST(GraphDbAlgorithmsTest, FailsWhenGraphExceedsMemory) {
  Graph g = RandomUndirected(2000, 8000, 44);
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  DbPlatformConfig config = DbConfig(*dir);
  config.memory_budget_bytes = 10 << 10;  // 10 KiB: store can't fit
  auto out = RunAlgorithm(config, g, AlgorithmKind::kBfs, {});
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsResourceExhausted());
}

TEST(GraphDbAlgorithmsTest, DirectedBfs) {
  EdgeList edges;
  Rng rng(45);
  for (int i = 0; i < 300; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(80));
    VertexId b = static_cast<VertexId>(rng.NextBounded(80));
    if (a != b) edges.Add(a, b);
  }
  Graph g = GraphBuilder::Directed(edges).ValueOrDie();
  AlgorithmParams params;
  params.bfs.source = 0;
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  auto out = RunAlgorithm(DbConfig(*dir), g, AlgorithmKind::kBfs, params);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kBfs, params, *out).ok());
}

}  // namespace
}  // namespace gly::graphdb
