// Tests for the MapReduce engine: record files, serialization, job
// execution (spill/shuffle/combine), counters, and the algorithm chains.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "common/random.h"
#include "common/string_util.h"
#include "common/temp_dir.h"
#include "harness/validator.h"
#include "mapreduce/graph_jobs.h"
#include "mapreduce/job.h"
#include "mapreduce/record.h"

namespace gly::mapreduce {
namespace {

// ------------------------------------------------------------ record files

TEST(RecordFileTest, RoundTrip) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  std::vector<Record> records = {
      {1, "alpha"}, {2, ""}, {~0ULL, std::string(1000, 'x')}};
  ASSERT_TRUE(WriteAllRecords(records, dir->File("r.bin")).ok());
  auto read = ReadAllRecords(dir->File("r.bin"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, records);
}

TEST(RecordFileTest, EmptyFile) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(WriteAllRecords({}, dir->File("empty.bin")).ok());
  auto read = ReadAllRecords(dir->File("empty.bin"));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST(RecordFileTest, DetectsTruncation) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(WriteAllRecords({{1, "hello world"}}, dir->File("t.bin")).ok());
  std::filesystem::resize_file(dir->File("t.bin"), 14);  // cut into value
  auto read = ReadAllRecords(dir->File("t.bin"));
  EXPECT_FALSE(read.ok());
}

TEST(RecordFileTest, RejectsLengthPastEndOfFile) {
  // A corrupt length field must fail before anything is allocated for it.
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(WriteAllRecords({{7, "payload"}}, dir->File("c.bin")).ok());
  {
    std::fstream f(dir->File("c.bin"),
                   std::ios::in | std::ios::out | std::ios::binary);
    const uint32_t corrupt = 0xFFFFFFF0u;
    f.seekp(sizeof(uint64_t));
    f.write(reinterpret_cast<const char*>(&corrupt), sizeof(corrupt));
  }
  auto reader = RecordFileReader::Open(dir->File("c.bin"));
  ASSERT_TRUE(reader.ok());
  uint64_t key = 0;
  std::string_view value;
  auto next = reader->Next(&key, &value);
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsIOError()) << next.status().ToString();
}

TEST(RecordFileTest, CutAtEveryOffsetYieldsPrefixOrIOError) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  const std::vector<Record> records = {
      {1, "alpha"}, {2, ""}, {3, std::string(120, 'x')}, {4, "omega"}};
  const std::string full = dir->File("full.bin");
  ASSERT_TRUE(WriteAllRecords(records, full).ok());
  std::vector<uint64_t> ends;  // file offset after each record
  uint64_t offset = 0;
  for (const Record& r : records) {
    offset += kRecordHeaderBytes + r.value.size();
    ends.push_back(offset);
  }
  ASSERT_EQ(std::filesystem::file_size(full), offset);
  for (uint64_t cut = 0; cut <= offset; ++cut) {
    const std::string path = dir->File("cut.bin");
    std::filesystem::copy_file(
        full, path, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(path, cut);
    const size_t whole = static_cast<size_t>(
        std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin());
    auto reader = RecordFileReader::Open(path);
    ASSERT_TRUE(reader.ok());
    size_t read = 0;
    Status status;
    uint64_t key = 0;
    std::string_view value;
    for (;;) {
      auto next = reader->Next(&key, &value);
      if (!next.ok()) {
        status = next.status();
        break;
      }
      if (!*next) break;
      ASSERT_LT(read, records.size()) << "cut " << cut;
      EXPECT_EQ(key, records[read].key) << "cut " << cut;
      EXPECT_EQ(value, records[read].value) << "cut " << cut;
      ++read;
    }
    EXPECT_EQ(read, whole) << "cut " << cut;
    const bool at_boundary =
        cut == 0 || (whole > 0 && ends[whole - 1] == cut);
    if (at_boundary) {
      EXPECT_TRUE(status.ok()) << "cut " << cut << ": " << status.ToString();
    } else {
      EXPECT_TRUE(status.IsIOError()) << "cut " << cut;
    }
  }
}

TEST(RecordFileTest, ValuesLargerThanTheIoBufferRoundTrip) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  std::vector<Record> records;
  for (uint64_t i = 0; i < 40; ++i) {
    records.push_back({i, std::string((i * 7919) % 200000, 'a' + i % 26)});
  }
  ASSERT_TRUE(WriteAllRecords(records, dir->File("big.bin")).ok());
  auto read = ReadAllRecords(dir->File("big.bin"));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, records);
}

TEST(ValueCodecTest, RoundTripsPrimitives) {
  std::string buf;
  ValueWriter w(&buf);
  w.PutU32(7);
  w.PutI64(-9);
  w.PutDouble(2.5);
  w.PutBytes("abc", 3);
  ValueReader r(buf);
  EXPECT_EQ(*r.GetU32(), 7u);
  EXPECT_EQ(*r.GetI64(), -9);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 2.5);
  EXPECT_EQ(*r.GetBytes(), "abc");
  EXPECT_TRUE(r.AtEnd());
}

TEST(ValueCodecTest, DetectsTruncation) {
  std::string buf;
  ValueWriter w(&buf);
  w.PutU64(1);
  buf.resize(4);
  ValueReader r(buf);
  EXPECT_FALSE(r.GetU64().ok());
}

// ------------------------------------------------------------------- jobs

// Word-count-style job over integer keys: map emits (key % 10, "1"),
// reduce sums.
class ModMapper : public Mapper {
 public:
  void Map(uint64_t key, std::string_view, Emitter* out,
           Counters* counters) override {
    out->Emit(key % 10, "1");
    counters->Increment("mapped");
  }
};

// Values are decimal counts; reduce sums them. Doubles as the combiner
// (sum is associative), matching Hadoop's reducer-as-combiner idiom.
class SumReducer : public Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              Emitter* out, Counters*) override {
    uint64_t sum = 0;
    for (std::string_view v : values) sum += ParseUint64(v).ValueOr(0);
    out->Emit(key, std::to_string(sum));
  }
};

TEST(JobTest, CountsKeysAcrossMappersAndReducers) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  std::vector<Record> input;
  for (uint64_t i = 0; i < 1000; ++i) input.push_back({i, ""});
  ASSERT_TRUE(WriteAllRecords(input, dir->File("in.bin")).ok());

  JobConfig config;
  config.num_mappers = 3;
  config.num_reducers = 4;
  config.scratch_dir = dir->File("scratch");
  Job job(config, [] { return std::make_unique<ModMapper>(); },
          [] { return std::make_unique<SumReducer>(); });
  ThreadPool pool(4);
  Counters counters;
  JobStats stats;
  auto outputs = job.Run({dir->File("in.bin")}, dir->File("out"), &pool,
                         &counters, &stats);
  ASSERT_TRUE(outputs.ok());
  EXPECT_EQ(outputs->size(), 4u);
  EXPECT_EQ(counters.Get("mapped"), 1000u);
  EXPECT_EQ(stats.input_records, 1000u);
  EXPECT_EQ(stats.map_output_records, 1000u);
  EXPECT_GT(stats.spill_bytes, 0u);

  uint64_t total = 0;
  int groups = 0;
  for (const std::string& path : *outputs) {
    auto records = ReadAllRecords(path);
    ASSERT_TRUE(records.ok());
    for (const Record& r : *records) {
      total += *ParseUint64(r.value);
      ++groups;
    }
  }
  EXPECT_EQ(total, 1000u);  // each input contributes one "1"
  EXPECT_EQ(groups, 10);    // keys 0..9
}

TEST(JobTest, SmallSortBufferForcesMultipleSpills) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  std::vector<Record> input;
  for (uint64_t i = 0; i < 2000; ++i) input.push_back({i, std::string(100, 'v')});
  ASSERT_TRUE(WriteAllRecords(input, dir->File("in.bin")).ok());

  JobConfig config;
  config.num_mappers = 1;
  config.num_reducers = 1;
  config.sort_buffer_bytes = 4096;  // force spills
  config.scratch_dir = dir->File("scratch");
  Job job(config, [] { return std::make_unique<ModMapper>(); },
          [] { return std::make_unique<SumReducer>(); });
  ThreadPool pool(2);
  Counters counters;
  JobStats stats;
  auto outputs =
      job.Run({dir->File("in.bin")}, dir->File("out"), &pool, &counters,
              &stats);
  ASSERT_TRUE(outputs.ok());
  EXPECT_GT(stats.spill_files, 4u);
  // Merged output is still correct.
  auto records = ReadAllRecords((*outputs)[0]);
  ASSERT_TRUE(records.ok());
  uint64_t total = 0;
  for (const Record& r : *records) total += *ParseUint64(r.value);
  EXPECT_EQ(total, 2000u);
}

TEST(JobTest, CombinerShrinksSpills) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  std::vector<Record> input;
  for (uint64_t i = 0; i < 5000; ++i) input.push_back({i, ""});
  ASSERT_TRUE(WriteAllRecords(input, dir->File("in.bin")).ok());

  auto run = [&](bool with_combiner) -> uint64_t {
    JobConfig config;
    config.num_mappers = 2;
    config.num_reducers = 2;
    config.scratch_dir =
        dir->File(with_combiner ? "scratch-c" : "scratch-n");
    Job job(config, [] { return std::make_unique<ModMapper>(); },
            [] { return std::make_unique<SumReducer>(); },
            with_combiner
                ? ReducerFactory([] { return std::make_unique<SumReducer>(); })
                : nullptr);
    ThreadPool pool(2);
    Counters counters;
    JobStats stats;
    auto outputs = job.Run({dir->File("in.bin")},
                           dir->File(with_combiner ? "out-c" : "out-n"),
                           &pool, &counters, &stats);
    EXPECT_TRUE(outputs.ok());
    return stats.shuffle_bytes;
  };
  uint64_t with = run(true);
  uint64_t without = run(false);
  EXPECT_LT(with, without / 10);
}

// Spreads input keys over 97 keys that differ in several bytes (so the
// key sort takes several radix passes) and passes the input key on.
class SpreadMapper : public Mapper {
 public:
  void Map(uint64_t key, std::string_view, Emitter* out, Counters*) override {
    out->Emit((key % 97) * 0x0101010101ULL, std::to_string(key));
  }
};

// Emits "1" when the group's values arrive in increasing input order.
class InOrderReducer : public Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              Emitter* out, Counters*) override {
    bool ordered = true;
    for (size_t i = 1; i < values.size(); ++i) {
      ordered = ordered &&
                *ParseUint64(values[i - 1]) < *ParseUint64(values[i]);
    }
    out->Emit(key, ordered ? "1" : "0");
  }
};

TEST(JobTest, KeySortIsStable) {
  // One mapper and one run per reducer: values reach the reducer in the
  // order the mapper emitted them only if the spill sort is stable.
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  std::vector<Record> input;
  for (uint64_t i = 0; i < 5000; ++i) input.push_back({i, ""});
  ASSERT_TRUE(WriteAllRecords(input, dir->File("in.bin")).ok());

  JobConfig config;
  config.num_mappers = 1;
  config.num_reducers = 2;
  config.scratch_dir = dir->File("scratch");
  Job job(config, [] { return std::make_unique<SpreadMapper>(); },
          [] { return std::make_unique<InOrderReducer>(); });
  ThreadPool pool(1);
  Counters counters;
  JobStats stats;
  auto outputs = job.Run({dir->File("in.bin")}, dir->File("out"), &pool,
                         &counters, &stats);
  ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
  EXPECT_EQ(stats.spill_files, 2u);
  size_t groups = 0;
  for (const std::string& path : *outputs) {
    auto records = ReadAllRecords(path);
    ASSERT_TRUE(records.ok());
    for (const Record& r : *records) {
      EXPECT_EQ(r.value, "1") << "key " << r.key;
      ++groups;
    }
  }
  EXPECT_EQ(groups, 97u);
}

// Combiner that breaks the key contract: it re-keys its output.
class RekeyingCombiner : public Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              Emitter* out, Counters*) override {
    out->Emit(key + 1, std::to_string(values.size()));
  }
};

TEST(JobTest, CombinerEmittingAnotherKeyFailsTheJob) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  std::vector<Record> input;
  for (uint64_t i = 0; i < 100; ++i) input.push_back({i, ""});
  ASSERT_TRUE(WriteAllRecords(input, dir->File("in.bin")).ok());

  JobConfig config;
  config.num_mappers = 2;
  config.num_reducers = 2;
  config.scratch_dir = dir->File("scratch");
  Job job(config, [] { return std::make_unique<ModMapper>(); },
          [] { return std::make_unique<SumReducer>(); },
          [] { return std::make_unique<RekeyingCombiner>(); });
  ThreadPool pool(2);
  Counters counters;
  auto outputs = job.Run({dir->File("in.bin")}, dir->File("out"), &pool,
                         &counters);
  ASSERT_FALSE(outputs.ok());
  EXPECT_TRUE(outputs.status().IsInvalidArgument())
      << outputs.status().ToString();
}

TEST(JobTest, RequiresScratchDir) {
  JobConfig config;  // no scratch_dir
  Job job(config, [] { return std::make_unique<ModMapper>(); },
          [] { return std::make_unique<SumReducer>(); });
  ThreadPool pool(1);
  Counters counters;
  EXPECT_FALSE(job.Run({}, "/tmp/out", &pool, &counters).ok());
}

// --------------------------------------------------------- algorithm chains

Graph RandomUndirected(VertexId n, size_t m, uint64_t seed) {
  EdgeList edges(n);
  Rng rng(seed);
  while (edges.num_edges() < m) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.Add(a, b);
  }
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

PlatformConfig MakePlatformConfig(const TempDir& dir) {
  PlatformConfig config;
  config.job.num_mappers = 3;
  config.job.num_reducers = 3;
  config.job.scratch_dir = dir.path() + "/scratch";
  config.work_dir = dir.path() + "/work";
  return config;
}

TEST(MapReduceAlgorithmsTest, BfsMatchesReference) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  Graph g = RandomUndirected(150, 400, 21);
  AlgorithmParams params;
  params.bfs.source = 2;
  ChainStats stats;
  auto out = RunAlgorithm(MakePlatformConfig(*dir), g, AlgorithmKind::kBfs,
                          params, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kBfs, params, *out).ok());
  EXPECT_GT(stats.jobs_run, 1u);
  EXPECT_GT(stats.total_spill_bytes, 0u);  // disk really used
}

TEST(MapReduceAlgorithmsTest, ConnMatchesReference) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  Graph g = RandomUndirected(150, 250, 22);
  auto out =
      RunAlgorithm(MakePlatformConfig(*dir), g, AlgorithmKind::kConn, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kConn, {}, *out).ok());
}

TEST(MapReduceAlgorithmsTest, ConnOnDirectedGraph) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  EdgeList edges;
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(100));
    VertexId b = static_cast<VertexId>(rng.NextBounded(100));
    if (a != b) edges.Add(a, b);
  }
  Graph g = GraphBuilder::Directed(edges).ValueOrDie();
  auto out =
      RunAlgorithm(MakePlatformConfig(*dir), g, AlgorithmKind::kConn, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kConn, {}, *out).ok());
}

TEST(MapReduceAlgorithmsTest, CdMatchesReference) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  Graph g = RandomUndirected(120, 360, 24);
  AlgorithmParams params;
  params.cd = CdParams{5, 0.05};
  auto out =
      RunAlgorithm(MakePlatformConfig(*dir), g, AlgorithmKind::kCd, params);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kCd, params, *out).ok());
}

TEST(MapReduceAlgorithmsTest, StatsMatchesReference) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  Graph g = RandomUndirected(120, 360, 25);
  auto out =
      RunAlgorithm(MakePlatformConfig(*dir), g, AlgorithmKind::kStats, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kStats, {}, *out).ok());
}

TEST(MapReduceAlgorithmsTest, EvoMatchesReference) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  Graph g = RandomUndirected(120, 360, 26);
  AlgorithmParams params;
  params.evo.num_new_vertices = 7;
  auto out =
      RunAlgorithm(MakePlatformConfig(*dir), g, AlgorithmKind::kEvo, params);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kEvo, params, *out).ok());
}

// ----------------------------------------------------------- frozen oracle
//
// The record path (spill buffers, key sort, combiner, merge, codecs) is
// rebuilt for speed under an exact-equivalence contract: same answers,
// same traversed-edge count, same job count, and the same bytes spilled
// and shuffled. These constants were recorded by running the
// std::string-per-record engine this path replaced on the fixed graphs
// below. PR sums its doubles in merge order, so the checksum also pins
// the order values reach each reducer. Spill bytes must not fall: the
// disk round trip per iteration is the mechanism the paper measures. A
// mismatch means the engine changed, not that the oracle needs
// regenerating.

// Skewed random graph: hubs give multi-record key groups, so a 4 KiB sort
// buffer spills many runs per (mapper, reducer) and the combiner folds
// real groups.
Graph OracleGraph(bool directed) {
  const VertexId n = 300;
  EdgeList edges(n);
  Rng rng(directed ? 41 : 40);
  for (int i = 0; i < 1500; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(n) *
                                       rng.NextBounded(n) / n);
    VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.Add(a, b);
  }
  edges.DeduplicateAndDropLoops();
  return (directed ? GraphBuilder::Directed(edges)
                   : GraphBuilder::Undirected(edges))
      .ValueOrDie();
}

struct MrOracleCell {
  AlgorithmKind kind;
  bool directed;
  uint32_t mappers;
  uint32_t reducers;
  uint64_t sort_buffer_bytes;
  uint32_t checksum;
  uint64_t traversed_edges;
  uint32_t jobs_run;
  uint64_t spill_bytes;
  uint64_t shuffle_bytes;
};

constexpr uint64_t kDefaultBuffer = JobConfig{}.sort_buffer_bytes;
constexpr uint64_t kSmallBuffer = 4096;

// {kind, directed, mappers, reducers, sort buffer,
//  checksum, traversed edges, jobs, spill bytes, shuffle bytes}
constexpr MrOracleCell kMrOracle[] = {
    {AlgorithmKind::kBfs, false, 1, 1, kDefaultBuffer,
     0xd32d2ef7u, 2926, 5, 135973, 135973},
    {AlgorithmKind::kBfs, false, 1, 1, kSmallBuffer,
     0xd32d2ef7u, 2926, 5, 185853, 185853},
    {AlgorithmKind::kBfs, false, 3, 4, kDefaultBuffer,
     0xd32d2ef7u, 2926, 5, 156099, 156099},
    {AlgorithmKind::kBfs, false, 3, 4, kSmallBuffer,
     0xd32d2ef7u, 2926, 5, 165524, 165524},
    {AlgorithmKind::kConn, false, 1, 1, kDefaultBuffer,
     0x8751a266u, 8513, 5, 146065, 146065},
    {AlgorithmKind::kConn, false, 1, 1, kSmallBuffer,
     0x8751a266u, 8513, 5, 318557, 318557},
    {AlgorithmKind::kConn, false, 3, 4, kDefaultBuffer,
     0x8751a266u, 8513, 5, 194756, 194756},
    {AlgorithmKind::kConn, false, 3, 4, kSmallBuffer,
     0x8751a266u, 8513, 5, 244694, 244694},
    {AlgorithmKind::kPr, false, 1, 1, kDefaultBuffer,
     0x3268e2fau, 17556, 6, 189024, 189024},
    {AlgorithmKind::kPr, false, 1, 1, kSmallBuffer,
     0x234f5c4du, 17556, 6, 557382, 557382},
    {AlgorithmKind::kPr, false, 3, 4, kDefaultBuffer,
     0x2423a0d7u, 17556, 6, 281766, 281766},
    {AlgorithmKind::kPr, false, 3, 4, kSmallBuffer,
     0x3b1afcc3u, 17556, 6, 403740, 403740},
    {AlgorithmKind::kCd, false, 1, 1, kDefaultBuffer,
     0x51de3020u, 11704, 4, 430632, 430632},
    {AlgorithmKind::kCd, false, 1, 1, kSmallBuffer,
     0x51de3020u, 11704, 4, 430632, 430632},
    {AlgorithmKind::kCd, false, 3, 4, kDefaultBuffer,
     0x51de3020u, 11704, 4, 430632, 430632},
    {AlgorithmKind::kCd, false, 3, 4, kSmallBuffer,
     0x51de3020u, 11704, 4, 430632, 430632},
    {AlgorithmKind::kStats, false, 1, 1, kDefaultBuffer,
     0xd44f5648u, 2924, 2, 260141, 260141},
    {AlgorithmKind::kStats, false, 1, 1, kSmallBuffer,
     0x8856b577u, 2924, 2, 260199, 260199},
    {AlgorithmKind::kStats, false, 3, 4, kDefaultBuffer,
     0x7a5ab889u, 2924, 2, 260199, 260199},
    {AlgorithmKind::kStats, false, 3, 4, kSmallBuffer,
     0x8856b577u, 2924, 2, 260228, 260228},
    {AlgorithmKind::kEvo, false, 1, 1, kDefaultBuffer,
     0xe83ae2ddu, 18, 1, 522, 522},
    {AlgorithmKind::kEvo, false, 1, 1, kSmallBuffer,
     0xe83ae2ddu, 18, 1, 522, 522},
    {AlgorithmKind::kEvo, false, 3, 4, kDefaultBuffer,
     0xa5b6b1b9u, 18, 1, 522, 522},
    {AlgorithmKind::kEvo, false, 3, 4, kSmallBuffer,
     0xa5b6b1b9u, 18, 1, 522, 522},
    {AlgorithmKind::kBfs, true, 1, 1, kDefaultBuffer,
     0xa7b708a9u, 1447, 6, 123109, 123109},
    {AlgorithmKind::kBfs, true, 1, 1, kSmallBuffer,
     0xa7b708a9u, 1447, 6, 140103, 140103},
    {AlgorithmKind::kBfs, true, 3, 4, kDefaultBuffer,
     0xa7b708a9u, 1447, 6, 133201, 133201},
    {AlgorithmKind::kBfs, true, 3, 4, kSmallBuffer,
     0xa7b708a9u, 1447, 6, 134390, 134390},
    {AlgorithmKind::kConn, true, 1, 1, kDefaultBuffer,
     0x8751a266u, 8365, 4, 122480, 122480},
    {AlgorithmKind::kConn, true, 1, 1, kSmallBuffer,
     0x8751a266u, 8365, 4, 291115, 291115},
    {AlgorithmKind::kConn, true, 3, 4, kDefaultBuffer,
     0x8751a266u, 8365, 4, 169170, 169170},
    {AlgorithmKind::kConn, true, 3, 4, kSmallBuffer,
     0x8751a266u, 8365, 4, 217571, 217571},
    {AlgorithmKind::kPr, true, 1, 1, kDefaultBuffer,
     0x993e1623u, 8784, 6, 153588, 153588},
    {AlgorithmKind::kPr, true, 1, 1, kSmallBuffer,
     0x7236c839u, 8784, 6, 322020, 322020},
    {AlgorithmKind::kPr, true, 3, 4, kDefaultBuffer,
     0x5b70b524u, 8784, 6, 221448, 221448},
    {AlgorithmKind::kPr, true, 3, 4, kSmallBuffer,
     0xc9dca94cu, 8784, 6, 250883, 250883},
    {AlgorithmKind::kCd, true, 1, 1, kDefaultBuffer,
     0xf9dbae41u, 5856, 4, 237648, 237648},
    {AlgorithmKind::kCd, true, 1, 1, kSmallBuffer,
     0xf9dbae41u, 5856, 4, 237648, 237648},
    {AlgorithmKind::kCd, true, 3, 4, kDefaultBuffer,
     0xf9dbae41u, 5856, 4, 237648, 237648},
    {AlgorithmKind::kCd, true, 3, 4, kSmallBuffer,
     0xf9dbae41u, 5856, 4, 237648, 237648},
    {AlgorithmKind::kStats, true, 1, 1, kDefaultBuffer,
     0x16266d54u, 1419, 2, 122252, 122252},
    {AlgorithmKind::kStats, true, 1, 1, kSmallBuffer,
     0x05de0da7u, 1419, 2, 122310, 122310},
    {AlgorithmKind::kStats, true, 3, 4, kDefaultBuffer,
     0xf7d20059u, 1419, 2, 122310, 122310},
    {AlgorithmKind::kStats, true, 3, 4, kSmallBuffer,
     0xf7d20059u, 1419, 2, 122339, 122339},
    {AlgorithmKind::kEvo, true, 1, 1, kDefaultBuffer,
     0x5b4ea2d2u, 14, 1, 406, 406},
    {AlgorithmKind::kEvo, true, 1, 1, kSmallBuffer,
     0x5b4ea2d2u, 14, 1, 406, 406},
    {AlgorithmKind::kEvo, true, 3, 4, kDefaultBuffer,
     0xf8ef557du, 14, 1, 406, 406},
    {AlgorithmKind::kEvo, true, 3, 4, kSmallBuffer,
     0xf8ef557du, 14, 1, 406, 406},
};

std::string OracleCellName(const MrOracleCell& c) {
  return AlgorithmKindName(c.kind) + (c.directed ? " directed" : "") +
         " m" + std::to_string(c.mappers) + " r" + std::to_string(c.reducers) +
         (c.sort_buffer_bytes == kSmallBuffer ? " 4KiB" : " default");
}

AlgorithmParams OracleParams() {
  AlgorithmParams params;
  params.bfs.source = 1;
  params.pr = PrParams{/*iterations=*/6, /*damping=*/0.85};
  params.cd = CdParams{/*max_iterations=*/4, /*hop_attenuation=*/0.05};
  params.evo.num_new_vertices = 9;
  return params;
}

TEST(MapReduceOracleTest, ReproducesRecordedOutputsAndVolumes) {
  const Graph graphs[] = {OracleGraph(false), OracleGraph(true)};
  const AlgorithmParams params = OracleParams();
  for (const MrOracleCell& cell : kMrOracle) {
    auto dir = TempDir::Create("gly-mr-oracle");
    ASSERT_TRUE(dir.ok());
    PlatformConfig config = MakePlatformConfig(*dir);
    config.job.num_mappers = cell.mappers;
    config.job.num_reducers = cell.reducers;
    config.job.sort_buffer_bytes = cell.sort_buffer_bytes;
    ChainStats stats;
    auto out = RunAlgorithm(config, graphs[cell.directed ? 1 : 0], cell.kind,
                            params, &stats);
    const std::string what = OracleCellName(cell);
    ASSERT_TRUE(out.ok()) << what << ": " << out.status().ToString();
    const uint32_t checksum = harness::OutputChecksum(*out);
    EXPECT_EQ(checksum, cell.checksum) << what;
    EXPECT_EQ(out->traversed_edges, cell.traversed_edges) << what;
    EXPECT_EQ(stats.jobs_run, cell.jobs_run) << what;
    EXPECT_EQ(stats.total_spill_bytes, cell.spill_bytes) << what;
    EXPECT_EQ(stats.total_shuffle_bytes, cell.shuffle_bytes) << what;
  }
}

TEST(MapReduceAlgorithmsTest, RequiresWorkDir) {
  Graph g = RandomUndirected(10, 20, 27);
  PlatformConfig config;
  config.job.scratch_dir = "/tmp/x";
  EXPECT_FALSE(RunAlgorithm(config, g, AlgorithmKind::kBfs, {}).ok());
}

}  // namespace
}  // namespace gly::mapreduce
