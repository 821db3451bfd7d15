// Differential robustness tests: every platform runs under injected
// worker crashes, transient I/O errors, and stalls, and the harness must
// (a) record every cell's outcome — never hang, never kill the process —
// and (b) recover to a clean, validated result when the fault is
// transient or the plan is removed. This is the testable form of the
// paper's "Missing values indicate failures".

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/temp_dir.h"
#include "harness/core.h"
#include "harness/report.h"
#include "harness/validator.h"
#include "pregel/algorithms.h"
#include "pregel/engine.h"

namespace gly::harness {
namespace {

#ifdef GLY_DISABLE_FAULT_POINTS

TEST(RobustnessTest, FaultPointsCompiledOut) {
  GTEST_SKIP() << "built with GLY_FAULT_POINTS=OFF; engine fault sites are "
                  "no-ops, so the robustness scenarios cannot run";
}

#else

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

// All fault sites of one platform ("pregel.*" etc.).
std::string SitePrefix(const std::string& platform) {
  if (platform == "giraph") return "pregel.*";
  if (platform == "graphx") return "dataflow.*";
  if (platform == "mapreduce") return "mapreduce.*";
  if (platform == "neo4j") return "graphdb.*";
  return "*";
}

const std::vector<std::string> kFaultablePlatforms = {"giraph", "graphx",
                                                      "mapreduce", "neo4j"};

RunSpec BaseSpec(const Graph* graph, const std::string& platform) {
  RunSpec spec;
  spec.platforms = {platform};
  spec.datasets.push_back({"toy", graph, {}});
  spec.algorithms = {AlgorithmKind::kBfs};
  spec.monitor = false;
  return spec;
}

// ---------------------------------------------------- crashes are recorded

TEST(RobustnessTest, InjectedCrashIsARecordedFailureOnEveryPlatform) {
  Graph g = RandomUndirected(100, 250, 71);
  for (const std::string& platform : kFaultablePlatforms) {
    fault::FaultPlan plan(0xC0FFEE);
    plan.Add({.site = SitePrefix(platform), .kind = fault::FaultKind::kCrash,
              .probability = 1.0});
    RunSpec spec = BaseSpec(&g, platform);
    spec.fault_plan = &plan;
    auto results = RunBenchmark(spec);
    // The harness survives and reports the cell as failed.
    ASSERT_TRUE(results.ok()) << platform;
    ASSERT_EQ(results->size(), 1u) << platform;
    const BenchmarkResult& r = (*results)[0];
    EXPECT_FALSE(r.status.ok()) << platform;
    EXPECT_TRUE(r.validation.IsUntested()) << platform;
    EXPECT_GT(plan.TotalTriggered(), 0u) << platform;
  }
}

TEST(RobustnessTest, TransientIOErrorIsRetryableOnEveryPlatform) {
  Graph g = RandomUndirected(100, 250, 72);
  for (const std::string& platform : kFaultablePlatforms) {
    fault::FaultPlan plan(0xBEEF);
    plan.Add({.site = SitePrefix(platform),
              .kind = fault::FaultKind::kIOError, .max_triggers = 1});
    RunSpec spec = BaseSpec(&g, platform);
    spec.fault_plan = &plan;
    spec.max_attempts = 3;
    auto results = RunBenchmark(spec);
    ASSERT_TRUE(results.ok()) << platform;
    const BenchmarkResult& r = (*results)[0];
    // One transient fault, bounded retry: the cell ends up clean and the
    // fault-free re-execution validates against the reference.
    EXPECT_TRUE(r.status.ok()) << platform << ": " << r.status.ToString();
    EXPECT_TRUE(r.validation.ok()) << platform << ": "
                                   << r.validation.ToString();
    EXPECT_EQ(plan.TotalTriggered(), 1u) << platform;
  }
}

TEST(RobustnessTest, RetryCountsAreRecorded) {
  // giraph's pregel.run.start is hit exactly once per execution attempt,
  // so a single transient crash there pins attempts == 2.
  Graph g = RandomUndirected(100, 250, 73);
  fault::FaultPlan plan(0xAB);
  plan.Add({.site = "pregel.run.start", .kind = fault::FaultKind::kCrash,
            .max_triggers = 1});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  spec.max_attempts = 3;
  spec.retry_backoff_s = 0.001;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.validation.ok());
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(r.injected_faults, 1u);
}

TEST(RobustnessTest, RetriesAreBounded) {
  // A permanent crash must consume exactly max_attempts, then surface.
  Graph g = RandomUndirected(100, 250, 74);
  fault::FaultPlan plan(0xAC);
  plan.Add({.site = "pregel.run.start", .kind = fault::FaultKind::kCrash});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  spec.max_attempts = 3;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.IsInternal());
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.injected_faults, 3u);
}

// ----------------------------------------------------------------- timeouts

TEST(RobustnessTest, StalledCellTimesOutAndIsRecorded) {
  Graph g = RandomUndirected(100, 250, 75);
  fault::FaultPlan plan(0xAD);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .delay_seconds = 0.6});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  spec.cell_timeout_s = 0.15;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.IsTimeout()) << r.status.ToString();
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_TRUE(r.validation.IsUntested());
}

TEST(RobustnessTest, TimeoutRetryRecoversWhenStallIsTransient) {
  Graph g = RandomUndirected(100, 250, 76);
  fault::FaultPlan plan(0xAE);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .max_triggers = 1,
            .delay_seconds = 0.6});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  spec.cell_timeout_s = 0.15;
  spec.max_attempts = 2;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.validation.ok());
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_FALSE(r.timed_out);  // the recorded (final) attempt was clean
}

// ------------------------------------------------------------ message loss

TEST(RobustnessTest, DroppedMessagesCorruptResultsAndValidationCatchesIt) {
  // Message loss must not hang or crash the engine; it yields a wrong
  // answer that the Output Validator flags — the silent-failure mode the
  // differential harness exists to catch.
  Graph g = RandomUndirected(100, 250, 77);
  fault::FaultPlan plan(0xAF);
  plan.Add({.site = "pregel.message.deliver",
            .kind = fault::FaultKind::kDrop, .probability = 0.9});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GT(plan.TriggeredCount("pregel.message.deliver"), 0u);
  EXPECT_TRUE(r.validation.IsValidationFailed()) << r.validation.ToString();
}

// ------------------------------------------- superstep checkpoint recovery

// A path graph: CONN label propagation needs ~N supersteps to converge,
// giving faults room to strike long after checkpoints exist.
Graph PathGraph(VertexId n) {
  EdgeList edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.Add(v, v + 1);
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

TEST(CheckpointRecoveryTest, PregelReplaysOnlyFromTheLastCheckpoint) {
  Graph g = PathGraph(60);

  pregel::EngineConfig config;
  config.num_workers = 2;
  pregel::RunStats clean_stats;
  auto baseline = pregel::RunConn(pregel::Engine(config), g, &clean_stats);
  ASSERT_TRUE(baseline.ok());

  auto dir = TempDir::Create("gly-ckpt-recovery");
  ASSERT_TRUE(dir.ok());
  config.checkpoint.interval = 8;
  config.checkpoint.directory = dir->path();

  // Crash at the superstep-20 barrier: the engine must roll back to the
  // superstep-16 checkpoint and replay 4 supersteps, not start over.
  fault::FaultPlan plan(0xD1);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kCrash, .skip_hits = 20,
            .max_triggers = 1});
  fault::ScopedFaultPlan active(&plan);

  pregel::RunStats stats;
  auto recovered = pregel::RunConn(pregel::Engine(config), g, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(plan.TotalTriggered(), 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GT(stats.checkpoints_written, 0u);
  EXPECT_EQ(stats.supersteps_replayed, 4u);
  EXPECT_LT(stats.supersteps_replayed, stats.supersteps);
  // The recovered run is indistinguishable from the fault-free one.
  EXPECT_EQ(stats.supersteps, clean_stats.supersteps);
  EXPECT_EQ(recovered->vertex_values, baseline->vertex_values);
}

TEST(CheckpointRecoveryTest, FailedCheckpointWriteFallsBackToPreviousOne) {
  Graph g = PathGraph(60);
  auto dir = TempDir::Create("gly-ckpt-recovery");
  ASSERT_TRUE(dir.ok());
  pregel::EngineConfig config;
  config.num_workers = 2;
  config.checkpoint.interval = 4;
  config.checkpoint.directory = dir->path();

  // The second checkpoint write (superstep 8) crashes mid-write; the crash
  // at the superstep-10 barrier must fall back to the still-valid
  // superstep-4 checkpoint — 6 supersteps replayed, correct output.
  fault::FaultPlan plan(0xD2);
  plan.Add({.site = "checkpoint.write", .kind = fault::FaultKind::kCrash,
            .skip_hits = 1, .max_triggers = 1});
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kCrash, .skip_hits = 10,
            .max_triggers = 1});
  fault::ScopedFaultPlan active(&plan);

  pregel::RunStats stats;
  auto out = pregel::RunConn(pregel::Engine(config), g, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.checkpoint_failures, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.supersteps_replayed, 6u);

  pregel::EngineConfig clean;
  clean.num_workers = 2;
  auto baseline = pregel::RunConn(pregel::Engine(clean), g, nullptr);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(out->vertex_values, baseline->vertex_values);
}

TEST(CheckpointRecoveryTest, RecoveriesAreBoundedByPolicy) {
  // A permanent barrier crash exhausts max_recoveries, then surfaces.
  Graph g = PathGraph(40);
  auto dir = TempDir::Create("gly-ckpt-recovery");
  ASSERT_TRUE(dir.ok());
  pregel::EngineConfig config;
  config.num_workers = 2;
  config.checkpoint.interval = 2;
  config.checkpoint.directory = dir->path();
  config.checkpoint.max_recoveries = 2;

  fault::FaultPlan plan(0xD3);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kCrash, .skip_hits = 4});
  fault::ScopedFaultPlan active(&plan);

  auto out = pregel::RunConn(pregel::Engine(config), g, nullptr);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInternal());
  // The barrier re-crashed on every replay: the initial crash plus one per
  // permitted recovery reached the site before the policy gave up.
  EXPECT_EQ(plan.TriggeredCount("pregel.superstep.barrier"), 3u);
}

TEST(CheckpointRecoveryTest, HarnessCellRecoversWithoutConsumingARetry) {
  // The engine absorbs a mid-run worker crash via rollback: the harness
  // sees one clean attempt, with the recovery surfaced in the metrics.
  Graph g = RandomUndirected(100, 250, 79);
  fault::FaultPlan plan(0xD4);
  plan.Add({.site = "pregel.worker.compute",
            .kind = fault::FaultKind::kCrash, .skip_hits = 8,
            .max_triggers = 1});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.algorithms = {AlgorithmKind::kConn};
  spec.platform_config.SetInt("giraph.checkpoint_interval", 1);
  spec.fault_plan = &plan;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.validation.ok()) << r.validation.ToString();
  EXPECT_EQ(r.attempts, 1u);  // recovered inside the engine, not by retry
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_EQ(plan.TotalTriggered(), 1u);
}

TEST(CheckpointRecoveryTest, MapReduceRetrySkipsTheCompletedMapStage) {
  // A crash in the reduce phase fails the attempt, but the map stage's
  // manifest survives: the retry restores spills instead of re-mapping.
  Graph g = RandomUndirected(100, 250, 80);
  fault::FaultPlan plan(0xD5);
  plan.Add({.site = "mapreduce.reduce.task",
            .kind = fault::FaultKind::kCrash, .max_triggers = 1});
  RunSpec spec = BaseSpec(&g, "mapreduce");
  spec.platform_config.SetBool("mapreduce.checkpointing", true);
  spec.fault_plan = &plan;
  spec.max_attempts = 2;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.validation.ok()) << r.validation.ToString();
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_GE(r.recoveries, 1u) << "map stage was re-executed, not restored";
}

// ------------------------------------------------------- resumable matrices

TEST(ResumeTest, ResultJsonRoundTrips) {
  BenchmarkResult r;
  r.platform = "giraph";
  r.graph = "toy \"quoted\"\nname";
  r.algorithm = AlgorithmKind::kBfs;
  r.validation = Status::OK();
  r.runtime_seconds = 1.5;
  r.load_seconds = 0.25;
  r.traversed_edges = 1234;
  r.teps = 822.7;
  r.attempts = 2;
  r.injected_faults = 3;
  r.recoveries = 1;
  r.supersteps_replayed = 4;
  r.resources.peak_rss_bytes = 1 << 20;
  r.platform_metrics["supersteps"] = "17";
  r.platform_metrics["odd\"key"] = "value with spaces";

  auto parsed = ResultFromJson(ResultToJson(r));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->platform, r.platform);
  EXPECT_EQ(parsed->graph, r.graph);
  EXPECT_EQ(parsed->algorithm, r.algorithm);
  EXPECT_TRUE(parsed->status.ok());
  EXPECT_TRUE(parsed->validation.ok());
  EXPECT_EQ(parsed->runtime_seconds, r.runtime_seconds);
  EXPECT_EQ(parsed->load_seconds, r.load_seconds);
  EXPECT_EQ(parsed->traversed_edges, r.traversed_edges);
  EXPECT_EQ(parsed->teps, r.teps);
  EXPECT_EQ(parsed->attempts, r.attempts);
  EXPECT_EQ(parsed->injected_faults, r.injected_faults);
  EXPECT_EQ(parsed->recoveries, r.recoveries);
  EXPECT_EQ(parsed->supersteps_replayed, r.supersteps_replayed);
  EXPECT_EQ(parsed->resources.peak_rss_bytes, r.resources.peak_rss_bytes);
  EXPECT_EQ(parsed->platform_metrics, r.platform_metrics);

  // Failure codes round-trip too (messages intentionally don't).
  r.status = Status::Timeout("cell exceeded budget");
  r.validation = Status::Untested("validation not run");
  parsed = ResultFromJson(ResultToJson(r));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->status.IsTimeout());
  EXPECT_TRUE(parsed->validation.IsUntested());

  EXPECT_FALSE(ResultFromJson("not json at all").ok());
  EXPECT_FALSE(ResultFromJson("{\"platform\":\"x\"}").ok());
}

// A journal line with one field's value replaced by `raw`.
std::string WithField(const std::string& line, const std::string& key,
                      const std::string& raw) {
  const std::string pattern = "\"" + key + "\":";
  const size_t begin = line.find(pattern) + pattern.size();
  const size_t end = line.find_first_of(",}", begin);
  return line.substr(0, begin) + raw + line.substr(end);
}

TEST(ResumeTest, ResultJsonRejectsMalformedNumbersAndBooleans) {
  BenchmarkResult r;
  r.platform = "giraph";
  r.graph = "toy";
  r.algorithm = AlgorithmKind::kBfs;
  r.runtime_seconds = 1.5;
  r.attempts = 1;
  const std::string line = ResultToJson(r);
  ASSERT_TRUE(ResultFromJson(line).ok());

  // A corrupted field is a malformed record (LoadJournal then skips the
  // line and re-runs the cell), never a silent 0/false.
  const std::pair<const char*, const char*> corrupt[] = {
      {"runtime_s", "abc"},      {"runtime_s", ""},
      {"runtime_s", "1.5x"},     {"runtime_s", "nan"},
      {"runtime_s", "0x10"},     {"teps", "+1"},
      {"attempts", "-1"},        {"attempts", "1.5"},
      {"attempts", "4294967296"}, {"output_checksum", ""},
      {"traversed_edges", "99999999999999999999"},
      {"timed_out", "tru"},      {"timed_out", "1"},
      {"timed_out", ""},         {"resumed", "TRUE"},
  };
  for (const auto& [key, raw] : corrupt) {
    auto parsed = ResultFromJson(WithField(line, key, raw));
    EXPECT_FALSE(parsed.ok()) << key << " = '" << raw << "'";
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << key << ": " << parsed.status().ToString();
  }

  // Optional fields may be absent: only the required strings remain.
  auto minimal =
      ResultFromJson(line.substr(0, line.find(",\"runtime_s\"")) + "}");
  ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
  EXPECT_EQ(minimal->runtime_seconds, 0.0);
  EXPECT_EQ(minimal->attempts, 0u);
  EXPECT_FALSE(minimal->timed_out);

  // Every value ResultToJson writes parses back, extremes included.
  r.runtime_seconds = 0.0;
  r.teps = 1e12;
  r.traversed_edges = std::numeric_limits<uint64_t>::max();
  r.output_checksum = std::numeric_limits<uint32_t>::max();
  r.attempts = std::numeric_limits<uint32_t>::max();
  r.timed_out = r.cancelled = r.stalled = r.resumed = true;
  r.cancel_join_seconds = 2.25;
  r.critical_path_seconds = 0.5;
  r.trace_spans = 7;
  auto round = ResultFromJson(ResultToJson(r));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(ResultToJson(*round), ResultToJson(r));
}

TEST(ResumeTest, ResumeReExecutesOnlyUnfinishedCells) {
  Graph g = RandomUndirected(100, 300, 81);
  auto dir = TempDir::Create("gly-resume");
  ASSERT_TRUE(dir.ok());

  RunSpec spec;
  spec.platforms = {"giraph", "reference"};
  spec.datasets.push_back({"toy", &g, {}});
  spec.algorithms = {AlgorithmKind::kBfs, AlgorithmKind::kConn};
  spec.monitor = false;
  spec.journal_path = dir->File("journal.jsonl");

  // Run 1 ("killed" matrix): giraph crashes permanently, so its two cells
  // journal as failures; the reference cells journal as validated.
  fault::FaultPlan plan(0xE1);
  plan.Add({.site = "pregel.run.start", .kind = fault::FaultKind::kCrash});
  spec.fault_plan = &plan;
  auto first = RunBenchmark(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 4u);

  // Run 2: fault gone, resume on. Only the failed giraph cells execute.
  spec.fault_plan = nullptr;
  spec.resume = true;
  size_t executed = 0;
  auto second = RunBenchmark(spec, [&executed](const BenchmarkResult& r) {
    if (!r.resumed) ++executed;
  });
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 4u);
  EXPECT_EQ(executed, 2u);
  for (const BenchmarkResult& r : *second) {
    EXPECT_TRUE(r.status.ok()) << r.platform;
    EXPECT_TRUE(r.validation.ok()) << r.platform;
    EXPECT_EQ(r.resumed, r.platform == "reference") << r.platform;
  }

  // Run 3: everything is journaled clean now — nothing re-executes.
  executed = 0;
  auto third = RunBenchmark(spec, [&executed](const BenchmarkResult& r) {
    if (!r.resumed) ++executed;
  });
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(executed, 0u);
  for (const BenchmarkResult& r : *third) {
    EXPECT_TRUE(r.resumed) << r.platform;
    EXPECT_TRUE(r.status.ok()) << r.platform;
  }

  // Without resume, the journal restarts and the full matrix re-executes.
  spec.resume = false;
  auto fourth = RunBenchmark(spec);
  ASSERT_TRUE(fourth.ok());
  for (const BenchmarkResult& r : *fourth) EXPECT_FALSE(r.resumed);
}

TEST(ResumeTest, CorruptedJournalFieldReRunsTheCell) {
  // A journaled cell whose `timed_out` flag was corrupted on disk must not
  // resume as "not timed out": the line is skipped and the cell re-runs.
  Graph g = RandomUndirected(100, 300, 83);
  auto dir = TempDir::Create("gly-resume");
  ASSERT_TRUE(dir.ok());
  RunSpec spec = BaseSpec(&g, "reference");
  spec.journal_path = dir->File("journal.jsonl");
  ASSERT_TRUE(RunBenchmark(spec).ok());

  std::string journal;
  {
    std::ifstream in(spec.journal_path);
    std::getline(in, journal);
  }
  ASSERT_NE(journal.find("\"timed_out\":false"), std::string::npos);
  {
    std::ofstream out(spec.journal_path, std::ios::trunc);
    out << WithField(journal, "timed_out", "flase") << '\n';
  }
  spec.resume = true;
  size_t executed = 0;
  auto resumed = RunBenchmark(spec, [&executed](const BenchmarkResult& r) {
    if (!r.resumed) ++executed;
  });
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(executed, 1u);
}

TEST(ResumeTest, FailedValidationIsNotReused) {
  // A cell that ran but validated INVALID (here: message loss corrupted
  // the answer) must be re-executed on resume, not trusted.
  Graph g = RandomUndirected(100, 250, 82);
  auto dir = TempDir::Create("gly-resume");
  ASSERT_TRUE(dir.ok());

  RunSpec spec = BaseSpec(&g, "giraph");
  spec.journal_path = dir->File("journal.jsonl");
  fault::FaultPlan plan(0xE2);
  plan.Add({.site = "pregel.message.deliver",
            .kind = fault::FaultKind::kDrop, .probability = 0.9});
  spec.fault_plan = &plan;
  auto first = RunBenchmark(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)[0].status.ok());
  ASSERT_TRUE((*first)[0].validation.IsValidationFailed());

  spec.fault_plan = nullptr;
  spec.resume = true;
  auto second = RunBenchmark(spec);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE((*second)[0].resumed);
  EXPECT_TRUE((*second)[0].status.ok());
  EXPECT_TRUE((*second)[0].validation.ok());
}

// ------------------------------------------------ cooperative cancellation

// Live threads of this process (Linux: one /proc/self/task entry each).
size_t ThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(CancellationTest, StallWatchdogCancelsSilentCellWithoutWallClockTimeout) {
  Graph g = RandomUndirected(100, 250, 79);
  fault::FaultPlan plan(0xB0);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .delay_seconds = 0.8});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  // No wall-clock timeout at all: only the heartbeat watchdog is armed.
  spec.stall_timeout_s = 0.2;
  metrics::Registry registry;
  spec.metrics = &registry;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.IsTimeout()) << r.status.ToString();
  EXPECT_TRUE(r.cancelled);
  EXPECT_TRUE(r.stalled);
  EXPECT_FALSE(r.timed_out);  // the wall-clock deadline never fired
  EXPECT_EQ(r.cancel_reason, "stall");
  // The stall delay is well inside the grace window, so the attempt was
  // joined, not abandoned.
  EXPECT_LT(r.cancel_join_seconds, spec.cancel_grace_s);
  EXPECT_TRUE(r.validation.IsUntested());
  auto snapshot = registry.Snapshot();
  EXPECT_GE(snapshot.at("harness.cancels").counter, 1u);
  EXPECT_GE(snapshot.at("harness.cancel_joins").counter, 1u);
}

TEST(CancellationTest, CancelledAttemptIsJoinedAndNoThreadOutlivesTheCell) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "/proc/self/task unavailable; cannot count threads";
  }
  Graph g = RandomUndirected(100, 250, 80);
  // Warm up lazily-created runtime threads before taking the baseline:
  // TSan spawns a persistent background thread on the first
  // pthread_create of the process, which would otherwise show up as a
  // "leak" the harness never caused.
  std::thread([] {}).join();
  const size_t baseline = ThreadCount();
  fault::FaultPlan plan(0xB1);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .delay_seconds = 0.6});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  spec.cell_timeout_s = 0.15;
  metrics::Registry registry;
  spec.metrics = &registry;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.timed_out);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.cancel_reason, "deadline");
  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.at("harness.cancel_joins").counter, 1u);
  // The failure counter is created on first use; a clean join never
  // touches it.
  EXPECT_EQ(snapshot.count("harness.cancel_join_failures"), 0u);
  // The timed-out attempt was cooperatively joined, not detached: the
  // process thread count returns to its pre-run baseline (bounded wait —
  // platform teardown after RunBenchmark returns is not instantaneous).
  Stopwatch watch;
  while (ThreadCount() > baseline && watch.ElapsedSeconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(ThreadCount(), baseline);
}

TEST(CancellationTest, HarnessStopCancelsInFlightCellAndSkipsRemainingCells) {
  Graph g = RandomUndirected(100, 250, 81);
  // Giraph (first platform) stalls at every barrier, giving the stop
  // signal a wide window to land mid-cell.
  fault::FaultPlan plan(0xB2);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .delay_seconds = 0.5});
  CancelToken stop;
  RunSpec spec;
  spec.platforms = kFaultablePlatforms;
  spec.datasets.push_back({"toy", &g, {}});
  spec.algorithms = {AlgorithmKind::kBfs};
  spec.monitor = false;
  spec.fault_plan = &plan;
  spec.stop = &stop;  // supervision armed by the stop token alone
  spec.max_attempts = 3;
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.Cancel(CancelReason::kHarnessStop, "user interrupt");
  });
  auto results = RunBenchmark(spec);
  stopper.join();
  ASSERT_TRUE(results.ok());
  // The in-flight giraph cell is recorded as cancelled; the other three
  // platforms are skipped entirely, not recorded as failures.
  ASSERT_EQ(results->size(), 1u);
  const BenchmarkResult& r = (*results)[0];
  EXPECT_EQ(r.platform, "giraph");
  EXPECT_TRUE(r.status.IsCancelled()) << r.status.ToString();
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.cancel_reason, "harness_stop");
  EXPECT_FALSE(r.timed_out);
  // A harness stop is final — the retry policy must not burn attempts.
  EXPECT_EQ(r.attempts, 1u);
}

TEST(CancellationTest, PreArmedStopRunsNothing) {
  Graph g = RandomUndirected(100, 250, 82);
  CancelToken stop;
  stop.Cancel(CancelReason::kHarnessStop, "stopped before start");
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.stop = &stop;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

// ----------------------------------------- the full matrix, faults enabled

TEST(RobustnessTest, FullMatrixUnderFaultsCompletesEveryCellThenRunsClean) {
  Graph g = RandomUndirected(100, 300, 78);
  RunSpec spec;
  spec.platforms = {"giraph", "graphx", "mapreduce", "neo4j", "reference"};
  spec.datasets.push_back({"toy", &g, {}});
  spec.algorithms = {AlgorithmKind::kStats, AlgorithmKind::kBfs,
                     AlgorithmKind::kConn};
  spec.monitor = false;
  spec.cell_timeout_s = 1.0;
  spec.max_attempts = 2;
  spec.retry_backoff_s = 0.001;
  // Recovery machinery on: Pregel checkpoints and MapReduce manifests may
  // absorb some injected crashes before the retry policy even sees them.
  spec.platform_config.SetInt("giraph.checkpoint_interval", 2);
  spec.platform_config.SetBool("mapreduce.checkpointing", true);

  // Fixed seed: crashes sprinkled over every site, plus one guaranteed
  // stall at the second pregel barrier that must trip the cell timeout.
  fault::FaultPlan plan(0x5EED);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .skip_hits = 1,
            .max_triggers = 1, .delay_seconds = 3.0});
  plan.Add({.site = "*", .kind = fault::FaultKind::kCrash,
            .probability = 0.01});
  spec.fault_plan = &plan;

  size_t callbacks = 0;
  auto faulty = RunBenchmark(spec, [&callbacks](const BenchmarkResult&) {
    ++callbacks;
  });
  // Every cell is reported — status recorded, no hang, no process abort.
  ASSERT_TRUE(faulty.ok());
  ASSERT_EQ(faulty->size(), 15u);
  EXPECT_EQ(callbacks, 15u);
  for (const BenchmarkResult& r : *faulty) {
    EXPECT_LE(r.attempts, 2u) << r.platform;
    if (r.status.ok()) {
      // Whatever survived the fault storm must still be correct.
      EXPECT_TRUE(r.validation.ok())
          << r.platform << "/" << AlgorithmKindName(r.algorithm) << ": "
          << r.validation.ToString();
    }
  }
  EXPECT_GT(plan.TotalTriggered(), 0u);
  // The deterministic stall fired (the crash rule may add more triggers at
  // the same site), so the timeout path ran.
  EXPECT_GE(plan.TriggeredCount("pregel.superstep.barrier"), 1u);

  // Re-run with faults disabled: the same matrix validates clean.
  spec.fault_plan = nullptr;
  auto clean = RunBenchmark(spec);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->size(), 15u);
  for (const BenchmarkResult& r : *clean) {
    EXPECT_TRUE(r.status.ok())
        << r.platform << "/" << AlgorithmKindName(r.algorithm) << ": "
        << r.status.ToString();
    EXPECT_TRUE(r.validation.ok())
        << r.platform << "/" << AlgorithmKindName(r.algorithm) << ": "
        << r.validation.ToString();
  }
}

#endif  // GLY_DISABLE_FAULT_POINTS

}  // namespace
}  // namespace gly::harness
