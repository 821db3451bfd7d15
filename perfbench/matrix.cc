// perfbench_matrix — the repo benchmark's measuring program: the
// (engine × algorithm) matrix from edge-list file to validated result, for
// one workload, with the LDBC Graphalytics time split (load, makespan,
// processing, validation).
//
//   perfbench_matrix generate --workload W --seed N --size full|tiny --dir D
//   perfbench_matrix run      --workload W --seed N --size full|tiny --dir D
//                             --seconds S --trace 0|1 --out FILE
//                             [--corrupt-one]
//
// `generate` writes D/input.e and its fingerprint D/input.json before any
// timing starts. `run` refuses an input that no longer matches its
// fingerprint, then:
//
//   setup   (repeated, median reported): parse the edge file, build the CSR,
//           MakePlatform + LoadGraph for the four harness platforms, build the
//           columnstore EdgeTable — "edge-list file → every engine loaded";
//   rounds  (closed loop, one client, until --seconds have passed): each
//           cell in turn, on every engine through the public calls
//           (Platform::Run / TransitiveCount, then ValidateOutput), then
//           through RunBenchmark at jobs = 1 on every harness platform for
//           the makespan.
//
// Every timed call is wrapped in a span of the benchmark's own. With
// --trace 1 the rounds alternate untraced and traced, the traced ones also
// hand RunBenchmark a trace_dir, and the program's own spans and counters
// are collected alongside; comparing the two kinds of round gives the
// tracing overhead. All raw samples go to --out as JSON; perfbench/run.py
// turns them into the reported metrics.

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "columnstore/edge_table.h"
#include "columnstore/transitive.h"
#include "common/config.h"
#include "common/crc32.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "datagen/rmat.h"
#include "datagen/social_datagen.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "harness/core.h"
#include "harness/platform.h"
#include "harness/validator.h"
#include "ref/algorithms.h"

namespace {

namespace fs = std::filesystem;
using gly::AlgorithmKind;
using gly::AlgorithmOutput;
using gly::AlgorithmParams;
using gly::Graph;
using gly::Status;
using gly::VertexId;

#ifndef GLY_BENCH_COMPILER
#define GLY_BENCH_COMPILER "unknown"
#endif
#ifndef GLY_BENCH_BUILD_TYPE
#define GLY_BENCH_BUILD_TYPE "unknown"
#endif

const std::vector<std::string> kPlatforms = {"giraph", "graphx", "mapreduce",
                                             "neo4j"};
const char kColumnstore[] = "columnstore";
constexpr uint32_t kPrIterations = 10;

/// Every engine runs on one thread: the ETL, the four platforms' engine
/// threads and MapReduce workers, and the columnstore partitions. On a shared
/// host, a thread that the host deschedules stalls every barrier the others
/// wait at, so with one thread per CPU the figures measured the host's
/// scheduler more than the engines. Giraph and GraphX keep nproc logical
/// workers, so their cross-worker messages and shuffles stay in the work.
constexpr uint32_t kEngineThreads = 1;

// ------------------------------------------------------------- workloads

/// One workload at one size. Why each workload exists is recorded in
/// BENCHMARK.json; the sizes keep a full run inside the benchmark's time
/// budget on a 4-vCPU host.
struct Workload {
  std::string name;
  bool social = false;       ///< social datagen (facebook degrees) vs R-MAT
  uint32_t rmat_scale = 0;  ///< Graph500 edge factor 16
  uint64_t persons = 0;
  /// Algorithms every harness platform runs; BFS runs once per source.
  std::vector<AlgorithmKind> algorithms;
  uint32_t bfs_sources = 1;  ///< GAP-style batched BFS trials
  /// neo4j page cache: a quarter of the store (its miss and eviction path)
  /// or room for all of it (its hit path).
  bool quarter_page_cache = false;
};

gly::Result<Workload> FindWorkload(const std::string& name, bool tiny) {
  using K = AlgorithmKind;
  Workload w;
  w.name = name;
  if (name == "traverse-rmat") {
    // Frontier-driven runs: many small supersteps / MapReduce rounds, and a
    // page cache of about a quarter of the store, so graphdb runs its miss
    // and eviction path.
    w.rmat_scale = tiny ? 9 : 13;
    w.algorithms = {K::kBfs, K::kConn};
    w.bfs_sources = tiny ? 2 : 8;
    w.quarter_page_cache = true;
  } else if (name == "pagerank-social") {
    // Every vertex active: message, shuffle and spill volume dominate; the
    // page cache holds the whole store (graphdb's hit path). One batch of
    // BFS trials keeps the columnstore measured here too.
    w.social = true;
    w.persons = tiny ? 500 : 20000;
    w.algorithms = {K::kPr, K::kBfs};
    w.bfs_sources = tiny ? 1 : 2;
  } else if (name == "ingest-large") {
    // A file several times larger than the others through every write
    // path (ETL, bulk import + WAL, MapReduce input, column compression),
    // then BFS on every engine, from two sources so one source's depth does
    // not set the MapReduce round count alone.
    w.rmat_scale = tiny ? 11 : 15;
    w.algorithms = {K::kBfs};
    w.bfs_sources = 2;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

// --------------------------------------------------------------- helpers

/// Logical CPUs this process may run on (what `nproc` prints): the logical
/// worker count of Giraph and GraphX and the input generator's threads.
uint32_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
}

/// Flushes the file system holding `dir` so one engine's dirty pages are
/// written back before the next engine's timed work starts.
void FlushToDisk(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::string Num(double v) { return gly::StringPrintf("%.9g", v); }

std::string JsonMap(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += "\"" + gly::JsonEscape(k) + "\":" + Num(v);
  }
  return out + "}";
}

std::string JsonSamples(
    const std::map<std::string, std::vector<double>>& m) {
  std::string out = "{";
  for (const auto& [k, values] : m) {
    if (out.size() > 1) out += ",";
    out += "\"" + gly::JsonEscape(k) + "\":[";
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i ? "," : "") + Num(values[i]);
    }
    out += "]";
  }
  return out + "}";
}

/// Times `fn` with a steady clock, adding the seconds to `*seconds`, and,
/// when a tracer is active, records the benchmark's own span `name` around it.
template <typename Fn>
auto Timed(const std::string& name, double* seconds, Fn&& fn) {
  gly::trace::TraceSpan span(name, "perfbench");
  struct Charge {
    double* seconds;
    gly::Stopwatch watch;
    ~Charge() { *seconds += watch.ElapsedSeconds(); }
  } charge{seconds, {}};
  return fn();
}

std::map<std::string, double> SpanTotals(const gly::trace::Tracer& tracer) {
  std::map<std::string, double> out;
  for (const auto& phase : gly::trace::AggregateSpans(tracer.Snapshot())) {
    out[phase.name] = phase.seconds;
  }
  return out;
}

std::map<std::string, double> RegistryValues(
    const gly::metrics::Registry& registry) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : registry.Snapshot()) {
    using T = gly::metrics::MetricValue::Type;
    if (value.type == T::kCounter) {
      out[name] = static_cast<double>(value.counter);
    }
    if (value.type == T::kGauge) out[name] = value.gauge;
  }
  return out;
}

/// Adds the numeric entries of a platform's LastRunMetrics() into
/// `counters` as "<platform>.<key>"; "*_peak" keys keep the maximum.
void AddRunMetrics(const std::string& platform,
                   const std::map<std::string, std::string>& metrics,
                   std::map<std::string, double>* counters) {
  for (const auto& [key, text] : metrics) {
    auto value = gly::ParseUint64(text);
    if (!value.ok()) continue;
    double& slot = (*counters)[platform + "." + key];
    const double v = static_cast<double>(*value);
    slot = key.size() > 5 && key.compare(key.size() - 5, 5, "_peak") == 0
               ? std::max(slot, v)
               : slot + v;
  }
}

// ---------------------------------------------------------------- inputs

struct Fingerprint {
  uint64_t vertices = 0;
  uint64_t edges = 0;
  uint64_t file_bytes = 0;
  uint32_t crc32c = 0;
};

gly::Result<Fingerprint> FingerprintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  Fingerprint fp;
  uint32_t state = 0xFFFFFFFFu;
  std::vector<char> buf(1 << 20);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto got = static_cast<size_t>(in.gcount());
    state = gly::Crc32cUpdate(state, buf.data(), got);
    fp.file_bytes += got;
  }
  fp.crc32c = gly::Crc32cFinalize(state);
  return fp;
}

std::string FingerprintJson(const std::string& name, const Fingerprint& fp) {
  return gly::StringPrintf(
      "{\"name\":\"%s\",\"vertices\":%llu,\"edges\":%llu,"
      "\"file_bytes\":%llu,\"crc32c\":\"%08x\"}",
      gly::JsonEscape(name).c_str(),
      static_cast<unsigned long long>(fp.vertices),
      static_cast<unsigned long long>(fp.edges),
      static_cast<unsigned long long>(fp.file_bytes), fp.crc32c);
}

/// Generates the workload's graph from `seed` and writes it as a text edge
/// file plus its fingerprint.
Status Generate(const Workload& w, uint64_t seed, const std::string& dir) {
  gly::ThreadPool pool(Nproc());
  gly::EdgeList edges;
  if (w.social) {
    gly::datagen::SocialDatagenConfig config;
    config.num_persons = w.persons;
    config.seed = seed;
    GLY_ASSIGN_OR_RETURN(gly::datagen::SocialGraph social,
                         gly::datagen::SocialDatagen(config).Generate(&pool));
    edges = std::move(social.edges);
  } else {
    gly::datagen::RmatConfig config;
    config.scale = w.rmat_scale;
    config.seed = seed;
    GLY_ASSIGN_OR_RETURN(edges,
                         gly::datagen::RmatGenerator(config).Generate(&pool));
  }
  fs::create_directories(dir);
  const std::string path = dir + "/input.e";
  GLY_RETURN_NOT_OK(gly::WriteEdgeListText(edges, path));
  GLY_ASSIGN_OR_RETURN(Fingerprint fp, FingerprintFile(path));
  fp.vertices = edges.num_vertices();
  fp.edges = edges.num_edges();
  std::ofstream out(dir + "/input.json");
  out << FingerprintJson(w.name + "/input.e", fp) << "\n";
  return out ? Status::OK() : Status::IOError("cannot write fingerprint");
}

/// Reads the fingerprint `generate` wrote and checks the file still
/// matches it byte for byte.
gly::Result<Fingerprint> CheckInput(const std::string& dir) {
  std::ifstream in(dir + "/input.json");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (text.empty()) return Status::NotFound("no input fingerprint in " + dir);
  auto field = [&](const std::string& key) -> std::string {
    size_t at = text.find("\"" + key + "\":");
    if (at == std::string::npos) return "";
    at += key.size() + 3;
    size_t end = text.find_first_of(",}", at);
    std::string v = text.substr(at, end - at);
    v.erase(std::remove(v.begin(), v.end(), '"'), v.end());
    return v;
  };
  GLY_ASSIGN_OR_RETURN(Fingerprint fp, FingerprintFile(dir + "/input.e"));
  const std::string crc = gly::StringPrintf("%08x", fp.crc32c);
  if (field("crc32c") != crc ||
      field("file_bytes") != std::to_string(fp.file_bytes)) {
    return Status::InvalidArgument("input.e does not match input.json");
  }
  GLY_ASSIGN_OR_RETURN(fp.vertices, gly::ParseUint64(field("vertices")));
  GLY_ASSIGN_OR_RETURN(fp.edges, gly::ParseUint64(field("edges")));
  return fp;
}

/// GAP-style BFS sources: `count` distinct seeded draws from the largest
/// connected component, so every trial traverses most of the graph. Vertices
/// of degree 0 are never drawn, nor are those of the small components R-MAT
/// leaves beside the giant one, whose BFS would finish at once.
gly::Result<std::vector<VertexId>> DrawSources(const Graph& graph,
                                               uint32_t count, uint64_t seed) {
  const std::vector<int64_t> label = gly::ref::Conn(graph).vertex_values;
  std::map<int64_t, uint64_t> sizes;
  for (int64_t l : label) ++sizes[l];
  int64_t giant = 0;
  uint64_t giant_size = 0;
  for (const auto& [l, n] : sizes) {
    if (n > giant_size) {
      giant = l;
      giant_size = n;
    }
  }
  std::vector<VertexId> candidates;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (label[v] == giant) candidates.push_back(v);
  }
  if (giant_size < 2 || candidates.size() < count) {
    return Status::InvalidArgument("largest component too small for " +
                                   std::to_string(count) + " BFS sources");
  }
  gly::Rng rng(seed ^ 0xB5F5u);
  std::vector<VertexId> sources;
  for (uint32_t i = 0; i < count; ++i) {
    const size_t pick =
        i + rng.NextBounded(static_cast<uint64_t>(candidates.size() - i));
    std::swap(candidates[i], candidates[pick]);
    sources.push_back(candidates[i]);
  }
  return sources;
}

// ----------------------------------------------------------------- setup

/// Everything "loaded": the CSR graph, the four harness platforms with the
/// graph loaded, and the columnstore edge table.
struct Loaded {
  Graph graph;
  std::map<std::string, std::unique_ptr<gly::harness::Platform>> platforms;
  std::optional<gly::columnstore::EdgeTable> table;
};

struct Context {
  Workload w;
  uint32_t nproc = 1;
  std::string work;     ///< per-run work directory (inside the checkout)
  std::string input;    ///< the edge file
  gly::Config config;   ///< <platform>.<key> platform configuration
};

/// Points TempDir (every platform's scratch) at the benchmark's directory
/// for `engine`, so the benchmark can remove and flush it.
std::string UseScratch(const Context& ctx, const std::string& engine) {
  const std::string dir = ctx.work + "/scratch/" + engine;
  fs::create_directories(dir);
  ::setenv("TMPDIR", dir.c_str(), 1);
  return dir;
}

void DropScratch(const Context& ctx) {
  std::error_code ec;
  fs::remove_all(ctx.work + "/scratch", ec);
  FlushToDisk(ctx.work);
}

gly::Result<std::unique_ptr<Loaded>> Setup(
    const Context& ctx, std::map<std::string, double>* phases) {
  auto loaded = std::make_unique<Loaded>();
  gly::EtlOptions etl;
  etl.threads = kEngineThreads;
  GLY_ASSIGN_OR_RETURN(
      gly::EdgeList edges,
      Timed("bench.parse", &(*phases)["bench.parse"],
            [&] { return gly::ReadEdgeListText(ctx.input, {}, etl); }));
  gly::CsrBuildOptions csr;
  csr.threads = kEngineThreads;
  GLY_ASSIGN_OR_RETURN(
      loaded->graph,
      Timed("bench.csr_build", &(*phases)["bench.csr_build"],
            [&] { return gly::GraphBuilder::Undirected(edges, csr); }));
  edges = gly::EdgeList();
  for (const std::string& p : kPlatforms) {
    UseScratch(ctx, p);
    const std::string make = "bench.make." + p, load = "bench.load." + p;
    GLY_ASSIGN_OR_RETURN(auto platform, Timed(make, &(*phases)[make], [&] {
                           return gly::harness::MakePlatform(
                               p, ctx.config.Scoped(p));
                         }));
    GLY_RETURN_NOT_OK(Timed(load, &(*phases)[load], [&] {
      return platform->LoadGraph(loaded->graph, "g");
    }));
    loaded->platforms[p] = std::move(platform);
    FlushToDisk(ctx.work);
  }
  // The sp_edge relation stores both orientations of every edge (§3.4).
  GLY_ASSIGN_OR_RETURN(
      auto table,
      Timed("bench.table_build", &(*phases)["bench.table_build"], [&] {
        const Graph& g = loaded->graph;
        gly::EdgeList arcs(g.num_vertices());
        arcs.Reserve(g.num_adjacency_entries());
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          for (VertexId u : g.OutNeighbors(v)) arcs.Add(v, u);
        }
        return gly::columnstore::EdgeTable::Build(arcs);
      }));
  loaded->table.emplace(std::move(table));
  return loaded;
}

// ---------------------------------------------------------------- rounds

struct Cell {
  AlgorithmKind kind;
  VertexId source = 0;
  uint64_t reachable = 0;  ///< BFS: vertices the reference reaches
};

struct RoundRecord {
  bool traced = false;
  double wall_s = 0.0;
  uint64_t cells = 0;
  uint64_t failed = 0;
  /// Timing samples, one per call: "run/<engine>/<cell>",
  /// "validate/<algorithm>/<platform>/<cell>" and "harness/<platform>/<cell>"
  /// (one RunBenchmark call).
  std::map<std::string, std::vector<double>> samples;
  /// Traced rounds only: the counts the engines report ("<engine>.<key>"),
  /// the program's span totals and registry metrics for the direct cells,
  /// and the span totals of the RunBenchmark calls.
  std::map<std::string, double> counters;
  std::map<std::string, double> spans;
  std::map<std::string, double> registry;
  std::map<std::string, double> harness_spans;
};

constexpr size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 2.0;

/// An untraced round repeats each visit of an engine to a cell (and each
/// RunBenchmark call) until it has run this long, so the fast engines are
/// measured over enough work; a traced round makes each visit once. Rounds
/// visit the cells one after another and every engine within a cell, so each
/// engine's samples are spread over the whole run, not bunched into one
/// stretch of it.
constexpr double kMinVisitSeconds = 0.05;

void Corrupt(AlgorithmOutput* out) {
  if (!out->vertex_values.empty()) {
    out->vertex_values[0] ^= 1;
  } else if (!out->vertex_scores.empty()) {
    out->vertex_scores[0] += 1.0;
  }
}

/// Cell `i` on a harness platform: run, then validated, through the public
/// calls. Returns the processing seconds.
double PlatformCell(const Loaded& loaded, const std::string& p,
                    const std::vector<Cell>& cells, size_t i, bool* corrupt,
                    RoundRecord* rec) {
  gly::harness::Platform& platform = *loaded.platforms.at(p);
  const Cell& cell = cells[i];
  AlgorithmParams params;
  params.bfs.source = cell.source;
  params.pr.iterations = kPrIterations;
  const std::string alg = gly::ToLower(gly::AlgorithmKindName(cell.kind));
  const std::string id = "/" + std::to_string(i);
  ++rec->cells;
  double run_s = 0.0;
  auto out = Timed("bench.run." + p, &run_s,
                   [&] { return platform.Run(cell.kind, params); });
  rec->samples["run/" + p + id].push_back(run_s);
  if (!out.ok()) {
    std::fprintf(stderr, "%s/%s failed: %s\n", p.c_str(), alg.c_str(),
                 out.status().ToString().c_str());
    ++rec->failed;
    return run_s;
  }
  if (rec->traced) {
    AddRunMetrics(p, platform.LastRunMetrics(), &rec->counters);
  }
  if (*corrupt) {
    Corrupt(&*out);
    *corrupt = false;
  }
  double validate_s = 0.0;
  Status valid = Timed("bench.validate." + alg, &validate_s, [&] {
    return gly::harness::ValidateOutput(loaded.graph, cell.kind, params, *out);
  });
  rec->samples["validate/" + alg + "/" + p + id].push_back(validate_s);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s/%s did not validate: %s\n", p.c_str(),
                 alg.c_str(), valid.ToString().c_str());
    ++rec->failed;
  }
  return run_s;
}

/// Cell `i`, a BFS cell, on the fifth engine, §3.4's transitive BFS on the
/// column store; the count is checked against the reference reachable-set
/// size. Returns the processing seconds.
double ColumnstoreCell(const Loaded& loaded, const std::vector<Cell>& cells,
                       size_t i, RoundRecord* rec) {
  gly::columnstore::TransitiveConfig tconfig;
  tconfig.num_partitions = kEngineThreads;
  const Cell& cell = cells[i];
  ++rec->cells;
  double run_s = 0.0;
  auto prof = Timed(std::string("bench.run.") + kColumnstore, &run_s, [&] {
    return gly::columnstore::TransitiveCount(*loaded.table, cell.source,
                                             tconfig);
  });
  rec->samples[std::string("run/") + kColumnstore + "/" + std::to_string(i)]
      .push_back(run_s);
  if (!prof.ok() || prof->distinct_reached != cell.reachable) {
    std::fprintf(stderr, "columnstore/bfs from %u: %s\n", cell.source,
                 prof.ok() ? "wrong reachable count"
                           : prof.status().ToString().c_str());
    ++rec->failed;
    return run_s;
  }
  if (!rec->traced) return run_s;
  // Stage fractions are kept as seconds here; run.py divides them by the
  // total operator time, which weights each query by its length.
  auto& c = rec->counters;
  c["columnstore.random_lookups"] += prof->random_lookups;
  c["columnstore.waves"] += prof->waves;
  c["columnstore.operator_s"] += prof->seconds;
  c["columnstore.hash_s"] += prof->hash_fraction * prof->seconds;
  c["columnstore.exchange_s"] += prof->exchange_fraction * prof->seconds;
  c["columnstore.column_s"] += prof->column_fraction * prof->seconds;
  return run_s;
}

/// Cell `i` on every engine in turn (the columnstore runs only BFS), each
/// engine's scratch flushed to disk before the next engine starts.
void DirectCell(const Context& ctx, const Loaded& loaded,
                const std::vector<Cell>& cells, size_t i, bool* corrupt,
                RoundRecord* rec) {
  std::vector<std::string> engines = kPlatforms;
  engines.push_back(kColumnstore);
  for (const std::string& e : engines) {
    if (e == kColumnstore && cells[i].kind != AlgorithmKind::kBfs) continue;
    double spent = 0.0;
    do {
      spent += e == kColumnstore
                   ? ColumnstoreCell(loaded, cells, i, rec)
                   : PlatformCell(loaded, e, cells, i, corrupt, rec);
    } while (!rec->traced && spent < kMinVisitSeconds);
    FlushToDisk(ctx.work);
  }
}

/// Cell `i` through RunBenchmark at jobs = 1 (one dataset, one algorithm)
/// on every harness platform in turn, each platform's scratch removed and
/// flushed before the next call. `tracer` and `registry` are set in traced
/// rounds only.
void HarnessCell(const Context& ctx, const Loaded& loaded,
                 const std::vector<Cell>& cells, size_t i,
                 gly::trace::Tracer* tracer, gly::metrics::Registry* registry,
                 RoundRecord* rec) {
  gly::harness::DatasetSpec dataset;
  dataset.name = "g";
  dataset.graph = &loaded.graph;
  dataset.params.bfs.source = cells[i].source;
  dataset.params.pr.iterations = kPrIterations;
  for (const std::string& p : kPlatforms) {
    gly::harness::RunSpec spec;
    spec.platforms = {p};
    spec.platform_config = ctx.config;
    spec.datasets = {dataset};
    spec.algorithms = {cells[i].kind};
    spec.monitor = false;
    if (tracer != nullptr) {
      spec.trace_dir = ctx.work + "/trace";
      spec.tracer = tracer;
      spec.metrics = registry;
    }
    const std::string scratch = UseScratch(ctx, "harness-" + p);
    double spent = 0.0;
    do {
      double call_s = 0.0;
      auto results = Timed("bench.run_benchmark", &call_s,
                           [&] { return gly::harness::RunBenchmark(spec); });
      rec->samples["harness/" + p + "/" + std::to_string(i)].push_back(call_s);
      spent += call_s;
      ++rec->cells;
      // The call's one cell must come back, run and validated.
      const bool validated = results.ok() && results->size() == 1 &&
                             results->front().status.ok() &&
                             results->front().validation.ok();
      if (!results.ok()) {
        std::fprintf(stderr, "RunBenchmark(%s): %s\n", p.c_str(),
                     results.status().ToString().c_str());
      } else if (!validated) {
        for (const auto& r : *results) {
          std::fprintf(stderr, "RunBenchmark %s/%s: %s / %s\n", p.c_str(),
                       gly::AlgorithmKindName(r.algorithm).c_str(),
                       r.status.ToString().c_str(),
                       r.validation.ToString().c_str());
        }
      }
      if (!validated) ++rec->failed;
      std::error_code ec;
      fs::remove_all(scratch, ec);
      fs::remove_all(ctx.work + "/trace", ec);
      FlushToDisk(ctx.work);
    } while (tracer == nullptr && spent < kMinVisitSeconds);
  }
}

// ------------------------------------------------------------------ main

struct Args {
  std::string mode, workload, size = "full", dir, out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_one = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_matrix generate|run --workload W --seed N "
               "--dir D [--size full|tiny] [--seconds S --trace 0|1 --out F "
               "--corrupt-one]\n");
  return 2;
}

int Run(const Args& args) {
  auto w = FindWorkload(args.workload, args.size == "tiny");
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    return 2;
  }
  if (args.mode == "generate") {
    Status s = Generate(*w, args.seed, args.dir);
    if (!s.ok()) std::fprintf(stderr, "generate: %s\n", s.ToString().c_str());
    return s.ok() ? 0 : 1;
  }
  auto fp = CheckInput(args.dir);
  if (!fp.ok()) {
    std::fprintf(stderr, "input: %s\n", fp.status().ToString().c_str());
    return 1;
  }
  Context ctx;
  ctx.w = *w;
  ctx.nproc = Nproc();
  ctx.work = fs::absolute(args.dir).string();
  ctx.input = ctx.work + "/input.e";
  for (const std::string& p : kPlatforms) {
    ctx.config.SetInt(p + ".threads", kEngineThreads);
    ctx.config.SetInt(p + ".workers", ctx.nproc);
  }
  // A MapReduce worker is a thread (one per mapper and reducer).
  ctx.config.SetInt("mapreduce.workers", kEngineThreads);
  // Store size from the graphdb record layout: 16-byte node and 32-byte
  // relationship records.
  const uint64_t store_mb = (16 * fp->vertices + 32 * fp->edges) >> 20;
  const uint64_t cache_mb = ctx.w.quarter_page_cache
                                ? std::max<uint64_t>(1, store_mb / 4)
                                : store_mb + 64;
  ctx.config.SetInt("neo4j.page_cache_mb", static_cast<int64_t>(cache_mb));
  DropScratch(ctx);

  const gly::Stopwatch clock;
  std::vector<std::map<std::string, double>> setups;
  std::vector<std::map<std::string, double>> setup_spans;
  std::unique_ptr<Loaded> loaded;
  double table_bytes = 0, table_rows = 0;
  // Setup repeats until it has run kMinSetups times and for kMinSetupSeconds;
  // the median is reported.
  double setup_spent = 0.0;
  while (setups.size() < kMinSetups || setup_spent < kMinSetupSeconds) {
    loaded.reset();
    DropScratch(ctx);
    std::map<std::string, double> phases;
    gly::trace::Tracer tracer;
    std::optional<gly::trace::ScopedTracer> scope;
    if (args.trace) scope.emplace(&tracer);
    gly::Stopwatch watch;
    auto result = Setup(ctx, &phases);
    phases["setup_s"] = watch.ElapsedSeconds();
    setup_spent += phases["setup_s"];
    scope.reset();
    if (!result.ok()) {
      std::fprintf(stderr, "setup: %s\n", result.status().ToString().c_str());
      return 1;
    }
    loaded = std::move(*result);
    setups.push_back(phases);
    if (args.trace) setup_spans.push_back(SpanTotals(tracer));
    table_bytes = static_cast<double>(loaded->table->compressed_bytes());
    table_rows = static_cast<double>(loaded->table->num_rows());
  }

  auto sources = DrawSources(loaded->graph, ctx.w.bfs_sources, args.seed);
  if (!sources.ok()) {
    std::fprintf(stderr, "sources: %s\n", sources.status().ToString().c_str());
    return 1;
  }
  std::vector<Cell> cells;
  for (AlgorithmKind kind : ctx.w.algorithms) {
    if (kind != AlgorithmKind::kBfs) {
      cells.push_back({kind, 0, 0});
      continue;
    }
    for (VertexId s : *sources) {
      gly::BfsParams bfs;
      bfs.source = s;
      uint64_t reached = 0;
      for (int64_t level : gly::ref::Bfs(loaded->graph, bfs).vertex_values) {
        reached += level != gly::kUnreachable && level > 0;
      }
      cells.push_back({kind, s, reached});
    }
  }

  // Rounds: a closed loop with one client, at least two, until another
  // round would end past --seconds since setup began; with tracing,
  // untraced and traced rounds alternate.
  const size_t min_rounds = 2;
  bool corrupt = args.corrupt_one;
  std::vector<RoundRecord> rounds;
  double rounds_s = 0.0;
  while (rounds.size() < min_rounds ||
         clock.ElapsedSeconds() + rounds_s / rounds.size() < args.seconds) {
    RoundRecord rec;
    rec.traced = args.trace && rounds.size() % 2 == 1;
    gly::trace::Tracer direct_tracer, harness_tracer;
    gly::metrics::Registry registry, harness_registry;
    gly::Stopwatch watch;
    for (size_t i = 0; i < cells.size(); ++i) {
      {
        std::optional<gly::trace::ScopedTracer> scope;
        std::optional<gly::metrics::ScopedRegistry> metrics_scope;
        if (rec.traced) {
          scope.emplace(&direct_tracer);
          metrics_scope.emplace(&registry);
        }
        DirectCell(ctx, *loaded, cells, i, &corrupt, &rec);
      }
      std::optional<gly::trace::ScopedTracer> scope;
      if (rec.traced) scope.emplace(&harness_tracer);
      HarnessCell(ctx, *loaded, cells, i,
                  rec.traced ? &harness_tracer : nullptr, &harness_registry,
                  &rec);
    }
    rec.wall_s = watch.ElapsedSeconds();
    rounds_s += rec.wall_s;
    if (rec.traced) {
      rec.spans = SpanTotals(direct_tracer);
      rec.registry = RegistryValues(registry);
      rec.harness_spans = SpanTotals(harness_tracer);
    }
    rounds.push_back(std::move(rec));
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const std::string graph_json = gly::StringPrintf(
      "{\"vertices\":%u,\"edges\":%llu}", loaded->graph.num_vertices(),
      static_cast<unsigned long long>(loaded->graph.num_edges()));
  loaded.reset();
  DropScratch(ctx);

  std::ostringstream out;
  out << "{\"workload\":\"" << ctx.w.name << "\",\"seed\":" << args.seed
      << ",\"size\":\"" << args.size << "\",\"trace\":" << args.trace
      << ",\"nproc\":" << ctx.nproc << ",\"compiler\":\""
      << gly::JsonEscape(GLY_BENCH_COMPILER) << "\",\"build_type\":\""
      << GLY_BENCH_BUILD_TYPE << "\",\"input\":"
      << FingerprintJson(ctx.w.name + "/input.e", *fp)
      << ",\"graph\":" << graph_json << ",\"bfs_sources\":[";
  for (size_t i = 0; i < sources->size(); ++i) {
    out << (i ? "," : "") << (*sources)[i];
  }
  out << "],\"peak_rss_mb\":" << Num(usage.ru_maxrss / 1024.0)
      << ",\"columnstore_table\":{\"bytes\":" << Num(table_bytes)
      << ",\"rows\":" << Num(table_rows) << "},\"setup\":[";
  for (size_t i = 0; i < setups.size(); ++i) {
    out << (i ? "," : "") << "{\"phases\":" << JsonMap(setups[i])
        << ",\"spans\":"
        << JsonMap(args.trace ? setup_spans[i]
                              : std::map<std::string, double>{})
        << "}";
  }
  out << "],\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundRecord& r = rounds[i];
    out << (i ? "," : "") << "{\"traced\":" << (r.traced ? "true" : "false")
        << ",\"wall_s\":" << Num(r.wall_s)
        << ",\"cells\":" << r.cells << ",\"failed\":" << r.failed
        << ",\"samples\":" << JsonSamples(r.samples)
        << ",\"counters\":" << JsonMap(r.counters)
        << ",\"spans\":" << JsonMap(r.spans)
        << ",\"registry\":" << JsonMap(r.registry)
        << ",\"harness_spans\":" << JsonMap(r.harness_spans) << "}";
  }
  out << "]}\n";
  std::ofstream file(args.out);
  file << out.str();
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed malloc thresholds: every block comes from the heap and freed memory
  // stays mapped. By default glibc raises its mmap threshold as large blocks
  // are freed, so whether a buffer was mapped and faulted in afresh on every
  // call depended on what the process had freed before: the same giraph BFS
  // cells on one ingest-large input took 0.12 s in one process and 0.20 s
  // in the next.
  mallopt(M_MMAP_THRESHOLD, INT_MAX);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  Args args;
  if (argc < 2) return Usage();
  args.mode = argv[1];
  if (args.mode != "generate" && args.mode != "run") return Usage();
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-one") {
      args.corrupt_one = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      auto seed = gly::ParseUint64(value);
      if (!seed.ok()) return Usage();
      args.seed = *seed;
    } else if (flag == "--size") {
      args.size = value;
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--seconds") {
      auto seconds = gly::ParseDouble(value);
      if (!seconds.ok() || *seconds < 0) return Usage();
      args.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return Usage();
    }
  }
  if (args.dir.empty() || (args.mode == "run" && args.out.empty()) ||
      (args.size != "full" && args.size != "tiny")) {
    return Usage();
  }
  return Run(args);
}
