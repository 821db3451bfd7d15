#include "mapreduce/graph_jobs.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "graph/io.h"

namespace gly::mapreduce {

namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------ record codec
//
// Two record flavors share the (key = vertex id) keyspace:
//   'G' — graph record: vertex state + adjacency
//   'M' — message record: (i64, double) payload
// Decoding reads fixed fields by value and leaves the adjacency in place in
// the record bytes, so neither side builds a heap container per record.
constexpr char kGraphTag = 'G';
constexpr char kMessageTag = 'M';

// A graph record; `adjacency` holds `degree` u32 vertex ids (little-endian,
// as ValueWriter writes them) and views either the decoded record's bytes
// or a caller's id array.
struct GraphRecord {
  int64_t state = 0;
  double aux = 0.0;
  uint8_t changed = 0;
  uint32_t degree = 0;
  std::string_view adjacency;

  VertexId Neighbor(uint32_t i) const {
    VertexId v;
    std::memcpy(&v, adjacency.data() + size_t{i} * sizeof(VertexId),
                sizeof(v));
    return v;
  }
};

// Encodes `rec` into `*out` (cleared first) and returns a view of it.
std::string_view EncodeGraphRecord(const GraphRecord& rec, std::string* out) {
  out->clear();
  out->push_back(kGraphTag);
  ValueWriter w(out);
  w.PutI64(rec.state);
  w.PutDouble(rec.aux);
  w.PutU32(rec.changed);
  w.PutU32(rec.degree);
  w.PutRaw(rec.adjacency.data(), rec.adjacency.size());
  return *out;
}

Result<GraphRecord> DecodeGraphRecord(std::string_view value) {
  if (value.empty() || value[0] != kGraphTag) {
    return Status::InvalidArgument("not a graph record");
  }
  ValueReader br(value.substr(1));
  GraphRecord rec;
  GLY_ASSIGN_OR_RETURN(rec.state, br.GetI64());
  GLY_ASSIGN_OR_RETURN(rec.aux, br.GetDouble());
  GLY_ASSIGN_OR_RETURN(uint32_t changed, br.GetU32());
  rec.changed = static_cast<uint8_t>(changed);
  GLY_ASSIGN_OR_RETURN(rec.degree, br.GetU32());
  GLY_ASSIGN_OR_RETURN(rec.adjacency,
                       br.GetRaw(size_t{rec.degree} * sizeof(VertexId)));
  return rec;
}

// A message record's 17 bytes, encoded on the stack.
class MessageBytes {
 public:
  explicit MessageBytes(int64_t payload, double aux = 0.0) {
    bytes_[0] = kMessageTag;
    std::memcpy(bytes_ + 1, &payload, sizeof(payload));
    std::memcpy(bytes_ + 1 + sizeof(payload), &aux, sizeof(aux));
  }
  std::string_view view() const { return {bytes_, sizeof(bytes_)}; }

 private:
  char bytes_[1 + sizeof(int64_t) + sizeof(double)];
};

struct Message {
  int64_t payload = 0;
  double aux = 0.0;
};

Result<Message> DecodeMessage(std::string_view value) {
  if (value.empty() || value[0] != kMessageTag) {
    return Status::InvalidArgument("not a message record");
  }
  ValueReader br(value.substr(1));
  Message m;
  GLY_ASSIGN_OR_RETURN(m.payload, br.GetI64());
  GLY_ASSIGN_OR_RETURN(m.aux, br.GetDouble());
  return m;
}

bool IsGraphValue(std::string_view v) {
  return !v.empty() && v[0] == kGraphTag;
}

// Calls `fn(key, value)` for every record of `paths`, in order; the value
// views the reader's buffer. Stops at the first error.
template <typename Fn>
Status ForEachRecord(const std::vector<std::string>& paths, Fn&& fn) {
  for (const std::string& path : paths) {
    GLY_ASSIGN_OR_RETURN(RecordFileReader reader,
                         RecordFileReader::Open(path));
    uint64_t key = 0;
    std::string_view value;
    for (;;) {
      GLY_ASSIGN_OR_RETURN(bool more, reader.Next(&key, &value));
      if (!more) break;
      GLY_RETURN_NOT_OK(fn(key, value));
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------- driver util

// Writes initial graph state split across `parts` record files.
// `propagation_adjacency` folds in-neighbors into the record for directed
// graphs (needed by CONN's undirected connectivity semantics).
Result<std::vector<std::string>> WriteInitialState(
    const Graph& graph, const PlatformConfig& config,
    const std::function<GraphRecord(VertexId)>& init, bool union_adjacency) {
  const uint32_t parts = std::max(1u, config.job.num_mappers);
  std::vector<std::string> paths;
  std::vector<RecordFileWriter> writers;
  for (uint32_t p = 0; p < parts; ++p) {
    std::string path =
        config.work_dir + StringPrintf("/state-init/part-%05u", p);
    fs::create_directories(fs::path(path).parent_path());
    GLY_ASSIGN_OR_RETURN(RecordFileWriter w, RecordFileWriter::Open(path));
    writers.push_back(std::move(w));
    paths.push_back(path);
  }
  std::vector<VertexId> adjacency;
  std::string encoded;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    GraphRecord rec = init(v);
    auto out_nbrs = graph.OutNeighbors(v);
    adjacency.assign(out_nbrs.begin(), out_nbrs.end());
    if (union_adjacency && !graph.undirected()) {
      auto in_nbrs = graph.InNeighbors(v);
      adjacency.insert(adjacency.end(), in_nbrs.begin(), in_nbrs.end());
      std::sort(adjacency.begin(), adjacency.end());
      adjacency.erase(std::unique(adjacency.begin(), adjacency.end()),
                      adjacency.end());
    }
    rec.degree = static_cast<uint32_t>(adjacency.size());
    rec.adjacency =
        std::string_view(reinterpret_cast<const char*>(adjacency.data()),
                         adjacency.size() * sizeof(VertexId));
    GLY_RETURN_NOT_OK(
        writers[v % parts].Append(v, EncodeGraphRecord(rec, &encoded)));
  }
  for (auto& w : writers) {
    GLY_RETURN_NOT_OK(w.Close());
  }
  return paths;
}

// Reads the graph records of the final state parts; calls
// `fn(vertex, record)` for each one of a vertex below `num_vertices`.
template <typename Fn>
Status ForEachFinalVertex(const std::vector<std::string>& paths,
                          VertexId num_vertices, Fn&& fn) {
  return ForEachRecord(
      paths, [&](uint64_t key, std::string_view value) -> Status {
        if (!IsGraphValue(value)) return Status::OK();
        GLY_ASSIGN_OR_RETURN(GraphRecord rec, DecodeGraphRecord(value));
        if (key < num_vertices) fn(static_cast<VertexId>(key), rec);
        return Status::OK();
      });
}

// Reads final state part files into a per-vertex state vector.
Result<std::vector<int64_t>> ReadFinalState(
    const std::vector<std::string>& paths, VertexId num_vertices) {
  std::vector<int64_t> values(num_vertices, 0);
  GLY_RETURN_NOT_OK(ForEachFinalVertex(
      paths, num_vertices,
      [&](VertexId v, const GraphRecord& rec) { values[v] = rec.state; }));
  return values;
}

void AccumulateStats(const JobStats& job, ChainStats* chain) {
  ++chain->jobs_run;
  chain->total_spill_bytes += job.spill_bytes;
  chain->total_shuffle_bytes += job.shuffle_bytes;
  chain->total_output_bytes += job.output_bytes;
  chain->total_input_records += job.input_records;
  if (job.map_stage_recovered) ++chain->map_stages_recovered;
}

// Emits one message to every neighbor of `rec` and counts the edges.
void EmitToNeighbors(const GraphRecord& rec, std::string_view message,
                     Emitter* out, Counters* counters) {
  for (uint32_t i = 0; i < rec.degree; ++i) {
    out->Emit(rec.Neighbor(i), message);
  }
  counters->Increment("traversed", rec.degree);
}

// Shared reduce step of the message-passing kernels: finds the group's
// graph record, hands every decoded message to `on_message`, and returns
// false when the group has no graph record (a message to a vertex with
// no record).
template <typename OnMessage>
bool JoinGroup(const std::vector<std::string_view>& values, GraphRecord* rec,
               OnMessage&& on_message) {
  bool have_graph = false;
  for (std::string_view v : values) {
    if (IsGraphValue(v)) {
      auto g = DecodeGraphRecord(v);
      if (g.ok()) {
        *rec = *g;
        have_graph = true;
      }
    } else {
      auto m = DecodeMessage(v);
      if (m.ok()) on_message(*m);
    }
  }
  return have_graph;
}

// ------------------------------------------------------- BFS mapper/reducer

// Map: pass the graph record through; vertices discovered in the previous
// iteration (state == iteration-1) send dist+1 to neighbors.
class BfsMapper : public Mapper {
 public:
  explicit BfsMapper(int64_t frontier_level) : frontier_(frontier_level) {}

  void Map(uint64_t key, std::string_view value, Emitter* out,
           Counters* counters) override {
    out->Emit(key, value);
    if (!IsGraphValue(value)) return;
    auto rec = DecodeGraphRecord(value);
    if (!rec.ok()) return;
    if (rec->state == frontier_) {
      EmitToNeighbors(*rec, MessageBytes(rec->state + 1).view(), out,
                      counters);
    }
  }

 private:
  int64_t frontier_;
};

class BfsReducer : public Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              Emitter* out, Counters* counters) override {
    GraphRecord rec;
    int64_t best = kUnreachable;
    if (!JoinGroup(values, &rec, [&](const Message& m) {
          best = std::min(best, m.payload);
        })) {
      return;
    }
    if (best < rec.state) {
      rec.state = best;
      counters->Increment("updated");
    }
    out->Emit(key, EncodeGraphRecord(rec, &encoded_));
  }

 private:
  std::string encoded_;
};

// A min-combiner for BFS/CONN messages: keeps the graph record and the
// minimum message payload.
class MinMessageCombiner : public Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              Emitter* out, Counters*) override {
    int64_t best = kUnreachable;
    bool have_message = false;
    for (std::string_view v : values) {
      if (IsGraphValue(v)) {
        out->Emit(key, v);
      } else {
        auto m = DecodeMessage(v);
        if (m.ok()) {
          best = std::min(best, m->payload);
          have_message = true;
        }
      }
    }
    if (have_message) out->Emit(key, MessageBytes(best).view());
  }
};

// ------------------------------------------------------ CONN mapper/reducer

class ConnMapper : public Mapper {
 public:
  void Map(uint64_t key, std::string_view value, Emitter* out,
           Counters* counters) override {
    out->Emit(key, value);
    if (!IsGraphValue(value)) return;
    auto rec = DecodeGraphRecord(value);
    if (!rec.ok()) return;
    if (rec->changed) {
      EmitToNeighbors(*rec, MessageBytes(rec->state).view(), out, counters);
    }
  }
};

class ConnReducer : public Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              Emitter* out, Counters* counters) override {
    GraphRecord rec;
    int64_t best = std::numeric_limits<int64_t>::max();
    if (!JoinGroup(values, &rec, [&](const Message& m) {
          best = std::min(best, m.payload);
        })) {
      return;
    }
    if (best < rec.state) {
      rec.state = best;
      rec.changed = 1;
      counters->Increment("updated");
    } else {
      rec.changed = 0;
    }
    out->Emit(key, EncodeGraphRecord(rec, &encoded_));
  }

 private:
  std::string encoded_;
};

// -------------------------------------------------------- CD mapper/reducer

class CdMapper : public Mapper {
 public:
  void Map(uint64_t key, std::string_view value, Emitter* out,
           Counters* counters) override {
    out->Emit(key, value);
    if (!IsGraphValue(value)) return;
    auto rec = DecodeGraphRecord(value);
    if (!rec.ok()) return;
    EmitToNeighbors(*rec, MessageBytes(rec->state, rec->aux).view(), out,
                    counters);
  }
};

class CdReducer : public Reducer {
 public:
  explicit CdReducer(double hop_attenuation) : hop_(hop_attenuation) {}

  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              Emitter* out, Counters*) override {
    GraphRecord rec;
    incoming_.clear();
    if (!JoinGroup(values, &rec, [&](const Message& m) {
          incoming_.push_back(LabelScore{m.payload, m.aux});
        })) {
      return;
    }
    if (!incoming_.empty()) {
      LabelScore adopted = CdAdoptLabel(incoming_, hop_);
      rec.state = adopted.label;
      rec.aux = adopted.score;
    }
    out->Emit(key, EncodeGraphRecord(rec, &encoded_));
  }

 private:
  double hop_;
  std::vector<LabelScore> incoming_;
  std::string encoded_;
};

// -------------------------------------------------------- PR mapper/reducer
//
// Rank rides in the graph record's aux field; messages carry
// rank/out_degree contributions.

class PrMapper : public Mapper {
 public:
  void Map(uint64_t key, std::string_view value, Emitter* out,
           Counters* counters) override {
    out->Emit(key, value);
    if (!IsGraphValue(value)) return;
    auto rec = DecodeGraphRecord(value);
    if (!rec.ok() || rec->degree == 0) return;
    double contribution = rec->aux / static_cast<double>(rec->degree);
    EmitToNeighbors(*rec, MessageBytes(0, contribution).view(), out,
                    counters);
  }
};

class PrReducer : public Reducer {
 public:
  PrReducer(double base, double damping) : base_(base), damping_(damping) {}

  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              Emitter* out, Counters*) override {
    GraphRecord rec;
    double sum = 0.0;
    if (!JoinGroup(values, &rec, [&](const Message& m) { sum += m.aux; })) {
      return;
    }
    rec.aux = base_ + damping_ * sum;
    out->Emit(key, EncodeGraphRecord(rec, &encoded_));
  }

 private:
  double base_;
  double damping_;
  std::string encoded_;
};

// Sum-combiner for PR contributions.
class PrCombiner : public Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              Emitter* out, Counters*) override {
    double sum = 0.0;
    bool have_message = false;
    for (std::string_view v : values) {
      if (IsGraphValue(v)) {
        out->Emit(key, v);
      } else {
        auto m = DecodeMessage(v);
        if (m.ok()) {
          sum += m->aux;
          have_message = true;
        }
      }
    }
    if (have_message) out->Emit(key, MessageBytes(0, sum).view());
  }
};

// ----------------------------------------------------- STATS mapper/reducer
//
// Job 1: exchange adjacency lists and compute the local clustering
// coefficient per vertex (stored in aux). Neighbor lists are encoded as a
// 'M' message whose payload abuses (i64 = count) followed by raw ids in a
// separate encoding — for simplicity the list rides in the value after the
// standard message header.

// Decodes a list message into a record whose adjacency views its ids.
Result<GraphRecord> DecodeListMessage(std::string_view value) {
  if (value.empty()) return Status::InvalidArgument("empty list message");
  ValueReader br(value.substr(1));
  GLY_ASSIGN_OR_RETURN(int64_t n, br.GetI64());
  GLY_ASSIGN_OR_RETURN(double unused, br.GetDouble());
  (void)unused;
  if (n < 0 || static_cast<uint64_t>(n) > br.remaining() / sizeof(VertexId)) {
    return Status::InvalidArgument("list message truncated");
  }
  GraphRecord list;
  list.degree = static_cast<uint32_t>(n);
  GLY_ASSIGN_OR_RETURN(list.adjacency,
                       br.GetRaw(size_t{list.degree} * sizeof(VertexId)));
  return list;
}

class LccMapper : public Mapper {
 public:
  void Map(uint64_t key, std::string_view value, Emitter* out,
           Counters* counters) override {
    out->Emit(key, value);
    if (!IsGraphValue(value)) return;
    auto rec = DecodeGraphRecord(value);
    if (!rec.ok()) return;
    if (rec->degree >= 2) {
      message_.assign(1, kMessageTag);
      ValueWriter w(&message_);
      w.PutI64(static_cast<int64_t>(rec->degree));
      w.PutDouble(0.0);
      w.PutRaw(rec->adjacency.data(), rec->adjacency.size());
      EmitToNeighbors(*rec, message_, out, counters);
    }
  }

 private:
  std::string message_;
};

class LccReducer : public Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              Emitter* out, Counters*) override {
    GraphRecord rec;
    bool have_graph = false;
    lists_.clear();
    for (std::string_view v : values) {
      if (IsGraphValue(v)) {
        auto g = DecodeGraphRecord(v);
        if (g.ok()) {
          rec = *g;
          have_graph = true;
        }
      } else {
        auto l = DecodeListMessage(v);
        if (l.ok()) lists_.push_back(*l);
      }
    }
    if (!have_graph) return;
    uint64_t deg = rec.degree;
    if (deg >= 2) {
      uint64_t links = 0;
      for (const GraphRecord& their : lists_) {
        uint32_t a = 0;
        uint32_t b = 0;
        while (a < their.degree && b < rec.degree) {
          const VertexId x = their.Neighbor(a);
          const VertexId y = rec.Neighbor(b);
          if (x < y) {
            ++a;
          } else if (x > y) {
            ++b;
          } else {
            ++links;
            ++a;
            ++b;
          }
        }
      }
      rec.aux = static_cast<double>(links) /
                (static_cast<double>(deg) * static_cast<double>(deg - 1));
    }
    out->Emit(key, EncodeGraphRecord(rec, &encoded_));
  }

 private:
  std::vector<GraphRecord> lists_;
  std::string encoded_;
};

// Job 2: aggregate the mean LCC under a single key.
class LccAggregateMapper : public Mapper {
 public:
  void Map(uint64_t, std::string_view value, Emitter* out,
           Counters*) override {
    if (!IsGraphValue(value)) return;
    auto rec = DecodeGraphRecord(value);
    if (!rec.ok()) return;
    out->Emit(0, MessageBytes(1, rec->aux).view());
  }
};

class LccAggregateReducer : public Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              Emitter* out, Counters*) override {
    double sum = 0.0;
    int64_t count = 0;
    for (std::string_view v : values) {
      auto m = DecodeMessage(v);
      if (m.ok()) {
        sum += m->aux;
        count += m->payload;
      }
    }
    out->Emit(key, MessageBytes(count, sum).view());
  }
};

// ------------------------------------------------------- EVO mapper/reducer
//
// Fire records (key = fire index); the graph rides in the distributed
// cache (a binary edge file every mapper loads once).

class EvoMapper : public Mapper {
 public:
  EvoMapper(std::shared_ptr<const Graph> graph, EvoParams params)
      : graph_(std::move(graph)), params_(params) {}

  void Map(uint64_t key, std::string_view, Emitter* out,
           Counters* counters) override {
    uint32_t fire = static_cast<uint32_t>(key);
    VertexId ambassador = ForestFireAmbassador(*graph_, params_, fire);
    std::vector<VertexId> burned =
        ForestFireBurn(*graph_, ambassador, params_, fire);
    VertexId new_vertex = graph_->num_vertices() + fire;
    for (VertexId b : burned) {
      out->Emit(new_vertex, MessageBytes(static_cast<int64_t>(b)).view());
    }
    counters->Increment("traversed", burned.size());
  }

 private:
  std::shared_ptr<const Graph> graph_;
  EvoParams params_;
};

class EvoReducer : public Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string_view>& values,
              Emitter* out, Counters*) override {
    for (std::string_view v : values) out->Emit(key, v);
  }
};

// ----------------------------------------------------------------- drivers

struct Driver {
  const PlatformConfig& config;
  const Graph& graph;
  ThreadPool pool;
  Counters counters;
  ChainStats chain;
  uint64_t traversed_total = 0;

  explicit Driver(const PlatformConfig& cfg, const Graph& g)
      : config(cfg), graph(g), pool(std::max(1u, cfg.job.num_mappers)) {}

  Result<std::vector<std::string>> RunJob(
      const std::vector<std::string>& inputs, const std::string& out_dir,
      MapperFactory mf, ReducerFactory rf, ReducerFactory cf = nullptr) {
    // Chained iterative algorithms stop between jobs: the job itself also
    // polls between splits/groups, so a cancelled chain unwinds within one
    // task's worth of work.
    GLY_RETURN_NOT_OK(CheckCancel(config.job.cancel));
    Job job(config.job, std::move(mf), std::move(rf), std::move(cf));
    JobStats stats;
    Stopwatch watch;
    GLY_ASSIGN_OR_RETURN(
        auto outputs, job.Run(inputs, out_dir, &pool, &counters, &stats));
    chain.total_seconds += watch.ElapsedSeconds();
    AccumulateStats(stats, &chain);
    if (config.job.cancel != nullptr) config.job.cancel->Heartbeat();
    return outputs;
  }
};

Result<AlgorithmOutput> RunBfsChain(Driver& driver, const BfsParams& params) {
  const Graph& graph = driver.graph;
  GLY_ASSIGN_OR_RETURN(
      std::vector<std::string> state,
      WriteInitialState(
          graph, driver.config,
          [&params](VertexId v) {
            GraphRecord rec;
            rec.state = (v == params.source) ? 0 : kUnreachable;
            return rec;
          },
          /*union_adjacency=*/false));

  for (uint32_t iter = 1; iter <= driver.config.max_iterations; ++iter) {
    driver.traversed_total += driver.counters.Get("traversed");
    driver.counters.Reset();
    int64_t frontier = static_cast<int64_t>(iter) - 1;
    GLY_ASSIGN_OR_RETURN(
        state,
        driver.RunJob(
            state, driver.config.work_dir + "/iter-" + std::to_string(iter),
            [frontier] { return std::make_unique<BfsMapper>(frontier); },
            [] { return std::make_unique<BfsReducer>(); },
            [] { return std::make_unique<MinMessageCombiner>(); }));
    if (driver.counters.Get("updated") == 0) break;
  }

  AlgorithmOutput out;
  GLY_ASSIGN_OR_RETURN(out.vertex_values,
                       ReadFinalState(state, graph.num_vertices()));
  return out;
}

Result<AlgorithmOutput> RunConnChain(Driver& driver) {
  const Graph& graph = driver.graph;
  GLY_ASSIGN_OR_RETURN(
      std::vector<std::string> state,
      WriteInitialState(
          graph, driver.config,
          [](VertexId v) {
            GraphRecord rec;
            rec.state = static_cast<int64_t>(v);
            rec.changed = 1;
            return rec;
          },
          /*union_adjacency=*/true));

  for (uint32_t iter = 1; iter <= driver.config.max_iterations; ++iter) {
    driver.traversed_total += driver.counters.Get("traversed");
    driver.counters.Reset();
    GLY_ASSIGN_OR_RETURN(
        state,
        driver.RunJob(
            state, driver.config.work_dir + "/iter-" + std::to_string(iter),
            [] { return std::make_unique<ConnMapper>(); },
            [] { return std::make_unique<ConnReducer>(); },
            [] { return std::make_unique<MinMessageCombiner>(); }));
    if (driver.counters.Get("updated") == 0) break;
  }

  AlgorithmOutput out;
  GLY_ASSIGN_OR_RETURN(out.vertex_values,
                       ReadFinalState(state, graph.num_vertices()));
  return out;
}

Result<AlgorithmOutput> RunCdChain(Driver& driver, const CdParams& params) {
  const Graph& graph = driver.graph;
  GLY_ASSIGN_OR_RETURN(
      std::vector<std::string> state,
      WriteInitialState(
          graph, driver.config,
          [](VertexId v) {
            GraphRecord rec;
            rec.state = static_cast<int64_t>(v);
            rec.aux = 1.0;
            return rec;
          },
          /*union_adjacency=*/false));

  for (uint32_t iter = 1; iter <= params.max_iterations; ++iter) {
    double hop = params.hop_attenuation;
    GLY_ASSIGN_OR_RETURN(
        state,
        driver.RunJob(
            state, driver.config.work_dir + "/iter-" + std::to_string(iter),
            [] { return std::make_unique<CdMapper>(); },
            [hop] { return std::make_unique<CdReducer>(hop); }));
  }

  AlgorithmOutput out;
  GLY_ASSIGN_OR_RETURN(out.vertex_values,
                       ReadFinalState(state, graph.num_vertices()));
  return out;
}

Result<AlgorithmOutput> RunPrChain(Driver& driver, const PrParams& params) {
  const Graph& graph = driver.graph;
  const double n = static_cast<double>(graph.num_vertices());
  GLY_ASSIGN_OR_RETURN(
      std::vector<std::string> state,
      WriteInitialState(
          graph, driver.config,
          [n](VertexId) {
            GraphRecord rec;
            rec.aux = 1.0 / n;
            return rec;
          },
          /*union_adjacency=*/false));

  const double base = (1.0 - params.damping) / n;
  const double damping = params.damping;
  for (uint32_t iter = 1; iter <= params.iterations; ++iter) {
    GLY_ASSIGN_OR_RETURN(
        state,
        driver.RunJob(
            state, driver.config.work_dir + "/iter-" + std::to_string(iter),
            [] { return std::make_unique<PrMapper>(); },
            [base, damping] {
              return std::make_unique<PrReducer>(base, damping);
            },
            [] { return std::make_unique<PrCombiner>(); }));
  }

  AlgorithmOutput out;
  out.vertex_scores.assign(graph.num_vertices(), 0.0);
  GLY_RETURN_NOT_OK(ForEachFinalVertex(
      state, graph.num_vertices(), [&](VertexId v, const GraphRecord& rec) {
        out.vertex_scores[v] = rec.aux;
      }));
  return out;
}

Result<AlgorithmOutput> RunStatsChain(Driver& driver) {
  const Graph& graph = driver.graph;
  GLY_ASSIGN_OR_RETURN(std::vector<std::string> state,
                       WriteInitialState(
                           graph, driver.config,
                           [](VertexId) { return GraphRecord{}; },
                           /*union_adjacency=*/false));

  GLY_ASSIGN_OR_RETURN(
      state, driver.RunJob(state, driver.config.work_dir + "/lcc",
                           [] { return std::make_unique<LccMapper>(); },
                           [] { return std::make_unique<LccReducer>(); }));
  GLY_ASSIGN_OR_RETURN(
      auto agg,
      driver.RunJob(state, driver.config.work_dir + "/lcc-agg",
                    [] { return std::make_unique<LccAggregateMapper>(); },
                    [] { return std::make_unique<LccAggregateReducer>(); },
                    [] { return std::make_unique<LccAggregateReducer>(); }));

  AlgorithmOutput out;
  out.stats.num_vertices = graph.num_vertices();
  out.stats.num_edges = graph.num_edges();
  double sum = 0.0;
  int64_t count = 0;
  GLY_RETURN_NOT_OK(
      ForEachRecord(agg, [&](uint64_t, std::string_view value) -> Status {
        auto m = DecodeMessage(value);
        if (m.ok()) {
          sum += m->aux;
          count += m->payload;
        }
        return Status::OK();
      }));
  out.stats.mean_local_clustering =
      count > 0 ? sum / static_cast<double>(count) : 0.0;
  return out;
}

Result<AlgorithmOutput> RunEvoChain(Driver& driver, const EvoParams& params) {
  const Graph& graph = driver.graph;
  // Fire-seed input records.
  std::vector<std::string> inputs;
  {
    const uint32_t parts = std::max(1u, driver.config.job.num_mappers);
    std::vector<RecordFileWriter> writers;
    for (uint32_t p = 0; p < parts; ++p) {
      std::string path =
          driver.config.work_dir + StringPrintf("/fires/part-%05u", p);
      fs::create_directories(fs::path(path).parent_path());
      GLY_ASSIGN_OR_RETURN(RecordFileWriter w, RecordFileWriter::Open(path));
      writers.push_back(std::move(w));
      inputs.push_back(path);
    }
    for (uint32_t f = 0; f < params.num_new_vertices; ++f) {
      GLY_RETURN_NOT_OK(writers[f % parts].Append(f, {}));
    }
    for (auto& w : writers) {
      GLY_RETURN_NOT_OK(w.Close());
    }
  }

  // Distributed cache: write the graph once, each mapper instance loads it.
  // (A single shared immutable instance stands in for the per-process copy
  // every Hadoop mapper would deserialize.)
  std::string cache_path = driver.config.work_dir + "/cache-graph.bin";
  GLY_RETURN_NOT_OK(WriteEdgeListBinary(graph.ToEdgeList(), cache_path));
  GLY_ASSIGN_OR_RETURN(EdgeList cached_edges, ReadEdgeListBinary(cache_path));
  Result<Graph> cached = graph.undirected()
                             ? GraphBuilder::Undirected(cached_edges)
                             : GraphBuilder::Directed(cached_edges);
  GLY_RETURN_NOT_OK(cached.status());
  auto shared_graph = std::make_shared<const Graph>(std::move(cached).ValueOrDie());

  EvoParams p = params;
  GLY_ASSIGN_OR_RETURN(
      auto outputs,
      driver.RunJob(inputs, driver.config.work_dir + "/evo-out",
                    [shared_graph, p] {
                      return std::make_unique<EvoMapper>(shared_graph, p);
                    },
                    [] { return std::make_unique<EvoReducer>(); }));

  AlgorithmOutput out;
  GLY_RETURN_NOT_OK(ForEachRecord(
      outputs, [&](uint64_t key, std::string_view value) -> Status {
        auto m = DecodeMessage(value);
        if (m.ok()) {
          out.new_edges.Add(static_cast<VertexId>(key),
                            static_cast<VertexId>(m->payload));
        }
        return Status::OK();
      }));
  out.new_edges.EnsureVertices(graph.num_vertices() + params.num_new_vertices);
  return out;
}

}  // namespace

Result<AlgorithmOutput> RunAlgorithm(const PlatformConfig& config,
                                     const Graph& graph, AlgorithmKind kind,
                                     const AlgorithmParams& params,
                                     ChainStats* stats_out) {
  if (config.work_dir.empty()) {
    return Status::InvalidArgument("PlatformConfig.work_dir is required");
  }
  std::error_code ec;
  fs::create_directories(config.work_dir, ec);

  // Install the harness cancellation token (if any) into the job config so
  // every chained job, map task, and reduce task observes it.
  PlatformConfig run_config = config;
  if (params.cancel != nullptr && run_config.job.cancel == nullptr) {
    run_config.job.cancel = params.cancel;
  }
  Driver driver(run_config, graph);
  Result<AlgorithmOutput> result = Status::Internal("unreached");
  switch (kind) {
    case AlgorithmKind::kBfs:
      result = RunBfsChain(driver, params.bfs);
      break;
    case AlgorithmKind::kConn:
      result = RunConnChain(driver);
      break;
    case AlgorithmKind::kCd:
      result = RunCdChain(driver, params.cd);
      break;
    case AlgorithmKind::kStats:
      result = RunStatsChain(driver);
      break;
    case AlgorithmKind::kEvo:
      result = RunEvoChain(driver, params.evo);
      break;
    case AlgorithmKind::kPr:
      result = RunPrChain(driver, params.pr);
      break;
  }
  if (!result.ok()) return result.status();
  AlgorithmOutput out = std::move(result).ValueOrDie();
  out.traversed_edges =
      driver.traversed_total + driver.counters.Get("traversed");
  if (out.traversed_edges == 0) {
    out.traversed_edges = graph.num_adjacency_entries();
  }
  if (stats_out != nullptr) *stats_out = driver.chain;

  // Remove iteration state (keeps disk usage bounded across bench sweeps).
  fs::remove_all(config.work_dir, ec);
  return out;
}

}  // namespace gly::mapreduce
