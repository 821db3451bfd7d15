#include "mapreduce/job.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <queue>
#include <thread>
#include <utility>

#include "common/checkpoint.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/perf_counters.h"
#include "common/trace.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace gly::mapreduce {

namespace fs = std::filesystem;

void Counters::Increment(const std::string& name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] += delta;
}

uint64_t Counters::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

std::map<std::string, uint64_t> Counters::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

void Counters::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  values_.clear();
}

namespace {

// Index entry of one buffered record: its key and where its value sits in
// the buffer's byte arena.
struct IndexEntry {
  uint64_t key;
  uint32_t offset;
  uint32_t len;
};

// Stable sort by key: an LSD radix sort over the key bytes that are not the
// same in every entry (vertex ids below 2^24 take three passes).
void SortByKey(std::vector<IndexEntry>* entries) {
  const size_t n = entries->size();
  if (n < 2) return;
  uint64_t differing = 0;
  const uint64_t first = (*entries)[0].key;
  for (const IndexEntry& e : *entries) differing |= e.key ^ first;
  std::vector<IndexEntry> scratch(n);
  IndexEntry* src = entries->data();
  IndexEntry* dst = scratch.data();
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((differing >> shift) & 0xFF) == 0) continue;
    size_t offsets[256] = {};
    for (size_t i = 0; i < n; ++i) ++offsets[(src[i].key >> shift) & 0xFF];
    size_t sum = 0;
    for (size_t& o : offsets) sum += std::exchange(o, sum);
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i].key >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != entries->data()) entries->swap(scratch);
}

// Emitter that appends straight to a record file (combiner and reducer
// output). For a combiner it also enforces the key contract of job.h.
class FileEmitter : public Emitter {
 public:
  explicit FileEmitter(RecordFileWriter* writer) : writer_(writer) {}

  // Restricts the following emits to `key` (the combiner's group key).
  void RequireKey(uint64_t key) {
    required_key_ = key;
    key_required_ = true;
  }

  void Emit(uint64_t key, std::string_view value) override {
    if (!status_.ok()) return;
    if (key_required_ && key != required_key_) {
      status_ = Status::InvalidArgument(StringPrintf(
          "combiner emitted key %llu in the group of key %llu",
          static_cast<unsigned long long>(key),
          static_cast<unsigned long long>(required_key_)));
      return;
    }
    status_ = writer_->Append(key, value);
    if (status_.ok()) ++records_;
  }

  const Status& status() const { return status_; }
  uint64_t records() const { return records_; }

 private:
  RecordFileWriter* writer_;
  bool key_required_ = false;
  uint64_t required_key_ = 0;
  Status status_;
  uint64_t records_ = 0;
};

// Collects map output for one (mapper, reducer) pair; sorts and spills runs.
// Values live in one byte arena; each counts 8+4+len bytes against the
// limit, the size it takes in the run file.
class SpillBuffer {
 public:
  SpillBuffer(std::string path_prefix, uint64_t limit, Reducer* combiner,
              Counters* counters)
      : path_prefix_(std::move(path_prefix)),
        limit_(limit),
        combiner_(combiner),
        counters_(counters) {}

  Status Add(uint64_t key, std::string_view value, JobStats* stats) {
    // Offsets are u32: a sort buffer over 4 GiB spills when its arena
    // would outgrow them.
    if (value.size() > std::numeric_limits<uint32_t>::max() - arena_.size()) {
      GLY_RETURN_NOT_OK(Spill(stats));
      if (value.size() > std::numeric_limits<uint32_t>::max()) {
        return Status::InvalidArgument("map output value over 4 GiB");
      }
    }
    index_.push_back(IndexEntry{key, static_cast<uint32_t>(arena_.size()),
                                static_cast<uint32_t>(value.size())});
    arena_.append(value);
    bytes_ += kRecordHeaderBytes + value.size();
    if (bytes_ >= limit_) return Spill(stats);
    return Status::OK();
  }

  Status Spill(JobStats* stats) {
    if (index_.empty()) return Status::OK();
    GLY_FAULT_POINT("mapreduce.spill.write");
    SortByKey(&index_);
    std::string path = path_prefix_ + "." + std::to_string(spill_count_++);
    GLY_ASSIGN_OR_RETURN(RecordFileWriter writer,
                         RecordFileWriter::Open(path));
    if (combiner_ != nullptr) {
      GLY_RETURN_NOT_OK(WriteCombined(&writer, stats));
    } else {
      for (const IndexEntry& e : index_) {
        GLY_RETURN_NOT_OK(writer.Append(e.key, ValueOf(e)));
      }
    }
    GLY_RETURN_NOT_OK(writer.Close());
    if (stats != nullptr) {
      stats->spill_bytes += writer.bytes_written();
      ++stats->spill_files;
    }
    run_paths_.push_back(path);
    index_.clear();
    arena_.clear();
    bytes_ = 0;
    return Status::OK();
  }

  const std::vector<std::string>& run_paths() const { return run_paths_; }

 private:
  std::string_view ValueOf(const IndexEntry& e) const {
    return std::string_view(arena_).substr(e.offset, e.len);
  }

  // Folds each sorted key group through the combiner and streams its
  // output into the run (map-side combine, as Hadoop does at spill). The
  // key contract keeps the run sorted.
  Status WriteCombined(RecordFileWriter* writer, JobStats* stats) {
    FileEmitter out(writer);
    std::vector<std::string_view> group;
    for (size_t i = 0; i < index_.size();) {
      const uint64_t key = index_[i].key;
      group.clear();
      for (; i < index_.size() && index_[i].key == key; ++i) {
        group.push_back(ValueOf(index_[i]));
      }
      out.RequireKey(key);
      combiner_->Reduce(key, group, &out, counters_);
      GLY_RETURN_NOT_OK(out.status());
    }
    if (stats != nullptr) stats->combined_records += out.records();
    return Status::OK();
  }

  std::string path_prefix_;
  uint64_t limit_;
  Reducer* combiner_;
  Counters* counters_;
  uint64_t bytes_ = 0;
  uint32_t spill_count_ = 0;
  std::string arena_;
  std::vector<IndexEntry> index_;
  std::vector<std::string> run_paths_;
};

// Emitter routing to per-reducer spill buffers by key hash.
class PartitionedEmitter : public Emitter {
 public:
  PartitionedEmitter(std::vector<SpillBuffer>* buffers, JobStats* stats)
      : buffers_(buffers), stats_(stats) {}

  void Emit(uint64_t key, std::string_view value) override {
    ++emitted_;
    // Spill failures surface when runs are collected; keep the first.
    if (!error_.ok()) return;
    uint64_t h = (key + 1) * 0x9E3779B97F4A7C15ULL;
    size_t r = static_cast<size_t>((h >> 33) % buffers_->size());
    error_ = (*buffers_)[r].Add(key, value, stats_);
  }

  const Status& error() const { return error_; }
  uint64_t emitted() const { return emitted_; }

 private:
  std::vector<SpillBuffer>* buffers_;
  JobStats* stats_;
  Status error_;
  uint64_t emitted_ = 0;
};

// One source in the k-way merge of sorted run files. `value` views the
// reader's buffer, which moves with the reader.
struct MergeSource {
  RecordFileReader reader;
  uint64_t key = 0;
  std::string_view value;
};

// ------------------------------------------- map-stage checkpoint manifest

constexpr char kMapManifestName[] = ".map-manifest.ckpt";

// Size + CRC of one input file (0/0 when unreadable).
void FileDigest(const std::string& path, uint64_t* size, uint32_t* crc) {
  *size = 0;
  *crc = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  char buf[64 << 10];
  uint32_t state = kCrc32cInit;
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    *size += static_cast<uint64_t>(in.gcount());
    state = Crc32cUpdate(state, buf, static_cast<size_t>(in.gcount()));
  }
  *crc = Crc32cFinalize(state);
}

// A manifest is only reusable by the *same* job: identical inputs (path
// AND content — state files are rewritten in place between runs, so paths
// alone would let a stale manifest masquerade as current) and identical
// partitioning. Anything else must invalidate it.
std::string ManifestFingerprint(const JobConfig& config,
                                const std::vector<std::string>& inputs) {
  std::string fp;
  CheckpointEncoder enc(&fp);
  enc.PutU32(std::max(1u, config.num_mappers));
  enc.PutU32(std::max(1u, config.num_reducers));
  enc.PutU64(config.sort_buffer_bytes);
  enc.PutU64(inputs.size());
  for (const std::string& p : inputs) {
    uint64_t size = 0;
    uint32_t crc = 0;
    FileDigest(p, &size, &crc);
    enc.PutString(p);
    enc.PutU64(size);
    enc.PutU32(crc);
  }
  return fp;
}

Status WriteMapManifest(const std::string& path, const std::string& fingerprint,
                        const std::vector<std::vector<std::string>>& runs,
                        const JobStats& stats) {
  CheckpointWriter writer;
  *writer.AddSection("fingerprint") = fingerprint;
  CheckpointEncoder run_enc(writer.AddSection("runs"));
  run_enc.PutU64(runs.size());
  for (const auto& slot : runs) {
    run_enc.PutU64(slot.size());
    for (const std::string& p : slot) run_enc.PutString(p);
  }
  CheckpointEncoder stat_enc(writer.AddSection("stats"));
  stat_enc.PutU64(stats.input_records);
  stat_enc.PutU64(stats.map_output_records);
  stat_enc.PutU64(stats.combined_records);
  stat_enc.PutU64(stats.spill_bytes);
  stat_enc.PutU32(stats.spill_files);
  stat_enc.PutDouble(stats.map_seconds);
  return writer.WriteTo(path);
}

// True when a valid same-job manifest was restored into `runs`/`stats` and
// every referenced run file still exists on disk.
bool TryRestoreMapManifest(const std::string& path,
                           const std::string& fingerprint,
                           size_t expected_slots,
                           std::vector<std::vector<std::string>>* runs,
                           JobStats* stats) {
  auto reader = CheckpointReader::Load(path);
  if (!reader.ok()) return false;
  auto fp = reader->Section("fingerprint");
  if (!fp.ok() || *fp != fingerprint) return false;

  auto runs_raw = reader->Section("runs");
  if (!runs_raw.ok()) return false;
  CheckpointDecoder run_dec(*runs_raw);
  uint64_t slots = 0;
  if (!run_dec.GetU64(&slots) || slots != expected_slots) return false;
  std::vector<std::vector<std::string>> restored(slots);
  for (uint64_t i = 0; i < slots; ++i) {
    uint64_t count = 0;
    if (!run_dec.GetU64(&count) || count > run_dec.remaining()) return false;
    restored[i].resize(count);
    for (uint64_t j = 0; j < count; ++j) {
      if (!run_dec.GetString(&restored[i][j])) return false;
    }
  }
  std::error_code ec;
  for (const auto& slot : restored) {
    for (const std::string& p : slot) {
      if (!fs::exists(p, ec) || ec) return false;
    }
  }

  auto stats_raw = reader->Section("stats");
  if (!stats_raw.ok()) return false;
  CheckpointDecoder stat_dec(*stats_raw);
  if (!stat_dec.GetU64(&stats->input_records) ||
      !stat_dec.GetU64(&stats->map_output_records) ||
      !stat_dec.GetU64(&stats->combined_records) ||
      !stat_dec.GetU64(&stats->spill_bytes) ||
      !stat_dec.GetU32(&stats->spill_files) ||
      !stat_dec.GetDouble(&stats->map_seconds)) {
    return false;
  }
  *runs = std::move(restored);
  return true;
}

}  // namespace

Job::Job(JobConfig config, MapperFactory mapper_factory,
         ReducerFactory reducer_factory, ReducerFactory combiner_factory)
    : config_(std::move(config)),
      mapper_factory_(std::move(mapper_factory)),
      reducer_factory_(std::move(reducer_factory)),
      combiner_factory_(std::move(combiner_factory)) {}

Result<std::vector<std::string>> Job::Run(
    const std::vector<std::string>& input_paths, const std::string& output_dir,
    ThreadPool* pool, Counters* counters, JobStats* stats_out) {
  if (config_.scratch_dir.empty()) {
    return Status::InvalidArgument("JobConfig.scratch_dir is required");
  }
  std::error_code ec;
  fs::create_directories(config_.scratch_dir, ec);
  fs::create_directories(output_dir, ec);

  JobStats stats;
  trace::TraceSpan job_span("mapreduce.job", "mapreduce");
  perf::SpanCounters job_counters(&job_span);
  metrics::AddCounter("mapreduce.jobs");
  GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
  const uint32_t mappers = std::max(1u, config_.num_mappers);
  const uint32_t reducers = std::max(1u, config_.num_reducers);

  // Simulated job submission + scheduling latency.
  if (config_.job_startup_s > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config_.job_startup_s));
  }

  // Map-stage checkpoint locations. Checkpointed spill runs live under the
  // output directory rather than the shared scratch, so chained jobs can't
  // clobber them and a re-run of this job finds them where the manifest
  // says.
  const std::string manifest_path =
      output_dir + "/" + kMapManifestName;
  const std::string spill_dir = config_.checkpoint_map_stage
                                    ? output_dir + "/.map-runs"
                                    : config_.scratch_dir;
  std::string fingerprint;
  if (config_.checkpoint_map_stage) {
    fs::create_directories(spill_dir, ec);
    fingerprint = ManifestFingerprint(config_, input_paths);
  }

  // ------------------------------------------------------------- map phase
  std::vector<std::vector<std::string>> mapper_runs(
      static_cast<size_t>(mappers) * reducers);
  const bool map_recovered =
      config_.checkpoint_map_stage &&
      TryRestoreMapManifest(manifest_path, fingerprint, mapper_runs.size(),
                            &mapper_runs, &stats);
  stats.map_stage_recovered = map_recovered;
  if (map_recovered) metrics::AddCounter("mapreduce.map_stages_recovered");
  if (!map_recovered) {
    Stopwatch map_watch;
    trace::TraceSpan map_span("mapreduce.map", "mapreduce");
    perf::SpanCounters map_counters(&map_span);
    map_span.SetAttribute("mappers", uint64_t{mappers});
    // Split inputs across mappers round-robin by file; files are the
    // natural split unit since the driver writes one part per previous
    // reducer.
    std::vector<std::vector<std::string>> splits(mappers);
    for (size_t i = 0; i < input_paths.size(); ++i) {
      splits[i % mappers].push_back(input_paths[i]);
    }

    // Per-mapper stats merged afterwards to avoid locking.
    std::vector<JobStats> mapper_stats(mappers);

    std::vector<std::future<Status>> map_tasks;
    for (uint32_t m = 0; m < mappers; ++m) {
      map_tasks.push_back(pool->Submit([&, m]() -> Status {
        // Injected task attempt failure (the Hadoop "task attempt died"
        // mode); the whole job fails, as it would with task retries off.
        GLY_FAULT_POINT("mapreduce.map.task");
        GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
        JobStats& task_stats = mapper_stats[m];
        auto mapper = mapper_factory_();
        std::unique_ptr<Reducer> combiner =
            combiner_factory_ ? combiner_factory_() : nullptr;
        std::vector<SpillBuffer> buffers;
        buffers.reserve(reducers);
        for (uint32_t r = 0; r < reducers; ++r) {
          buffers.emplace_back(
              spill_dir + StringPrintf("/map-%05u-r-%05u", m, r),
              config_.sort_buffer_bytes, combiner.get(), counters);
        }
        PartitionedEmitter emitter(&buffers, &task_stats);
        uint64_t records_since_poll = 0;
        for (const std::string& path : splits[m]) {
          GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
          GLY_ASSIGN_OR_RETURN(RecordFileReader reader,
                               RecordFileReader::Open(path));
          uint64_t key = 0;
          std::string_view value;
          for (;;) {
            GLY_ASSIGN_OR_RETURN(bool more, reader.Next(&key, &value));
            if (!more) break;
            if (++records_since_poll >= 4096) {
              records_since_poll = 0;
              GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
            }
            ++task_stats.input_records;
            mapper->Map(key, value, &emitter, counters);
          }
        }
        task_stats.map_output_records = emitter.emitted();
        GLY_RETURN_NOT_OK(emitter.error());
        for (uint32_t r = 0; r < reducers; ++r) {
          GLY_RETURN_NOT_OK(buffers[r].Spill(&task_stats));
          mapper_runs[static_cast<size_t>(m) * reducers + r] =
              buffers[r].run_paths();
        }
        if (config_.cancel != nullptr) config_.cancel->Heartbeat();
        return Status::OK();
      }));
    }
    // Drain every task before acting on failures: queued lambdas reference
    // this frame's locals (and this Job), so an early return on the first
    // failed future would leave still-running tasks with dangling captures.
    Status map_status = Status::OK();
    for (auto& t : map_tasks) {
      Status s = t.get();
      if (map_status.ok()) map_status = std::move(s);
    }
    GLY_RETURN_NOT_OK(map_status);
    stats.map_seconds = map_watch.ElapsedSeconds();
    for (const JobStats& ms : mapper_stats) {
      stats.input_records += ms.input_records;
      stats.map_output_records += ms.map_output_records;
      stats.spill_bytes += ms.spill_bytes;
      stats.spill_files += ms.spill_files;
      stats.combined_records += ms.combined_records;
    }
    map_span.SetAttribute("input_records", stats.input_records);
    map_span.SetAttribute("spill_bytes", stats.spill_bytes);
    metrics::AddCounter("mapreduce.spill_bytes", stats.spill_bytes);

    if (config_.checkpoint_map_stage) {
      // Best-effort: a failed manifest write only means a future re-run
      // pays the map phase again.
      Status manifest =
          WriteMapManifest(manifest_path, fingerprint, mapper_runs, stats);
      if (!manifest.ok()) {
        GLY_LOG_WARN << "mapreduce: map manifest write failed: "
                     << manifest.ToString();
      }
    }
  }

  // -------------------------------------------------- shuffle+reduce phase
  Stopwatch reduce_watch;
  std::vector<std::string> output_paths(reducers);
  std::vector<JobStats> reducer_stats(reducers);
  {
  trace::TraceSpan reduce_span("mapreduce.shuffle_reduce", "mapreduce");
  perf::SpanCounters reduce_counters(&reduce_span);
  reduce_span.SetAttribute("reducers", uint64_t{reducers});
  std::vector<std::future<Status>> reduce_tasks;
  for (uint32_t r = 0; r < reducers; ++r) {
    reduce_tasks.push_back(pool->Submit([&, r]() -> Status {
      GLY_FAULT_POINT("mapreduce.reduce.task");
      GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
      // Gather this reducer's run files from every mapper.
      std::vector<MergeSource> sources;
      for (uint32_t m = 0; m < mappers; ++m) {
        for (const std::string& path :
             mapper_runs[static_cast<size_t>(m) * reducers + r]) {
          GLY_ASSIGN_OR_RETURN(RecordFileReader reader,
                               RecordFileReader::Open(path));
          MergeSource src{std::move(reader), 0, {}};
          GLY_ASSIGN_OR_RETURN(bool more,
                               src.reader.Next(&src.key, &src.value));
          if (more) sources.push_back(std::move(src));
        }
      }
      // K-way merge by key.
      auto cmp = [&sources](size_t a, size_t b) {
        return sources[a].key > sources[b].key;
      };
      std::priority_queue<size_t, std::vector<size_t>, decltype(cmp)> heap(cmp);
      for (size_t i = 0; i < sources.size(); ++i) heap.push(i);

      auto reducer = reducer_factory_();
      std::string out_path =
          output_dir + StringPrintf("/part-%05u", r);
      GLY_ASSIGN_OR_RETURN(RecordFileWriter writer,
                           RecordFileWriter::Open(out_path));
      FileEmitter out(&writer);

      // The current group's values, copied out of the readers' buffers
      // into one reused arena; `starts` holds each value's offset.
      uint64_t current_key = 0;
      std::string group_bytes;
      std::vector<size_t> starts;
      std::vector<std::string_view> group;
      auto flush_group = [&]() -> Status {
        if (starts.empty()) return Status::OK();
        GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
        starts.push_back(group_bytes.size());
        group.clear();
        for (size_t j = 0; j + 1 < starts.size(); ++j) {
          group.emplace_back(group_bytes.data() + starts[j],
                             starts[j + 1] - starts[j]);
        }
        reducer->Reduce(current_key, group, &out, counters);
        GLY_RETURN_NOT_OK(out.status());
        group_bytes.clear();
        starts.clear();
        return Status::OK();
      };

      while (!heap.empty()) {
        size_t i = heap.top();
        heap.pop();
        MergeSource& src = sources[i];
        reducer_stats[r].shuffle_bytes += kRecordHeaderBytes + src.value.size();
        if (!starts.empty() && src.key != current_key) {
          GLY_RETURN_NOT_OK(flush_group());
        }
        current_key = src.key;
        starts.push_back(group_bytes.size());
        group_bytes.append(src.value);
        GLY_ASSIGN_OR_RETURN(bool more, src.reader.Next(&src.key, &src.value));
        if (more) heap.push(i);
      }
      GLY_RETURN_NOT_OK(flush_group());
      reducer_stats[r].reduce_output_records = out.records();
      GLY_RETURN_NOT_OK(writer.Close());
      reducer_stats[r].output_bytes = writer.bytes_written();
      output_paths[r] = out_path;
      if (config_.cancel != nullptr) config_.cancel->Heartbeat();
      return Status::OK();
    }));
  }
  Status reduce_status = Status::OK();
  for (auto& t : reduce_tasks) {
    Status s = t.get();
    if (reduce_status.ok()) reduce_status = std::move(s);
  }
  GLY_RETURN_NOT_OK(reduce_status);
  stats.shuffle_reduce_seconds = reduce_watch.ElapsedSeconds();
  for (const JobStats& rs : reducer_stats) {
    stats.shuffle_bytes += rs.shuffle_bytes;
    stats.output_bytes += rs.output_bytes;
    stats.reduce_output_records += rs.reduce_output_records;
  }
  reduce_span.SetAttribute("shuffle_bytes", stats.shuffle_bytes);
  metrics::AddCounter("mapreduce.shuffle_bytes", stats.shuffle_bytes);
  }  // mapreduce.shuffle_reduce span

  // Clean spills; the job completed, so the manifest (if any) is obsolete.
  if (config_.checkpoint_map_stage) {
    fs::remove(manifest_path, ec);
    fs::remove(manifest_path + ".tmp", ec);
    fs::remove_all(spill_dir, ec);
  } else {
    for (const auto& runs : mapper_runs) {
      for (const std::string& path : runs) {
        fs::remove(path, ec);
      }
    }
  }

  if (stats_out != nullptr) *stats_out = stats;
  return output_paths;
}

}  // namespace gly::mapreduce
