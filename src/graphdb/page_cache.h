// PageCache: fixed-size-page buffer cache over store files.
//
// The graphdb substrate mirrors Neo4j's storage architecture: record files
// accessed through a page cache. The cache capacity is the knob that makes
// the paper's observation mechanistic — "Neo4j is not able to process
// graphs larger than the memory of a single machine, but its performance is
// generally the best" — a store that fits is all cache hits; one that does
// not thrashes or (in the harness's strict mode) refuses the workload.
//
// The cache is split into N lock-striped shards (DESIGN.md §13): pages map
// to a shard by (file, page), each shard owns `capacity / N` frames guarded
// by its own mutex and evicted with a second-chance clock sweep. Lookups on
// different shards never contend; a try_lock miss on a shard is counted in
// `shard_contention` (surfaced as `graphdb.pagecache.shard_contention`).
// Inside a shard a page is found the way Neo4j's Muninn cache finds it:
// through a per-file translation table indexed by page number, so a hit is
// a few array loads under the shard lock. File descriptors sit in a fixed
// table that readers index without a lock. Page numbers are bounded by
// kMaxPages; an access beyond it is an InvalidArgument, never a table
// allocation sized by a garbage offset.
// WAL and checkpoint semantics are unchanged: Flush() still writes back
// every dirty page and fsyncs before the WAL truncates.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace gly::graphdb {

/// Page size in bytes (Neo4j uses 8 KiB).
inline constexpr size_t kPageSize = 8192;

/// Cache statistics (aggregated across shards).
struct PageCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  /// Times a lookup found its shard's mutex held by another thread.
  uint64_t shard_contention = 0;
};

/// Field-wise difference: the counters accrued between two snapshots.
inline PageCacheStats operator-(const PageCacheStats& after,
                                const PageCacheStats& before) {
  return {after.hits - before.hits, after.misses - before.misses,
          after.evictions - before.evictions,
          after.writebacks - before.writebacks,
          after.shard_contention - before.shard_contention};
}

/// Sharded clock page cache shared by all store files of one database.
/// Concurrent readers on distinct shards proceed in parallel; the store's
/// single-writer discipline (like the benchmarked embedded Neo4j) still
/// serializes mutations above this layer.
class PageCache {
 public:
  /// Pages one file may span: 2^28 pages of 8 KiB, 2 TiB. A read or write
  /// touching a page at or past it fails with InvalidArgument.
  static constexpr uint64_t kMaxPages = uint64_t{1} << 28;
  /// Files one cache can open.
  static constexpr uint32_t kMaxFiles = 64;

  /// `capacity_bytes` is rounded down to whole pages (minimum 1 page).
  /// `shards` = 0 picks min(8, capacity_pages); an explicit count is
  /// clamped so every shard owns at least one frame and the summed frame
  /// budget never exceeds the page capacity.
  explicit PageCache(uint64_t capacity_bytes, uint32_t shards = 0);
  ~PageCache();

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// Registers a backing file; returns its file id. Creates the file if
  /// missing. Safe to call while other threads read registered files.
  Result<uint32_t> OpenFile(const std::string& path);

  /// Reads `len` bytes at `offset` of file `file_id` into `out` through the
  /// cache. Reads beyond EOF yield zero bytes (fresh pages).
  Status Read(uint32_t file_id, uint64_t offset, void* out, size_t len);

  /// Writes `len` bytes at `offset` through the cache (marks pages dirty).
  Status Write(uint32_t file_id, uint64_t offset, const void* data,
               size_t len);

  /// Writes all dirty pages back and fsyncs the files.
  Status Flush();

  /// Aggregated snapshot across shards (locks each shard briefly).
  PageCacheStats stats() const;
  size_t capacity_pages() const { return capacity_pages_; }
  /// Resident pages summed across shards.
  size_t resident_pages() const;
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }

 private:
  /// One cache frame: a page image plus the clock's second-chance bit.
  struct Frame {
    uint32_t file_id = 0;
    uint64_t page_no = 0;
    std::unique_ptr<char[]> data;  // allocated when the frame is first used
    bool in_use = false;
    bool dirty = false;
    bool referenced = false;
  };
  /// Translation table entries: frame slot + 1, 0 = not resident. A table
  /// is indexed by the page's number within its shard and allocated in
  /// chunks of kChunkPages entries as pages are first touched.
  static constexpr unsigned kChunkBits = 10;
  static constexpr uint64_t kChunkPages = uint64_t{1} << kChunkBits;
  using TableChunk = std::unique_ptr<uint32_t[]>;
  struct Shard {
    mutable std::mutex mu;
    std::vector<Frame> frames;       // fixed frame pool
    std::vector<size_t> free_slots;  // never-used frames
    std::array<std::vector<TableChunk>, kMaxFiles> tables;  // by file id
    size_t clock_hand = 0;
    size_t resident = 0;
    PageCacheStats stats;  // guarded by mu (except shard_contention)
    mutable std::atomic<uint64_t> contention{0};
  };
  /// Where a page lives: its shard and its index in that shard's tables.
  struct PageHome {
    Shard* shard;
    uint64_t local;
  };

  /// Shard = ((file << 48) ^ page) mod N, by mask when N is a power of
  /// two. Page numbers stay below kMaxPages < 2^48, so the shards of one
  /// file's pages step with page mod N and pages sharing a shard differ
  /// in page / N, which is therefore the table index.
  PageHome HomeOf(uint32_t file_id, uint64_t page_no) {
    const uint64_t key = (static_cast<uint64_t>(file_id) << 48) ^ page_no;
    if (shard_shift_ >= 0) {
      return {&shards_[key & shard_mask_], page_no >> shard_shift_};
    }
    return {&shards_[key % shards_.size()], page_no / shards_.size()};
  }

  /// InvalidArgument unless `file_id` is open and [offset, offset + len)
  /// stays below kMaxPages.
  Status CheckAccess(uint32_t file_id, uint64_t offset, size_t len) const;

  /// Locks `shard`, counting a blocked acquisition into its contention tally.
  static std::unique_lock<std::mutex> LockShard(const Shard& shard);

  /// Returns the frame holding (file_id, page_no), faulting it in — and
  /// running the clock sweep — as needed. Caller holds the shard lock.
  Result<Frame*> GetFrame(Shard& shard, uint32_t file_id, uint64_t page_no,
                          uint64_t local);
  Status EvictClock(Shard& shard, size_t* slot_out);
  Status WritebackFrame(Frame& frame, PageCacheStats* stats);

  size_t capacity_pages_;
  std::vector<Shard> shards_;
  int shard_shift_ = -1;  // log2(shard count) if a power of two, else -1
  uint64_t shard_mask_ = 0;
  // Files: slots below num_files_ are written once, before the count that
  // publishes them, so readers index them without a lock.
  std::mutex open_mu_;  // serializes OpenFile
  std::atomic<uint32_t> num_files_{0};
  std::array<int, kMaxFiles> fds_{};
  std::array<std::string, kMaxFiles> paths_;  // for error messages
};

}  // namespace gly::graphdb
