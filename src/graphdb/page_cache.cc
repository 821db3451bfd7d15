#include "graphdb/page_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include "common/fault_injection.h"
#include "common/macros.h"

namespace gly::graphdb {

namespace {

size_t ShardCountFor(size_t capacity_pages, uint32_t requested) {
  size_t count = requested == 0 ? std::min<size_t>(8, capacity_pages)
                                : static_cast<size_t>(requested);
  // Every shard owns at least one frame, and the summed frame budget never
  // exceeds the page capacity (a 4-page cache stays 4 pages however many
  // shards were asked for).
  return std::clamp<size_t>(count, 1, capacity_pages);
}

}  // namespace

PageCache::PageCache(uint64_t capacity_bytes, uint32_t shards)
    : capacity_pages_(std::max<uint64_t>(1, capacity_bytes / kPageSize)),
      shards_(ShardCountFor(capacity_pages_, shards)) {
  const size_t base = capacity_pages_ / shards_.size();
  const size_t extra = capacity_pages_ % shards_.size();
  for (size_t i = 0; i < shards_.size(); ++i) {
    const size_t cap = base + (i < extra ? 1 : 0);
    Shard& shard = shards_[i];
    shard.frames.resize(cap);
    shard.free_slots.reserve(cap);
    // Descending so the first faults fill slot 0 upward.
    for (size_t j = cap; j-- > 0;) shard.free_slots.push_back(j);
  }
  if (std::has_single_bit(shards_.size())) {
    shard_shift_ = std::countr_zero(shards_.size());
    shard_mask_ = shards_.size() - 1;
  }
}

PageCache::~PageCache() {
  // Best effort: write back and close.
  Status s = Flush();
  (void)s;
  const uint32_t files = num_files_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < files; ++i) ::close(fds_[i]);
}

Result<uint32_t> PageCache::OpenFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(open_mu_);
  const uint32_t id = num_files_.load(std::memory_order_relaxed);
  if (id >= kMaxFiles) {
    return Status::ResourceExhausted("page cache holds at most " +
                                     std::to_string(kMaxFiles) +
                                     " files; cannot open " + path);
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  fds_[id] = fd;
  paths_[id] = path;
  num_files_.store(id + 1, std::memory_order_release);
  return id;
}

Status PageCache::CheckAccess(uint32_t file_id, uint64_t offset,
                              size_t len) const {
  if (file_id >= num_files_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("page cache: unknown file id " +
                                   std::to_string(file_id));
  }
  constexpr uint64_t kLimit = kMaxPages * kPageSize;
  if (len > 0 && (offset >= kLimit || len > kLimit - offset)) {
    return Status::InvalidArgument(
        "page cache: " + std::to_string(len) + " bytes at offset " +
        std::to_string(offset) + " of " + paths_[file_id] + " pass the " +
        std::to_string(kMaxPages) + "-page bound");
  }
  return Status::OK();
}

std::unique_lock<std::mutex> PageCache::LockShard(const Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard.contention.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

Result<PageCache::Frame*> PageCache::GetFrame(Shard& shard, uint32_t file_id,
                                              uint64_t page_no,
                                              uint64_t local) {
  std::vector<TableChunk>& table = shard.tables[file_id];
  const uint64_t chunk_no = local >> kChunkBits;
  if (chunk_no >= table.size()) table.resize(chunk_no + 1);
  TableChunk& chunk = table[chunk_no];
  if (chunk == nullptr) chunk = std::make_unique<uint32_t[]>(kChunkPages);
  uint32_t& entry = chunk[local & (kChunkPages - 1)];
  if (entry != 0) {
    ++shard.stats.hits;
    Frame& frame = shard.frames[entry - 1];
    frame.referenced = true;  // second chance for the clock sweep
    return &frame;
  }
  ++shard.stats.misses;
  // Injected transient read error / slow disk on the miss path.
  GLY_FAULT_POINT("graphdb.pagecache.read");
  size_t slot;
  if (!shard.free_slots.empty()) {
    slot = shard.free_slots.back();
    shard.free_slots.pop_back();
  } else {
    GLY_RETURN_NOT_OK(EvictClock(shard, &slot));
  }
  Frame& frame = shard.frames[slot];
  if (frame.data == nullptr) {
    frame.data = std::make_unique_for_overwrite<char[]>(kPageSize);
  }
  ssize_t n = ::pread(fds_[file_id], frame.data.get(), kPageSize,
                      static_cast<off_t>(page_no * kPageSize));
  if (n < 0) {
    shard.free_slots.push_back(slot);
    return Status::IOError("pread(" + paths_[file_id] +
                           "): " + std::strerror(errno));
  }
  // Past EOF the page is fresh: zero what the read did not fill.
  std::memset(frame.data.get() + n, 0, kPageSize - static_cast<size_t>(n));
  frame.file_id = file_id;
  frame.page_no = page_no;
  frame.in_use = true;
  frame.dirty = false;
  frame.referenced = true;
  entry = static_cast<uint32_t>(slot + 1);
  ++shard.resident;
  return &frame;
}

Status PageCache::EvictClock(Shard& shard, size_t* slot_out) {
  const size_t n = shard.frames.size();
  if (shard.resident == 0) {
    return Status::Internal("page cache shard empty during evict");
  }
  // One full sweep clears every second-chance bit, so two sweeps always
  // find a victim.
  for (size_t step = 0; step < 2 * n + 1; ++step) {
    const size_t slot = shard.clock_hand;
    shard.clock_hand = (shard.clock_hand + 1) % n;
    Frame& frame = shard.frames[slot];
    if (!frame.in_use) continue;
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    if (frame.dirty) {
      GLY_RETURN_NOT_OK(WritebackFrame(frame, &shard.stats));
    }
    const uint64_t local = HomeOf(frame.file_id, frame.page_no).local;
    shard.tables[frame.file_id][local >> kChunkBits]
                [local & (kChunkPages - 1)] = 0;
    frame.in_use = false;
    --shard.resident;
    ++shard.stats.evictions;
    *slot_out = slot;
    return Status::OK();
  }
  return Status::Internal("page cache clock sweep found no victim");
}

Status PageCache::WritebackFrame(Frame& frame, PageCacheStats* stats) {
  GLY_FAULT_POINT("graphdb.pagecache.writeback");
  ssize_t n = ::pwrite(fds_[frame.file_id], frame.data.get(), kPageSize,
                       static_cast<off_t>(frame.page_no * kPageSize));
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError("pwrite(" + paths_[frame.file_id] +
                           "): " + std::strerror(errno));
  }
  frame.dirty = false;
  ++stats->writebacks;
  return Status::OK();
}

Status PageCache::Read(uint32_t file_id, uint64_t offset, void* out,
                       size_t len) {
  GLY_RETURN_NOT_OK(CheckAccess(file_id, offset, len));
  char* dst = static_cast<char*>(out);
  while (len > 0) {
    const uint64_t page_no = offset / kPageSize;
    const size_t in_page = static_cast<size_t>(offset % kPageSize);
    const size_t chunk = std::min(len, kPageSize - in_page);
    const PageHome home = HomeOf(file_id, page_no);
    {
      std::unique_lock<std::mutex> lock = LockShard(*home.shard);
      GLY_ASSIGN_OR_RETURN(Frame * frame,
                           GetFrame(*home.shard, file_id, page_no, home.local));
      std::memcpy(dst, frame->data.get() + in_page, chunk);
    }
    dst += chunk;
    offset += chunk;
    len -= chunk;
  }
  return Status::OK();
}

Status PageCache::Write(uint32_t file_id, uint64_t offset, const void* data,
                        size_t len) {
  GLY_RETURN_NOT_OK(CheckAccess(file_id, offset, len));
  const char* src = static_cast<const char*>(data);
  while (len > 0) {
    const uint64_t page_no = offset / kPageSize;
    const size_t in_page = static_cast<size_t>(offset % kPageSize);
    const size_t chunk = std::min(len, kPageSize - in_page);
    const PageHome home = HomeOf(file_id, page_no);
    {
      std::unique_lock<std::mutex> lock = LockShard(*home.shard);
      GLY_ASSIGN_OR_RETURN(Frame * frame,
                           GetFrame(*home.shard, file_id, page_no, home.local));
      std::memcpy(frame->data.get() + in_page, src, chunk);
      frame->dirty = true;
    }
    src += chunk;
    offset += chunk;
    len -= chunk;
  }
  return Status::OK();
}

Status PageCache::Flush() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    for (Frame& frame : shard.frames) {
      if (frame.in_use && frame.dirty) {
        GLY_RETURN_NOT_OK(WritebackFrame(frame, &shard.stats));
      }
    }
  }
  const uint32_t files = num_files_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < files; ++i) {
    if (::fsync(fds_[i]) != 0) {
      return Status::IOError("fsync(" + paths_[i] + "): " +
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

PageCacheStats PageCache::stats() const {
  PageCacheStats out;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    out.hits += shard.stats.hits;
    out.misses += shard.stats.misses;
    out.evictions += shard.stats.evictions;
    out.writebacks += shard.stats.writebacks;
    out.shard_contention +=
        shard.contention.load(std::memory_order_relaxed);
  }
  return out;
}

size_t PageCache::resident_pages() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    total += shard.resident;
  }
  return total;
}

}  // namespace gly::graphdb
