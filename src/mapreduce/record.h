// MapReduce record model and binary serialization.
//
// Records are (uint64 key, opaque byte-string value) — the same shape
// Hadoop jobs use after serialization. Record files are the on-disk
// interchange between job phases and between chained jobs:
//   [key: u64 LE][len: u32 LE][len bytes]*
//
// The file reader and writer each go through one buffer of about 64 KiB,
// and the reader hands out values as views into that buffer, so the
// engine's record path does no heap allocation per record.

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace gly::mapreduce {

/// One key-value record (owning form, for whole-file helpers and tests).
struct Record {
  uint64_t key = 0;
  std::string value;

  friend bool operator==(const Record& a, const Record& b) {
    return a.key == b.key && a.value == b.value;
  }
};

/// Bytes of the fixed [key][len] header in front of every record value.
inline constexpr size_t kRecordHeaderBytes =
    sizeof(uint64_t) + sizeof(uint32_t);

/// Appends primitive values to a byte-string (little-endian).
class ValueWriter {
 public:
  explicit ValueWriter(std::string* out) : out_(out) {}

  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutBytes(const void* data, size_t len) {
    PutU32(static_cast<uint32_t>(len));
    PutRaw(data, len);
  }
  void PutRaw(const void* data, size_t len) {
    out_->append(reinterpret_cast<const char*>(data), len);
  }

 private:
  std::string* out_;
};

/// Reads primitive values back out of a byte span. The span's owner must
/// outlive the reader and every view GetBytes returns.
class ValueReader {
 public:
  explicit ValueReader(std::string_view data) : data_(data) {}

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

  Result<uint32_t> GetU32() { return Get<uint32_t>(); }
  Result<uint64_t> GetU64() { return Get<uint64_t>(); }
  Result<int64_t> GetI64() { return Get<int64_t>(); }
  Result<double> GetDouble() { return Get<double>(); }

  /// Reads a length-prefixed byte span (points into the backing bytes).
  Result<std::string_view> GetBytes() {
    auto len = GetU32();
    if (!len.ok()) return len.status();
    return GetRaw(*len);
  }

  /// Reads the next `len` bytes as a view into the backing bytes.
  Result<std::string_view> GetRaw(size_t len) {
    if (len > remaining()) return Status::InvalidArgument("value truncated");
    std::string_view out = data_.substr(pos_, len);
    pos_ += len;
    return out;
  }

 private:
  template <typename T>
  Result<T> Get() {
    if (sizeof(T) > remaining()) {
      return Status::InvalidArgument("value truncated");
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

/// Sequential, buffered writer of record files.
class RecordFileWriter {
 public:
  /// Opens `path` for writing (truncates).
  static Result<RecordFileWriter> Open(const std::string& path);

  RecordFileWriter(RecordFileWriter&& other) noexcept;
  RecordFileWriter& operator=(RecordFileWriter&&) = delete;
  RecordFileWriter(const RecordFileWriter&) = delete;
  RecordFileWriter& operator=(const RecordFileWriter&) = delete;
  /// Closes the file; bytes not yet flushed by Close() are discarded.
  ~RecordFileWriter();

  /// Appends one record; values longer than 4 GiB - 1 (the u32 length
  /// field) are rejected with InvalidArgument.
  Status Append(uint64_t key, std::string_view value);

  /// Flushes and closes. Must be called before the file is read.
  Status Close();

  uint64_t bytes_written() const { return bytes_; }
  uint64_t records_written() const { return records_; }

 private:
  RecordFileWriter(int fd, std::string path);
  Status Flush();
  Status WriteFully(const char* data, size_t len);

  int fd_ = -1;
  std::string path_;
  std::unique_ptr<char[]> buf_;
  size_t fill_ = 0;
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;
};

/// Sequential, buffered reader of record files.
class RecordFileReader {
 public:
  static Result<RecordFileReader> Open(const std::string& path);

  RecordFileReader(RecordFileReader&& other) noexcept;
  RecordFileReader& operator=(RecordFileReader&&) = delete;
  RecordFileReader(const RecordFileReader&) = delete;
  RecordFileReader& operator=(const RecordFileReader&) = delete;
  ~RecordFileReader();

  /// Reads the next record; returns false at EOF. `*value` views the
  /// reader's buffer and stays valid until the next call (moving the reader
  /// keeps it valid). A truncated record, or a length field larger than
  /// the bytes left in the file, is an IOError; nothing is allocated for a
  /// length before it is checked.
  Result<bool> Next(uint64_t* key, std::string_view* value);

  uint64_t bytes_read() const { return bytes_; }

 private:
  RecordFileReader(int fd, std::string path, uint64_t file_size);
  // Makes at least `n` unread bytes available at buf_[pos_]; `n` never
  // exceeds the bytes left in the file.
  Status Fill(size_t n);

  int fd_ = -1;
  std::string path_;
  uint64_t file_size_ = 0;
  uint64_t bytes_ = 0;  // file offset of the next record
  std::unique_ptr<char[]> buf_;
  size_t capacity_ = 0;
  size_t pos_ = 0;  // next unread byte in buf_
  size_t end_ = 0;  // one past the last valid byte in buf_
};

/// Reads an entire record file into memory (tests, small outputs).
Result<std::vector<Record>> ReadAllRecords(const std::string& path);

/// Writes `records` to `path`.
Status WriteAllRecords(const std::vector<Record>& records,
                       const std::string& path);

}  // namespace gly::mapreduce
