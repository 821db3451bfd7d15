#include "mapreduce/record.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <utility>

#include "common/macros.h"

namespace gly::mapreduce {

namespace {

constexpr size_t kIoBufferBytes = 64 << 10;

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

// ------------------------------------------------------------------ writer

RecordFileWriter::RecordFileWriter(int fd, std::string path)
    : fd_(fd),
      path_(std::move(path)),
      buf_(std::make_unique_for_overwrite<char[]>(kIoBufferBytes)) {}

RecordFileWriter::RecordFileWriter(RecordFileWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      buf_(std::move(other.buf_)),
      fill_(std::exchange(other.fill_, 0)),
      bytes_(other.bytes_),
      records_(other.records_) {}

RecordFileWriter::~RecordFileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Result<RecordFileWriter> RecordFileWriter::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return ErrnoError("cannot open for write:", path);
  return RecordFileWriter(fd, path);
}

Status RecordFileWriter::WriteFully(const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = ::write(fd_, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write failed:", path_);
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RecordFileWriter::Flush() {
  if (fill_ == 0) return Status::OK();
  Status s = WriteFully(buf_.get(), fill_);
  fill_ = 0;
  return s;
}

Status RecordFileWriter::Append(uint64_t key, std::string_view value) {
  if (fd_ < 0) return Status::IOError("write after close: " + path_);
  if (value.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("record value too long for " + path_);
  }
  const uint32_t len = static_cast<uint32_t>(value.size());
  if (fill_ + kRecordHeaderBytes + len > kIoBufferBytes) {
    GLY_RETURN_NOT_OK(Flush());
  }
  char* out = buf_.get() + fill_;
  std::memcpy(out, &key, sizeof(key));
  std::memcpy(out + sizeof(key), &len, sizeof(len));
  fill_ += kRecordHeaderBytes;
  if (kRecordHeaderBytes + len <= kIoBufferBytes) {
    if (len > 0) std::memcpy(buf_.get() + fill_, value.data(), len);
    fill_ += len;
  } else {
    // Larger than the buffer: the header goes out first, the value as is.
    GLY_RETURN_NOT_OK(Flush());
    GLY_RETURN_NOT_OK(WriteFully(value.data(), len));
  }
  bytes_ += kRecordHeaderBytes + len;
  ++records_;
  return Status::OK();
}

Status RecordFileWriter::Close() {
  if (fd_ < 0) return Status::IOError("close failed: " + path_);
  Status s = Flush();
  if (::close(std::exchange(fd_, -1)) != 0 && s.ok()) {
    s = ErrnoError("close failed:", path_);
  }
  return s;
}

// ------------------------------------------------------------------ reader

RecordFileReader::RecordFileReader(int fd, std::string path,
                                   uint64_t file_size)
    : fd_(fd), path_(std::move(path)), file_size_(file_size) {}

RecordFileReader::RecordFileReader(RecordFileReader&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      file_size_(other.file_size_),
      bytes_(other.bytes_),
      buf_(std::move(other.buf_)),
      capacity_(std::exchange(other.capacity_, 0)),
      pos_(std::exchange(other.pos_, 0)),
      end_(std::exchange(other.end_, 0)) {}

RecordFileReader::~RecordFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Result<RecordFileReader> RecordFileReader::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open for read:", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = ErrnoError("cannot stat:", path);
    ::close(fd);
    return s;
  }
  return RecordFileReader(fd, path, static_cast<uint64_t>(st.st_size));
}

Status RecordFileReader::Fill(size_t n) {
  if (end_ - pos_ >= n) return Status::OK();
  if (capacity_ < n) {
    // The buffer covers at most the file, so small run files get small
    // buffers; a record larger than the buffer grows it to fit.
    size_t capacity = std::max<size_t>(
        n, static_cast<size_t>(std::min<uint64_t>(kIoBufferBytes, file_size_)));
    auto grown = std::make_unique_for_overwrite<char[]>(capacity);
    if (end_ > pos_) std::memcpy(grown.get(), buf_.get() + pos_, end_ - pos_);
    buf_ = std::move(grown);
    capacity_ = capacity;
  } else if (end_ > pos_) {
    std::memmove(buf_.get(), buf_.get() + pos_, end_ - pos_);
  }
  end_ -= pos_;
  pos_ = 0;
  while (end_ < n) {
    ssize_t got = ::read(fd_, buf_.get() + end_, capacity_ - end_);
    if (got < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("read failed:", path_);
    }
    if (got == 0) return Status::IOError("truncated record in " + path_);
    end_ += static_cast<size_t>(got);
  }
  return Status::OK();
}

Result<bool> RecordFileReader::Next(uint64_t* key, std::string_view* value) {
  const uint64_t left = bytes_ < file_size_ ? file_size_ - bytes_ : 0;
  if (left == 0) return false;
  if (left < sizeof(uint64_t)) {
    return Status::IOError("truncated record key in " + path_);
  }
  if (left < kRecordHeaderBytes) {
    return Status::IOError("truncated record length in " + path_);
  }
  GLY_RETURN_NOT_OK(Fill(kRecordHeaderBytes));
  uint32_t len;
  std::memcpy(key, buf_.get() + pos_, sizeof(uint64_t));
  std::memcpy(&len, buf_.get() + pos_ + sizeof(uint64_t), sizeof(len));
  if (len > left - kRecordHeaderBytes) {
    return Status::IOError("truncated record value in " + path_ +
                           ": length " + std::to_string(len) + " exceeds the " +
                           std::to_string(left - kRecordHeaderBytes) +
                           " bytes left");
  }
  GLY_RETURN_NOT_OK(Fill(kRecordHeaderBytes + len));
  *value = std::string_view(buf_.get() + pos_ + kRecordHeaderBytes, len);
  pos_ += kRecordHeaderBytes + len;
  bytes_ += kRecordHeaderBytes + len;
  return true;
}

// ------------------------------------------------------- whole-file helpers

Result<std::vector<Record>> ReadAllRecords(const std::string& path) {
  GLY_ASSIGN_OR_RETURN(RecordFileReader reader, RecordFileReader::Open(path));
  std::vector<Record> records;
  uint64_t key = 0;
  std::string_view value;
  for (;;) {
    GLY_ASSIGN_OR_RETURN(bool more, reader.Next(&key, &value));
    if (!more) break;
    records.push_back(Record{key, std::string(value)});
  }
  return records;
}

Status WriteAllRecords(const std::vector<Record>& records,
                       const std::string& path) {
  GLY_ASSIGN_OR_RETURN(RecordFileWriter writer, RecordFileWriter::Open(path));
  for (const Record& r : records) {
    GLY_RETURN_NOT_OK(writer.Append(r.key, r.value));
  }
  return writer.Close();
}

}  // namespace gly::mapreduce
