#include "io/file.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "robust/failpoint.h"
#include "robust/resource_guard.h"
#include "util/huge_pages.h"

namespace parparaw {

namespace {

std::string ErrnoMessage(const std::string& prefix) {
  return prefix + ": " + std::strerror(errno);
}

// Bounded deterministic backoff shared by the transient-retry loops below.
// Transient conditions are EINTR-class: a signal interrupted the stdio call
// (errno == EINTR), or the `io.read`/`io.write` failpoint fired with the
// transient flag. Everything else propagates immediately.
struct TransientRetry {
  robust::RetryPolicy policy;
  int attempt = 0;

  // True when a retry budget remains; sleeps the backoff and consumes one.
  bool Next() {
    if (attempt + 1 >= policy.max_attempts) return false;
    ++attempt;
    robust::internal::BackoffSleepAndCount(policy.DelayUs(attempt));
    return true;
  }
};

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  FileChunkReader reader;
  PARPARAW_RETURN_NOT_OK(reader.Open(path));
  std::string contents;
  bool eof = false;
  PARPARAW_RETURN_NOT_OK(reader.ReadNext(
      static_cast<size_t>(reader.file_size()), &contents, &eof));
  return contents;
}

Result<FileHead> ReadFileHead(const std::string& path, size_t max_bytes,
                              const std::string& context) {
  FileChunkReader reader;
  PARPARAW_RETURN_NOT_OK_CTX(reader.Open(path), context + ".open");
  FileHead head;
  head.file_size = reader.file_size();
  bool eof = false;
  PARPARAW_RETURN_NOT_OK_CTX(reader.ReadNext(max_bytes, &head.bytes, &eof),
                             context + ".sample");
  head.truncated = static_cast<int64_t>(head.bytes.size()) < head.file_size;
  return head;
}

Status WriteStringToFile(const std::string& path, std::string_view contents) {
  PARPARAW_FAILPOINT("io.open");
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError(ErrnoMessage("cannot create '" + path + "'"));
  }
  size_t written = 0;
  TransientRetry retry;
  while (written < contents.size()) {
    bool transient = false;
    const Status injected = robust::CheckFailpoint("io.write", &transient);
    if (!injected.ok()) {
      if (transient && retry.Next()) continue;
      std::fclose(file);
      return injected;
    }
    errno = 0;
    const size_t n =
        std::fwrite(contents.data() + written, 1, contents.size() - written,
                    file);
    written += n;
    if (written == contents.size()) break;
    // Partial write: retry the remainder on EINTR, fail otherwise — a
    // silent short write would truncate the file without an error.
    if (errno == EINTR && retry.Next()) {
      std::clearerr(file);
      continue;
    }
    const Status st = Status::IoError(
        ErrnoMessage("short write to '" + path + "' (" +
                     std::to_string(written) + " of " +
                     std::to_string(contents.size()) + " bytes)"));
    std::fclose(file);
    return st;
  }
  if (std::fclose(file) != 0) {
    return Status::IoError(ErrnoMessage("error closing '" + path + "'"));
  }
  return Status::OK();
}

FileChunkReader::~FileChunkReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FileChunkReader::Open(const std::string& path) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_size_ = 0;
  offset_ = 0;
  PARPARAW_FAILPOINT("io.open");
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::IoError(ErrnoMessage("cannot open '" + path + "'"));
  }
  // A failed reader must not look open: close and null the handle on every
  // error below so a later ReadNext reports "not open" instead of reading
  // from an undefined position.
  const auto fail = [&](Status st) {
    std::fclose(file_);
    file_ = nullptr;
    return st;
  };
  const Status injected = robust::CheckFailpoint("io.tell");
  if (!injected.ok()) return fail(injected);
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    return fail(Status::IoError(ErrnoMessage("cannot seek '" + path + "'")));
  }
  const long size = std::ftell(file_);  // NOLINT(runtime/int): stdio API
  if (size < 0) {
    return fail(Status::IoError(ErrnoMessage("cannot tell '" + path + "'")));
  }
  file_size_ = static_cast<int64_t>(size);
  std::rewind(file_);
  return Status::OK();
}

Status FileChunkReader::ReadNext(size_t max_bytes, std::string* out,
                                 bool* eof) {
  if (file_ == nullptr) return Status::Invalid("reader not open");
  // Sized by the bytes left in the file as opened, so a small file never
  // allocates (and zero-fills) a whole partition; the fill is the buffer's
  // first write, on huge pages when the buffer is large.
  const size_t want =
      std::min(max_bytes, static_cast<size_t>(file_size_ - offset_));
  huge_pages::Assign(out, want, '\0');
  size_t total = 0;
  bool at_eof = false;
  TransientRetry retry;
  while (total < want && !at_eof) {
    bool transient = false;
    const Status injected = robust::CheckFailpoint("io.read", &transient);
    if (!injected.ok()) {
      if (transient && retry.Next()) continue;
      return injected;
    }
    errno = 0;
    const size_t n = std::fread(out->data() + total, 1, want - total, file_);
    total += n;
    if (total == want) break;
    if (std::ferror(file_) != 0) {
      // Short reads are resumed from where they stopped; EINTR-class
      // interruptions retry with backoff instead of failing the stream.
      if (errno == EINTR && retry.Next()) {
        std::clearerr(file_);
        continue;
      }
      return Status::IoError(ErrnoMessage("read error"));
    }
    at_eof = true;  // short read without error: the file shrank
  }
  out->resize(total);
  offset_ += static_cast<int64_t>(total);
  *eof = at_eof || total == 0 || offset_ >= file_size_;
  return Status::OK();
}

}  // namespace parparaw
