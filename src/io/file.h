#ifndef PARPARAW_IO_FILE_H_
#define PARPARAW_IO_FILE_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "util/result.h"

namespace parparaw {

/// Bytes of a file's head read to sniff its dialect, name its header
/// columns and infer its column types.
inline constexpr size_t kHeadSampleBytes = 256 * 1024;

/// Reads an entire file into memory: one read sized by the file.
Result<std::string> ReadFileToString(const std::string& path);

/// The first bytes of a file.
struct FileHead {
  std::string bytes;
  int64_t file_size = 0;
  /// True when the file continues past `bytes`.
  bool truncated = false;
};

/// Reads the first min(file size, max_bytes) bytes of `path`. An open
/// failure carries the error context `<context>.open`, a read failure
/// `<context>.sample`.
Result<FileHead> ReadFileHead(const std::string& path, size_t max_bytes,
                              const std::string& context);

/// Writes (truncating) `contents` to `path`.
Status WriteStringToFile(const std::string& path, std::string_view contents);

/// \brief Sequential chunk reader feeding the executor from disk.
///
/// Reads fixed-size partitions; the caller prepends its own carry-over.
/// This reader exists so inputs larger than memory can be streamed.
class FileChunkReader {
 public:
  FileChunkReader() = default;
  ~FileChunkReader();

  FileChunkReader(const FileChunkReader&) = delete;
  FileChunkReader& operator=(const FileChunkReader&) = delete;

  /// Opens `path` for reading.
  Status Open(const std::string& path);

  /// Reads up to `max_bytes` into `out` (cleared first), but never past the
  /// size the file had when it was opened. Sets `*eof` on the read that
  /// reaches that size (or finds the file shorter), so the last chunk
  /// returns data with `*eof == true`.
  Status ReadNext(size_t max_bytes, std::string* out, bool* eof);

  /// Total bytes of the open file.
  int64_t file_size() const { return file_size_; }

 private:
  std::FILE* file_ = nullptr;
  int64_t file_size_ = 0;
  /// Bytes read since Open.
  int64_t offset_ = 0;
};

}  // namespace parparaw

#endif  // PARPARAW_IO_FILE_H_
