#include "api/reader.h"

#include <utility>

#include "io/file.h"
#include "plan/planner.h"

namespace parparaw {

Reader Reader::FromFile(std::string path) {
  Reader reader;
  reader.from_file_ = true;
  reader.path_ = std::move(path);
  reader.options_.collect_statistics = false;
  return reader;
}

Reader Reader::FromBuffer(std::string_view buffer) {
  Reader reader;
  reader.buffer_ = buffer;
  reader.options_.collect_statistics = false;
  return reader;
}

Reader&& Reader::WithSchema(Schema schema) && {
  options_.schema = std::move(schema);
  return std::move(*this);
}

Reader&& Reader::WithFormat(Format format) && {
  options_.format = std::move(format);
  return std::move(*this);
}

Reader&& Reader::WithDialect(dialect::DialectSpec spec) && {
  options_.dialect = std::move(spec);
  return std::move(*this);
}

Reader&& Reader::WithHeader(bool has_header) && {
  options_.header = has_header ? 1 : 0;
  return std::move(*this);
}

Reader&& Reader::WithErrorPolicy(robust::ErrorPolicy policy) && {
  options_.error_policy = policy;
  return std::move(*this);
}

Reader&& Reader::WithMemoryBudget(int64_t bytes) && {
  options_.memory_budget = bytes;
  return std::move(*this);
}

Reader&& Reader::WithPartitionSize(size_t bytes) && {
  options_.partition_size = bytes;
  return std::move(*this);
}

Reader&& Reader::WithThreadPool(ThreadPool* pool) && {
  options_.pool = pool;
  return std::move(*this);
}

Reader&& Reader::WithTuning(Tuning tuning) && {
  options_.tuning = tuning;
  return std::move(*this);
}

Result<Table> Reader::Read() && {
  PARPARAW_ASSIGN_OR_RETURN(LoadResult loaded, std::move(*this).ReadDetailed());
  return std::move(loaded.table);
}

Result<LoadResult> Reader::ReadDetailed() && {
  return from_file_ ? BulkLoader::LoadFile(path_, options_)
                    : BulkLoader::LoadBuffer(buffer_, options_);
}

Result<exec::IngestStats> Reader::ReadStream(
    const std::function<Status(Table&&)>& sink) && {
  FileHead head;  // stays empty for a buffer, which is its own sample
  if (from_file_) {
    PARPARAW_ASSIGN_OR_RETURN(head,
                              ReadFileHead(path_, kHeadSampleBytes, "reader"));
  }
  LoadResult resolution;
  PARPARAW_ASSIGN_OR_RETURN(
      ParseOptions base,
      BulkLoader::ResolveBaseOptions(from_file_ ? head.bytes : buffer_,
                                     head.truncated, options_, &resolution));

  exec::PipelineExecutor executor;
  exec::ExecOptions exec_options;
  exec_options.base = base;
  exec_options.partition_size = options_.partition_size;
  Result<exec::IngestResult> ingested =
      from_file_ ? executor.StreamFile(path_, exec_options, sink)
                 : executor.StreamBuffer(buffer_, exec_options, sink);
  PARPARAW_RETURN_NOT_OK(ingested.status());
  return ingested->stats;
}

Result<plan::ParsePlan> Reader::Explain() && {
  FileHead head;  // stays empty for a buffer, which is its own sample
  if (from_file_) {
    PARPARAW_ASSIGN_OR_RETURN(head,
                              ReadFileHead(path_, kHeadSampleBytes, "reader"));
  }
  const std::string_view sample = from_file_ ? head.bytes : buffer_;
  LoadResult resolution;
  PARPARAW_ASSIGN_OR_RETURN(
      ParseOptions base,
      BulkLoader::ResolveBaseOptions(sample, head.truncated, options_,
                                     &resolution));
  PARPARAW_RETURN_NOT_OK(base.Validate());
  // The base carries the packed format a real parse runs with, any
  // dialect already compiled, which the planner's chunk rule reads.
  return plan::PlanStream(
      from_file_ ? head.file_size : static_cast<int64_t>(buffer_.size()),
      &base);
}

}  // namespace parparaw
