#include "serve/client.h"

#include <utility>

#include "columnar/ipc.h"

namespace parparaw {
namespace serve {

namespace {

uint8_t RequestFlags(const RequestOptions& options) {
  uint8_t flags = 0;
  if (options.stream) flags |= kFlagStream;
  if (options.want_quarantine) flags |= kFlagQuarantine;
  return flags;
}

RequestHeader ToHeader(const RequestOptions& options) {
  RequestHeader header;
  header.error_policy = options.error_policy;
  header.header = options.header;
  header.memory_budget = options.memory_budget;
  header.partition_size = options.partition_size;
  header.deadline_ms = options.deadline_ms;
  return header;
}

}  // namespace

Result<Client> Client::Connect(uint16_t port, int connect_timeout_ms) {
  PARPARAW_ASSIGN_OR_RETURN(Socket sock,
                            ConnectLoopback(port, connect_timeout_ms));
  return Client(std::move(sock));
}

Status Client::Transport(Status status) {
  if (!status.ok()) last_error_was_transport_ = true;
  return status;
}

Status Client::SendFrame(Opcode opcode, uint8_t flags,
                         std::string_view payload) {
  last_error_was_transport_ = false;
  return Transport(
      WriteFrame(sock_.fd(), opcode, flags, checksums_, payload,
                 io_timeout_ms_));
}

Status Client::SendRequest(Opcode opcode, uint8_t flags,
                           std::string_view body,
                           const RequestOptions& options) {
  std::string payload = EncodeRequestHeader(ToHeader(options));
  payload.append(body);
  return SendFrame(opcode, flags, payload);
}

Result<Client::Frame> Client::ReadFrame() {
  Frame frame;
  FrameRead read = ReadFrameHeader(sock_.fd(), kDefaultMaxPayload,
                                   &frame.header, nullptr, io_timeout_ms_);
  if (read.ok()) {
    read = ReadFramePayload(sock_.fd(), frame.header, &frame.payload,
                            io_timeout_ms_);
  }
  // Every failure is a transport error. A checksum mismatch means the
  // stream carried a flipped bit: the caller must reconnect, never decode
  // a silently different table.
  PARPARAW_RETURN_NOT_OK(Transport(read.status));
  return frame;
}

Status Client::Ping(std::string_view token) {
  PARPARAW_RETURN_NOT_OK(SendFrame(Opcode::kPing, 0, token));
  PARPARAW_ASSIGN_OR_RETURN(const Frame reply, ReadFrame());
  if (reply.header.opcode != Opcode::kPong) {
    return Status::IoError("expected kPong, got opcode " +
                           std::to_string(
                               static_cast<int>(reply.header.opcode)));
  }
  if (reply.payload != token) {
    return Status::IoError("ping payload did not echo back");
  }
  return Status::OK();
}

Result<ParseReply> Client::Parse(std::string_view data,
                                 const RequestOptions& options) {
  return DoParse(Opcode::kParseBuffer, data, options);
}

Result<ParseReply> Client::ParseFile(const std::string& path,
                                     const RequestOptions& options) {
  return DoParse(Opcode::kParseFile, path, options);
}

Result<ParseReply> Client::DoParse(Opcode opcode, std::string_view body,
                                   const RequestOptions& options) {
  PARPARAW_RETURN_NOT_OK(
      SendRequest(opcode, RequestFlags(options), body, options));
  ParseReply reply;
  bool expect_quarantine = false;
  while (true) {
    PARPARAW_ASSIGN_OR_RETURN(const Frame frame, ReadFrame());
    switch (frame.header.opcode) {
      case Opcode::kBusy:
        reply.busy = true;
        return reply;
      case Opcode::kError:
        return DecodeErrorPayload(frame.payload);
      case Opcode::kOkTable: {
        PARPARAW_ASSIGN_OR_RETURN(reply.table,
                                  DeserializeTable(frame.payload));
        if ((frame.header.flags & kFlagQuarantine) == 0) return reply;
        expect_quarantine = true;
        break;
      }
      case Opcode::kTablePart: {
        PARPARAW_ASSIGN_OR_RETURN(Table part,
                                  DeserializeTable(frame.payload));
        reply.parts.push_back(std::move(part));
        break;
      }
      case Opcode::kEnd: {
        PARPARAW_ASSIGN_OR_RETURN(reply.parts_declared,
                                  DecodeEndPayload(frame.payload));
        if (reply.parts_declared != reply.parts.size()) {
          return Status::IoError(
              "stream declared " + std::to_string(reply.parts_declared) +
              " partitions but sent " + std::to_string(reply.parts.size()));
        }
        if ((frame.header.flags & kFlagQuarantine) == 0) return reply;
        expect_quarantine = true;
        break;
      }
      case Opcode::kQuarantine: {
        if (!expect_quarantine) {
          return Status::IoError("unexpected kQuarantine frame");
        }
        PARPARAW_ASSIGN_OR_RETURN(reply.quarantine,
                                  DeserializeQuarantine(frame.payload));
        reply.has_quarantine = true;
        return reply;
      }
      default:
        return Status::IoError(
            "unexpected response opcode " +
            std::to_string(static_cast<int>(frame.header.opcode)));
    }
  }
}

Result<QueryReply> Client::Query(std::string_view data,
                                 const Predicate& predicate,
                                 const RequestOptions& options) {
  return DoQuery(Opcode::kQueryBuffer, data, predicate, options);
}

Result<QueryReply> Client::QueryFile(const std::string& path,
                                     const Predicate& predicate,
                                     const RequestOptions& options) {
  return DoQuery(Opcode::kQueryFile, path, predicate, options);
}

Result<QueryReply> Client::DoQuery(Opcode opcode, std::string_view body,
                                   const Predicate& predicate,
                                   const RequestOptions& options) {
  std::string request = EncodePredicateBlock(predicate);
  request.append(body);
  PARPARAW_RETURN_NOT_OK(SendRequest(opcode, 0, request, options));
  PARPARAW_ASSIGN_OR_RETURN(const Frame frame, ReadFrame());
  QueryReply reply;
  switch (frame.header.opcode) {
    case Opcode::kBusy:
      reply.busy = true;
      return reply;
    case Opcode::kError:
      return DecodeErrorPayload(frame.payload);
    case Opcode::kOkQuery: {
      PARPARAW_ASSIGN_OR_RETURN(const QueryPayload body,
                                DecodeQueryPayload(frame.payload));
      reply.records_scanned = body.records_scanned;
      reply.records_selected = body.records_selected;
      PARPARAW_ASSIGN_OR_RETURN(reply.table, DeserializeTable(body.table_ipc));
      return reply;
    }
    default:
      return Status::IoError(
          "unexpected response opcode " +
          std::to_string(static_cast<int>(frame.header.opcode)));
  }
}

Result<std::string> Client::Stats() {
  PARPARAW_RETURN_NOT_OK(SendFrame(Opcode::kStats, 0, {}));
  PARPARAW_ASSIGN_OR_RETURN(const Frame reply, ReadFrame());
  if (reply.header.opcode == Opcode::kError) {
    return DecodeErrorPayload(reply.payload);
  }
  if (reply.header.opcode != Opcode::kStatsText) {
    return Status::IoError("expected kStatsText");
  }
  return reply.payload;
}

}  // namespace serve
}  // namespace parparaw
