#include "serve/protocol.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "robust/failpoint.h"
#include "serve/socket_io.h"
#include "util/crc32c.h"

namespace parparaw {
namespace serve {

namespace {

void AppendU32(uint32_t v, std::string* out) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 4);
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 8);
}

uint32_t ReadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

uint64_t ReadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

bool KnownOpcode(uint8_t raw) {
  switch (static_cast<Opcode>(raw)) {
    case Opcode::kPing:
    case Opcode::kParseBuffer:
    case Opcode::kParseFile:
    case Opcode::kQueryBuffer:
    case Opcode::kQueryFile:
    case Opcode::kStats:
    case Opcode::kOkTable:
    case Opcode::kOkQuery:
    case Opcode::kError:
    case Opcode::kBusy:
    case Opcode::kPong:
    case Opcode::kTablePart:
    case Opcode::kEnd:
    case Opcode::kQuarantine:
    case Opcode::kStatsText:
      return true;
  }
  return false;
}

bool KnownCompareOp(uint8_t raw) {
  return raw <= static_cast<uint8_t>(CompareOp::kIsNotNull);
}

bool KnownStatusCode(uint8_t raw) {
  return raw <= static_cast<uint8_t>(StatusCode::kDeadlineExceeded);
}

}  // namespace

void AppendFrame(Opcode opcode, uint8_t flags, std::string_view payload,
                 std::string* out) {
  AppendU32(kFrameMagic, out);
  out->push_back(static_cast<char>(opcode));
  out->push_back(static_cast<char>(flags));
  out->push_back(0);  // reserved
  out->push_back(0);
  AppendU64(payload.size(), out);
  const size_t payload_at = out->size();
  out->append(payload);
  if ((flags & kFlagChecksum) != 0) {
    const uint32_t crc = Crc32c(payload);
    // serve.corrupt simulates a flipped bit on the wire: the CRC above is
    // honest, the payload underneath it is not, so the receiver MUST
    // reject the frame. Only armed for checksummed frames — corrupting
    // an unchecksummed frame would be silent, which is the very failure
    // mode this flag exists to rule out.
    if (!robust::CheckFailpoint("serve.corrupt").ok() && !payload.empty()) {
      (*out)[payload_at + payload.size() / 2] ^= 0x01;
    }
    AppendU32(crc, out);
  }
}

std::string EncodeRequestHeader(const RequestHeader& header) {
  std::string out;
  out.reserve(kRequestHeaderSize);
  out.push_back(static_cast<char>(header.version));
  out.push_back(static_cast<char>(header.error_policy));
  out.push_back(static_cast<char>(header.header));
  out.push_back(0);  // reserved
  AppendU64(static_cast<uint64_t>(header.memory_budget), &out);
  AppendU64(header.partition_size, &out);
  if (header.version >= kProtocolVersion) {
    AppendU32(header.deadline_ms, &out);
  }
  return out;
}

std::string EncodePredicateBlock(const Predicate& predicate) {
  std::string out;
  AppendU32(static_cast<uint32_t>(predicate.column), &out);
  out.push_back(static_cast<char>(predicate.op));
  out.append(3, '\0');
  AppendU32(static_cast<uint32_t>(predicate.literal.size()), &out);
  out.append(predicate.literal);
  return out;
}

std::string EncodeErrorPayload(const Status& status) {
  std::string out;
  out.push_back(static_cast<char>(status.code()));
  AppendU32(static_cast<uint32_t>(status.message().size()), &out);
  out.append(status.message());
  return out;
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes,
                                      uint64_t max_payload) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::Invalid("frame header truncated (" +
                           std::to_string(bytes.size()) + " of " +
                           std::to_string(kFrameHeaderSize) + " bytes)");
  }
  const char* p = bytes.data();
  if (ReadU32(p) != kFrameMagic) {
    return Status::Invalid("bad frame magic");
  }
  const uint8_t opcode = static_cast<uint8_t>(p[4]);
  if (!KnownOpcode(opcode)) {
    return Status::Invalid("unknown opcode " + std::to_string(opcode));
  }
  if (p[6] != 0 || p[7] != 0) {
    return Status::Invalid("reserved header bytes must be zero");
  }
  FrameHeader header;
  header.opcode = static_cast<Opcode>(opcode);
  header.flags = static_cast<uint8_t>(p[5]);
  header.payload_size = ReadU64(p + 8);
  // A u64 length also catches "negative" lengths from signed writers:
  // they arrive as huge values and fail this cap.
  if (header.payload_size > max_payload) {
    return Status::Invalid("declared payload of " +
                           std::to_string(header.payload_size) +
                           " bytes exceeds the " +
                           std::to_string(max_payload) + "-byte cap");
  }
  return header;
}

bool IsRequestOpcode(Opcode opcode) {
  switch (opcode) {
    case Opcode::kPing:
    case Opcode::kParseBuffer:
    case Opcode::kParseFile:
    case Opcode::kQueryBuffer:
    case Opcode::kQueryFile:
    case Opcode::kStats:
      return true;
    default:
      return false;
  }
}

Result<RequestHeader> DecodeRequestHeader(std::string_view payload) {
  if (payload.empty()) {
    return Status::Invalid("request header truncated");
  }
  const char* p = payload.data();
  RequestHeader header;
  header.version = static_cast<uint8_t>(p[0]);
  if (header.version != kProtocolVersionV1 &&
      header.version != kProtocolVersion) {
    return Status::Invalid("unsupported protocol version " +
                           std::to_string(header.version));
  }
  header.encoded_size = header.version == kProtocolVersionV1
                            ? kRequestHeaderSizeV1
                            : kRequestHeaderSize;
  if (payload.size() < header.encoded_size) {
    return Status::Invalid("request header truncated");
  }
  header.error_policy = static_cast<uint8_t>(p[1]);
  if (header.error_policy >
      static_cast<uint8_t>(robust::ErrorPolicy::kQuarantine)) {
    return Status::Invalid("unknown error policy " +
                           std::to_string(header.error_policy));
  }
  header.header = static_cast<uint8_t>(p[2]);
  if (header.header > 2) {
    return Status::Invalid("header byte must be 0, 1 or 2");
  }
  if (p[3] != 0) {
    return Status::Invalid("reserved request byte must be zero");
  }
  header.memory_budget = static_cast<int64_t>(ReadU64(p + 4));
  if (header.memory_budget < 0) {
    return Status::Invalid("negative memory budget");
  }
  header.partition_size = ReadU64(p + 12);
  if (header.version >= kProtocolVersion) {
    header.deadline_ms = ReadU32(p + 20);
  }
  return header;
}

Status VerifyFrameChecksum(std::string_view payload,
                           std::string_view trailer) {
  if (trailer.size() != kFrameChecksumSize) {
    return Status::Invalid("frame checksum trailer truncated");
  }
  const uint32_t declared = ReadU32(trailer.data());
  const uint32_t actual = Crc32c(payload);
  if (declared != actual) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%08x, computed %08x", declared, actual);
    return Status::Invalid(std::string("frame checksum mismatch: declared ") +
                           hex);
  }
  return Status::OK();
}

Result<PredicateBlock> DecodePredicateBlock(std::string_view after_header) {
  constexpr size_t kFixed = 4 + 1 + 3 + 4;
  if (after_header.size() < kFixed) {
    return Status::Invalid("predicate block truncated");
  }
  const char* p = after_header.data();
  PredicateBlock block;
  const uint32_t column = ReadU32(p);
  if (column > (1u << 20)) {
    return Status::Invalid("predicate column out of range");
  }
  block.predicate.column = static_cast<int>(column);
  const uint8_t op = static_cast<uint8_t>(p[4]);
  if (!KnownCompareOp(op)) {
    return Status::Invalid("unknown predicate operator " +
                           std::to_string(op));
  }
  block.predicate.op = static_cast<CompareOp>(op);
  if (p[5] != 0 || p[6] != 0 || p[7] != 0) {
    return Status::Invalid("reserved predicate bytes must be zero");
  }
  const uint32_t literal_size = ReadU32(p + 8);
  if (literal_size > after_header.size() - kFixed) {
    return Status::Invalid("predicate literal overruns the payload");
  }
  block.predicate.literal.assign(after_header.substr(kFixed, literal_size));
  block.encoded_size = kFixed + literal_size;
  return block;
}

Status DecodeErrorPayload(std::string_view payload) {
  if (payload.size() < 5) {
    return Status::Invalid("error payload truncated");
  }
  const uint8_t code = static_cast<uint8_t>(payload[0]);
  if (!KnownStatusCode(code) || code == 0) {
    return Status::Invalid("error payload carries invalid code " +
                           std::to_string(code));
  }
  const uint32_t length = ReadU32(payload.data() + 1);
  if (length != payload.size() - 5) {
    return Status::Invalid("error payload length mismatch");
  }
  return Status(static_cast<StatusCode>(code),
                std::string(payload.substr(5, length)));
}

std::string EncodeEndPayload(uint64_t parts) {
  std::string out;
  AppendU64(parts, &out);
  return out;
}

std::string EncodeQueryPayload(const QueryPayload& payload) {
  std::string out;
  out.reserve(16 + payload.table_ipc.size());
  AppendU64(static_cast<uint64_t>(payload.records_scanned), &out);
  AppendU64(static_cast<uint64_t>(payload.records_selected), &out);
  out.append(payload.table_ipc);
  return out;
}

Result<uint64_t> DecodeEndPayload(std::string_view payload) {
  if (payload.size() != 8) {
    return Status::IoError("kEnd payload must be 8 bytes");
  }
  return ReadU64(payload.data());
}

Result<QueryPayload> DecodeQueryPayload(std::string_view payload) {
  if (payload.size() < 16) {
    return Status::IoError("kOkQuery payload too small");
  }
  QueryPayload decoded;
  decoded.records_scanned = static_cast<int64_t>(ReadU64(payload.data()));
  decoded.records_selected = static_cast<int64_t>(ReadU64(payload.data() + 8));
  decoded.table_ipc = payload.substr(16);
  return decoded;
}

FrameRead ReadFrameHeader(int fd, uint64_t max_payload, FrameHeader* header,
                          bool* eof, int timeout_ms) {
  std::string bytes;
  Status received = RecvExact(fd, kFrameHeaderSize, &bytes, eof, timeout_ms);
  if (!received.ok()) return {FrameFault::kReceive, std::move(received)};
  if (eof != nullptr && *eof) return {};
  Result<FrameHeader> decoded = DecodeFrameHeader(bytes, max_payload);
  if (!decoded.ok()) return {FrameFault::kDecode, decoded.status()};
  *header = *decoded;
  return {};
}

FrameRead ReadFramePayload(int fd, const FrameHeader& header,
                           std::string* payload, int timeout_ms) {
  Status received = RecvExact(fd, static_cast<size_t>(header.payload_size),
                              payload, nullptr, timeout_ms);
  if (!received.ok()) return {FrameFault::kReceive, std::move(received)};
  if ((header.flags & kFlagChecksum) == 0) return {};
  std::string trailer;
  received = RecvExact(fd, kFrameChecksumSize, &trailer, nullptr, timeout_ms);
  if (!received.ok()) return {FrameFault::kReceive, std::move(received)};
  Status verified = VerifyFrameChecksum(*payload, trailer);
  if (!verified.ok()) return {FrameFault::kChecksum, std::move(verified)};
  return {};
}

Status WriteFrame(int fd, Opcode opcode, uint8_t flags, bool checksum,
                  std::string_view payload, int timeout_ms) {
  if (checksum) flags |= kFlagChecksum;
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size() + kFrameChecksumSize);
  AppendFrame(opcode, flags, payload, &frame);
  return SendAll(fd, frame, timeout_ms);
}

}  // namespace serve
}  // namespace parparaw
