#ifndef PARPARAW_SERVE_PROTOCOL_H_
#define PARPARAW_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "query/predicate.h"
#include "robust/quarantine.h"
#include "util/result.h"

namespace parparaw {
namespace serve {

/// \brief The parparawd wire protocol (see docs/serving.md for the spec).
///
/// Length-prefixed binary frames over TCP, memcached-binary-style: a
/// fixed 16-byte header followed by an opcode-specific payload. All
/// integers little-endian. One request frame yields one response frame,
/// except streaming parses (kFlagStream), which yield zero or more
/// kTablePart frames terminated by kEnd, and quarantine-carrying
/// responses (kFlagQuarantine), which append one kQuarantine frame.
///
/// The decoder never trusts a length: payloads are capped
/// (`max_payload`), reserved bytes must be zero, unknown opcodes and
/// versions are explicit protocol errors. A malformed frame is answered
/// with kError{kInvalidArgument} and the connection is closed — after
/// garbage the stream cannot be resynchronised. The fuzz suite
/// (tests/serve_protocol_test.cc) drives 10k+ seeded malformed frames
/// through this contract.

/// Frame magic: "PPD1" little-endian.
inline constexpr uint32_t kFrameMagic = 0x31445050u;

/// Fixed frame header size on the wire.
inline constexpr size_t kFrameHeaderSize = 16;

/// Protocol version carried inside request payloads. v2 appends a
/// 4-byte deadline_ms to the RequestHeader and defines the kFlagChecksum
/// frame flag; the daemon still accepts v1 requests (deadline = none).
inline constexpr uint8_t kProtocolVersion = 2;
inline constexpr uint8_t kProtocolVersionV1 = 1;

/// Default cap on a single frame payload (requests and responses). The
/// server rejects larger declared lengths *before* allocating.
inline constexpr uint64_t kDefaultMaxPayload = 256ull << 20;

enum class Opcode : uint8_t {
  // --- requests ---
  kPing = 0x01,
  /// Parse uploaded bytes: payload = RequestHeader | data.
  kParseBuffer = 0x02,
  /// Parse a server-local file: payload = RequestHeader | path.
  kParseFile = 0x03,
  /// Pushdown query over uploaded bytes:
  /// payload = RequestHeader | PredicateBlock | data.
  kQueryBuffer = 0x04,
  /// Pushdown query over a server-local file:
  /// payload = RequestHeader | PredicateBlock | path.
  kQueryFile = 0x05,
  /// Server metrics snapshot (text).
  kStats = 0x06,

  // --- responses ---
  /// Payload = table IPC bytes (columnar/ipc.h, "PPRW" framing).
  kOkTable = 0x81,
  /// Payload = u64 records_scanned | u64 records_selected | table IPC.
  kOkQuery = 0x82,
  /// Payload = u8 StatusCode | u32 length | message bytes.
  kError = 0x83,
  /// Shed at the admission limit; payload empty. The client retries.
  kBusy = 0x84,
  kPong = 0x85,
  /// One partition's table IPC bytes (streaming mode).
  kTablePart = 0x86,
  /// Streaming terminator; payload = u64 partitions delivered.
  kEnd = 0x87,
  /// Quarantine IPC bytes ("PPQR" framing), appended after kOkTable/kEnd
  /// when the request set kFlagQuarantine.
  kQuarantine = 0x88,
  /// Payload = metrics summary text.
  kStatsText = 0x89,
};

/// Request flags (frame header `flags` byte).
inline constexpr uint8_t kFlagStream = 0x01;
inline constexpr uint8_t kFlagQuarantine = 0x02;
/// v2: a 4-byte CRC-32C of the payload (util/crc32c.h) follows the
/// payload on the wire; `payload_size` does NOT count the trailer. The
/// daemon mirrors the flag on every response frame of a checksummed
/// request, and a mismatch on either side is a protocol error that
/// closes the connection (a corrupted length-prefixed stream cannot be
/// resynchronised, and a corrupted payload must never become a parse).
inline constexpr uint8_t kFlagChecksum = 0x04;

/// Wire size of the CRC-32C trailer appended to checksummed frames.
inline constexpr size_t kFrameChecksumSize = 4;

/// Decoded frame header.
struct FrameHeader {
  Opcode opcode = Opcode::kPing;
  uint8_t flags = 0;
  uint64_t payload_size = 0;
};

/// Fixed-size options block opening every parse/query request payload.
/// Kept deliberately narrow: the daemon's defaults mirror
/// parparaw::Reader (sniffed dialect, inferred types), so a request only
/// states what it wants to override.
struct RequestHeader {
  uint8_t version = kProtocolVersion;
  /// robust::ErrorPolicy as its uint8_t value.
  uint8_t error_policy = 0;
  /// 0 = no header row, 1 = header row, 2 = auto (sniff).
  uint8_t header = 2;
  /// Soft working-set cap for this request; 0 = the server's
  /// per-connection slice of its global budget.
  int64_t memory_budget = 0;
  /// Partition size; 0 = server default.
  uint64_t partition_size = 0;
  /// v2 only: wall-clock budget for the whole request, measured from the
  /// moment the daemon decodes the header; 0 = no deadline. An expired
  /// deadline — waiting for an admission slot or mid-ingest — answers
  /// kError{kDeadlineExceeded} with every admission slot returned.
  uint32_t deadline_ms = 0;
  /// Bytes the header occupied on the wire (set by the decoder; v1 = 20,
  /// v2 = 24), so the caller can find the data that follows.
  size_t encoded_size = 0;
};

/// Wire sizes of RequestHeader by version.
inline constexpr size_t kRequestHeaderSizeV1 = 1 + 1 + 1 + 1 + 8 + 8;
inline constexpr size_t kRequestHeaderSize = kRequestHeaderSizeV1 + 4;

/// Predicate block of kQueryBuffer/kQueryFile:
/// u32 column | u8 op | u8[3] zero | u32 literal length | literal.
struct PredicateBlock {
  Predicate predicate;
  /// Bytes the block occupied (so the caller can find the data).
  size_t encoded_size = 0;
};

// --- encoding (infallible: writers control their inputs) ---

/// Appends a frame (header + payload) to `out`. When `flags` carries
/// kFlagChecksum the CRC-32C trailer is appended after the payload (and
/// the `serve.corrupt` failpoint, if armed, flips one payload bit *after*
/// the CRC is computed — the receiver must detect the mismatch).
void AppendFrame(Opcode opcode, uint8_t flags, std::string_view payload,
                 std::string* out);

std::string EncodeRequestHeader(const RequestHeader& header);
std::string EncodePredicateBlock(const Predicate& predicate);

/// Error response payload.
std::string EncodeErrorPayload(const Status& status);

// --- decoding (defensive: every length and enum is validated) ---

/// Decodes the 16-byte header. `max_payload` bounds the declared length;
/// a violation (bad magic, nonzero reserved bytes, oversized payload) is
/// an InvalidArgument carrying the reason.
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes,
                                      uint64_t max_payload);

/// True when `opcode` is one a *client* may send.
bool IsRequestOpcode(Opcode opcode);

/// Decodes a RequestHeader from the front of a request payload. Accepts
/// v1 (20 bytes, deadline_ms = 0) and v2 (24 bytes); the decoded
/// `encoded_size` tells the caller where the data starts.
Result<RequestHeader> DecodeRequestHeader(std::string_view payload);

/// Verifies a checksummed frame: `trailer` is the 4-byte CRC read off the
/// wire after `payload`. A mismatch is an InvalidArgument whose message
/// starts with "frame checksum mismatch" — by contract a protocol error.
Status VerifyFrameChecksum(std::string_view payload, std::string_view trailer);

/// Decodes the predicate block that follows the RequestHeader.
Result<PredicateBlock> DecodePredicateBlock(std::string_view after_header);

/// Decodes an error payload back into the remote Status (never OK). A
/// malformed payload instead yields a local InvalidArgument whose message
/// starts with "error payload".
Status DecodeErrorPayload(std::string_view payload);

// --- response payloads ---

/// kOkQuery payload: u64 records_scanned | u64 records_selected | table IPC.
struct QueryPayload {
  int64_t records_scanned = 0;
  int64_t records_selected = 0;
  /// The table IPC bytes; decoding leaves a view into the payload.
  std::string_view table_ipc;
};

/// kEnd payload: the u64 number of kTablePart frames the stream sent.
std::string EncodeEndPayload(uint64_t parts);
std::string EncodeQueryPayload(const QueryPayload& payload);

/// A response payload of the wrong size is an IoError: the client reports
/// it as a broken response, like a failed receive.
Result<uint64_t> DecodeEndPayload(std::string_view payload);
Result<QueryPayload> DecodeQueryPayload(std::string_view payload);

// --- frame I/O: the one reader and writer of both ends ---

/// The step a frame read failed in. An injected serve.read fault can carry
/// any status code, so the daemon tells its failure classes apart by step:
///   kReceive   the bytes never arrived (recv error or timeout, injected
///              fault, EOF mid-frame); there is nothing to answer
///   kDecode    the header does not decode against the payload cap
///   kChecksum  the payload does not match its CRC-32C trailer
enum class FrameFault : uint8_t { kNone, kReceive, kDecode, kChecksum };

/// One step of a frame read: OK, or the failure and the step it failed in.
struct FrameRead {
  FrameFault fault = FrameFault::kNone;
  Status status;
  bool ok() const { return fault == FrameFault::kNone; }
};

/// Step one of a frame read: receives the 16-byte header off `fd` and
/// decodes it against `max_payload`, so an oversized length is refused
/// before a payload byte is read. A clean EOF before the first byte sets
/// `*eof` when `eof` is given, and is a receive failure otherwise.
/// `timeout_ms` bounds each receive attempt as for RecvExact.
FrameRead ReadFrameHeader(int fd, uint64_t max_payload, FrameHeader* header,
                          bool* eof = nullptr, int timeout_ms = -1);

/// Step two: receives the payload straight into `*payload`, then, when
/// `header` carries kFlagChecksum, the CRC-32C trailer, which it verifies.
FrameRead ReadFramePayload(int fd, const FrameHeader& header,
                           std::string* payload, int timeout_ms = -1);

/// Writes one frame with SendAll under `timeout_ms`. `checksum` sets
/// kFlagChecksum in `flags`, so the frame carries a CRC-32C trailer.
Status WriteFrame(int fd, Opcode opcode, uint8_t flags, bool checksum,
                  std::string_view payload, int timeout_ms = -1);

}  // namespace serve
}  // namespace parparaw

#endif  // PARPARAW_SERVE_PROTOCOL_H_
