// Protocol conformance and fuzz suite for parparawd (src/serve).
//
// Conformance: every encoder/decoder round-trips; every malformed input
// class (truncated header, bad magic, unknown opcode, nonzero reserved
// bytes, oversized/"negative" declared lengths, garbage payloads,
// mid-frame disconnects, byte-at-a-time and pipelined writes) yields a
// clean protocol error or a closed connection — never a crash, hang, or
// wrong answer. The fuzz section drives 10k+ seeded malformed frames at
// a live daemon and then proves it still serves bit-identical parses.
// scripts/check.sh serve runs this file under ASan and UBSan.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/reader.h"
#include "io/file.h"
#include "query/pushdown.h"
#include "robust/failpoint.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/socket_io.h"
#include "workload/generators.h"

namespace parparaw {
namespace serve {
namespace {

std::string SmallCsv() {
  return "id,name,score\n1,alpha,3.5\n2,beta,4.0\n3,gamma,1.25\n";
}

// --- encoder/decoder conformance ---

TEST(ServeProtocolTest, FrameHeaderRoundTrip) {
  std::string frame;
  AppendFrame(Opcode::kParseBuffer, kFlagStream, "payload", &frame);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + 7);
  auto header = DecodeFrameHeader(frame, kDefaultMaxPayload);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->opcode, Opcode::kParseBuffer);
  EXPECT_EQ(header->flags, kFlagStream);
  EXPECT_EQ(header->payload_size, 7u);
}

TEST(ServeProtocolTest, FrameHeaderRejectsMalformed) {
  std::string frame;
  AppendFrame(Opcode::kPing, 0, "x", &frame);
  // Truncated header.
  EXPECT_FALSE(DecodeFrameHeader(frame.substr(0, 15), kDefaultMaxPayload).ok());
  EXPECT_FALSE(DecodeFrameHeader("", kDefaultMaxPayload).ok());
  // Bad magic.
  std::string bad = frame;
  bad[0] = 'X';
  EXPECT_FALSE(DecodeFrameHeader(bad, kDefaultMaxPayload).ok());
  // Unknown opcode.
  bad = frame;
  bad[4] = '\x7F';
  EXPECT_FALSE(DecodeFrameHeader(bad, kDefaultMaxPayload).ok());
  // Nonzero reserved bytes.
  bad = frame;
  bad[6] = 1;
  EXPECT_FALSE(DecodeFrameHeader(bad, kDefaultMaxPayload).ok());
  // Oversized declared payload.
  bad = frame;
  bad[14] = '\x7F';  // huge length in the upper bytes
  EXPECT_FALSE(DecodeFrameHeader(bad, kDefaultMaxPayload).ok());
  // A "negative" length from a signed writer: all-ones u64.
  bad = frame;
  for (int i = 8; i < 16; ++i) bad[i] = '\xFF';
  EXPECT_FALSE(DecodeFrameHeader(bad, kDefaultMaxPayload).ok());
}

TEST(ServeProtocolTest, RequestHeaderRoundTrip) {
  RequestHeader header;
  header.error_policy = 3;  // kQuarantine
  header.header = 1;
  header.memory_budget = 1 << 20;
  header.partition_size = 4096;
  header.deadline_ms = 1500;
  const std::string encoded = EncodeRequestHeader(header);
  ASSERT_EQ(encoded.size(), kRequestHeaderSize);
  auto decoded = DecodeRequestHeader(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->error_policy, 3);
  EXPECT_EQ(decoded->header, 1);
  EXPECT_EQ(decoded->memory_budget, 1 << 20);
  EXPECT_EQ(decoded->partition_size, 4096u);
  EXPECT_EQ(decoded->deadline_ms, 1500u);
  EXPECT_EQ(decoded->encoded_size, kRequestHeaderSize);
}

TEST(ServeProtocolTest, V1RequestHeaderStillDecodes) {
  // A v1 client's 20-byte header (no deadline field) must keep working
  // against a v2 daemon: deadline absent, encoded_size telling the
  // caller where the data starts.
  RequestHeader header;
  header.version = kProtocolVersionV1;
  header.header = 0;
  header.partition_size = 8192;
  const std::string encoded = EncodeRequestHeader(header);
  ASSERT_EQ(encoded.size(), kRequestHeaderSizeV1);
  auto decoded = DecodeRequestHeader(encoded + "trailing-data");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, kProtocolVersionV1);
  EXPECT_EQ(decoded->partition_size, 8192u);
  EXPECT_EQ(decoded->deadline_ms, 0u);
  EXPECT_EQ(decoded->encoded_size, kRequestHeaderSizeV1);
  // A v1-sized payload claiming v2 is truncated, not silently misread.
  std::string lying = encoded;
  lying[0] = kProtocolVersion;
  EXPECT_FALSE(DecodeRequestHeader(lying).ok());
}

TEST(ServeProtocolTest, ChecksummedFrameRoundTrips) {
  std::string frame;
  AppendFrame(Opcode::kParseBuffer, kFlagChecksum, "payload", &frame);
  // Trailer follows the payload and is excluded from payload_size.
  ASSERT_EQ(frame.size(), kFrameHeaderSize + 7 + kFrameChecksumSize);
  auto header = DecodeFrameHeader(frame, kDefaultMaxPayload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->payload_size, 7u);
  EXPECT_NE(header->flags & kFlagChecksum, 0);
  const std::string_view payload =
      std::string_view(frame).substr(kFrameHeaderSize, 7);
  const std::string_view trailer =
      std::string_view(frame).substr(kFrameHeaderSize + 7);
  EXPECT_TRUE(VerifyFrameChecksum(payload, trailer).ok());
}

TEST(ServeProtocolTest, ChecksumDetectsEveryPayloadBitFlip) {
  std::string frame;
  AppendFrame(Opcode::kParseBuffer, kFlagChecksum, "sensitive", &frame);
  const size_t payload_at = kFrameHeaderSize;
  const size_t payload_size = 9;
  for (size_t byte = 0; byte < payload_size + kFrameChecksumSize; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = frame;
      corrupt[payload_at + byte] ^= static_cast<char>(1 << bit);
      const Status verdict = VerifyFrameChecksum(
          std::string_view(corrupt).substr(payload_at, payload_size),
          std::string_view(corrupt).substr(payload_at + payload_size));
      EXPECT_FALSE(verdict.ok()) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(ServeProtocolTest, RequestHeaderRejectsMalformed) {
  const std::string good = EncodeRequestHeader(RequestHeader{});
  EXPECT_FALSE(DecodeRequestHeader(good.substr(0, 5)).ok());  // truncated
  std::string bad = good;
  bad[0] = 9;  // unsupported version
  EXPECT_FALSE(DecodeRequestHeader(bad).ok());
  bad = good;
  bad[1] = 77;  // unknown error policy
  EXPECT_FALSE(DecodeRequestHeader(bad).ok());
  bad = good;
  bad[2] = 3;  // header byte out of range
  EXPECT_FALSE(DecodeRequestHeader(bad).ok());
  bad = good;
  bad[3] = 1;  // reserved byte
  EXPECT_FALSE(DecodeRequestHeader(bad).ok());
  bad = good;
  bad[11] = '\xFF';  // negative memory budget (sign bit set)
  EXPECT_FALSE(DecodeRequestHeader(bad).ok());
}

TEST(ServeProtocolTest, PredicateBlockRoundTrip) {
  Predicate predicate(2, CompareOp::kContains, "needle");
  const std::string encoded = EncodePredicateBlock(predicate);
  auto decoded = DecodePredicateBlock(encoded + "trailing-body");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->predicate.column, 2);
  EXPECT_EQ(decoded->predicate.op, CompareOp::kContains);
  EXPECT_EQ(decoded->predicate.literal, "needle");
  EXPECT_EQ(decoded->encoded_size, encoded.size());
}

TEST(ServeProtocolTest, PredicateBlockRejectsMalformed) {
  const std::string good = EncodePredicateBlock(Predicate(0, CompareOp::kEq));
  EXPECT_FALSE(DecodePredicateBlock(good.substr(0, 3)).ok());  // truncated
  std::string bad = good;
  bad[4] = 99;  // unknown operator
  EXPECT_FALSE(DecodePredicateBlock(bad).ok());
  bad = good;
  bad[5] = 1;  // reserved byte
  EXPECT_FALSE(DecodePredicateBlock(bad).ok());
  bad = good;
  bad[8] = '\xFF';  // literal length overruns the payload
  EXPECT_FALSE(DecodePredicateBlock(bad).ok());
}

TEST(ServeProtocolTest, ErrorPayloadRoundTrip) {
  const Status original = Status::ParseError("ragged record at byte 17");
  const Status decoded = DecodeErrorPayload(EncodeErrorPayload(original));
  EXPECT_EQ(decoded.code(), original.code());
  EXPECT_EQ(decoded.message(), original.message());
  // Malformed payloads decode to a *local* InvalidArgument.
  EXPECT_EQ(DecodeErrorPayload("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeErrorPayload("\x00\x00\x00\x00\x00").code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, ResponsePayloadsRoundTrip) {
  auto parts = DecodeEndPayload(EncodeEndPayload(0x0102030405060708ull));
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  EXPECT_EQ(*parts, 0x0102030405060708ull);

  const std::string encoded = EncodeQueryPayload({1234, 56, "PPRW-ipc"});
  ASSERT_EQ(encoded.size(), 16u + 8u);
  auto query = DecodeQueryPayload(encoded);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->records_scanned, 1234);
  EXPECT_EQ(query->records_selected, 56);
  EXPECT_EQ(query->table_ipc, "PPRW-ipc");
  // An empty table IPC still carries both counts.
  auto counts_only = DecodeQueryPayload(EncodeQueryPayload({7, 0, ""}));
  ASSERT_TRUE(counts_only.ok());
  EXPECT_EQ(counts_only->records_scanned, 7);
  EXPECT_TRUE(counts_only->table_ipc.empty());
}

TEST(ServeProtocolTest, ResponsePayloadsRejectWrongSizes) {
  const std::string end = EncodeEndPayload(3);
  for (const std::string& bad : {std::string(), end.substr(0, 7), end + "x"}) {
    auto decoded = DecodeEndPayload(bad);
    ASSERT_FALSE(decoded.ok()) << bad.size() << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
    EXPECT_EQ(decoded.status().message(), "kEnd payload must be 8 bytes");
  }
  auto query = DecodeQueryPayload(EncodeQueryPayload({1, 1, ""}).substr(0, 15));
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kIoError);
  EXPECT_EQ(query.status().message(), "kOkQuery payload too small");
}

// --- the shared frame reader and writer, over a socketpair ---

class ServeProtocolFrameIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer_ = Socket(fds[0]);
    reader_ = Socket(fds[1]);
  }
  void TearDown() override {
    robust::FailpointRegistry::Instance().DisarmAll();
  }

  Socket writer_;
  Socket reader_;
};

TEST_F(ServeProtocolFrameIoTest, PlainAndChecksummedFramesRoundTrip) {
  for (const bool checksum : {false, true}) {
    ASSERT_TRUE(WriteFrame(writer_.fd(), Opcode::kTablePart, kFlagQuarantine,
                           checksum, "partition bytes")
                    .ok());
    FrameHeader header;
    bool eof = false;
    FrameRead read =
        ReadFrameHeader(reader_.fd(), kDefaultMaxPayload, &header, &eof);
    ASSERT_TRUE(read.ok()) << read.status.ToString();
    EXPECT_FALSE(eof);
    EXPECT_EQ(header.opcode, Opcode::kTablePart);
    EXPECT_EQ(header.flags,
              kFlagQuarantine | (checksum ? kFlagChecksum : 0));
    EXPECT_EQ(header.payload_size, 15u);
    std::string payload;
    read = ReadFramePayload(reader_.fd(), header, &payload);
    ASSERT_TRUE(read.ok()) << read.status.ToString();
    EXPECT_EQ(payload, "partition bytes");
  }
  // A clean close on a frame boundary is EOF, not a failure.
  writer_.Close();
  FrameHeader header;
  bool eof = false;
  EXPECT_TRUE(
      ReadFrameHeader(reader_.fd(), kDefaultMaxPayload, &header, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST_F(ServeProtocolFrameIoTest,
       ChecksumMismatchIsToldApartFromReceiveFailure) {
  std::string frame;
  AppendFrame(Opcode::kParseBuffer, kFlagChecksum, "sensitive payload",
              &frame);
  frame[kFrameHeaderSize + 3] ^= 0x01;  // the honest CRC now disagrees
  ASSERT_TRUE(SendAll(writer_.fd(), frame).ok());
  FrameHeader header;
  ASSERT_TRUE(ReadFrameHeader(reader_.fd(), kDefaultMaxPayload, &header).ok());
  std::string payload;
  FrameRead read = ReadFramePayload(reader_.fd(), header, &payload);
  EXPECT_EQ(read.fault, FrameFault::kChecksum);
  EXPECT_EQ(read.status.code(), StatusCode::kInvalidArgument);

  // An injected receive fault carrying the very same status code is still
  // a receive failure: the step tells the classes apart, not the code.
  robust::FailpointTrigger fault = robust::CountTrigger(1);
  fault.code = StatusCode::kInvalidArgument;
  robust::FailpointRegistry::Instance().Arm("serve.read", fault);
  read = ReadFrameHeader(reader_.fd(), kDefaultMaxPayload, &header);
  robust::FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(read.fault, FrameFault::kReceive);
  EXPECT_EQ(read.status.code(), StatusCode::kInvalidArgument);

  // The same frame cut short mid-payload: a receive failure too.
  ASSERT_TRUE(
      SendAll(writer_.fd(), std::string_view(frame).substr(0, 20)).ok());
  writer_.Close();
  ASSERT_TRUE(ReadFrameHeader(reader_.fd(), kDefaultMaxPayload, &header).ok());
  read = ReadFramePayload(reader_.fd(), header, &payload);
  EXPECT_EQ(read.fault, FrameFault::kReceive);
}

TEST_F(ServeProtocolFrameIoTest, OversizedLengthIsRefusedBeforeThePayload) {
  std::string frame;
  AppendFrame(Opcode::kParseBuffer, 0, "payload", &frame);
  ASSERT_TRUE(SendAll(writer_.fd(), frame).ok());
  FrameHeader header;
  const FrameRead read = ReadFrameHeader(reader_.fd(), /*max_payload=*/6,
                                         &header);
  EXPECT_EQ(read.fault, FrameFault::kDecode);
  EXPECT_EQ(read.status.code(), StatusCode::kInvalidArgument);
  // Not one payload byte was consumed.
  std::string rest;
  ASSERT_TRUE(RecvExact(reader_.fd(), 7, &rest).ok());
  EXPECT_EQ(rest, "payload");
}

// --- live-daemon conformance ---

class ServeConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServeOptions options;
    options.max_payload = 4 * 1024 * 1024;
    server_ = std::make_unique<Server>(options);
    auto port = server_->Start();
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
  }

  void TearDown() override { server_->Stop(); }

  Client MustConnect() {
    auto client = Client::Connect(port_);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  std::unique_ptr<Server> server_;
  uint16_t port_ = 0;
};

TEST_F(ServeConformanceTest, PingEchoes) {
  Client client = MustConnect();
  EXPECT_TRUE(client.Ping("hello-daemon").ok());
  EXPECT_TRUE(client.Ping("").ok());
}

TEST_F(ServeConformanceTest, ParseMatchesLocalReader) {
  const std::string csv = GenerateYelpLike(7, 64 * 1024);
  auto expected = Reader::FromBuffer(csv).Read();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  Client client = MustConnect();
  auto reply = client.Parse(csv);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_FALSE(reply->busy);
  EXPECT_TRUE(reply->table.Equals(*expected));
}

TEST_F(ServeConformanceTest, StreamedPartsReassembleToWholeTable) {
  const std::string csv = GenerateTaxiLike(11, 96 * 1024);
  auto expected = Reader::FromBuffer(csv).Read();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  Client client = MustConnect();
  RequestOptions options;
  options.stream = true;
  options.partition_size = 8 * 1024;  // force several partitions
  auto reply = client.Parse(csv, options);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_GT(reply->parts.size(), 1u);
  EXPECT_EQ(reply->parts_declared, reply->parts.size());
  int64_t rows = 0;
  for (const Table& part : reply->parts) rows += part.num_rows;
  EXPECT_EQ(rows, expected->num_rows);
}

TEST_F(ServeConformanceTest, QuarantineTravelsWithTheTable) {
  // Quarantine captures type-conversion failures, and the daemon (like
  // Reader) resolves types from the first 256 KiB of the input. Keep the
  // probe window all clean Int64 rows so the schema commits to integers,
  // then plant two malformed values beyond the window: their conversions
  // fail at parse time and must come back in the kQuarantine frame.
  std::string csv = "a,b\n";
  int64_t rows = 0;
  while (csv.size() < 300 * 1024) {
    csv += std::to_string(rows);
    csv += ',';
    csv += std::to_string(rows * 2);
    csv += '\n';
    ++rows;
  }
  csv += "oops,1\n";
  ++rows;
  csv += "2,not-a-number\n";
  ++rows;
  csv += "3,4\n";
  ++rows;

  Client client = MustConnect();
  RequestOptions options;
  options.error_policy = 3;  // kQuarantine
  options.header = 1;
  options.want_quarantine = true;
  auto reply = client.Parse(csv, options);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->has_quarantine);
  ASSERT_EQ(reply->quarantine.size(), 2);
  // Quarantined records stay in the table (the bad cell becomes NULL);
  // the quarantine carries their raw bytes for later repair.
  EXPECT_EQ(reply->table.num_rows, rows);
  EXPECT_EQ(reply->quarantine.entries()[0].raw, "oops,1");
  EXPECT_EQ(reply->quarantine.entries()[1].raw, "2,not-a-number");
}

TEST_F(ServeConformanceTest, QueryMatchesLocalPushdown) {
  const std::string csv = GenerateTaxiLike(3, 48 * 1024);
  Client client = MustConnect();
  const Predicate predicate(0, CompareOp::kGt, "1");
  auto reply = client.Query(csv, predicate);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_FALSE(reply->busy);

  // Local reference: same resolution recipe as the daemon.
  LoadOptions load;
  load.collect_statistics = false;
  LoadResult resolution;
  auto base = BulkLoader::ResolveBaseOptions(csv, false, load, &resolution);
  ASSERT_TRUE(base.ok());
  base->column_count_policy = ColumnCountPolicy::kRobust;
  PushdownStats stats;
  auto local = ParseWithPushdown(csv, *base, predicate, &stats);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(reply->records_scanned, stats.records_scanned);
  EXPECT_EQ(reply->records_selected, stats.records_selected);
  EXPECT_TRUE(reply->table.Equals(local->table));
  EXPECT_GT(reply->records_scanned, reply->records_selected);
}

// A server-local file is queried partition by partition, its types
// resolved from its head like a Reader's: the answer equals one pushdown
// over the file's bytes under the same resolution.
TEST_F(ServeConformanceTest, QueryFileMatchesLocalPushdown) {
  const std::string csv = GenerateTaxiLike(17, kHeadSampleBytes + 64 * 1024);
  const std::string path = "/tmp/parparaw_serve_query_file.csv";
  ASSERT_TRUE(WriteStringToFile(path, csv).ok());
  const Predicate predicate(0, CompareOp::kGt, "1");

  Client client = MustConnect();
  RequestOptions options;
  options.partition_size = 48 * 1024;  // several partitions
  auto reply = client.QueryFile(path, predicate, options);
  std::remove(path.c_str());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_FALSE(reply->busy);

  LoadOptions load;
  load.collect_statistics = false;
  LoadResult resolution;
  auto base = BulkLoader::ResolveBaseOptions(
      std::string_view(csv).substr(0, kHeadSampleBytes),
      /*sample_truncated=*/true, load, &resolution);
  ASSERT_TRUE(base.ok());
  base->column_count_policy = ColumnCountPolicy::kRobust;
  PushdownStats stats;
  auto local = ParseWithPushdown(csv, *base, predicate, &stats);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(reply->records_scanned, stats.records_scanned);
  EXPECT_EQ(reply->records_selected, stats.records_selected);
  EXPECT_TRUE(reply->table.Equals(local->table));
  EXPECT_GT(reply->records_scanned, reply->records_selected);
  EXPECT_GT(reply->records_selected, 0);
}

TEST_F(ServeConformanceTest, RequestErrorKeepsConnectionUsable) {
  Client client = MustConnect();
  // Nonexistent server-local file: a request-level error, not a
  // protocol error — the connection must survive.
  auto reply = client.ParseFile("/nonexistent/parparaw.csv");
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(client.Ping().ok());
  // Out-of-range predicate column: same story.
  auto query = client.Query(SmallCsv(), Predicate(999, CompareOp::kEq, "1"));
  ASSERT_FALSE(query.ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServeConformanceTest, StatsEndpointAnswers) {
  Client client = MustConnect();
  ASSERT_TRUE(client.Ping().ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->empty());
}

TEST_F(ServeConformanceTest, GarbageBytesGetErrorThenClose) {
  auto sock = ConnectLoopback(port_);
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(SendAll(sock->fd(), "GET / HTTP/1.1\r\n\r\n").ok());
  // The daemon answers one kError frame, then closes.
  std::string header_bytes;
  ASSERT_TRUE(RecvExact(sock->fd(), kFrameHeaderSize, &header_bytes).ok());
  auto header = DecodeFrameHeader(header_bytes, kDefaultMaxPayload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->opcode, Opcode::kError);
  std::string payload;
  ASSERT_TRUE(RecvExact(sock->fd(), header->payload_size, &payload).ok());
  EXPECT_EQ(DecodeErrorPayload(payload).code(), StatusCode::kInvalidArgument);
  std::string rest;
  bool eof = false;
  ASSERT_TRUE(RecvExact(sock->fd(), 1, &rest, &eof).ok());
  EXPECT_TRUE(eof);

  // Garbage after a checksummed request: the kError answers the garbage,
  // which declared no checksum, so it must not carry the flag.
  auto second = ConnectLoopback(port_);
  ASSERT_TRUE(second.ok());
  std::string ping;
  AppendFrame(Opcode::kPing, kFlagChecksum, "ping", &ping);
  ASSERT_TRUE(SendAll(second->fd(), ping).ok());
  ASSERT_TRUE(RecvExact(second->fd(), kFrameHeaderSize, &header_bytes).ok());
  auto pong = DecodeFrameHeader(header_bytes, kDefaultMaxPayload);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->opcode, Opcode::kPong);
  EXPECT_NE(pong->flags & kFlagChecksum, 0);
  ASSERT_TRUE(RecvExact(second->fd(), pong->payload_size + kFrameChecksumSize,
                        &payload)
                  .ok());
  ASSERT_TRUE(
      SendAll(second->fd(), std::string(kFrameHeaderSize, 'G')).ok());
  ASSERT_TRUE(RecvExact(second->fd(), kFrameHeaderSize, &header_bytes).ok());
  auto error = DecodeFrameHeader(header_bytes, kDefaultMaxPayload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->opcode, Opcode::kError);
  EXPECT_EQ(error->flags & kFlagChecksum, 0);
  ASSERT_TRUE(RecvExact(second->fd(), error->payload_size, &payload).ok());
  EXPECT_EQ(DecodeErrorPayload(payload).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(RecvExact(second->fd(), 1, &rest, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST_F(ServeConformanceTest, ResponseOpcodeAsRequestIsRejected) {
  auto sock = ConnectLoopback(port_);
  ASSERT_TRUE(sock.ok());
  std::string frame;
  AppendFrame(Opcode::kOkTable, 0, "", &frame);
  ASSERT_TRUE(SendAll(sock->fd(), frame).ok());
  std::string header_bytes;
  ASSERT_TRUE(RecvExact(sock->fd(), kFrameHeaderSize, &header_bytes).ok());
  auto header = DecodeFrameHeader(header_bytes, kDefaultMaxPayload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->opcode, Opcode::kError);
}

TEST_F(ServeConformanceTest, OversizedDeclaredLengthIsNeverAllocated) {
  auto sock = ConnectLoopback(port_);
  ASSERT_TRUE(sock.ok());
  // Declares a 1 TiB payload; the server must refuse at the header.
  std::string frame;
  AppendFrame(Opcode::kParseBuffer, 0, "", &frame);
  frame[13] = '\x01';  // payload_size byte 5 => 2^40
  ASSERT_TRUE(SendAll(sock->fd(), frame).ok());
  std::string header_bytes;
  ASSERT_TRUE(RecvExact(sock->fd(), kFrameHeaderSize, &header_bytes).ok());
  auto header = DecodeFrameHeader(header_bytes, kDefaultMaxPayload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->opcode, Opcode::kError);
  // And the daemon still accepts new work.
  Client client = MustConnect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServeConformanceTest, MalformedQueryAtTheLimitIsAProtocolError) {
  // Decoding comes before admission: with every request slot taken, a
  // query whose predicate block is truncated still gets kError and a
  // close, never kBusy.
  const int limit = ServeOptions{}.max_inflight_requests;
  int held = 0;
  while (server_->request_admission()->TryAcquire(limit) > 0) ++held;
  ASSERT_EQ(held, limit);

  std::string payload = EncodeRequestHeader(RequestHeader{});
  payload.append(
      EncodePredicateBlock(Predicate(0, CompareOp::kEq, "1")).substr(0, 3));
  std::string frame;
  AppendFrame(Opcode::kQueryBuffer, 0, payload, &frame);
  auto sock = ConnectLoopback(port_);
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(SendAll(sock->fd(), frame).ok());
  std::string header_bytes;
  ASSERT_TRUE(RecvExact(sock->fd(), kFrameHeaderSize, &header_bytes).ok());
  auto header = DecodeFrameHeader(header_bytes, kDefaultMaxPayload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->opcode, Opcode::kError);
  std::string body;
  ASSERT_TRUE(RecvExact(sock->fd(), header->payload_size, &body).ok());
  const Status error = DecodeErrorPayload(body);
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(error.message(), "predicate block truncated");
  std::string rest;
  bool eof = false;
  ASSERT_TRUE(RecvExact(sock->fd(), 1, &rest, &eof).ok());
  EXPECT_TRUE(eof);

  server_->request_admission()->Release(held);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.protocol_errors, 1);
  EXPECT_EQ(stats.busy_shed, 0);
}

TEST_F(ServeConformanceTest, ByteAtATimeRequestStillParses) {
  const std::string csv = SmallCsv();
  std::string payload = EncodeRequestHeader(RequestHeader{});
  payload.append(csv);
  std::string frame;
  AppendFrame(Opcode::kParseBuffer, 0, payload, &frame);

  auto sock = ConnectLoopback(port_);
  ASSERT_TRUE(sock.ok());
  for (char byte : frame) {
    ASSERT_TRUE(SendAll(sock->fd(), std::string_view(&byte, 1)).ok());
  }
  std::string header_bytes;
  ASSERT_TRUE(RecvExact(sock->fd(), kFrameHeaderSize, &header_bytes).ok());
  auto header = DecodeFrameHeader(header_bytes, kDefaultMaxPayload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->opcode, Opcode::kOkTable);
}

TEST_F(ServeConformanceTest, PipelinedRequestsAnswerInOrder) {
  const std::string csv = SmallCsv();
  std::string payload = EncodeRequestHeader(RequestHeader{});
  payload.append(csv);
  std::string two_frames;
  AppendFrame(Opcode::kPing, 0, "first", &two_frames);
  AppendFrame(Opcode::kParseBuffer, 0, payload, &two_frames);

  auto sock = ConnectLoopback(port_);
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(SendAll(sock->fd(), two_frames).ok());

  std::string header_bytes, body;
  ASSERT_TRUE(RecvExact(sock->fd(), kFrameHeaderSize, &header_bytes).ok());
  auto first = DecodeFrameHeader(header_bytes, kDefaultMaxPayload);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->opcode, Opcode::kPong);
  ASSERT_TRUE(RecvExact(sock->fd(), first->payload_size, &body).ok());
  EXPECT_EQ(body, "first");

  ASSERT_TRUE(RecvExact(sock->fd(), kFrameHeaderSize, &header_bytes).ok());
  auto second = DecodeFrameHeader(header_bytes, kDefaultMaxPayload);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->opcode, Opcode::kOkTable);
}

TEST_F(ServeConformanceTest, MidFrameDisconnectLeavesDaemonHealthy) {
  for (int i = 0; i < 8; ++i) {
    auto sock = ConnectLoopback(port_);
    ASSERT_TRUE(sock.ok());
    std::string frame;
    AppendFrame(Opcode::kParseBuffer, 0, std::string(1000, 'x'), &frame);
    // Send the header plus a sliver of the payload, then vanish.
    ASSERT_TRUE(
        SendAll(sock->fd(), std::string_view(frame).substr(0, 20)).ok());
    sock->Close();
  }
  Client client = MustConnect();
  EXPECT_TRUE(client.Ping().ok());
}

// --- short-write regression (satellite: robust partial I/O) ---

class ServeFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override {
    robust::FailpointRegistry::Instance().DisarmAll();
  }
};

TEST_F(ServeFailpointTest, IpcFramesSurviveOneByteWrites) {
  ServeOptions options;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  const std::string csv = GenerateYelpLike(23, 16 * 1024);
  auto expected = Reader::FromBuffer(csv).Read();
  ASSERT_TRUE(expected.ok());

  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());

  // Every send (both sides — the registry is process-wide) moves one
  // byte at a time: response IPC frames dribble through the kernel.
  robust::FailpointRegistry::Instance().Arm(
      "serve.write.short", robust::EveryNthTrigger(1));
  auto reply = client->Parse(csv);
  // DisarmAll erases registry entries (and their hit counters), so read
  // the count first.
  const int64_t short_writes =
      robust::FailpointRegistry::Instance().hits("serve.write.short");
  robust::FailpointRegistry::Instance().DisarmAll();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->table.Equals(*expected));
  EXPECT_GT(short_writes, 1000);
  server.Stop();
}

TEST_F(ServeFailpointTest, ShortReadsReassembleRequests) {
  ServeOptions options;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  const std::string csv = SmallCsv();
  auto expected = Reader::FromBuffer(csv).Read();
  ASSERT_TRUE(expected.ok());

  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  robust::FailpointRegistry::Instance().Arm(
      "serve.read.short", robust::EveryNthTrigger(1));
  auto reply = client->Parse(csv);
  robust::FailpointRegistry::Instance().DisarmAll();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->table.Equals(*expected));
  server.Stop();
}

TEST_F(ServeFailpointTest, UndeliverableErrorFrameClosesTheConnection) {
  // Regression (found by the chaos sweep): a request-level error whose
  // kError frame cannot be written must CLOSE the connection. Swallowing
  // the failed send left both sides blocked in read — the client
  // awaiting a reply that never came, the daemon awaiting the next
  // request.
  ServeOptions options;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  // exec.read fails the ingest server-side; write hit 1 is the client's
  // request send, so EveryNth(2) lands on the daemon's kError frame.
  robust::FailpointRegistry::Instance().Arm("exec.read",
                                            robust::CountTrigger(1));
  robust::FailpointRegistry::Instance().Arm("serve.write",
                                            robust::EveryNthTrigger(2));
  auto reply = client->Parse(SmallCsv());
  robust::FailpointRegistry::Instance().DisarmAll();
  // The client sees the close (an I/O error), never a hang.
  ASSERT_FALSE(reply.ok());
  // And the daemon remains healthy for new connections.
  auto probe = Client::Connect(*port);
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->Ping().ok());
  server.Stop();
}

TEST_F(ServeFailpointTest, TransientReadFaultsAreRetried) {
  ServeOptions options;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  robust::FailpointRegistry::Instance().Arm(
      "serve.read", robust::CountTrigger(2, /*transient=*/true));
  EXPECT_TRUE(client->Ping().ok());
  robust::FailpointRegistry::Instance().DisarmAll();
  server.Stop();
}

// --- v2 checksummed frames against a live daemon ---

TEST_F(ServeConformanceTest, ChecksummedParseIsBitIdentical) {
  const std::string csv = GenerateYelpLike(31, 32 * 1024);
  auto expected = Reader::FromBuffer(csv).Read();
  ASSERT_TRUE(expected.ok());

  Client client = MustConnect();
  client.set_checksums(true);
  auto reply = client.Parse(csv);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->table.Equals(*expected));
  // Streaming + quarantine responses mirror the flag on every frame.
  RequestOptions options;
  options.stream = true;
  options.partition_size = 8 * 1024;
  auto streamed = client.Parse(csv, options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_GT(streamed->parts.size(), 1u);
  EXPECT_EQ(server_->stats().checksum_errors, 0);
}

TEST_F(ServeConformanceTest, CorruptChecksummedFrameIsRejectedAndClosed) {
  const std::string csv = SmallCsv();
  std::string payload = EncodeRequestHeader(RequestHeader{});
  payload.append(csv);
  std::string frame;
  AppendFrame(Opcode::kParseBuffer, kFlagChecksum, payload, &frame);
  // Flip one payload bit; the honest CRC trailer now disagrees.
  frame[kFrameHeaderSize + payload.size() / 2] ^= 0x01;

  auto sock = ConnectLoopback(port_);
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(SendAll(sock->fd(), frame).ok());
  std::string header_bytes;
  ASSERT_TRUE(RecvExact(sock->fd(), kFrameHeaderSize, &header_bytes).ok());
  auto header = DecodeFrameHeader(header_bytes, kDefaultMaxPayload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->opcode, Opcode::kError);
  // The error response mirrors the checksum flag; drain payload+trailer.
  std::string body;
  ASSERT_TRUE(RecvExact(sock->fd(), header->payload_size, &body).ok());
  if ((header->flags & kFlagChecksum) != 0) {
    std::string trailer;
    ASSERT_TRUE(RecvExact(sock->fd(), kFrameChecksumSize, &trailer).ok());
    EXPECT_TRUE(VerifyFrameChecksum(body, trailer).ok());
  }
  EXPECT_EQ(DecodeErrorPayload(body).code(), StatusCode::kInvalidArgument);
  // Then the connection closes (corrupted streams cannot resync).
  std::string rest;
  bool eof = false;
  ASSERT_TRUE(RecvExact(sock->fd(), 1, &rest, &eof).ok());
  EXPECT_TRUE(eof);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.checksum_errors, 1);
  EXPECT_GE(stats.protocol_errors, 1);
}

TEST_F(ServeFailpointTest, ServeCorruptFailpointIsCaughtByTheClient) {
  ServeOptions options;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  client->set_checksums(true);
  // AppendFrame hit 1 is the client's request (left intact); hit 2 is
  // the daemon's response, which the failpoint corrupts after its CRC
  // was computed — the client must detect the mismatch, not decode a
  // silently different table.
  robust::FailpointRegistry::Instance().Arm("serve.corrupt",
                                            robust::EveryNthTrigger(2));
  auto reply = client->Parse(SmallCsv());
  robust::FailpointRegistry::Instance().DisarmAll();
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(client->last_error_was_transport());
  // Fresh connection, failpoint gone: the daemon itself is healthy.
  auto probe = Client::Connect(*port);
  ASSERT_TRUE(probe.ok());
  probe->set_checksums(true);
  EXPECT_TRUE(probe->Ping().ok());
  server.Stop();
}

// --- fuzz: 10k+ seeded malformed frames ---

class FuzzRng {
 public:
  explicit FuzzRng(uint64_t seed) : state_(seed ? seed : 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }

 private:
  uint64_t state_;
};

TEST(ServeFuzzTest, TenThousandMalformedFramesNeverKillTheDaemon) {
  ServeOptions options;
  options.max_payload = 64 * 1024;  // fuzz-declared lengths stay small
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const std::string csv = SmallCsv();
  auto expected = Reader::FromBuffer(csv).Read();
  ASSERT_TRUE(expected.ok());

  std::string valid_request = EncodeRequestHeader(RequestHeader{});
  valid_request.append(csv);
  std::string valid_frame;
  AppendFrame(Opcode::kParseBuffer, 0, valid_request, &valid_frame);

  constexpr int kIterations = 10000;
  FuzzRng rng(0xF00DFACE);
  for (int i = 0; i < kIterations; ++i) {
    auto sock = ConnectLoopback(*port);
    ASSERT_TRUE(sock.ok()) << "iteration " << i << ": "
                           << sock.status().ToString();
    std::string bytes;
    const int strategy = static_cast<int>(rng.Next() % 6);
    switch (strategy) {
      case 0: {  // pure garbage
        const size_t n = rng.Next() % 64;
        for (size_t b = 0; b < n; ++b)
          bytes.push_back(static_cast<char>(rng.Next()));
        break;
      }
      case 1: {  // valid header, truncated payload, disconnect
        AppendFrame(Opcode::kParseBuffer, 0,
                    std::string(1 + rng.Next() % 512, 'y'), &bytes);
        bytes.resize(kFrameHeaderSize + rng.Next() % 16);
        break;
      }
      case 2: {  // one mutated byte in an otherwise valid frame
        bytes = valid_frame;
        bytes[rng.Next() % bytes.size()] =
            static_cast<char>(rng.Next());
        break;
      }
      case 3: {  // random opcode/flags/reserved/length fields
        AppendFrame(Opcode::kPing, 0, "", &bytes);
        bytes[4] = static_cast<char>(rng.Next());
        bytes[5] = static_cast<char>(rng.Next());
        bytes[6] = static_cast<char>(rng.Next() % 2);
        bytes[8 + rng.Next() % 8] = static_cast<char>(rng.Next());
        break;
      }
      case 4: {  // valid frame with garbage *request payload*
        std::string payload;
        const size_t n = rng.Next() % 48;
        for (size_t b = 0; b < n; ++b)
          payload.push_back(static_cast<char>(rng.Next()));
        AppendFrame(static_cast<Opcode>(
                        (rng.Next() % 2) ? 0x02 : 0x04),  // parse / query
                    0, payload, &bytes);
        break;
      }
      default: {  // two frames glued together, second one damaged
        bytes = valid_frame;
        std::string second = valid_frame;
        second[rng.Next() % second.size()] =
            static_cast<char>(rng.Next());
        bytes.append(second);
        break;
      }
    }
    if (rng.Next() % 4 == 0) {
      // Byte-at-a-time (dribbled) delivery.
      bool sent = true;
      for (char byte : bytes) {
        if (!SendAll(sock->fd(), std::string_view(&byte, 1)).ok()) {
          sent = false;  // server already closed on us: acceptable
          break;
        }
      }
      (void)sent;
    } else {
      (void)SendAll(sock->fd(), bytes);
    }
    // Half the time vanish immediately (mid-frame disconnects); the rest
    // of the time say goodbye (shutdown of our write side, so the drain
    // below always terminates) and drain whatever the server answers
    // until it closes.
    if (rng.Next() % 2 == 0) {
      ::shutdown(sock->fd(), SHUT_WR);
      std::string sink;
      bool eof = false;
      while (RecvExact(sock->fd(), 512, &sink, &eof).ok() && !eof) {
      }
    }
    sock->Close();

    if (i % 1000 == 999) {
      // Liveness probe: the daemon still answers real work.
      auto probe = Client::Connect(*port);
      ASSERT_TRUE(probe.ok()) << "iteration " << i;
      ASSERT_TRUE(probe->Ping().ok()) << "iteration " << i;
    }
  }

  // After the storm: still serving bit-identical parses, and every
  // request slot returned.
  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  auto reply = client->Parse(csv);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->table.Equals(*expected));
  // A mutated frame can land as a *valid* parse whose client vanished;
  // its slot returns once a stage entry sees the disconnect, so poll
  // briefly instead of asserting the instant count.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((server.inflight_requests() != 0 ||
          server.exec_admission()->inflight() != 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.inflight_requests(), 0);
  EXPECT_EQ(server.exec_admission()->inflight(), 0);
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.protocol_errors, 0);
  server.Stop();
}

TEST(ServeFuzzTest, TenThousandBitFlippedChecksummedFramesAllRejected) {
  // The bit-flip axis: a well-formed checksummed parse frame with one
  // seeded bit flipped somewhere in payload-or-trailer. Unlike the
  // malformed-frame storm above (where a mutation may happen to stay
  // valid), a single flip under an honest CRC-32C *must* be detected on
  // every single iteration: kError{kInvalidArgument}, connection closed,
  // never a silently different parse.
  ServeOptions options;
  options.max_payload = 64 * 1024;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const std::string csv = SmallCsv();
  std::string request = EncodeRequestHeader(RequestHeader{});
  request.append(csv);
  std::string frame;
  AppendFrame(Opcode::kParseBuffer, kFlagChecksum, request, &frame);
  const size_t flip_region = request.size() + kFrameChecksumSize;

  constexpr int kIterations = 10000;
  FuzzRng rng(0xC4C32C);
  int64_t rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string corrupt = frame;
    const size_t byte = kFrameHeaderSize + rng.Next() % flip_region;
    corrupt[byte] ^= static_cast<char>(1 << (rng.Next() % 8));

    auto sock = ConnectLoopback(*port);
    ASSERT_TRUE(sock.ok()) << "iteration " << i;
    ASSERT_TRUE(SendAll(sock->fd(), corrupt).ok()) << "iteration " << i;
    std::string header_bytes;
    ASSERT_TRUE(
        RecvExact(sock->fd(), kFrameHeaderSize, &header_bytes).ok())
        << "iteration " << i;
    auto header = DecodeFrameHeader(header_bytes, kDefaultMaxPayload);
    ASSERT_TRUE(header.ok()) << "iteration " << i;
    ASSERT_EQ(header->opcode, Opcode::kError) << "iteration " << i;
    std::string body;
    ASSERT_TRUE(RecvExact(sock->fd(), header->payload_size, &body).ok());
    EXPECT_EQ(DecodeErrorPayload(body).code(), StatusCode::kInvalidArgument)
        << "iteration " << i;
    ++rejected;
    sock->Close();

    if (i % 1000 == 999) {
      auto probe = Client::Connect(*port);
      ASSERT_TRUE(probe.ok()) << "iteration " << i;
      probe->set_checksums(true);
      ASSERT_TRUE(probe->Ping().ok()) << "iteration " << i;
    }
  }
  EXPECT_EQ(rejected, kIterations);

  // Still serving bit-identical checksummed parses afterwards, with
  // every slot back home.
  auto expected = Reader::FromBuffer(csv).Read();
  ASSERT_TRUE(expected.ok());
  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  client->set_checksums(true);
  auto reply = client->Parse(csv);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->table.Equals(*expected));
  // The slot release lands just after the response bytes, so give the
  // connection thread a moment before asserting the gauges are home.
  const auto gauges_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((server.inflight_requests() != 0 ||
          server.exec_admission()->inflight() != 0) &&
         std::chrono::steady_clock::now() < gauges_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.inflight_requests(), 0);
  EXPECT_EQ(server.exec_admission()->inflight(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.checksum_errors, kIterations);
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace parparaw
