#include <gtest/gtest.h>

#include "columnar/ipc.h"
#include "core/parser.h"
#include "workload/generators.h"

namespace parparaw {
namespace {

Table MakeTable() {
  Table table;
  table.schema.AddField(Field("id", DataType::Int64(), /*nullable=*/false));
  table.schema.AddField(Field("name", DataType::String()));
  table.schema.AddField(Field("price", DataType::Decimal64(2)));
  Column id(DataType::Int64());
  id.AppendValue<int64_t>(10);
  id.AppendValue<int64_t>(-20);
  Column name(DataType::String());
  name.AppendString("ten");
  name.AppendNull();
  Column price(DataType::Decimal64(2));
  price.AppendValue<int64_t>(1999);
  price.AppendNull();
  table.columns = {std::move(id), std::move(name), std::move(price)};
  table.num_rows = 2;
  table.rejected = {0, 1};
  return table;
}

TEST(IpcTest, RoundTripPreservesEverything) {
  const Table original = MakeTable();
  auto bytes = SerializeTable(original);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto restored = DeserializeTable(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->Equals(original));
  EXPECT_EQ(restored->rejected, original.rejected);
  EXPECT_EQ(restored->schema.field(0).nullable, false);
  EXPECT_EQ(restored->schema.field(2).type.scale, 2);
}

TEST(IpcTest, EmptyTable) {
  Table table;
  table.schema.AddField(Field("a", DataType::String()));
  Column a(DataType::String());
  a.Allocate(0);
  table.columns.push_back(std::move(a));
  table.num_rows = 0;
  auto bytes = SerializeTable(table);
  ASSERT_TRUE(bytes.ok());
  auto restored = DeserializeTable(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_rows, 0);
  EXPECT_EQ(restored->num_columns(), 1);
}

TEST(IpcTest, ParsedTableRoundTrips) {
  ParseOptions options;
  options.schema = TaxiSchema();
  const std::string csv = GenerateTaxiLike(17, 64 * 1024);
  auto parsed = Parser::Parse(csv, options);
  ASSERT_TRUE(parsed.ok());
  auto bytes = SerializeTable(parsed->table);
  ASSERT_TRUE(bytes.ok());
  auto restored = DeserializeTable(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->Equals(parsed->table));
}

TEST(IpcTest, ConcatenatedTableRoundTrips) {
  // Column::Concat grows validity bitmaps with amortised doubling, so a
  // multi-partition table's buffers are larger than its row count needs.
  // Serialization must still emit exactly what the reader expects —
  // regression for the daemon serving multi-partition parses.
  const Table part = MakeTable();
  const Table merged = ConcatTables({part, part, part});
  ASSERT_EQ(merged.num_rows, 6);
  auto bytes = SerializeTable(merged);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto restored = DeserializeTable(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->Equals(merged));
  EXPECT_EQ(restored->rejected, merged.rejected);
}

TEST(IpcTest, SerializedSizeIsExact) {
  // SerializeTable reserves SerializedTableSize up front, so the count
  // must be the byte count it writes: plain, empty, parsed and
  // concatenated tables (whose validity buffers are over-allocated).
  Table empty;
  empty.schema.AddField(Field("a", DataType::String()));
  Column a(DataType::String());
  a.Allocate(0);
  empty.columns.push_back(std::move(a));
  ParseOptions options;
  options.schema = TaxiSchema();
  auto parsed = Parser::Parse(GenerateTaxiLike(17, 64 * 1024), options);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Table part = MakeTable();
  for (const Table& table :
       {part, empty, parsed->table, ConcatTables({part, part, part}),
        ConcatTables({parsed->table, parsed->table})}) {
    auto bytes = SerializeTable(table);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(SerializedTableSize(table), bytes->size());
  }
}

TEST(IpcTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeTable("").ok());
  EXPECT_FALSE(DeserializeTable("NOPE").ok());
  EXPECT_FALSE(DeserializeTable("PPRWxxxxxxxxxxxxxxx").ok());
}

TEST(IpcTest, RejectsTruncation) {
  auto bytes = SerializeTable(MakeTable());
  ASSERT_TRUE(bytes.ok());
  // Every strict prefix must fail cleanly, never crash.
  for (size_t len = 0; len < bytes->size(); len += 3) {
    auto result = DeserializeTable(std::string_view(*bytes).substr(0, len));
    EXPECT_FALSE(result.ok()) << "prefix " << len;
  }
}

TEST(IpcTest, RejectsTrailingBytes) {
  auto bytes = SerializeTable(MakeTable());
  ASSERT_TRUE(bytes.ok());
  *bytes += "extra";
  EXPECT_FALSE(DeserializeTable(*bytes).ok());
}

// Corruption sweep: deserialization must fail cleanly (or, for payload
// bytes that don't affect framing, succeed) for EVERY single-bit flip —
// never crash, over-read, or hang. Run under ASan/UBSan by
// `scripts/check.sh faults`.
TEST(IpcTest, BitFlipSweepNeverCrashes) {
  auto bytes = SerializeTable(MakeTable());
  ASSERT_TRUE(bytes.ok());
  for (size_t byte = 0; byte < bytes->size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = *bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto result = DeserializeTable(corrupt);  // must not crash
      if (result.ok()) {
        // A flip inside value data can legitimately deserialize; it must
        // still describe a structurally sound table.
        EXPECT_EQ(result->num_rows, 2);
        EXPECT_EQ(result->num_columns(), 3);
      }
    }
  }
}

TEST(IpcTest, FramingFlipsAreCleanErrors) {
  auto bytes = SerializeTable(MakeTable());
  ASSERT_TRUE(bytes.ok());
  // The first 16 bytes are pure framing: magic, version, column count, row
  // count. Any flip there must produce an error Status, never success.
  for (size_t byte = 0; byte < 16; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = *bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto result = DeserializeTable(corrupt);
      EXPECT_FALSE(result.ok()) << "byte " << byte << " bit " << bit;
      if (!result.ok()) {
        EXPECT_FALSE(result.status().message().empty());
      }
    }
  }
}

robust::QuarantineTable MakeQuarantine() {
  robust::QuarantineTable q;
  robust::QuarantineEntry a;
  a.row = 1;
  a.record_index = 1;
  a.begin = 12;
  a.end = 24;
  a.raw = "oops,20,beta";
  a.column = 0;
  a.code = StatusCode::kParseError;
  a.stage = "convert";
  a.message = "row 1, column 0: value is not a valid int64";
  q.Add(a);
  robust::QuarantineEntry b;
  b.row = 4;
  b.record_index = 5;
  b.begin = 50;
  b.end = 54;
  b.raw = "x,,y";
  b.column = -1;
  b.code = StatusCode::kParseError;
  b.stage = "tag";
  b.message = "wrong number of columns";
  q.Add(b);
  return q;
}

TEST(IpcTest, QuarantineRoundTrip) {
  const robust::QuarantineTable original = MakeQuarantine();
  auto bytes = SerializeQuarantine(original);
  ASSERT_TRUE(bytes.ok());
  auto restored = DeserializeQuarantine(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->size(), original.size());
  for (int64_t i = 0; i < original.size(); ++i) {
    const auto& want = original.entries()[static_cast<size_t>(i)];
    const auto& got = restored->entries()[static_cast<size_t>(i)];
    EXPECT_EQ(got.row, want.row);
    EXPECT_EQ(got.record_index, want.record_index);
    EXPECT_EQ(got.begin, want.begin);
    EXPECT_EQ(got.end, want.end);
    EXPECT_EQ(got.raw, want.raw);
    EXPECT_EQ(got.column, want.column);
    EXPECT_EQ(got.code, want.code);
    EXPECT_EQ(got.stage, want.stage);
    EXPECT_EQ(got.message, want.message);
  }
}

TEST(IpcTest, QuarantineRejectsGarbageAndTruncation) {
  EXPECT_FALSE(DeserializeQuarantine("").ok());
  EXPECT_FALSE(DeserializeQuarantine("PPRW").ok());  // table magic, not PPQR
  auto bytes = SerializeQuarantine(MakeQuarantine());
  ASSERT_TRUE(bytes.ok());
  for (size_t len = 0; len < bytes->size(); ++len) {
    auto result =
        DeserializeQuarantine(std::string_view(*bytes).substr(0, len));
    EXPECT_FALSE(result.ok()) << "prefix " << len;
  }
  std::string trailing = *bytes + "x";
  EXPECT_FALSE(DeserializeQuarantine(trailing).ok());
}

TEST(IpcTest, QuarantineBitFlipSweepNeverCrashes) {
  auto bytes = SerializeQuarantine(MakeQuarantine());
  ASSERT_TRUE(bytes.ok());
  for (size_t byte = 0; byte < bytes->size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = *bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto result = DeserializeQuarantine(corrupt);  // must not crash
      if (result.ok()) {
        EXPECT_EQ(result->size(), 2);
      }
    }
  }
}

TEST(IpcTest, RejectsCorruptOffsets) {
  Table table;
  table.schema.AddField(Field("s", DataType::String()));
  Column s(DataType::String());
  s.AppendString("ab");
  s.AppendString("cd");
  table.columns.push_back(std::move(s));
  table.num_rows = 2;
  table.rejected.assign(2, 0);
  auto bytes = SerializeTable(table);
  ASSERT_TRUE(bytes.ok());
  // Flip a byte inside the offsets region (the last 4+2+8*3+... bytes are
  // the string data "abcd"; offsets precede it). Corrupt a middle offset.
  const size_t pos = bytes->size() - 4 /*"abcd"*/ - 2 * 8;
  (*bytes)[pos] = static_cast<char>(0xEE);
  auto result = DeserializeTable(*bytes);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace parparaw
