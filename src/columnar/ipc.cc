#include "columnar/ipc.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace parparaw {

namespace {

constexpr char kMagic[4] = {'P', 'P', 'R', 'W'};
constexpr uint32_t kVersion = 1;
constexpr char kQuarantineMagic[4] = {'P', 'P', 'Q', 'R'};
constexpr uint32_t kQuarantineVersion = 1;

// --- writer helpers ---

template <typename T>
void PutScalar(T value, std::string* out) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

void PutBytes(const void* data, size_t size, std::string* out) {
  PutScalar<uint64_t>(size, out);
  out->append(static_cast<const char*>(data), size);
}

// --- reader helpers (bounds-checked cursor) ---

class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* out) {
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadBytes(std::string_view* out) {
    uint64_t size;
    if (!Read(&size)) return false;
    if (bytes_.size() - pos_ < size) return false;
    *out = bytes_.substr(pos_, size);
    pos_ += size;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

Status Truncated() { return Status::IoError("truncated table bytes"); }

}  // namespace

size_t SerializedTableSize(const Table& table) {
  // A length-prefixed buffer: its u64 length, then its bytes.
  const auto bytes = [](size_t size) { return sizeof(uint64_t) + size; };
  const size_t validity_words =
      (static_cast<size_t>(table.num_rows) + 63) / 64;
  size_t size = sizeof(kMagic) + sizeof(uint32_t) + sizeof(uint32_t) +
                sizeof(int64_t) + bytes(table.rejected.size());
  for (int c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema.field(c);
    const Column& column = table.columns[c];
    size += bytes(field.name.size()) + sizeof(uint8_t) + sizeof(int32_t) +
            sizeof(uint8_t) + bytes(validity_words * sizeof(uint64_t));
    if (IsFixedWidth(field.type.id)) {
      size += bytes(column.data().size());
    } else {
      size += bytes(column.offsets().size() * sizeof(int64_t)) +
              bytes(column.string_data().size());
    }
  }
  return size;
}

Result<std::string> SerializeTable(const Table& table) {
  std::string out;
  out.reserve(SerializedTableSize(table));
  out.append(kMagic, sizeof(kMagic));
  PutScalar<uint32_t>(kVersion, &out);
  PutScalar<uint32_t>(static_cast<uint32_t>(table.num_columns()), &out);
  PutScalar<int64_t>(table.num_rows, &out);
  PutBytes(table.rejected.data(), table.rejected.size(), &out);
  for (int c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema.field(c);
    const Column& column = table.columns[c];
    if (column.length() != table.num_rows) {
      return Status::Invalid("column " + field.name +
                             " length does not match the table");
    }
    PutBytes(field.name.data(), field.name.size(), &out);
    PutScalar<uint8_t>(static_cast<uint8_t>(field.type.id), &out);
    PutScalar<int32_t>(field.type.scale, &out);
    PutScalar<uint8_t>(field.nullable ? 1 : 0, &out);
    // Columns grown through Concat carry an amortised-doubled validity
    // buffer; serialize exactly the words the row count needs (the
    // reader rejects anything else).
    const auto& words = column.validity().words();
    const size_t want_words =
        (static_cast<size_t>(table.num_rows) + 63) / 64;
    if (words.size() >= want_words) {
      PutBytes(words.data(), want_words * sizeof(uint64_t), &out);
    } else {
      std::vector<uint64_t> padded(want_words, 0);
      std::copy(words.begin(), words.end(), padded.begin());
      PutBytes(padded.data(), want_words * sizeof(uint64_t), &out);
    }
    if (IsFixedWidth(field.type.id)) {
      PutBytes(column.data().data(), column.data().size(), &out);
    } else {
      PutBytes(column.offsets().data(),
               column.offsets().size() * sizeof(int64_t), &out);
      PutBytes(column.string_data().data(), column.string_data().size(),
               &out);
    }
  }
  return out;
}

Result<Table> DeserializeTable(std::string_view bytes) {
  Cursor cursor(bytes);
  char magic[4];
  for (char& c : magic) {
    if (!cursor.Read(&c)) return Truncated();
  }
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::IoError("bad magic; not a serialized ParPaRaw table");
  }
  uint32_t version;
  uint32_t num_columns;
  int64_t num_rows;
  if (!cursor.Read(&version) || !cursor.Read(&num_columns) ||
      !cursor.Read(&num_rows)) {
    return Truncated();
  }
  if (version != kVersion) {
    return Status::IoError("unsupported version " + std::to_string(version));
  }
  if (num_rows < 0) return Status::IoError("negative row count");

  Table table;
  table.num_rows = num_rows;
  std::string_view rejected;
  if (!cursor.ReadBytes(&rejected)) return Truncated();
  if (rejected.size() != static_cast<size_t>(num_rows)) {
    return Status::IoError("reject vector size mismatch");
  }
  table.rejected.assign(rejected.begin(), rejected.end());

  const size_t validity_words =
      (static_cast<size_t>(num_rows) + 63) / 64;
  for (uint32_t c = 0; c < num_columns; ++c) {
    std::string_view name;
    uint8_t type_id_raw;
    int32_t scale;
    uint8_t nullable;
    if (!cursor.ReadBytes(&name) || !cursor.Read(&type_id_raw) ||
        !cursor.Read(&scale) || !cursor.Read(&nullable)) {
      return Truncated();
    }
    if (type_id_raw > static_cast<uint8_t>(TypeId::kString)) {
      return Status::IoError("unknown type id");
    }
    DataType type{static_cast<TypeId>(type_id_raw), scale};
    Field field(std::string(name), type, nullable != 0);

    std::string_view validity;
    if (!cursor.ReadBytes(&validity)) return Truncated();
    if (validity.size() != validity_words * sizeof(uint64_t)) {
      return Status::IoError("validity bitmap size mismatch for column " +
                             field.name);
    }
    Column column(type);
    column.Allocate(num_rows);
    if (!validity.empty()) {
      std::memcpy(column.mutable_validity_words()->data(), validity.data(),
                  validity.size());
    }

    if (IsFixedWidth(type.id)) {
      std::string_view data;
      if (!cursor.ReadBytes(&data)) return Truncated();
      if (data.size() !=
          static_cast<size_t>(num_rows) * FixedWidth(type.id)) {
        return Status::IoError("data buffer size mismatch for column " +
                               field.name);
      }
      column.mutable_data()->assign(data.begin(), data.end());
    } else {
      std::string_view offsets_bytes;
      std::string_view str_data;
      if (!cursor.ReadBytes(&offsets_bytes) || !cursor.ReadBytes(&str_data)) {
        return Truncated();
      }
      if (offsets_bytes.size() !=
          (static_cast<size_t>(num_rows) + 1) * sizeof(int64_t)) {
        return Status::IoError("offsets size mismatch for column " +
                               field.name);
      }
      std::vector<int64_t>* offsets = column.mutable_offsets();
      std::memcpy(offsets->data(), offsets_bytes.data(),
                  offsets_bytes.size());
      // Validate offsets: monotone, within the data buffer.
      int64_t prev = (*offsets)[0];
      if (prev != 0) return Status::IoError("offsets must start at 0");
      for (int64_t i = 1; i <= num_rows; ++i) {
        if ((*offsets)[i] < prev) {
          return Status::IoError("non-monotone string offsets in column " +
                                 field.name);
        }
        prev = (*offsets)[i];
      }
      if (prev != static_cast<int64_t>(str_data.size())) {
        return Status::IoError("string data size mismatch for column " +
                               field.name);
      }
      column.mutable_string_data()->assign(str_data.begin(), str_data.end());
    }
    table.schema.AddField(std::move(field));
    table.columns.push_back(std::move(column));
  }
  if (!cursor.AtEnd()) {
    return Status::IoError("trailing bytes after table");
  }
  return table;
}

Result<std::string> SerializeQuarantine(const robust::QuarantineTable& q) {
  std::string out;
  out.append(kQuarantineMagic, sizeof(kQuarantineMagic));
  PutScalar<uint32_t>(kQuarantineVersion, &out);
  PutScalar<uint64_t>(q.size(), &out);
  for (const robust::QuarantineEntry& entry : q.entries()) {
    PutScalar<int64_t>(entry.row, &out);
    PutScalar<int64_t>(entry.record_index, &out);
    PutScalar<int64_t>(entry.begin, &out);
    PutScalar<int64_t>(entry.end, &out);
    PutScalar<int32_t>(entry.column, &out);
    PutScalar<uint8_t>(static_cast<uint8_t>(entry.code), &out);
    PutBytes(entry.stage.data(), entry.stage.size(), &out);
    PutBytes(entry.message.data(), entry.message.size(), &out);
    PutBytes(entry.raw.data(), entry.raw.size(), &out);
  }
  return out;
}

Result<robust::QuarantineTable> DeserializeQuarantine(
    std::string_view bytes) {
  Cursor cursor(bytes);
  char magic[4];
  for (char& c : magic) {
    if (!cursor.Read(&c)) return Truncated();
  }
  if (std::memcmp(magic, kQuarantineMagic, 4) != 0) {
    return Status::IoError("bad magic; not a serialized quarantine table");
  }
  uint32_t version;
  uint64_t count;
  if (!cursor.Read(&version) || !cursor.Read(&count)) return Truncated();
  if (version != kQuarantineVersion) {
    return Status::IoError("unsupported quarantine version " +
                           std::to_string(version));
  }
  // Each entry is at least 61 bytes (five fixed scalars plus three length
  // prefixes); a corrupt count would otherwise loop billions of times
  // before the cursor runs dry.
  if (count > bytes.size() / 61) {
    return Status::IoError("quarantine entry count exceeds payload");
  }
  robust::QuarantineTable q;
  for (uint64_t i = 0; i < count; ++i) {
    robust::QuarantineEntry entry;
    uint8_t code_raw;
    std::string_view stage;
    std::string_view message;
    std::string_view raw;
    if (!cursor.Read(&entry.row) || !cursor.Read(&entry.record_index) ||
        !cursor.Read(&entry.begin) || !cursor.Read(&entry.end) ||
        !cursor.Read(&entry.column) || !cursor.Read(&code_raw) ||
        !cursor.ReadBytes(&stage) || !cursor.ReadBytes(&message) ||
        !cursor.ReadBytes(&raw)) {
      return Truncated();
    }
    if (code_raw > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
      return Status::IoError("unknown status code in quarantine entry");
    }
    if (entry.begin < 0 || entry.end < entry.begin) {
      return Status::IoError("invalid byte span in quarantine entry");
    }
    if (entry.end - entry.begin != static_cast<int64_t>(raw.size())) {
      return Status::IoError("quarantine span/raw length mismatch");
    }
    entry.code = static_cast<StatusCode>(code_raw);
    entry.stage.assign(stage);
    entry.message.assign(message);
    entry.raw.assign(raw);
    q.Add(std::move(entry));
  }
  if (!cursor.AtEnd()) {
    return Status::IoError("trailing bytes after quarantine table");
  }
  return q;
}

}  // namespace parparaw
