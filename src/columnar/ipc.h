#ifndef PARPARAW_COLUMNAR_IPC_H_
#define PARPARAW_COLUMNAR_IPC_H_

#include <string>
#include <string_view>

#include "columnar/table.h"
#include "robust/quarantine.h"
#include "util/result.h"

namespace parparaw {

/// \brief Arrow-inspired binary interchange for parsed tables.
///
/// The paper configures ParPaRaw's output "to comply with the format
/// specified by Apache Arrow"; this module provides the matching
/// serialisation layer: the buffers are written exactly as the columns
/// hold them (validity bitmap words, fixed-width value buffer, 64-bit
/// string offsets + data), framed with a small header so a table can be
/// handed to another process or persisted and read back zero-conversion.
///
/// Layout (all integers little-endian):
///   magic "PPRW" | version u32 | num_columns u32 | num_rows i64
///   rejected: u64 byte-length, bytes
///   per column:
///     name  : u64 byte-length, bytes
///     type  : u8 TypeId, i32 scale, u8 nullable
///     validity: u64 byte-length, u64 words    (exactly ceil(rows / 64))
///     data  : u64 byte-length, bytes          (fixed-width types)
///     offsets: u64 byte-length, i64 values    (string type)
///     strdata: u64 byte-length, bytes         (string type)

/// Serialises `table` into a self-contained byte string, sized once
/// (SerializedTableSize).
Result<std::string> SerializeTable(const Table& table);

/// The exact byte count SerializeTable writes for `table`.
size_t SerializedTableSize(const Table& table);

/// Parses bytes produced by SerializeTable. Validates framing, buffer
/// sizes, and offset monotonicity before constructing the table.
Result<Table> DeserializeTable(std::string_view bytes);

/// Serialises a quarantine table so rejected records can travel with (or
/// separately from) their parsed table. Layout:
///   magic "PPQR" | version u32 | count u64
///   per entry:
///     row i64 | record_index i64 | begin i64 | end i64 | column i32
///     code u8 | stage, message, raw: u64 byte-length + bytes each
Result<std::string> SerializeQuarantine(const robust::QuarantineTable& q);

/// Parses bytes produced by SerializeQuarantine with the same defensive
/// validation as DeserializeTable (framing, span sanity, known codes).
Result<robust::QuarantineTable> DeserializeQuarantine(std::string_view bytes);

}  // namespace parparaw

#endif  // PARPARAW_COLUMNAR_IPC_H_
