#include "relational/csv.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/string_util.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"

namespace csm {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------------------------ writer

/// Appends `field` to `out`, quoted (with `"` doubled) when it contains a
/// comma, quote or line break.
void AppendField(std::string_view field, std::string* out) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    out->append(field);
    return;
  }
  *out += '"';
  for (char c : field) {
    if (c == '"') *out += "\"\"";
    else *out += c;
  }
  *out += '"';
}

/// Appends the text of cell (`row`, `column`); NULL renders as nothing.
/// String cells are read straight from the dictionary, numbers render
/// through Value::ToString so the text matches the boxed form exactly.
void AppendCell(const Column& column, size_t row, std::string* out) {
  if (column.IsNull(row)) return;
  if (column.type() == ValueType::kString) {
    AppendField(column.dictionary().values()[column.codes()[row]], out);
  } else {
    AppendField(column.GetValue(row).ToString(), out);
  }
}

/// Streams `instance` as CSV, one record at a time, from the typed columns.
void WriteCsv(const Table& instance, std::ostream& os) {
  const TableSchema& schema = instance.schema();
  const size_t arity = schema.num_attributes();
  std::string line;
  for (size_t c = 0; c < arity; ++c) {
    if (c > 0) line += ',';
    AppendField(schema.attribute(c).name, &line);
  }
  line += '\n';
  os << line;
  for (size_t r = 0; r < instance.num_rows(); ++r) {
    line.clear();
    for (size_t c = 0; c < arity; ++c) {
      if (c > 0) line += ',';
      AppendCell(instance.column(c), r, &line);
    }
    // A single-attribute NULL row would render as an empty line, which a
    // reader cannot tell apart from the file's trailing newline.  Quote it;
    // "" parses back to one empty field and hence NULL.
    if (line.empty()) line = "\"\"";
    line += '\n';
    os << line;
  }
}

// ------------------------------------------------------------ the splitter

/// The four bytes that end or open something in a CSV field.
constexpr std::array<bool, 256> kStructural = [] {
  std::array<bool, 256> table{};
  table[static_cast<unsigned char>(',')] = true;
  table[static_cast<unsigned char>('"')] = true;
  table[static_cast<unsigned char>('\n')] = true;
  table[static_cast<unsigned char>('\r')] = true;
  return table;
}();

enum class Split {
  kRecord,         // one record's cells were appended
  kTrailingBlank,  // a blank line ending the whole text: not a record
  kUnterminated,   // a quoted field ran to `end` without its closing quote
};

/// Unescaped copies of the fields that contained a `"`.  A deque, so the
/// string_views pointing into earlier entries survive later appends.
using CsvArena = std::deque<std::string>;

/// The one CSV record splitter.  Splits the record starting at `*pos`
/// (< end) into `cells` and advances `*pos` past its terminator.
///
/// Rules: records end at "\n", "\r\n" or a bare "\r" outside quotes; a `"`
/// opens quoted text anywhere in a field and the next lone `"` closes it,
/// while `""` inside quoted text is one literal quote.  Fields without a
/// `"` are views into `text`; the rest are unescaped into `arena`.  A line
/// with no bytes before its terminator is one empty field, unless it is
/// the last line of the whole `text` — then it is the file's trailing
/// newline.  `end` may be a chunk end: ScanCsvChunks cuts only where a
/// record ends, so a record never runs past it.
Split SplitRecord(std::string_view text, size_t end, size_t* pos,
                  std::vector<std::string_view>* cells, CsvArena* arena) {
  const char* const data = text.data();
  size_t i = *pos;
  if (data[i] == '\n' || data[i] == '\r') {
    i += data[i] == '\r' && i + 1 < end && data[i + 1] == '\n' ? 2 : 1;
    *pos = i;
    if (i >= text.size()) return Split::kTrailingBlank;
    cells->emplace_back();
    return Split::kRecord;
  }
  size_t field_begin = i;
  while (true) {
    while (i < end && !kStructural[static_cast<unsigned char>(data[i])]) ++i;
    if (i < end && data[i] == '"') {
      std::string& field =
          arena->emplace_back(data + field_begin, i - field_begin);
      bool in_quotes = false;
      for (; i < end; ++i) {
        const char c = data[i];
        if (in_quotes) {
          if (c != '"') {
            field += c;
          } else if (i + 1 < end && data[i + 1] == '"') {
            field += '"';
            ++i;
          } else {
            in_quotes = false;
          }
        } else if (c == '"') {
          in_quotes = true;
        } else if (kStructural[static_cast<unsigned char>(c)]) {
          break;
        } else {
          field += c;
        }
      }
      if (in_quotes) {
        *pos = i;
        return Split::kUnterminated;
      }
      cells->emplace_back(field);
    } else {
      cells->emplace_back(data + field_begin, i - field_begin);
    }
    if (i >= end) break;
    const char c = data[i++];
    if (c == ',') {
      field_begin = i;
      continue;
    }
    if (c == '\r' && i < end && data[i] == '\n') ++i;
    break;
  }
  *pos = i;
  return Split::kRecord;
}

// ------------------------------------------------------------------ errors

/// Every CSV parse error names the record (the header is record 1, so in a
/// file without quoted line breaks it is the line number) and the byte
/// offset where that record starts.
Status CsvError(size_t record, size_t byte, const std::string& detail) {
  return Status::InvalidArgument("CSV record " + std::to_string(record) +
                                 " (byte " + std::to_string(byte) +
                                 "): " + detail);
}

constexpr const char* kUnterminatedDetail = "unterminated quoted CSV field";

// ----------------------------------------------------------------- header

struct CsvHeader {
  std::vector<std::string> names;
  size_t body = 0;  // byte offset of the first data record
};

StatusOr<CsvHeader> SplitHeader(std::string_view csv) {
  CsvHeader header;
  if (csv.empty()) return header;
  std::vector<std::string_view> names;
  CsvArena arena;
  if (SplitRecord(csv, csv.size(), &header.body, &names, &arena) ==
      Split::kUnterminated) {
    return CsvError(1, 0, kUnterminatedDetail);
  }
  header.names.assign(names.begin(), names.end());
  return header;
}

Status ValidateHeader(const TableSchema& schema, const CsvHeader& header) {
  if (header.names.size() != schema.num_attributes()) {
    return CsvError(1, 0,
                    "header arity mismatch for table '" + schema.name() +
                        "': expected " +
                        std::to_string(schema.num_attributes()) +
                        " attributes, got " +
                        std::to_string(header.names.size()));
  }
  for (size_t c = 0; c < header.names.size(); ++c) {
    if (header.names[c] != schema.attribute(c).name) {
      return CsvError(1, 0,
                      "header mismatch: expected '" +
                          schema.attribute(c).name + "', got '" +
                          header.names[c] + "'");
    }
  }
  return Status::Ok();
}

// ------------------------------------------------------ pass 1: splitting

/// One chunk's cells, split zero-copy: row-major, `arity` views per row.
struct SplitChunk {
  std::vector<std::string_view> cells;
  CsvArena arena;
  size_t rows = 0;
  /// Why record `rows` of the chunk failed to split; empty when the chunk
  /// split cleanly.  Nothing after a failed record is split.
  std::string error;
};

void SplitSpan(std::string_view csv, const CsvChunkSpan& span, size_t arity,
               const std::string& table_name, SplitChunk* out) {
  out->cells.reserve(span.records * arity);
  size_t pos = span.begin;
  while (pos < span.end) {
    const size_t before = out->cells.size();
    const Split split =
        SplitRecord(csv, span.end, &pos, &out->cells, &out->arena);
    if (split == Split::kTrailingBlank) return;
    if (split == Split::kUnterminated) {
      out->error = kUnterminatedDetail;
      return;
    }
    const size_t got = out->cells.size() - before;
    if (got != arity) {
      out->error = "record arity mismatch in table '" + table_name +
                   "': expected " + std::to_string(arity) + " fields, got " +
                   std::to_string(got);
      return;
    }
    ++out->rows;
  }
}

/// The split body: chunks in text order, cut back to the rows before the
/// first splitter error (or the row capacity), which is then `pending`.
struct SplitBody {
  std::vector<CsvChunkSpan> spans;
  std::vector<SplitChunk> chunks;
  size_t rows = 0;
  std::optional<std::string> pending;  // error at data row `rows`
};

SplitBody SplitAll(std::string_view csv, size_t body, size_t arity,
                   const std::string& table_name, size_t chunk_bytes,
                   exec::ThreadPool* pool) {
  SplitBody out;
  if (body < csv.size()) {
    // One chunk needs no scan: split the whole body in place.
    out.spans = chunk_bytes >= csv.size() - body
                    ? std::vector<CsvChunkSpan>{{body, csv.size(), 0}}
                    : ScanCsvChunks(csv, body, chunk_bytes);
  }
  out.chunks.resize(out.spans.size());
  exec::ParallelFor(pool, out.spans.size(), [&](size_t i) {
    SplitSpan(csv, out.spans[i], arity, table_name, &out.chunks[i]);
  });
  for (const SplitChunk& chunk : out.chunks) {
    out.rows += chunk.rows;
    if (!chunk.error.empty()) {
      out.pending = chunk.error;
      break;
    }
  }
  // 32-bit RowIds and the dictionary NULL code cap a table at kNullCode
  // rows.
  if (out.rows > kNullCode) {
    out.rows = kNullCode;
    out.pending = "table '" + table_name + "' row capacity exceeded";
  }
  return out;
}

/// Byte offset where data row `row` starts: re-splits its chunk up to it.
/// Only error reporting pays for this.
size_t RowOffset(std::string_view csv, const SplitBody& body, size_t row) {
  for (size_t i = 0; i < body.chunks.size(); ++i) {
    const SplitChunk& chunk = body.chunks[i];
    if (row >= chunk.rows && chunk.error.empty()) {
      row -= chunk.rows;
      continue;
    }
    size_t pos = body.spans[i].begin;
    std::vector<std::string_view> cells;
    CsvArena arena;
    for (size_t r = 0; r < row; ++r) {
      SplitRecord(csv, body.spans[i].end, &pos, &cells, &arena);
      cells.clear();
    }
    return pos;
  }
  return csv.size();
}

// ------------------------------------------------------- pass 2: encoding

/// Encodes each column in row order on its own task, so dictionary codes
/// come out in serial first-seen order, then assembles the table.  The
/// error reported is the one a record-at-a-time parse meets first: the
/// lowest record, and within it the splitter before the cells and a lower
/// column before a higher one.
StatusOr<Table> EncodeColumns(TableSchema schema, std::string_view csv,
                              const SplitBody& body, exec::ThreadPool* pool) {
  const size_t arity = schema.num_attributes();
  std::vector<Column> columns(arity);
  struct CellError {
    size_t row = 0;
    std::string detail;
  };
  std::vector<std::optional<CellError>> errors(arity);
  exec::ParallelFor(pool, arity, [&](size_t c) {
    Column column(schema.attribute(c).type);
    column.Reserve(body.rows);
    size_t row = 0;
    for (const SplitChunk& chunk : body.chunks) {
      const size_t rows = std::min(chunk.rows, body.rows - row);
      for (size_t r = 0; r < rows; ++r, ++row) {
        Status status = column.AppendParsed(chunk.cells[r * arity + c]);
        if (!status.ok()) {
          errors[c] = CellError{row, "attribute '" +
                                         schema.attribute(c).name +
                                         "': " + status.message()};
          return;
        }
      }
    }
    columns[c] = std::move(column);
  });

  std::optional<CellError> first;
  if (body.pending) first = CellError{body.rows, *body.pending};
  for (std::optional<CellError>& error : errors) {
    // Encoding stops before row body.rows, so a cell error is always in an
    // earlier record than the pending splitter error.
    if (error && (!first || error->row < first->row)) first = std::move(error);
  }
  if (first) {
    // Data row r is record r + 2: the header is record 1.
    return CsvError(first->row + 2, RowOffset(csv, body, first->row),
                    first->detail);
  }
  return Table::FromColumns(std::move(schema), std::move(columns), body.rows);
}

// ------------------------------------------------------------ inference

/// Column-type inference: each column demotes from int toward real toward
/// string as cells of the first `limit` rows fail to parse (0 = all rows).
/// Columns with no non-empty cell default to string.
TableSchema InferSchema(const std::string& table_name, const CsvHeader& header,
                        const SplitBody& body, size_t limit) {
  const size_t arity = header.names.size();
  std::vector<ValueType> types(arity, ValueType::kInt);
  std::vector<bool> saw_value(arity, false);
  if (limit == 0 || limit > body.rows) limit = body.rows;
  size_t row = 0;
  for (const SplitChunk& chunk : body.chunks) {
    for (size_t r = 0; r < chunk.rows && row < limit; ++r, ++row) {
      for (size_t c = 0; c < arity; ++c) {
        const std::string_view cell = Trim(chunk.cells[r * arity + c]);
        if (cell.empty()) continue;
        saw_value[c] = true;
        if (types[c] == ValueType::kInt &&
            !Value::Parse(cell, ValueType::kInt).ok()) {
          types[c] = ValueType::kReal;
        }
        if (types[c] == ValueType::kReal &&
            !Value::Parse(cell, ValueType::kReal).ok()) {
          types[c] = ValueType::kString;
        }
      }
    }
  }
  TableSchema schema(table_name);
  for (size_t c = 0; c < arity; ++c) {
    schema.AddAttribute(header.names[c],
                        saw_value[c] ? types[c] : ValueType::kString);
  }
  return schema;
}

// ------------------------------------------------------------- the reader

/// Both passes over `csv`: the schema is `schema` when set, otherwise
/// inferred from the first `infer_records` data records (0 = all).
StatusOr<Table> ParseCsv(std::optional<TableSchema> schema,
                         const std::string& table_name, std::string_view csv,
                         size_t infer_records, const CsvIngestOptions& options,
                         CsvIngestStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  CSM_ASSIGN_OR_RETURN(CsvHeader header, SplitHeader(csv));
  if (schema) {
    CSM_RETURN_IF_ERROR(ValidateHeader(*schema, header));
  } else if (header.names.empty()) {
    return CsvError(1, 0, "no header row");
  }
  exec::ThreadPool* pool = options.pool;
  const size_t threads =
      pool != nullptr ? pool->size() : exec::EffectiveThreads(options.threads);
  const size_t body_bytes = csv.size() - header.body;
  // A serial parse gains nothing from chunks, so it splits one and skips
  // the scan.
  const size_t chunk_bytes =
      options.chunk_bytes != 0 ? options.chunk_bytes
      : threads <= 1           ? std::max<size_t>(body_bytes, 1)
                               : AutotuneCsvChunkBytes(body_bytes, threads);
  std::unique_ptr<exec::ThreadPool> owned_pool;
  if (pool == nullptr && threads > 1) {
    owned_pool = std::make_unique<exec::ThreadPool>(threads);
    pool = owned_pool.get();
  }
  const SplitBody body = SplitAll(csv, header.body, header.names.size(),
                                  table_name, chunk_bytes, pool);
  if (!schema) schema = InferSchema(table_name, header, body, infer_records);
  StatusOr<Table> table = EncodeColumns(std::move(*schema), csv, body, pool);
  if (stats != nullptr) {
    stats->threads = threads;
    stats->chunk_bytes = chunk_bytes;
    stats->chunks = body.spans.size();
    stats->records = table.ok() ? table->num_rows() : 0;
    stats->parse_seconds = SecondsSince(t0);
  }
  return table;
}

}  // namespace

std::string TableToCsv(const Table& instance) {
  std::ostringstream os;
  WriteCsv(instance, os);
  return os.str();
}

StatusOr<Table> TableFromCsv(const TableSchema& schema, std::string_view csv) {
  return TableFromCsvParallel(schema, csv, {.threads = 1});
}

Status WriteCsvFile(const Table& instance, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  WriteCsv(instance, out);
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

StatusOr<Table> ReadCsvFile(const TableSchema& schema,
                            const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return TableFromCsv(schema, buffer.str());
}

StatusOr<Table> TableFromCsvInferred(const std::string& table_name,
                                     std::string_view csv) {
  return ParseCsv(std::nullopt, table_name, csv, 0, {.threads = 1}, nullptr);
}

StatusOr<Table> ReadCsvFileInferred(const std::string& table_name,
                                    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return TableFromCsvInferred(table_name, buffer.str());
}

// ---------------------------------------------------------------------------
// Streaming / parallel ingest
// ---------------------------------------------------------------------------

std::vector<CsvChunkSpan> ScanCsvChunks(std::string_view csv, size_t pos,
                                        size_t target_chunk_bytes) {
  std::vector<CsvChunkSpan> spans;
  if (pos >= csv.size()) return spans;
  if (target_chunk_bytes == 0) target_chunk_bytes = 1;
  size_t chunk_begin = pos;
  size_t records = 0;
  // Plain quote-parity toggle.  SplitRecord's escaped-quote handling ("")
  // consumes two quotes while staying in-quotes; the toggle flips out and
  // back in — the same parity after both, so terminator classification
  // (quoted vs structural) agrees with the record splitter everywhere.
  bool in_quotes = false;
  size_t i = pos;
  while (i < csv.size()) {
    const char c = csv[i];
    if (c == '"') {
      in_quotes = !in_quotes;
      ++i;
      continue;
    }
    if (!in_quotes && (c == '\n' || c == '\r')) {
      ++i;
      // "\r\n" is ONE terminator: never split between the CR and the LF, or
      // the next chunk would start with a bare LF and split a phantom empty
      // record.
      if (c == '\r' && i < csv.size() && csv[i] == '\n') ++i;
      ++records;
      if (i - chunk_begin >= target_chunk_bytes) {
        spans.push_back({chunk_begin, i, records});
        chunk_begin = i;
        records = 0;
      }
      continue;
    }
    ++i;
  }
  if (chunk_begin < csv.size()) {
    // Unterminated final record (or an unterminated quote — the chunk's
    // split reports that error).
    spans.push_back({chunk_begin, csv.size(), records + 1});
  }
  return spans;
}

size_t AutotuneCsvChunkBytes(size_t total_bytes, size_t threads) {
  if (threads == 0) threads = 1;
  constexpr size_t kMinChunk = 64u << 10;  // below this, spawn overhead wins
  constexpr size_t kMaxChunk = 16u << 20;  // above this, stragglers dominate
  const size_t target = total_bytes / (threads * 4);
  return std::clamp(target, kMinChunk, kMaxChunk);
}

StatusOr<Table> TableFromCsvParallel(const TableSchema& schema,
                                     std::string_view csv,
                                     const CsvIngestOptions& options,
                                     CsvIngestStats* stats) {
  return ParseCsv(schema, schema.name(), csv, 0, options, stats);
}

namespace {

/// The loaded bytes of a CSV file: either a read-only mapping (unmapped by
/// the shared_ptr deleter) or an owned fallback buffer.  Move-friendly by
/// construction; `view` always points at the live storage.
struct CsvFileBuffer {
  std::string fallback;
  std::shared_ptr<const void> mapping;
  std::string_view view;
};

Status LoadCsvFile(const std::string& path, bool force_read_fallback,
                   CsvFileBuffer* buffer, CsvIngestStats* stats) {
#ifndef _WIN32
  if (!force_read_fallback) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st;
      if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
        const size_t len = static_cast<size_t>(st.st_size);
        if (len == 0) {
          ::close(fd);
          buffer->view = std::string_view();
          if (stats != nullptr) stats->used_mmap = true;
          return Status::Ok();
        }
        void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (base != MAP_FAILED) {
#ifdef MADV_SEQUENTIAL
          ::madvise(base, len, MADV_SEQUENTIAL);
#endif
          buffer->mapping = std::shared_ptr<const void>(
              base, [len](const void* p) {
                ::munmap(const_cast<void*>(p), len);
              });
          buffer->view =
              std::string_view(static_cast<const char*>(base), len);
          if (stats != nullptr) {
            stats->used_mmap = true;
            stats->file_bytes = len;
          }
          return Status::Ok();
        }
      } else {
        ::close(fd);
      }
    }
    // Any mmap-path failure falls through to the buffered read below; a
    // missing file fails there with a proper IoError.
  }
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  // Single forward pass in fixed-size reads; every byte is counted exactly
  // once in bytes_read (the read-once regression test keys on this).
  char block[64 << 10];
  while (in.read(block, sizeof(block)) || in.gcount() > 0) {
    buffer->fallback.append(block, static_cast<size_t>(in.gcount()));
    if (stats != nullptr) {
      stats->bytes_read += static_cast<size_t>(in.gcount());
    }
  }
  if (in.bad()) return Status::IoError("read failed: " + path);
  buffer->view = buffer->fallback;
  if (stats != nullptr) stats->file_bytes = buffer->fallback.size();
  return Status::Ok();
}

}  // namespace

StatusOr<Table> ReadCsvFileStreaming(const TableSchema& schema,
                                     const std::string& path,
                                     const CsvIngestOptions& options,
                                     CsvIngestStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  CsvFileBuffer buffer;
  CSM_RETURN_IF_ERROR(
      LoadCsvFile(path, options.force_read_fallback, &buffer, stats));
  if (stats != nullptr) stats->load_seconds = SecondsSince(t0);
  return TableFromCsvParallel(schema, buffer.view, options, stats);
}

StatusOr<Table> ReadCsvFileInferredStreaming(const std::string& table_name,
                                             const std::string& path,
                                             size_t infer_records,
                                             const CsvIngestOptions& options,
                                             CsvIngestStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  CsvFileBuffer buffer;
  CSM_RETURN_IF_ERROR(
      LoadCsvFile(path, options.force_read_fallback, &buffer, stats));
  if (stats != nullptr) stats->load_seconds = SecondsSince(t0);
  return ParseCsv(std::nullopt, table_name, buffer.view, infer_records,
                  options, stats);
}

}  // namespace csm
