// CSV serialization for tables: RFC-4180-ish quoting, header row with
// attribute names.  Used by the examples, for dumping experiment inputs and
// as the ingest path of the million-row scale instances.
//
// Every reader runs the same two passes over the text (DESIGN.md
// "Streaming ingest & sampling"):
//   1. Split.  The body is cut into record-aligned chunks (ScanCsvChunks);
//      one task per chunk records every cell as a string_view into the
//      text.  Only fields containing a `"` are unescaped, into a per-chunk
//      arena.  The splitter checks each record's arity.
//   2. Encode.  One task per column runs Column::AppendParsed over that
//      column's cells in row order, and Table::FromColumns assembles the
//      table.  Encoding in row order gives the serial first-seen
//      dictionary codes by construction, so no merge or re-encoding step
//      exists.
// A serial read is the same two passes with one chunk and no pool.
//
// Parse errors are InvalidArgument and read "CSV record N (byte B): ...":
// N counts records from 1 at the header (in a file without quoted line
// breaks it is the line number) and B is the byte where the record starts.
// The error reported is the first a record-at-a-time reader meets: the
// lowest record, and within a record a splitting error (unterminated
// quote, arity) before a cell error, and a lower column before a higher.
// The text is identical at every thread count and chunk size.

#ifndef CSM_RELATIONAL_CSV_H_
#define CSM_RELATIONAL_CSV_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/table.h"

namespace csm {

namespace exec {
class ThreadPool;
}  // namespace exec

/// Serializes `instance` (with a header row) to CSV text.  A row that would
/// render as a completely empty line (a single-attribute NULL) is written as
/// `""` so it survives the round trip — an empty line is otherwise
/// indistinguishable from the file's trailing newline.
std::string TableToCsv(const Table& instance);

/// Parses CSV text into a table.  The first row must be a header matching
/// `schema`'s attribute names (order-sensitive); cells are parsed by each
/// attribute's declared type; empty cells become NULL.  Records end at
/// "\n", "\r\n" or a bare "\r" (classic Mac), so files with any mix of
/// line endings parse; CR/LF *inside* a field must be quoted (the writer
/// always quotes them).  A blank line is one empty field, except the last
/// line of the text, which is the file's trailing newline, not a record.
/// Serial: TableFromCsvParallel with one thread.
StatusOr<Table> TableFromCsv(const TableSchema& schema, std::string_view csv);

/// Writes `instance` as CSV to `path`.
Status WriteCsvFile(const Table& instance, const std::string& path);

/// Reads a CSV file into a table conforming to `schema`.
StatusOr<Table> ReadCsvFile(const TableSchema& schema, const std::string& path);

/// Parses CSV text inferring each column's type from its cells: a column
/// whose non-empty cells all parse as int becomes int; failing that, real;
/// otherwise string.  Columns with no non-empty cells default to string.
/// The header row supplies the attribute names.
StatusOr<Table> TableFromCsvInferred(const std::string& table_name,
                                     std::string_view csv);

/// Reads a CSV file with inferred column types.
StatusOr<Table> ReadCsvFileInferred(const std::string& table_name,
                                    const std::string& path);

// ---------------------------------------------------------------------------
// Streaming / parallel ingest (the million-row path).  The table is
// bit-identical to TableFromCsv on the same text — same rows, same
// dictionary codes, same error — at every thread count and chunk size.
// ---------------------------------------------------------------------------

/// One parse chunk: a half-open byte range of the CSV body that starts and
/// ends on record boundaries, plus an upper-bound record count for
/// reservation (terminators seen in the range; quoted embedded newlines make
/// it exact, a trailing blank line overcounts by one).
struct CsvChunkSpan {
  size_t begin = 0;
  size_t end = 0;
  size_t records = 0;
};

/// Splits `csv` from `pos` (normally just past the header record) into
/// chunks of at least `target_chunk_bytes` bytes, each ending on a record
/// boundary, in one pass that tracks quote parity — a '"' toggles in/out of
/// a quoted field, exactly like the record splitter, so terminators inside
/// quoted fields never split a record.  "\r\n" is one terminator: a chunk
/// never splits between the CR and the LF (a chunk starting with a bare LF
/// would otherwise parse a phantom empty record).  The final chunk may be
/// short; an unterminated final record is included in it.
std::vector<CsvChunkSpan> ScanCsvChunks(std::string_view csv, size_t pos,
                                        size_t target_chunk_bytes);

/// Chunk size heuristic: aim for ~4 chunks per worker so stragglers level
/// out, clamped to [64 KiB, 16 MiB] so tiny files stay serial-ish and huge
/// files keep a bounded chunk count.
size_t AutotuneCsvChunkBytes(size_t total_bytes, size_t threads);

/// Knobs for the streaming ingest path.
struct CsvIngestOptions {
  /// Worker threads for both passes; 0 = one per hardware thread,
  /// 1 = fully serial (no pool spun up).  Ignored when `pool` is set.
  size_t threads = 0;
  /// Optional borrowed pool; when set, both passes run on it instead of a
  /// private pool.
  exec::ThreadPool* pool = nullptr;
  /// Target chunk size in bytes; 0 = AutotuneCsvChunkBytes, or one chunk
  /// (and no chunk scan) when the parse is serial.
  size_t chunk_bytes = 0;
  /// Skip mmap and use the instrumented buffered-read fallback (tests use
  /// this to prove the file is read exactly once).
  bool force_read_fallback = false;
};

/// Observability counters for one streaming ingest.
struct CsvIngestStats {
  size_t file_bytes = 0;    // size of the input file / text
  size_t bytes_read = 0;    // bytes copied by the read fallback (0 = mmap)
  bool used_mmap = false;
  size_t threads = 0;       // effective parse workers
  size_t chunk_bytes = 0;   // chunk size actually used
  size_t chunks = 0;
  size_t records = 0;       // data records parsed (header excluded)
  double load_seconds = 0.0;   // mmap / read time
  double parse_seconds = 0.0;  // scan + split + encode time
};

/// Parses CSV text into a table with both passes on `options.threads`
/// workers.  Output is bit-identical to TableFromCsv(schema, csv) — same
/// rows, same dictionary code assignment, same error — for every thread
/// count and chunk size.  `stats`, when non-null, receives the parse-side
/// counters.
StatusOr<Table> TableFromCsvParallel(const TableSchema& schema,
                                     std::string_view csv,
                                     const CsvIngestOptions& options = {},
                                     CsvIngestStats* stats = nullptr);

/// Streaming file ingest: maps the file read-only (mmap) when possible and
/// parses it with TableFromCsvParallel, so no second copy of the text is
/// made and no estimate pass re-reads the file.  Falls back to a buffered
/// single-pass read (counted in stats->bytes_read) when mapping fails or
/// options.force_read_fallback is set.
StatusOr<Table> ReadCsvFileStreaming(const TableSchema& schema,
                                     const std::string& path,
                                     const CsvIngestOptions& options = {},
                                     CsvIngestStats* stats = nullptr);

/// Streaming variant of ReadCsvFileInferred: infers column types from the
/// split cells of the first `infer_records` data records (0 = all) between
/// the two passes, so inference re-reads no bytes.  When the sampled
/// prefix under-constrains a column (say, an int-looking prefix followed by
/// text) the typed parse fails; the caller decides whether to retry with
/// TableFromCsvInferred.
StatusOr<Table> ReadCsvFileInferredStreaming(
    const std::string& table_name, const std::string& path,
    size_t infer_records = 1024, const CsvIngestOptions& options = {},
    CsvIngestStats* stats = nullptr);

}  // namespace csm

#endif  // CSM_RELATIONAL_CSV_H_
