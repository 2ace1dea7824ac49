// Tests for the streaming / chunked-parallel CSV ingest path
// (relational/csv.h, "Streaming ingest & sampling" in DESIGN.md):
// chunk-boundary correctness at hostile chunk sizes, the single-pass
// byte-once guarantee of the file loaders, and error-order parity with the
// serial parser.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "relational/csv.h"
#include "relational/table.h"
#include "tests/test_util.h"  // NOLINT

namespace csm {
namespace {

using testing::I;
using testing::MakeTable;
using testing::N;
using testing::R;
using testing::S;

/// Serial ground truth; the streaming path must match it bit for bit.
Table SerialParse(const TableSchema& schema, const std::string& csv) {
  auto parsed = TableFromCsv(schema, csv);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed.value());
}

/// Asserts value-level and dictionary-code-level equality.
void ExpectBitIdentical(const Table& expected, const Table& actual,
                        const std::string& what) {
  ASSERT_EQ(actual.num_rows(), expected.num_rows()) << what;
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    ASSERT_EQ(actual.row(r), expected.row(r)) << what << " at row " << r;
  }
  for (size_t c = 0; c < expected.schema().num_attributes(); ++c) {
    if (expected.schema().attribute(c).type != ValueType::kString) continue;
    EXPECT_EQ(actual.column(c).codes(), expected.column(c).codes())
        << what << ": dictionary codes diverged in column "
        << expected.schema().attribute(c).name;
    ASSERT_EQ(actual.column(c).dictionary().size(),
              expected.column(c).dictionary().size())
        << what;
    for (uint32_t code = 0; code < expected.column(c).dictionary().size();
         ++code) {
      EXPECT_EQ(actual.column(c).dictionary().value(code),
                expected.column(c).dictionary().value(code))
          << what << ": dictionary entry " << code;
    }
  }
}

/// Parses `csv` through the chunked path at every chunk size in
/// [1, csv.size()] and asserts bit-identity with the serial parser.  A
/// 1-byte target chunk places a boundary after every record, so every
/// hostile construct (quoted terminator, CRLF, NULL row, multi-byte
/// character) gets exercised adjacent to a split.
void SweepAllChunkSizes(const TableSchema& schema, const std::string& csv,
                        size_t threads = 2) {
  const Table expected = SerialParse(schema, csv);
  for (size_t chunk_bytes = 1; chunk_bytes <= csv.size(); ++chunk_bytes) {
    CsvIngestOptions options;
    options.chunk_bytes = chunk_bytes;
    options.threads = threads;
    auto parsed = TableFromCsvParallel(schema, csv, options);
    ASSERT_TRUE(parsed.ok())
        << "chunk_bytes=" << chunk_bytes << ": " << parsed.status().ToString();
    ExpectBitIdentical(expected, *parsed,
                       "chunk_bytes=" + std::to_string(chunk_bytes));
  }
}

// ------------------------------------------------------------- chunk scan

TEST(CsvChunkScanTest, SpansAreContiguousAndCoverTheText) {
  const std::string csv = "a,b\n1,x\n2,y\n3,z\n4,w\n";
  for (size_t target = 1; target <= csv.size() + 4; ++target) {
    size_t cursor = 4;  // just past the header record
    for (const CsvChunkSpan& span : ScanCsvChunks(csv, 4, target)) {
      EXPECT_EQ(span.begin, cursor) << "target=" << target;
      EXPECT_GT(span.end, span.begin) << "target=" << target;
      cursor = span.end;
    }
    EXPECT_EQ(cursor, csv.size()) << "target=" << target;
  }
}

TEST(CsvChunkScanTest, NeverSplitsBetweenCarriageReturnAndLineFeed) {
  // CRLF terminators at every record; any 1-byte-granularity scan that
  // treated CR and LF separately would start some chunk on the LF and parse
  // a phantom empty record there.
  const std::string csv = "a\r\n1\r\n22\r\n333\r\n4444\r\n";
  for (size_t target = 1; target <= csv.size(); ++target) {
    for (const CsvChunkSpan& span : ScanCsvChunks(csv, 3, target)) {
      if (span.begin == 0 || span.begin >= csv.size()) continue;
      EXPECT_FALSE(csv[span.begin - 1] == '\r' && csv[span.begin] == '\n')
          << "target=" << target << " split CRLF at byte " << span.begin;
    }
  }
}

TEST(CsvChunkScanTest, RecordCountsBoundReservations) {
  // Quoted embedded newlines make terminator counting exact per record; a
  // final unterminated record is still counted.
  const std::string csv = "a\n\"x\ny\"\nplain\nlast";
  const std::vector<CsvChunkSpan> spans = ScanCsvChunks(csv, 2, csv.size());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].records, 3u);
}

TEST(CsvChunkScanTest, AutotuneClampsToSaneRange) {
  // Tiny inputs: floor of 64 KiB keeps small files effectively serial.
  EXPECT_EQ(AutotuneCsvChunkBytes(1000, 4), 64u << 10);
  // Huge inputs: ceiling of 16 MiB bounds per-chunk table sizes.
  EXPECT_EQ(AutotuneCsvChunkBytes(size_t{1} << 40, 2), 16u << 20);
  // In between: ~4 chunks per worker.
  EXPECT_EQ(AutotuneCsvChunkBytes(size_t{32} << 20, 4), (32u << 20) / 16);
}

// -------------------------------------------- chunk-boundary parse parity

TEST(CsvStreamTest, QuotedTerminatorsAcrossChunkBoundaries) {
  Table t = MakeTable("q", {"text", "n"},
                      {{S("embedded\nnewline"), I(1)},
                       {S("embedded\r\ncrlf"), I(2)},
                       {S("bare\rcr"), I(3)},
                       {S("quote\"inside"), I(4)},
                       {S("comma,inside"), I(5)},
                       {S("\"leading quote"), I(6)}});
  SweepAllChunkSizes(t.schema(), TableToCsv(t));
}

TEST(CsvStreamTest, MixedLineEndingsAcrossChunkBoundaries) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  // \n, \r\n, bare \r terminators interleaved, CR-only tail.
  SweepAllChunkSizes(schema, "a\n1\r\n2\r3\n4\r\n5\r");
}

TEST(CsvStreamTest, CarriageReturnOnlyFile) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  schema.AddAttribute("b", ValueType::kString);
  SweepAllChunkSizes(schema, "a,b\r1,x\r2,y\r3,z\r");
}

TEST(CsvStreamTest, Utf8CellsAcrossChunkBoundaries) {
  // Multi-byte sequences land adjacent to every chunk split; continuation
  // bytes must never be mistaken for quotes or terminators.
  Table t = MakeTable("u", {"s"},
                      {{S("caf\xc3\xa9")},
                       {S("\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e")},
                       {S("emoji \xf0\x9f\x98\x80 mix")},
                       {S("\xc3\xa9\xc3\xa8\xc3\xaa")}});
  SweepAllChunkSizes(t.schema(), TableToCsv(t));
}

TEST(CsvStreamTest, NullRowsSpanningChunkSplits) {
  Table t = MakeTable("n", {"a", "b"},
                      {{I(1), N()},
                       {N(), N()},
                       {N(), S("x")},
                       {I(4), S("")}});
  SweepAllChunkSizes(t.schema(), TableToCsv(t));
}

TEST(CsvStreamTest, SingleAttributeNullRowsRenderedAsQuotedEmpty) {
  // A single-attribute NULL row renders as `""` — a 1-byte chunk sweep puts
  // splits inside and around those two quote characters.
  Table t = MakeTable("n1", {"a"}, {{N()}, {S("v")}, {N()}, {N()}});
  SweepAllChunkSizes(t.schema(), TableToCsv(t));
}

TEST(CsvStreamTest, DictionaryCodesIdenticalAcrossThreadCounts) {
  // Repeated strings whose first occurrences are spread over several
  // chunks: the merged dictionary must reproduce serial first-seen order.
  std::vector<Row> rows;
  const char* values[] = {"delta", "alpha", "beta", "alpha", "gamma",
                          "delta", "beta",  "epsilon"};
  for (const char* v : values) rows.push_back({S(v)});
  Table t = MakeTable("d", {"s"}, rows);
  const std::string csv = TableToCsv(t);
  const Table expected = SerialParse(t.schema(), csv);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t chunk_bytes : {size_t{1}, size_t{8}, size_t{64}}) {
      CsvIngestOptions options;
      options.threads = threads;
      options.chunk_bytes = chunk_bytes;
      auto parsed = TableFromCsvParallel(t.schema(), csv, options);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      ExpectBitIdentical(expected, *parsed,
                         "threads=" + std::to_string(threads) +
                             " chunk_bytes=" + std::to_string(chunk_bytes));
    }
  }
}

TEST(CsvStreamTest, BorrowedPoolProducesSameTable) {
  Table t = MakeTable("p", {"a", "b"},
                      {{I(1), S("x")}, {I(2), S("y")}, {I(3), S("z")}});
  const std::string csv = TableToCsv(t);
  const Table expected = SerialParse(t.schema(), csv);
  exec::ThreadPool pool(3);
  CsvIngestOptions options;
  options.pool = &pool;
  options.chunk_bytes = 2;
  auto parsed = TableFromCsvParallel(t.schema(), csv, options);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectBitIdentical(expected, *parsed, "borrowed pool");
}

TEST(CsvStreamTest, HeaderOnlyTextYieldsEmptyTable) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  for (const std::string& csv : {std::string("a\n"), std::string("a")}) {
    CsvIngestOptions options;
    options.chunk_bytes = 1;
    auto parsed = TableFromCsvParallel(schema, csv, options);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->num_rows(), 0u);
  }
}

TEST(CsvStreamTest, FirstErrorInTextOrderMatchesSerialParser) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  // Two bad records; the serial parser reports the *first* one.  The
  // chunked path must report the same error even when a later chunk (with
  // the second bad record) finishes first.
  const std::string csv = "a\n1\nbad_early\n3\nbad_late\n5\n";
  const Status serial = TableFromCsv(schema, csv).status();
  ASSERT_FALSE(serial.ok());
  for (size_t chunk_bytes : {size_t{1}, size_t{4}, size_t{1024}}) {
    CsvIngestOptions options;
    options.chunk_bytes = chunk_bytes;
    options.threads = 4;
    const Status chunked = TableFromCsvParallel(schema, csv, options).status();
    ASSERT_FALSE(chunked.ok()) << "chunk_bytes=" << chunk_bytes;
    EXPECT_EQ(chunked.message(), serial.message())
        << "chunk_bytes=" << chunk_bytes;
  }
}

TEST(CsvStreamTest, HeaderMismatchRejected) {
  TableSchema schema("t");
  schema.AddAttribute("wrong", ValueType::kInt);
  EXPECT_FALSE(TableFromCsvParallel(schema, "a\n1\n").ok());
}

// Regression: a blank line that ended a chunk used to be taken for the
// file's trailing newline and dropped.  Only a blank line at the end of the
// whole body is the trailing newline; anywhere else it is a record.
TEST(CsvStreamTest, BlankLineEndingAChunkIsStillARecord) {
  TableSchema two("t");
  two.AddAttribute("a", ValueType::kInt);
  two.AddAttribute("b", ValueType::kString);
  const std::string two_csv = "a,b\n1,x\n\n2,y\n";
  const Status serial = TableFromCsv(two, two_csv).status();
  ASSERT_FALSE(serial.ok());  // the blank record has one field, not two
  for (size_t threads : {size_t{1}, size_t{2}}) {
    CsvIngestOptions options;
    options.chunk_bytes = 1;
    options.threads = threads;
    EXPECT_EQ(TableFromCsvParallel(two, two_csv, options).status(), serial)
        << "threads=" << threads;
  }

  TableSchema one("t");
  one.AddAttribute("a", ValueType::kString);
  const std::string one_csv = "a\nx\n\ny\n";
  ASSERT_EQ(SerialParse(one, one_csv).num_rows(), 3u);
  SweepAllChunkSizes(one, one_csv);
}

// Every CSV error names the record (header = record 1) and the byte where
// that record starts, with the same text on every path, thread count and
// chunk size.
TEST(CsvStreamTest, ErrorTextNamesRecordAndByteOnEveryPath) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  schema.AddAttribute("b", ValueType::kString);
  const struct {
    std::string csv;
    std::string message;
  } cases[] = {
      {"a,b\n1,x\nbad,y\n",
       "CSV record 3 (byte 8): attribute 'a': cannot parse int: 'bad'"},
      {"a,b\n1,x\n\n2,y\n",
       "CSV record 3 (byte 8): record arity mismatch in table 't': expected "
       "2 fields, got 1"},
      // A quoted line break: the record number is no longer the line.
      {"a,b\n1,\"two\nlines\"\n2,y,z\n",
       "CSV record 3 (byte 18): record arity mismatch in table 't': "
       "expected 2 fields, got 3"},
      {"a,b\r\n1,x\r\n2,\"open\r\n3,z\r\n",
       "CSV record 3 (byte 10): unterminated quoted CSV field"},
      // A cell error in an earlier record beats a later splitting error.
      {"a,b\n1,x\nbad,y\n2\n",
       "CSV record 3 (byte 8): attribute 'a': cannot parse int: 'bad'"},
      {"x,b\n1,y\n", "CSV record 1 (byte 0): header mismatch: expected 'a', "
                     "got 'x'"},
      {"a\n1\n", "CSV record 1 (byte 0): header arity mismatch for table "
                 "'t': expected 2 attributes, got 1"},
  };
  for (const auto& c : cases) {
    const Status serial = TableFromCsv(schema, c.csv).status();
    EXPECT_EQ(serial.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(serial.message(), c.message);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      for (size_t chunk_bytes : {size_t{0}, size_t{1}, size_t{5}, size_t{64}}) {
        CsvIngestOptions options;
        options.threads = threads;
        options.chunk_bytes = chunk_bytes;
        EXPECT_EQ(TableFromCsvParallel(schema, c.csv, options).status(),
                  serial)
            << "threads=" << threads << " chunk_bytes=" << chunk_bytes;
      }
    }
  }
  EXPECT_EQ(TableFromCsvInferred("t", "").status().message(),
            "CSV record 1 (byte 0): no header row");
  EXPECT_EQ(TableFromCsvInferred("t", "a,b\n1,x\n2\n").status().message(),
            "CSV record 3 (byte 8): record arity mismatch in table 't': "
            "expected 2 fields, got 1");
}

// ----------------------------------------------------------- file loaders

std::string WriteTempCsv(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

TEST(CsvStreamFileTest, ReadFallbackReadsEveryByteExactlyOnce) {
  Table t = MakeTable("f", {"a", "b"},
                      {{I(1), S("x")}, {I(2), S("y")}, {I(3), S("z")}});
  const std::string csv = TableToCsv(t);
  const std::string path = WriteTempCsv("csm_stream_once.csv", csv);
  CsvIngestOptions options;
  options.force_read_fallback = true;
  CsvIngestStats stats;
  auto parsed = ReadCsvFileStreaming(t.schema(), path, options, &stats);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectBitIdentical(SerialParse(t.schema(), csv), *parsed, "read fallback");
  // The instrumented reader counts every byte it copies: exactly one pass
  // over the file, no separate estimate scan (the old loader read the body
  // twice).
  EXPECT_FALSE(stats.used_mmap);
  EXPECT_EQ(stats.file_bytes, csv.size());
  EXPECT_EQ(stats.bytes_read, csv.size());
  EXPECT_EQ(stats.records, t.num_rows());
  std::remove(path.c_str());
}

TEST(CsvStreamFileTest, MmapPathCopiesNothing) {
  Table t = MakeTable("m", {"a"}, {{I(1)}, {I(2)}});
  const std::string csv = TableToCsv(t);
  const std::string path = WriteTempCsv("csm_stream_mmap.csv", csv);
  CsvIngestStats stats;
  auto parsed = ReadCsvFileStreaming(t.schema(), path, {}, &stats);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_rows(), 2u);
#ifndef _WIN32
  EXPECT_TRUE(stats.used_mmap);
  EXPECT_EQ(stats.bytes_read, 0u);
#endif
  EXPECT_EQ(stats.file_bytes, csv.size());
  std::remove(path.c_str());
}

TEST(CsvStreamFileTest, MissingFileIsIoError) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  EXPECT_EQ(
      ReadCsvFileStreaming(schema, "/nonexistent/file.csv").status().code(),
      StatusCode::kIoError);
}

TEST(CsvStreamFileTest, EmptyFileRejectedLikeSerialLoader) {
  const std::string path = WriteTempCsv("csm_stream_empty.csv", "");
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  const Status streaming = ReadCsvFileStreaming(schema, path).status();
  const Status serial = ReadCsvFile(schema, path).status();
  EXPECT_FALSE(streaming.ok());
  EXPECT_EQ(streaming.ok(), serial.ok());
  std::remove(path.c_str());
}

TEST(CsvStreamFileTest, InferredStreamingMatchesInferredLoader) {
  const std::string csv =
      "id,price,name\n1,9.5,ab\n2,1.25,cd\n3,7.0,ef\n4,2.5,gh\n";
  const std::string path = WriteTempCsv("csm_stream_infer.csv", csv);
  auto legacy = ReadCsvFileInferred("inv", path);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  CsvIngestStats stats;
  auto streaming = ReadCsvFileInferredStreaming("inv", path, 2, {}, &stats);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
  ExpectBitIdentical(*legacy, *streaming, "inferred streaming");
  EXPECT_EQ(streaming->schema().attribute(0).type, ValueType::kInt);
  EXPECT_EQ(streaming->schema().attribute(1).type, ValueType::kReal);
  EXPECT_EQ(streaming->schema().attribute(2).type, ValueType::kString);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace csm
