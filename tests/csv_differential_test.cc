// Differential test of the CSV readers (relational/csv.h) against the
// naive record-at-a-time reference readers (check/csv_reference.h).
//
// A hostile corpus — blank lines mid-file and at the end, CRLF and bare CR,
// quoted terminators, `""` escapes, quotes mid-field, bad int/real cells,
// arity errors, an unterminated quote — plus seeded random documents built
// from the same constructs are parsed at every chunk size in
// {1, 7, 64, 4096, auto} and thread count in {1, 2, 4}.  Every parse must
// return what the reference returns: equal values and dictionary codes, or
// an equal Status (code and text).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/csv_reference.h"
#include "check/fingerprint.h"
#include "check/generators.h"
#include "common/random.h"
#include "relational/csv.h"
#include "relational/table.h"

namespace csm {
namespace {

const size_t kChunkSizes[] = {1, 7, 64, 4096, 0};  // 0 = autotuned
const size_t kThreadCounts[] = {1, 2, 4};

TableSchema TypedSchema() {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  schema.AddAttribute("b", ValueType::kReal);
  schema.AddAttribute("c", ValueType::kString);
  return schema;
}

TableSchema SingleStringSchema() {
  TableSchema schema("one");
  schema.AddAttribute("a", ValueType::kString);
  return schema;
}

/// Empty when `actual` matches `expected` exactly, otherwise why not.
std::string Difference(const StatusOr<Table>& expected,
                       const StatusOr<Table>& actual) {
  if (!expected.ok() || !actual.ok()) {
    if (expected.status() == actual.status()) return "";
    return "status: expected '" + expected.status().ToString() + "', got '" +
           actual.status().ToString() + "'";
  }
  const std::string e = check::FingerprintTable(*expected);
  const std::string a = check::FingerprintTable(*actual);
  if (e != a) return "values:\n--- expected ---\n" + e + "--- actual ---\n" + a;
  for (size_t c = 0; c < expected->schema().num_attributes(); ++c) {
    if (expected->schema().attribute(c).type !=
        actual->schema().attribute(c).type) {
      return "type of column " + std::to_string(c);
    }
    if (expected->schema().attribute(c).type != ValueType::kString) continue;
    const Column& ec = expected->column(c);
    const Column& ac = actual->column(c);
    if (ec.codes() != ac.codes() ||
        ec.dictionary().values() != ac.dictionary().values()) {
      return "dictionary codes of column " + std::to_string(c);
    }
  }
  return "";
}

std::string Printable(const std::string& csv) {
  std::string out;
  for (char c : csv) {
    if (c == '\n') out += "\\n";
    else if (c == '\r') out += "\\r";
    else out += c;
  }
  return out;
}

/// Every typed reader at every chunk size and thread count against the
/// reference.
void ExpectTypedMatchesReference(const TableSchema& schema,
                                 const std::string& csv) {
  const StatusOr<Table> expected = check::ReferenceTableFromCsv(schema, csv);
  EXPECT_EQ(Difference(expected, TableFromCsv(schema, csv)), "")
      << "TableFromCsv on \"" << Printable(csv) << "\"";
  for (size_t threads : kThreadCounts) {
    for (size_t chunk_bytes : kChunkSizes) {
      CsvIngestOptions options;
      options.threads = threads;
      options.chunk_bytes = chunk_bytes;
      EXPECT_EQ(Difference(expected, TableFromCsvParallel(schema, csv, options)),
                "")
          << "threads=" << threads << " chunk_bytes=" << chunk_bytes
          << " on \"" << Printable(csv) << "\"";
    }
  }
}

/// Both inferred readers against the inferred reference; the streaming one
/// reads `csv` back from a file at every chunk size and thread count.
void ExpectInferredMatchesReference(const std::string& csv) {
  const StatusOr<Table> expected =
      check::ReferenceTableFromCsvInferred("inf", csv);
  EXPECT_EQ(Difference(expected, TableFromCsvInferred("inf", csv)), "")
      << "TableFromCsvInferred on \"" << Printable(csv) << "\"";
  // Named after the running test: ctest runs the tests of this file as
  // concurrent processes.
  const std::string path =
      ::testing::TempDir() + "/csm_csv_differential_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << csv;
  }
  for (size_t threads : kThreadCounts) {
    for (size_t chunk_bytes : kChunkSizes) {
      CsvIngestOptions options;
      options.threads = threads;
      options.chunk_bytes = chunk_bytes;
      EXPECT_EQ(Difference(expected, ReadCsvFileInferredStreaming(
                                         "inf", path, 0, options)),
                "")
          << "streaming threads=" << threads << " chunk_bytes=" << chunk_bytes
          << " on \"" << Printable(csv) << "\"";
    }
  }
  std::remove(path.c_str());
}

/// Hand-written hostile documents for TypedSchema() (a int, b real,
/// c string).
const std::vector<std::string>& TypedCorpus() {
  static const std::vector<std::string> corpus = {
      "",
      "\n",
      "a,b,c",
      "a,b,c\n",
      "a,b,c\n\n",
      "a,b,c\n1,2.5,x\n",
      "a,b,c\n1,2.5,x",
      "a,b,c\n1,2.5,x\n\n",
      "a,b,c\n1,2.5,x\n\n\n",
      "a,b,c\n\n1,2.5,x\n",
      "a,b,c\n1,2.5,x\n\n2,3.5,y\n",
      "a,b,c\r\n1,2.5,x\r\n2,3.5,y\r\n",
      "a,b,c\r1,2.5,x\r2,3.5,y\r",
      "a,b,c\r1,2.5,x\r\r",
      "a,b,c\n1,2.5,x\r\n2,3.5,y\r3,4.5,z\n",
      "a,b,c\n1,2.5,\"line\nbreak\"\n2,3.5,\"cr\rinside\"\n",
      "a,b,c\n1,2.5,\"crlf\r\ninside\"\r\n2,3.5,y\r\n",
      "a,b,c\n1,2.5,\"say \"\"hi\"\"\"\n2,3.5,\"\"\"\"\n",
      "a,b,c\n1,2.5,\"a,b\"\n2,3.5,\"\"\n",
      "a,b,c\n1,2.5,mid\"dle,quo\"te\n",
      "a,b,c\n\"1\",\"2.5\",\"x\"\n",
      "a,b,c\n 7 , 2.5 , padded \n",
      "a,b,c\n,,\n,,x\n1,,\n",
      "a,b,c\n1,2.5,x\nbad,3.5,y\n",
      "a,b,c\n1,2.5,x\n2,bad,y\n",
      "a,b,c\n1,bad,x\nbad,3.5,y\n",
      "a,b,c\n1,2.5,x\nbad,bad,y\n",
      "a,b,c\n1,2.5,x\n2,3.5\n",
      "a,b,c\n1,2.5,x\n2,3.5,y,extra\n",
      "a,b,c\n1,2.5,x\nbad,3.5\n",
      "a,b,c\n1,2.5,x\n2,3.5,\"oops\n",
      "a,b,c\n1,2.5,x\n2,3.5,\"oops,\n3,4.5,z\n",
      "a,b,c\nbad,2.5,x\n2,3.5,\"oops\n",
      "a,b,c\n1,2.5,x\n2,3.5,y\n3,4.5,z\n4,5.5,w\n5,6.5,v\n",
      "a,b,c\n1,2.5,x\n1,2.5,x\n2,3.5,y\n1,2.5,x\n3,4.5,z\n2,3.5,y\n",
      "a,b,c\n1,1e3,x\n-2,-0.5,y\n9223372036854775807,1,z\n",
      "a,b,c\n9223372036854775808,1,z\n",
      "x,b,c\n1,2.5,x\n",
      "a,b\n1,2.5\n",
      "a,b,c,d\n1,2.5,x,y\n",
      "\"a\",\"b\",\"c\"\n1,2.5,x\n",
      "a,b,\"c\n1,2.5,x\n",
      "a,b,c\n\"\"\n",
  };
  return corpus;
}

/// Documents for SingleStringSchema(): one column, so a blank line is a
/// well-formed NULL record.
const std::vector<std::string>& SingleColumnCorpus() {
  static const std::vector<std::string> corpus = {
      "a\nx\n\ny\n",
      "a\nx\n\n\ny\n\n",
      "a\n\n",
      "a\n\n\n",
      "a\r\n\r\n\r\nx\r\n",
      "a\r\r\rx\r\r",
      "a\n\"\"\n\"\"\n",
      "a\nx\r\n\ry\n",
      "a\n\"x\"\"\"\n\n\"\n\"\n",
      "a\nx\n\n\"never closed\n\n",
  };
  return corpus;
}

/// A random document for TypedSchema(): records of mostly well-typed cells
/// drawn from the corpus constructs, with random terminators, blank lines,
/// bad cells, wrong arity and a rare unterminated quote.
std::string RandomDocument(Rng& rng) {
  static const char* kInts[] = {"1", "-2", " 3 ", "\"4\"", "", "42"};
  static const char* kReals[] = {"2.5", "-0.5", "1e3", "\"7.25\"", "", "3"};
  static const char* kStrings[] = {"x",       "y z",        "",
                                   "\"a,b\"", "\"q\"\"q\"", "\"l\nb\"",
                                   "\"c\r\"", "mid\"d,l\"e", "x"};
  static const char* kBad[] = {"bad", "1.5.2", "\"\"\"\"", "--1"};
  static const char* kTerminators[] = {"\n", "\r\n", "\r"};
  std::string csv = "a,b,c";
  const size_t records = rng.NextBounded(12);
  for (size_t r = 0; r < records; ++r) {
    csv += kTerminators[rng.NextBounded(3)];
    if (rng.NextBounded(10) == 0) continue;  // blank line
    size_t fields = 3;
    if (rng.NextBounded(25) == 0) fields = rng.NextBounded(5);
    for (size_t f = 0; f < fields; ++f) {
      if (f > 0) csv += ',';
      if (rng.NextBounded(30) == 0) {
        csv += kBad[rng.NextBounded(4)];
      } else if (f == 0) {
        csv += kInts[rng.NextBounded(6)];
      } else if (f == 1) {
        csv += kReals[rng.NextBounded(6)];
      } else {
        csv += kStrings[rng.NextBounded(9)];
      }
    }
  }
  if (rng.NextBounded(2) == 0) csv += kTerminators[rng.NextBounded(3)];
  if (rng.NextBounded(4) == 0) csv += "\n";  // a blank line at the end
  if (rng.NextBounded(20) == 0) csv += "\"unterminated";
  return csv;
}

TEST(CsvDifferentialTest, TypedCorpusMatchesReference) {
  for (const std::string& csv : TypedCorpus()) {
    ExpectTypedMatchesReference(TypedSchema(), csv);
  }
}

TEST(CsvDifferentialTest, SingleColumnCorpusMatchesReference) {
  for (const std::string& csv : SingleColumnCorpus()) {
    ExpectTypedMatchesReference(SingleStringSchema(), csv);
  }
}

TEST(CsvDifferentialTest, InferredCorpusMatchesReference) {
  for (const std::string& csv : TypedCorpus()) {
    ExpectInferredMatchesReference(csv);
  }
  for (const std::string& csv : SingleColumnCorpus()) {
    ExpectInferredMatchesReference(csv);
  }
}

TEST(CsvDifferentialTest, RandomDocumentsMatchReference) {
  constexpr uint64_t kSeed = 20060912;
  for (uint64_t i = 0; i < 150; ++i) {
    Rng rng(check::IterationSeed(kSeed, i));
    const std::string csv = RandomDocument(rng);
    SCOPED_TRACE("seed=" + std::to_string(kSeed) +
                 " iteration=" + std::to_string(i));
    ExpectTypedMatchesReference(TypedSchema(), csv);
    if (i % 5 == 0) ExpectInferredMatchesReference(csv);
  }
}

}  // namespace
}  // namespace csm
