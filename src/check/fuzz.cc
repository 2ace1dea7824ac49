#include "check/fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "check/differential.h"
#include "check/fingerprint.h"
#include "check/generators.h"
#include "core/grid_cell.h"
#include "core/match_engine.h"
#include "core/tgt_class_infer.h"
#include "match/attribute_codes.h"
#include "match/matchers.h"
#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"
#include "relational/categorical.h"
#include "relational/csv.h"
#include "relational/sample.h"
#include "relational/table_view.h"
#include "relational/view.h"
#include "text/gram.h"
#include "text/profile.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace csm::check {
namespace {

/// Prefixes an oracle failure with the exact replay coordinates.
Status Replay(const FuzzOptions& options, size_t iteration, Status status) {
  if (status.ok()) return status;
  return Status(status.code(),
                "replay: seed=" + std::to_string(options.seed) +
                    " iteration=" + std::to_string(iteration) + "; " +
                    status.message());
}

// --------------------------------------------------------------------- CSV

/// Writer-compatible quoting, duplicated here so the fuzzer can re-render
/// a table with randomized record terminators (the library writer always
/// emits "\n").
std::string QuoteLikeWriter(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

/// Renders `table` as CSV with a random record terminator ("\n", "\r\n" or
/// a bare "\r") per record; the final record keeps its terminator with
/// probability 1/2 (both are legal).
std::string RenderCsvMixedLineEndings(const Table& table, Rng& rng) {
  const char* kTerminators[] = {"\n", "\r\n", "\r"};
  std::string out;
  auto append_record = [&](const std::vector<std::string>& fields,
                           bool last) {
    std::string record;
    for (size_t c = 0; c < fields.size(); ++c) {
      if (c > 0) record += ',';
      record += QuoteLikeWriter(fields[c]);
    }
    // Match the library writer: a would-be-empty line is written as `""`
    // so it cannot fuse with a preceding bare-"\r" terminator into "\r\n"
    // (or vanish as the trailing newline).
    if (record.empty()) record = "\"\"";
    out += record;
    if (!last || rng.NextBounded(2) == 0) {
      out += kTerminators[rng.NextBounded(3)];
    }
  };
  std::vector<std::string> fields;
  for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
    fields.push_back(table.schema().attribute(c).name);
  }
  append_record(fields, table.num_rows() == 0);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    fields.clear();
    for (const Value& v : table.row(r)) fields.push_back(v.ToString());
    append_record(fields, r + 1 == table.num_rows());
  }
  return out;
}

Status CompareTables(const Table& expected, const Table& actual,
                     const char* what) {
  const std::string e = FingerprintTable(expected);
  const std::string a = FingerprintTable(actual);
  if (e != a) {
    return Status::Internal(std::string(what) +
                            " round trip diverged:\n--- expected ---\n" + e +
                            "--- actual ---\n" + a);
  }
  return Status::Ok();
}

}  // namespace

Status FuzzCsvRoundTrip(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const Table table = RandomHostileTable("fuzz", rng);

    // Library writer -> library parser.
    StatusOr<Table> parsed = TableFromCsv(table.schema(), TableToCsv(table));
    if (!parsed.ok()) {
      return Replay(options, i,
                    Status::Internal("ParseCsv failed on WriteCsv output: " +
                                     parsed.status().message()));
    }
    CSM_RETURN_IF_ERROR(
        Replay(options, i, CompareTables(table, *parsed, "WriteCsv")));

    // Re-rendered with randomized \n / \r\n / \r record terminators.
    const std::string mixed = RenderCsvMixedLineEndings(table, rng);
    parsed = TableFromCsv(table.schema(), mixed);
    if (!parsed.ok()) {
      return Replay(options, i,
                    Status::Internal("ParseCsv failed on mixed-line-ending "
                                     "rendering: " +
                                     parsed.status().message()));
    }
    CSM_RETURN_IF_ERROR(
        Replay(options, i, CompareTables(table, *parsed, "mixed-line-ending")));
  }
  return Status::Ok();
}

Status FuzzCsvChunkedParse(const FuzzOptions& options) {
  // Chunk sizes chosen to force record splits everywhere: 1 byte puts every
  // record (and every quoted terminator) at a chunk boundary; the larger
  // sizes exercise mid-table splits and the single-chunk degenerate case.
  const size_t kChunkSizes[] = {1, 7, 64, 4096};
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const Table table = RandomHostileTable("fuzz", rng);
    const std::string renderings[] = {TableToCsv(table),
                                      RenderCsvMixedLineEndings(table, rng)};
    for (const std::string& csv : renderings) {
      const StatusOr<Table> serial = TableFromCsv(table.schema(), csv);
      if (!serial.ok()) {
        return Replay(options, i,
                      Status::Internal("serial parser rejected rendering: " +
                                       serial.status().message()));
      }

      // Chunk-scan invariants: spans are contiguous, non-empty, and cover
      // [pos, size) exactly, at an arbitrary target size.
      const size_t target = 1 + rng.NextBounded(csv.size() + 1);
      size_t cursor = 0;
      for (const CsvChunkSpan& span : ScanCsvChunks(csv, 0, target)) {
        if (span.begin != cursor || span.end <= span.begin) {
          return Replay(options, i,
                        Status::Internal(
                            "chunk scan produced a gap or empty span at byte " +
                            std::to_string(cursor) + " (target=" +
                            std::to_string(target) + ")"));
        }
        cursor = span.end;
      }
      if (cursor != csv.size()) {
        return Replay(options, i,
                      Status::Internal("chunk scan covered " +
                                       std::to_string(cursor) + " of " +
                                       std::to_string(csv.size()) + " bytes"));
      }

      for (size_t chunk_bytes : kChunkSizes) {
        CsvIngestOptions ingest;
        ingest.chunk_bytes = chunk_bytes;
        ingest.threads = options.thread_counts.empty()
                             ? 1
                             : options.thread_counts[rng.NextBounded(
                                   options.thread_counts.size())];
        const StatusOr<Table> chunked =
            TableFromCsvParallel(table.schema(), csv, ingest);
        auto where = [&](const std::string& message) {
          return Status::Internal(message + " (chunk_bytes=" +
                                  std::to_string(chunk_bytes) + ", threads=" +
                                  std::to_string(ingest.threads) + ")");
        };
        if (!chunked.ok()) {
          return Replay(options, i,
                        where("chunked parser rejected text the serial "
                              "parser accepted: " +
                              chunked.status().message()));
        }
        CSM_RETURN_IF_ERROR(Replay(
            options, i, CompareTables(*serial, *chunked, "chunked parse")));
        // Value equality is not enough: the merged dictionary must assign
        // the exact codes a serial parse would (downstream fingerprints and
        // dictionary-code scans depend on it).
        for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
          const Column& expected = serial->column(c);
          const Column& actual = chunked->column(c);
          if (expected.type() != ValueType::kString) continue;
          if (actual.codes() != expected.codes()) {
            return Replay(options, i,
                          where("dictionary codes diverged from serial parse "
                                "in column " +
                                table.schema().attribute(c).name));
          }
          if (actual.dictionary().size() != expected.dictionary().size()) {
            return Replay(options, i,
                          where("merged dictionary size diverged in column " +
                                table.schema().attribute(c).name));
          }
          for (uint32_t code = 0; code < expected.dictionary().size();
               ++code) {
            if (actual.dictionary().value(code) !=
                expected.dictionary().value(code)) {
              return Replay(
                  options, i,
                  where("dictionary entry " + std::to_string(code) +
                        " diverged in column " +
                        table.schema().attribute(c).name));
            }
          }
        }
      }
    }
  }
  return Status::Ok();
}

Status FuzzConditionEvaluation(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    HostileTableOptions table_options;
    table_options.min_rows = 1;
    const Table table = RandomHostileTable("fuzz", rng, table_options);
    const Condition condition = RandomCondition(table, rng);
    const View view("v", table.name(), condition);

    // Ground truth: independent per-row evaluation.
    std::vector<size_t> expected_rows;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (condition.Evaluate(table.schema(), table.row(r))) {
        expected_rows.push_back(r);
      }
    }

    if (view.MatchingRows(table) != expected_rows) {
      return Replay(options, i,
                    Status::Internal("MatchingRows != per-row Evaluate for " +
                                     view.ToString()));
    }
    const Table materialized = view.Materialize(table);
    if (materialized.num_rows() != expected_rows.size()) {
      return Replay(
          options, i,
          Status::Internal(
              "materialized row count " +
              std::to_string(materialized.num_rows()) + " != " +
              std::to_string(expected_rows.size()) + " rows satisfying " +
              condition.ToString()));
    }
    for (size_t m = 0; m < expected_rows.size(); ++m) {
      if (!(materialized.row(m) == table.row(expected_rows[m]))) {
        return Replay(options, i,
                      Status::Internal("materialized row " +
                                       std::to_string(m) +
                                       " differs from base row " +
                                       std::to_string(expected_rows[m])));
      }
    }
  }
  return Status::Ok();
}

Status FuzzPipeline(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const DatabasePair pair = RandomDatabasePair(rng);

    ContextMatchOptions o;
    const ViewInferenceKind kinds[] = {ViewInferenceKind::kNaive,
                                       ViewInferenceKind::kSrcClass,
                                       ViewInferenceKind::kTgtClass};
    o.inference = kinds[rng.NextBounded(3)];
    o.selection = rng.NextBounded(2) == 0 ? SelectionPolicy::kQualTable
                                          : SelectionPolicy::kMultiTable;
    o.early_disjuncts = rng.NextBounded(2) == 0;
    o.omega = 0.02 + rng.NextDouble() * 0.2;
    o.tau = 0.4 + rng.NextDouble() * 0.15;
    o.seed = rng.Next();
    o.threads = options.thread_counts.empty()
                    ? 1
                    : options.thread_counts[rng.NextBounded(
                          options.thread_counts.size())];

    MatchEngine engine(o);
    const ContextMatchResult result =
        engine.Execute({.source = BorrowDatabase(pair.source),
                        .target = BorrowDatabase(pair.target)}).result;
    auto fail = [&](const std::string& message) {
      return Replay(options, i,
                    Status::Internal(message + " (inference=" +
                                     ViewInferenceKindToString(o.inference) +
                                     ", threads=" +
                                     std::to_string(o.threads) + ")"));
    };
    if (!result.status.ok()) {
      return fail("uncancelled pipeline returned non-OK status " +
                  result.status.ToString());
    }
    if (result.completeness != MatchCompleteness::kComplete) {
      return fail("uncancelled pipeline claims degraded completeness");
    }
    for (const Match& m : result.matches) {
      if (m.confidence < 0.0 || m.confidence > 1.0) {
        return fail("selected match confidence out of [0,1]: " +
                    m.ToString());
      }
    }
    // Selection picks only scored views.
    std::vector<std::string> candidate_keys;
    for (const View& v : result.pool.candidate_views) {
      candidate_keys.push_back(v.base_table() + "\x1d" +
                               v.condition().ToString());
    }
    for (const View& v : result.selected_views) {
      const std::string key =
          v.base_table() + "\x1d" + v.condition().ToString();
      if (std::find(candidate_keys.begin(), candidate_keys.end(), key) ==
          candidate_keys.end()) {
        return fail("selected view was never scored: " + v.ToString());
      }
    }
    // Row-count conservation against the source tables.
    for (const View& v : result.pool.candidate_views) {
      const Table* base = pair.source.FindTable(v.base_table());
      if (base == nullptr) {
        return fail("candidate view over unknown base table " +
                    v.base_table());
      }
      auto it = result.pool.view_row_counts.find(
          v.base_table() + "\x1d" + v.condition().ToString());
      if (it != result.pool.view_row_counts.end() &&
          it->second > base->num_rows()) {
        return fail("view row count exceeds base table rows for " +
                    v.ToString());
      }
    }
    // One match per target attribute under multi-table selection.
    if (o.selection == SelectionPolicy::kMultiTable) {
      std::vector<std::string> targets;
      for (const Match& m : result.matches) {
        const std::string t = m.target.ToString();
        if (std::find(targets.begin(), targets.end(), t) != targets.end()) {
          return fail("multi-table selection emitted target twice: " + t);
        }
        targets.push_back(t);
      }
    }
  }
  return Status::Ok();
}

Status FuzzRowColumnarEquivalence(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    HostileTableOptions table_options;
    table_options.min_rows = 1;
    const Table table = RandomHostileTable("fuzz", rng, table_options);
    const size_t cols = table.schema().num_attributes();

    // (1) Re-insert every row through the boxed AddRow path; the rebuilt
    // columnar store must fingerprint bit-identically.
    Table rebuilt(table.schema());
    rebuilt.Reserve(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) rebuilt.AddRow(table.row(r));
    CSM_RETURN_IF_ERROR(
        Replay(options, i, CompareTables(table, rebuilt, "AddRow rebuild")));

    // (2) Columnar cell hashes against boxed Value::Hash (the fingerprint
    // cache keys depend on this equivalence).
    for (size_t c = 0; c < cols; ++c) {
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (table.column(c).CellHash(r) !=
            static_cast<uint64_t>(table.ValueAt(r, c).Hash())) {
          return Replay(options, i,
                        Status::Internal(
                            "CellHash != Value::Hash at row " +
                            std::to_string(r) + " col " + std::to_string(c)));
        }
      }
    }

    // (3) Dictionary-code condition scan against per-row Evaluate.
    const Condition condition = RandomCondition(table, rng);
    PosList expected;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (condition.Evaluate(table.schema(), table.row(r))) {
        expected.push_back(static_cast<RowId>(r));
      }
    }
    if (condition.MatchingPositions(table) != expected) {
      return Replay(options, i,
                    Status::Internal("MatchingPositions != per-row Evaluate "
                                     "for " +
                                     condition.ToString()));
    }

    // (4) Zero-copy view reads and column gather against a row-at-a-time
    // copy of the matching rows.
    Table rowpath(table.schema());
    for (RowId r : expected) rowpath.AddRow(table.row(r));
    const TableView bound(table, expected);
    CSM_RETURN_IF_ERROR(Replay(
        options, i, CompareTables(rowpath, bound.ToTable(), "view gather")));
    for (size_t vr = 0; vr < bound.num_rows(); ++vr) {
      for (size_t c = 0; c < cols; ++c) {
        if (!(bound.ValueAt(vr, c) == rowpath.ValueAt(vr, c))) {
          return Replay(options, i,
                        Status::Internal(
                            "TableView::ValueAt != row copy at view row " +
                            std::to_string(vr) + " col " + std::to_string(c)));
        }
      }
    }

    // (5) ValueBag / ValueCounts through the view against boxed
    // recomputation from the copied rows.
    for (size_t c = 0; c < cols; ++c) {
      const std::string& attr = table.schema().attribute(c).name;
      const std::vector<Value> bag = bound.ValueBag(attr);
      std::map<Value, size_t> counts;
      if (bag.size() != rowpath.num_rows()) {
        return Replay(options, i,
                      Status::Internal("ValueBag size mismatch on " + attr));
      }
      for (size_t vr = 0; vr < bag.size(); ++vr) {
        if (!(bag[vr] == rowpath.ValueAt(vr, c))) {
          return Replay(options, i,
                        Status::Internal("ValueBag mismatch on " + attr +
                                         " at view row " +
                                         std::to_string(vr)));
        }
        if (!bag[vr].is_null()) ++counts[bag[vr]];
      }
      if (bound.ValueCounts(attr) != counts) {
        return Replay(options, i,
                      Status::Internal("ValueCounts mismatch on " + attr));
      }
    }
  }
  return Status::Ok();
}

namespace {

bool BitEqual(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

/// The pre-kernel map-of-strings multinomial NB, kept verbatim as the
/// differential reference: per-label gram-string counts, per-call log sums.
class ReferenceNaiveBayes {
 public:
  explicit ReferenceNaiveBayes(size_t q, double smoothing = 1.0)
      : q_(q), smoothing_(smoothing) {}

  void Train(const std::string& text, const std::string& label) {
    LabelStats& stats = labels_[label];
    ++stats.example_count;
    ++total_examples_;
    for (const std::string& gram : QGrams(text, q_)) {
      stats.token_counts[gram] += 1.0;
      stats.token_total += 1.0;
      vocabulary_.insert(gram);
    }
  }

  double LogScore(const std::string& text, const std::string& label) const {
    auto it = labels_.find(label);
    if (it == labels_.end() || total_examples_ == 0) {
      return -std::numeric_limits<double>::infinity();
    }
    return Score(it->second, text);
  }

  std::string Classify(const std::string& text) const {
    if (labels_.empty()) return "";
    const std::string* best = nullptr;
    double best_score = -std::numeric_limits<double>::infinity();
    size_t best_frequency = 0;
    for (const auto& [label, stats] : labels_) {
      const double score = Score(stats, text);
      if (score > best_score ||
          (score == best_score && stats.example_count > best_frequency)) {
        best = &label;
        best_score = score;
        best_frequency = stats.example_count;
      }
    }
    return best == nullptr ? "" : *best;
  }

 private:
  struct LabelStats {
    size_t example_count = 0;
    double token_total = 0.0;
    std::map<std::string, double> token_counts;
  };

  double Score(const LabelStats& stats, const std::string& text) const {
    const double num_labels = static_cast<double>(labels_.size());
    const double vocab = static_cast<double>(vocabulary_.size());
    double score = std::log(
        (static_cast<double>(stats.example_count) + smoothing_) /
        (static_cast<double>(total_examples_) + smoothing_ * num_labels));
    const double denom = stats.token_total + smoothing_ * (vocab + 1.0);
    for (const std::string& gram : QGrams(text, q_)) {
      auto it = stats.token_counts.find(gram);
      const double count = it == stats.token_counts.end() ? 0.0 : it->second;
      score += std::log((count + smoothing_) / denom);
    }
    return score;
  }

  size_t q_;
  double smoothing_;
  size_t total_examples_ = 0;
  std::map<std::string, LabelStats> labels_;
  std::set<std::string> vocabulary_;
};

}  // namespace

Status FuzzTokenKernelEquivalence(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    HostileTableOptions table_options;
    table_options.min_rows = 1;
    const Table table = RandomHostileTable("fuzz", rng, table_options);
    const size_t cols = table.schema().num_attributes();
    // Packed gram length for the profile checks; the classifier check
    // sometimes uses q = 5 to exercise the interner fallback.
    const size_t q = 1 + rng.NextBounded(kMaxPackedGramQ);
    const size_t nb_q = rng.NextBounded(4) == 0 ? kMaxPackedGramQ + 1 : q;

    std::vector<std::vector<std::string>> texts(cols);
    for (size_t c = 0; c < cols; ++c) {
      for (size_t r = 0; r < table.num_rows(); ++r) {
        const Value v = table.ValueAt(r, c);
        if (!v.is_null()) texts[c].push_back(v.ToString());
      }
    }

    // (1) Packed ids match the string grams one-to-one and round-trip.
    std::string scratch;
    std::vector<GramId> ids;
    for (const auto& col_texts : texts) {
      for (const std::string& text : col_texts) {
        const std::vector<std::string> grams = QGrams(text, q);
        ids.clear();
        AppendPackedQGrams(text, q, &scratch, &ids);
        if (ids.size() != grams.size()) {
          return Replay(options, i,
                        Status::Internal("packed gram count diverged on \"" +
                                         text + "\" q=" + std::to_string(q)));
        }
        for (size_t g = 0; g < grams.size(); ++g) {
          if (ids[g] != PackGram(grams[g]) ||
              UnpackGram(ids[g], q) != grams[g]) {
            return Replay(options, i,
                          Status::Internal("gram pack/unpack diverged on \"" +
                                           grams[g] + "\""));
          }
        }
      }
    }

    // (2) Flat profiles against map profiles: aggregates and every pairwise
    // similarity measure, bit for bit.
    std::vector<TokenProfile> ref_grams(cols), ref_words(cols);
    std::vector<GramProfile> kernel_grams(cols);
    std::vector<WordProfile> kernel_words(cols);
    GramProfileBuilder gram_builder;
    WordProfileBuilder word_builder;
    for (size_t c = 0; c < cols; ++c) {
      for (const std::string& text : texts[c]) {
        ref_grams[c].AddAll(QGrams(text, q));
        ref_words[c].AddAll(WordTokens(text));
        gram_builder.AddText(text, q);
        word_builder.AddText(text);
      }
      kernel_grams[c] = gram_builder.Build();
      kernel_words[c] = word_builder.Build();
      if (kernel_grams[c].num_distinct() != ref_grams[c].num_distinct() ||
          !BitEqual(kernel_grams[c].total(), ref_grams[c].total()) ||
          !BitEqual(kernel_grams[c].Norm(), ref_grams[c].Norm()) ||
          kernel_words[c].num_distinct() != ref_words[c].num_distinct() ||
          !BitEqual(kernel_words[c].total(), ref_words[c].total()) ||
          !BitEqual(kernel_words[c].Norm(), ref_words[c].Norm())) {
        return Replay(options, i,
                      Status::Internal("profile aggregate diverged on col " +
                                       std::to_string(c)));
      }
    }
    TfIdfCorpus ref_corpus, kernel_corpus;
    for (size_t c = 0; c < cols; ++c) {
      ref_corpus.AddDocument(ref_words[c]);
      kernel_corpus.AddDocument(kernel_words[c]);
    }
    for (size_t a = 0; a < cols; ++a) {
      for (size_t b = a; b < cols; ++b) {
        const bool ok =
            BitEqual(CosineSimilarity(kernel_grams[a], kernel_grams[b]),
                     CosineSimilarity(ref_grams[a], ref_grams[b])) &&
            BitEqual(JaccardSimilarity(kernel_grams[a], kernel_grams[b]),
                     JaccardSimilarity(ref_grams[a], ref_grams[b])) &&
            BitEqual(DiceSimilarity(kernel_grams[a], kernel_grams[b]),
                     DiceSimilarity(ref_grams[a], ref_grams[b])) &&
            BitEqual(OverlapSimilarity(kernel_grams[a], kernel_grams[b]),
                     OverlapSimilarity(ref_grams[a], ref_grams[b])) &&
            BitEqual(CosineSimilarity(kernel_words[a], kernel_words[b]),
                     CosineSimilarity(ref_words[a], ref_words[b])) &&
            BitEqual(DiceSimilarity(kernel_words[a], kernel_words[b]),
                     DiceSimilarity(ref_words[a], ref_words[b])) &&
            BitEqual(kernel_corpus.WeightedCosine(kernel_words[a],
                                                  kernel_words[b]),
                     ref_corpus.WeightedCosine(ref_words[a], ref_words[b]));
        if (!ok) {
          return Replay(options, i,
                        Status::Internal("similarity diverged on cols " +
                                         std::to_string(a) + "/" +
                                         std::to_string(b)));
        }
      }
    }

    // (3) Naive Bayes: boxed and coded kernel paths against the reference,
    // labels = column names.  The coded classifier trains through
    // TrainCoded; classification must still be bit-identical.
    ReferenceNaiveBayes reference(nb_q);
    NaiveBayesClassifier boxed(nb_q);
    NaiveBayesClassifier coded(nb_q);
    for (size_t c = 0; c < cols; ++c) {
      const std::string& label = table.schema().attribute(c).name;
      const Column& column = table.column(c);
      if (column.type() == ValueType::kString) {
        const StringDictionary& dict = column.dictionary();
        for (uint32_t code : column.codes()) {
          if (code == kNullCode) continue;
          coded.TrainCoded(dict, code, label);
        }
      } else {
        for (size_t r = 0; r < table.num_rows(); ++r) {
          const Value v = table.ValueAt(r, c);
          if (!v.is_null()) coded.Train(v, label);
        }
      }
      for (const std::string& text : texts[c]) {
        reference.Train(text, label);
        boxed.Train(Value::String(text), label);
      }
    }
    for (size_t c = 0; c < cols; ++c) {
      const Column& column = table.column(c);
      for (size_t r = 0; r < table.num_rows(); ++r) {
        const Value v = table.ValueAt(r, c);
        if (v.is_null()) continue;
        const std::string text = v.ToString();
        const std::string expected = reference.Classify(text);
        const std::string from_boxed = boxed.Classify(Value::String(text));
        // ClassifyCoded runs twice: the second call reuses the finalized
        // model and must agree.
        std::string from_coded;
        if (column.type() == ValueType::kString) {
          const StringDictionary& dict = column.dictionary();
          const uint32_t code = column.codes()[r];
          from_coded = coded.ClassifyCoded(dict, code);
          if (coded.ClassifyCoded(dict, code) != from_coded) {
            return Replay(options, i,
                          Status::Internal("repeated ClassifyCoded diverged on \"" +
                                           text + "\""));
          }
        } else {
          from_coded = coded.Classify(v);
        }
        if (from_boxed != expected || from_coded != expected) {
          return Replay(
              options, i,
              Status::Internal("NB classification diverged on \"" + text +
                               "\": reference=" + expected +
                               " boxed=" + from_boxed +
                               " coded=" + from_coded));
        }
        for (size_t lc = 0; lc < cols; ++lc) {
          const std::string& label = table.schema().attribute(lc).name;
          if (!BitEqual(boxed.LogScore(Value::String(text), label),
                        reference.LogScore(text, label))) {
            return Replay(options, i,
                          Status::Internal("NB log score diverged on \"" +
                                           text + "\" label " + label));
          }
        }
      }
    }
  }
  return Status::Ok();
}

namespace {

/// A real column salted with the encodings RandomHostileTable never draws:
/// signed zeros, NaNs of both signs, a huge magnitude, duplicates, NULLs.
Column SaltedRealColumn(size_t rows, Rng& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double pool[] = {0.0, -0.0, nan, -nan, 1.5, -2.25, 1e300, 0.125};
  Column column(ValueType::kReal);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBounded(5) == 0) {
      column.AppendNull();
    } else {
      column.Append(Value::Real(pool[rng.NextBounded(std::size(pool))]));
    }
  }
  return column;
}

/// A string column gathered from a parent with ~10x as many distinct
/// values, so it shares a dictionary it mostly does not reference.
Column GatheredStringColumn(size_t rows, Rng& rng) {
  Column parent(ValueType::kString);
  const size_t parent_rows = 10 * rows + 10;
  for (size_t r = 0; r < parent_rows; ++r) {
    if (rng.NextBounded(10) == 0) {
      parent.AppendNull();
    } else {
      parent.Append(Value::String(RandomHostileCell(rng) + " " +
                                  std::to_string(r)));
    }
  }
  PosList picks;
  for (size_t r = 0; r < rows; ++r) {
    picks.push_back(static_cast<RowId>(rng.NextBounded(parent_rows)));
  }
  return parent.Gather(picks);
}

/// Where a coded sample first differs from the boxed bag of the same rows
/// — statistics, profile entries, then every matcher's applicability and
/// score against every target — or "" when they agree bit for bit.
std::string CodedSampleDivergence(
    const AttributeSample& coded, const AttributeSample& boxed,
    const std::vector<std::unique_ptr<AttributeMatcher>>& suite,
    const std::vector<AttributeSample>& targets) {
  if (coded.size() != boxed.size()) return "size";
  if (coded.NonNullCount() != boxed.NonNullCount()) return "NonNullCount";
  if (coded.MostlyNumeric() != boxed.MostlyNumeric()) return "MostlyNumeric";
  const DescriptiveStats& cs = coded.NumericStats();
  const DescriptiveStats& bs = boxed.NumericStats();
  if (cs.count() != bs.count() || !BitEqual(cs.Mean(), bs.Mean()) ||
      !BitEqual(cs.PopulationVariance(), bs.PopulationVariance()) ||
      !BitEqual(cs.Min(), bs.Min()) || !BitEqual(cs.Max(), bs.Max())) {
    return "NumericStats";
  }
  const GramProfile& cg = coded.QGramProfile();
  const GramProfile& bg = boxed.QGramProfile();
  if (cg.num_distinct() != bg.num_distinct() ||
      !BitEqual(cg.total(), bg.total())) {
    return "q-gram profile size";
  }
  for (size_t e = 0; e < cg.num_distinct(); ++e) {
    if (cg.entries()[e].id != bg.entries()[e].id ||
        !BitEqual(cg.entries()[e].count, bg.entries()[e].count)) {
      return "q-gram entry " + std::to_string(e);
    }
  }
  const WordProfile& cw = coded.WordProfile();
  const WordProfile& bw = boxed.WordProfile();
  if (cw.num_distinct() != bw.num_distinct() ||
      !BitEqual(cw.total(), bw.total())) {
    return "word profile size";
  }
  for (size_t e = 0; e < cw.num_distinct(); ++e) {
    if (cw.entries()[e].token != bw.entries()[e].token ||
        !BitEqual(cw.entries()[e].count, bw.entries()[e].count)) {
      return "word entry " + std::to_string(e);
    }
  }
  for (const auto& matcher : suite) {
    for (const AttributeSample& target : targets) {
      const bool applicable = matcher->Applicable(coded, target);
      if (applicable != matcher->Applicable(boxed, target)) {
        return matcher->Name() + " applicability vs " +
               target.ref().ToString();
      }
      if (applicable && !BitEqual(matcher->Score(coded, target),
                                  matcher->Score(boxed, target))) {
        return matcher->Name() + " score vs " + target.ref().ToString();
      }
    }
  }
  return "";
}

}  // namespace

Status FuzzCodedSampleEquivalence(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    HostileTableOptions table_options;
    table_options.min_rows = 1;
    table_options.max_rows = 24;
    const Table table = RandomHostileTable("fuzz", rng, table_options);
    const size_t rows = table.num_rows();

    // Targets: the table's own attributes, with the TF-IDF corpus prepared
    // over them as a session would.
    std::vector<AttributeSample> targets;
    for (const auto& attr : table.schema().attributes()) {
      targets.push_back(AttributeSample::FromTable(table, attr.name));
    }
    std::vector<const AttributeSample*> target_ptrs;
    for (const AttributeSample& t : targets) target_ptrs.push_back(&t);
    std::vector<std::unique_ptr<AttributeMatcher>> suite =
        DefaultMatcherSuite();
    for (auto& matcher : suite) matcher->Prepare(target_ptrs);

    // Sources: every generated column plus the shapes it never produces.
    std::vector<Column> sources;
    for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
      sources.push_back(table.column(c));
    }
    sources.push_back(SaltedRealColumn(rows, rng));
    Column all_null(ValueType::kNull);
    for (size_t r = 0; r < rows; ++r) all_null.AppendNull();
    sources.push_back(std::move(all_null));
    sources.push_back(GatheredStringColumn(rows, rng));

    for (size_t c = 0; c < sources.size(); ++c) {
      const Column& column = sources[c];
      const std::shared_ptr<const AttributeCodes> codes =
          AttributeCodes::Build(column);
      // Empty, full, a sorted subset and a draw with repeats.
      std::vector<PosList> position_lists(4);
      for (size_t r = 0; r < rows; ++r) {
        position_lists[1].push_back(static_cast<RowId>(r));
        if (rng.NextBounded(2) == 0) {
          position_lists[2].push_back(static_cast<RowId>(r));
        }
      }
      const size_t draws = rng.NextBounded(2 * rows + 1);
      for (size_t d = 0; d < draws; ++d) {
        position_lists[3].push_back(static_cast<RowId>(rng.NextBounded(rows)));
      }
      const AttributeRef ref{"fuzz_source", "c" + std::to_string(c)};
      for (size_t l = 0; l < position_lists.size(); ++l) {
        std::vector<Value> bag;
        column.BoxGatheredTo(position_lists[l], &bag);
        const AttributeSample boxed(ref, column.type(), std::move(bag));
        const AttributeSample coded = AttributeSample::FromPositions(
            ref, column.type(), codes, position_lists[l]);
        const std::string divergence =
            CodedSampleDivergence(coded, boxed, suite, targets);
        if (!divergence.empty()) {
          return Replay(options, i,
                        Status::Internal("coded sample diverged on column " +
                                         std::to_string(c) + " positions " +
                                         std::to_string(l) + ": " +
                                         divergence));
        }
      }
    }
  }
  return Status::Ok();
}

namespace {

/// The categorical rule as the per-attribute code applied it before the
/// one-pass split: over the full TableView::ValueCounts map.
bool ReferenceIsCategorical(const TableView& view, const std::string& attr,
                            const CategoricalOptions& options) {
  const std::map<Value, size_t> counts = view.ValueCounts(attr);
  if (counts.empty()) return false;
  size_t total_tuples = 0;
  for (const auto& [value, count] : counts) total_tuples += count;
  if (total_tuples == 0) return false;
  const double tuple_threshold =
      options.tuple_fraction * static_cast<double>(total_tuples);
  size_t frequent_values = 0;
  size_t values_with_min_tuples = 0;
  for (const auto& [value, count] : counts) {
    if (static_cast<double>(count) > tuple_threshold) ++frequent_values;
    if (count >= options.min_tuples_per_value) ++values_with_min_tuples;
  }
  const double frequent_fraction = static_cast<double>(frequent_values) /
                                   static_cast<double>(counts.size());
  if (frequent_fraction <= options.value_fraction) return false;
  return values_with_min_tuples >= options.min_frequent_values;
}

/// Equal keys bit for bit (NaN keys included) with equal counts.
bool SameCounts(const std::map<Value, size_t>& a,
                const std::map<Value, size_t>& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->second != ib->second || ia->first.type() != ib->first.type()) {
      return false;
    }
    if (ia->first.type() == ValueType::kReal) {
      if (!BitEqual(ia->first.AsReal(), ib->first.AsReal())) return false;
    } else if (ia->first != ib->first) {
      return false;
    }
  }
  return true;
}

/// A numeric column of `rows` >= `distinct` cells whose non-null cells
/// take exactly `distinct` values, in shuffled order, with repeats and
/// NULLs salted in.
Column DistinctNumericColumn(ValueType type, size_t rows, size_t distinct,
                             Rng& rng) {
  std::vector<int64_t> picks(rows);  // -1 = NULL
  for (size_t r = 0; r < rows; ++r) {
    if (r < distinct) {
      picks[r] = static_cast<int64_t>(r);
    } else {
      picks[r] = rng.NextBounded(4) == 0
                     ? -1
                     : static_cast<int64_t>(rng.NextBounded(distinct));
    }
  }
  rng.Shuffle(picks);
  Column column(type);
  for (int64_t pick : picks) {
    if (pick < 0) {
      column.AppendNull();
    } else if (type == ValueType::kInt) {
      column.Append(Value::Int(pick - 7));
    } else {
      column.Append(Value::Real(static_cast<double>(pick) / 8.0 - 1.0));
    }
  }
  return column;
}

CategoricalOptions RandomCategoricalOptions(Rng& rng) {
  CategoricalOptions options;
  if (rng.NextBounded(4) == 0) return options;  // the paper's defaults
  const double fractions[] = {0.0, 1.0, 1e-9, 1e-3, 0.01, 0.1, 0.5, 2.0};
  options.value_fraction = fractions[rng.NextBounded(std::size(fractions))];
  options.tuple_fraction = fractions[rng.NextBounded(std::size(fractions))];
  options.min_frequent_values = rng.NextBounded(4);
  options.min_tuples_per_value = rng.NextBounded(4);
  return options;
}

/// Views of `table`: identity, a sorted subset, and a gather with repeats
/// in random order.
std::vector<TableView> HostileViews(const Table& table, Rng& rng) {
  std::vector<TableView> views{TableView(table)};
  PosList subset, gather;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (rng.NextBounded(2) == 0) subset.push_back(static_cast<RowId>(r));
  }
  const size_t draws = rng.NextBounded(2 * table.num_rows() + 1);
  for (size_t d = 0; d < draws && table.num_rows() > 0; ++d) {
    gather.push_back(static_cast<RowId>(rng.NextBounded(table.num_rows())));
  }
  views.emplace_back(table, std::move(subset));
  views.emplace_back(table, std::move(gather));
  return views;
}

/// Where SplitCategorical / IsCategoricalAttribute first differ from the
/// reference rule on `view`, or "".
std::string CategoricalDivergence(const TableView& view,
                                  const CategoricalOptions& options) {
  const CategoricalSplit split = SplitCategorical(view, options);
  CategoricalSplit want;
  for (const auto& attr : view.schema().attributes()) {
    const bool categorical = ReferenceIsCategorical(view, attr.name, options);
    if (IsCategoricalAttribute(view, attr.name, options) != categorical) {
      return "IsCategoricalAttribute on " + attr.name;
    }
    if (categorical) {
      want.categorical.push_back(attr.name);
      want.categorical_counts.push_back(view.ValueCounts(attr.name));
    } else {
      want.non_categorical.push_back(attr.name);
    }
  }
  if (split.categorical != want.categorical ||
      split.non_categorical != want.non_categorical) {
    return "attribute lists";
  }
  for (size_t i = 0; i < want.categorical.size(); ++i) {
    if (!SameCounts(split.categorical_counts[i], want.categorical_counts[i])) {
      return "value counts of " + want.categorical[i];
    }
  }
  return "";
}

}  // namespace

Status FuzzCategoricalEquivalence(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const CategoricalOptions categorical = RandomCategoricalOptions(rng);

    // (1) Hostile small tables plus the shapes the generator never draws:
    // NaN / signed zeros, all-NULL, NULL-heavy and gathered string columns.
    HostileTableOptions table_options;
    table_options.min_rows = 1;
    table_options.max_rows = 40;
    table_options.null_probability = rng.NextBounded(2) == 0 ? 0.1 : 0.6;
    const Table hostile = RandomHostileTable("fuzz", rng, table_options);
    const size_t rows = hostile.num_rows();
    TableSchema schema = hostile.schema();
    std::vector<Column> columns;
    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      columns.push_back(hostile.column(c));
    }
    schema.AddAttribute("salted", ValueType::kReal);
    columns.push_back(SaltedRealColumn(rows, rng));
    schema.AddAttribute("nulls", ValueType::kNull);
    Column all_null(ValueType::kNull);
    for (size_t r = 0; r < rows; ++r) all_null.AppendNull();
    columns.push_back(std::move(all_null));
    schema.AddAttribute("gathered", ValueType::kString);
    columns.push_back(GatheredStringColumn(rows, rng));
    std::vector<Table> tables;
    tables.push_back(Table::FromColumns(schema, std::move(columns), rows));

    // (2) Numeric columns whose distinct count sits at the early-exit
    // bound and one either side of it.
    const size_t bound = CategoricalDistinctBound(categorical);
    if (bound <= 2100) {
      const size_t bound_rows = bound + 1 + rng.NextBounded(bound);
      TableSchema bound_schema("bound");
      std::vector<Column> bound_columns;
      for (const size_t distinct : {bound - 1, bound, bound + 1}) {
        for (const ValueType type : {ValueType::kInt, ValueType::kReal}) {
          bound_schema.AddAttribute(
              std::string(type == ValueType::kInt ? "i" : "r") +
                  std::to_string(distinct),
              type);
          bound_columns.push_back(
              DistinctNumericColumn(type, bound_rows, distinct, rng));
        }
      }
      tables.push_back(Table::FromColumns(
          std::move(bound_schema), std::move(bound_columns), bound_rows));
    }

    for (const Table& table : tables) {
      const std::vector<TableView> views = HostileViews(table, rng);
      for (size_t v = 0; v < views.size(); ++v) {
        const std::string divergence =
            CategoricalDivergence(views[v], categorical);
        if (!divergence.empty()) {
          return Replay(options, i,
                        Status::Internal("categorical split diverged on " +
                                         table.name() + " view " +
                                         std::to_string(v) + ": " +
                                         divergence));
        }
      }
    }
  }
  return Status::Ok();
}

namespace {

/// The row-by-row doTraining + doTesting cycle that CountedCell replaced: a
/// fresh classifier per cycle, trained on each train row's boxed cells and
/// tested on each test row, label values resolved through a value -> token
/// map.  Leaves the cycle's classifier in `*classifier`.
CellOutcome ReferenceCycle(const TableView& sample, size_t h_col,
                           size_t l_col, const PosList& train_rows,
                           const PosList& test_rows,
                           const LabelGrouping& grouping,
                           const ClassifierFactory& factory,
                           std::unique_ptr<ValueClassifier>* classifier) {
  std::map<Value, std::string> token_of;
  for (size_t g = 0; g < grouping.num_groups(); ++g) {
    const std::string token = grouping.Token(g);
    for (const Value& member : grouping.groups()[g]) {
      token_of.emplace(member, token);
    }
  }
  *classifier = factory(sample.schema().attribute(h_col).type);
  CellOutcome out;
  std::map<std::string, size_t> train_label_counts;
  for (RowId r : train_rows) {
    const Value l = sample.ValueAt(r, l_col);
    if (l.is_null()) continue;
    const Value h = sample.ValueAt(r, h_col);
    if (h.is_null()) continue;
    auto it = token_of.find(l);
    if (it == token_of.end()) continue;
    (*classifier)->Train(h, it->second);
    ++train_label_counts[it->second];
    ++out.train_count;
  }
  if (out.train_count == 0) return out;
  size_t most_common = 0;
  for (const auto& [token, count] : train_label_counts) {
    most_common = std::max(most_common, count);
  }
  out.most_common_fraction = static_cast<double>(most_common) /
                             static_cast<double>(out.train_count);
  for (RowId r : test_rows) {
    const Value l = sample.ValueAt(r, l_col);
    if (l.is_null()) continue;
    const Value h = sample.ValueAt(r, h_col);
    if (h.is_null()) continue;
    auto it = token_of.find(l);
    if (it == token_of.end()) continue;
    out.eval.Observe(it->second, (*classifier)->Classify(h));
  }
  return out;
}

/// Where two trained classifiers of the same kind first differ — labels,
/// training size, classification of every probe, and every log-probability
/// (NB, Gaussian) or TBag score (TgtTag) bit for bit — or "".
std::string ClassifierDivergence(const ValueClassifier& got,
                                 const ValueClassifier& want,
                                 const std::vector<Value>& probes,
                                 const std::vector<std::string>& tags) {
  if (got.Labels() != want.Labels()) return "labels";
  if (got.TrainingSize() != want.TrainingSize()) return "training size";
  const std::vector<std::string> labels = want.Labels();
  for (const Value& probe : probes) {
    if (got.Classify(probe) != want.Classify(probe)) {
      return "classification of " + probe.ToString();
    }
    for (const std::string& label : labels) {
      double a = 0.0, b = 0.0;
      if (auto* nb = dynamic_cast<const NaiveBayesClassifier*>(&got)) {
        a = nb->LogScore(probe, label);
        b = dynamic_cast<const NaiveBayesClassifier&>(want).LogScore(probe,
                                                                     label);
      } else if (auto* gauss =
                     dynamic_cast<const GaussianClassifier*>(&got)) {
        if (!probe.IsNumeric()) continue;
        a = gauss->LogScore(probe.AsNumeric(), label);
        b = dynamic_cast<const GaussianClassifier&>(want).LogScore(
            probe.AsNumeric(), label);
      }
      if (!BitEqual(a, b)) {
        return "log-probability of " + probe.ToString() + " under " + label;
      }
    }
  }
  if (auto* tag = dynamic_cast<const TgtTagClassifier*>(&got)) {
    const auto& want_tag = dynamic_cast<const TgtTagClassifier&>(want);
    for (const std::string& t : tags) {
      if (tag->BestCat(t) != want_tag.BestCat(t)) return "bestCAT of " + t;
      for (const std::string& label : labels) {
        if (!BitEqual(tag->Score(t, label), want_tag.Score(t, label))) {
          return "TBag score of " + t + " under " + label;
        }
      }
    }
  }
  return "";
}

/// A hostile label column: a few values (NaN and signed zeros among the
/// reals, a value colliding with a merged group's token among the
/// strings) with NULLs.
Column HostileLabelColumn(ValueType type, size_t rows, Rng& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double reals[] = {0.0, -0.0, nan, 1.5, -2.25, 7.0};
  const size_t values = 2 + rng.NextBounded(5);
  Column column(type);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBounded(6) == 0) {
      column.AppendNull();
      continue;
    }
    const size_t v = rng.NextBounded(values);
    switch (type) {
      case ValueType::kInt:
        column.Append(Value::Int(static_cast<int64_t>(v) - 2));
        break;
      case ValueType::kReal:
        column.Append(Value::Real(reals[v % std::size(reals)]));
        break;
      default:
        // "L0\x1fL1" collides with the token of the merged {L0, L1}.
        column.Append(Value::String(v == 5 ? "L0\x1fL1"
                                           : "L" + std::to_string(v)));
        break;
    }
  }
  return column;
}

/// A hostile evidence column: heavy duplicates (or all distinct), NULLs.
Column HostileEvidenceColumn(ValueType type, size_t rows, Rng& rng) {
  const size_t pool = rng.NextBounded(3) == 0 ? rows + 1 : 1 + rng.NextBounded(8);
  std::vector<std::string> texts;
  for (size_t p = 0; p < pool; ++p) {
    texts.push_back(RandomHostileCell(rng) + " " + std::to_string(p));
  }
  Column column(type);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBounded(5) == 0) {
      column.AppendNull();
      continue;
    }
    const size_t p = rng.NextBounded(pool);
    if (type == ValueType::kString) {
      column.Append(Value::String(texts[p]));
    } else {
      column.Append(Value::Real(static_cast<double>(p % 9) / 8.0 +
                                static_cast<double>(p / 9)));
    }
  }
  return column;
}

}  // namespace

Status FuzzContingencyNbEquivalence(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const size_t rows = 1 + rng.NextBounded(120);
    const ValueType label_types[] = {ValueType::kString, ValueType::kInt,
                                     ValueType::kReal};
    TableSchema schema("cells");
    std::vector<Column> columns;
    schema.AddAttribute("l", label_types[rng.NextBounded(3)]);
    columns.push_back(
        HostileLabelColumn(schema.attribute(0).type, rows, rng));
    schema.AddAttribute("text", ValueType::kString);
    columns.push_back(HostileEvidenceColumn(ValueType::kString, rows, rng));
    schema.AddAttribute("gathered", ValueType::kString);
    columns.push_back(GatheredStringColumn(rows, rng));
    schema.AddAttribute("num", ValueType::kReal);
    columns.push_back(HostileEvidenceColumn(ValueType::kReal, rows, rng));
    const Table table = Table::FromColumns(schema, std::move(columns), rows);
    const std::vector<TableView> views = HostileViews(table, rng);
    const TableView& sample = views[rng.NextBounded(views.size())];
    if (sample.num_rows() == 0) continue;

    // Labels unseen at grouping time: the grouping sometimes comes from
    // the value counts of a subset of the sample's rows.
    std::map<Value, size_t> grouping_counts = sample.ValueCounts("l");
    if (rng.NextBounded(2) == 0) {
      PosList some;
      for (size_t r = 0; r < sample.num_rows(); ++r) {
        if (rng.NextBounded(3) != 0) some.push_back(static_cast<RowId>(r));
      }
      grouping_counts = sample.Select(std::move(some)).ValueCounts("l");
    }
    const double train_fraction = rng.NextDouble();
    const auto [train_rows, test_rows] =
        SplitPositions(sample.num_rows(), train_fraction, rng);
    const LabelKeys keys = LabelKeys::Build(sample, 0);

    // Taggers for TgtTagClassifier, trained on unrelated hostile values.
    auto text_tagger = std::make_unique<NaiveBayesClassifier>(3);
    auto num_tagger = std::make_shared<GaussianClassifier>();
    std::vector<std::string> tags = {"", "T.a", "T.b", "T.c", "T.n", "T.m"};
    for (size_t t = 0; t < 12; ++t) {
      text_tagger->Train(Value::String(RandomHostileCell(rng)),
                         tags[1 + t % 3]);
      num_tagger->Train(Value::Real(rng.NextDouble(-3.0, 12.0)),
                        tags[4 + t % 2]);
    }
    const std::shared_ptr<const ValueClassifier> shared_text =
        std::make_shared<MemoizedTagger>(std::move(text_tagger));
    const ClassifierFactory src_factory =
        [](ValueType type) -> std::unique_ptr<ValueClassifier> {
      if (type == ValueType::kReal || type == ValueType::kInt) {
        return std::make_unique<GaussianClassifier>();
      }
      return std::make_unique<NaiveBayesClassifier>(3);
    };
    const ClassifierFactory tgt_factory =
        [&](ValueType type) -> std::unique_ptr<ValueClassifier> {
      if (type == ValueType::kReal || type == ValueType::kInt) {
        return std::make_unique<TgtTagClassifier>(num_tagger);
      }
      return std::make_unique<TgtTagClassifier>(shared_text);
    };

    for (size_t h_col = 1; h_col < 4; ++h_col) {
      std::vector<Value> probes;
      for (size_t r = 0; r < sample.num_rows(); ++r) {
        const Value h = sample.ValueAt(r, h_col);
        if (!h.is_null()) probes.push_back(h);
      }
      for (const ClassifierFactory* factory : {&src_factory, &tgt_factory}) {
        CountedCell counted(sample, h_col, keys, train_rows, test_rows,
                            *factory);
        LabelGrouping grouping(grouping_counts);
        std::optional<ErrorPair> merged;
        for (size_t cycle = 0; cycle < 8; ++cycle) {
          const CellOutcome got =
              counted.Cycle(grouping, merged ? &*merged : nullptr);
          std::unique_ptr<ValueClassifier> reference;
          const CellOutcome want =
              ReferenceCycle(sample, h_col, 0, train_rows, test_rows,
                             grouping, *factory, &reference);
          std::string divergence;
          if (got.train_count != want.train_count) {
            divergence = "train count";
          } else if (!BitEqual(got.most_common_fraction,
                               want.most_common_fraction)) {
            divergence = "most common fraction";
          } else if (!(got.eval == want.eval)) {
            divergence = "confusion or error pairs";
          } else {
            divergence = ClassifierDivergence(*counted.classifier(),
                                              *reference, probes, tags);
          }
          if (!divergence.empty()) {
            return Replay(
                options, i,
                Status::Internal("counted cell diverged on column " +
                                 std::to_string(h_col) + " cycle " +
                                 std::to_string(cycle) + ": " + divergence));
          }
          // Merge two groups: the top error pair, as EarlyDisjuncts does,
          // or a random pair.
          if (grouping.num_groups() < 2) break;
          std::string a, b;
          const auto ranked = want.eval.NormalizedErrorPairs();
          if (!ranked.empty() && rng.NextBounded(2) == 0) {
            a = ranked[0].first.first;
            b = ranked[0].first.second;
          } else {
            const size_t ga = rng.NextBounded(grouping.num_groups());
            const size_t gb = rng.NextBounded(grouping.num_groups());
            a = grouping.Token(ga);
            b = grouping.Token(gb);
          }
          merged.reset();
          if (grouping.MergeByTokens(a, b)) merged = MakeErrorPair(a, b);
        }
      }
    }
  }
  return Status::Ok();
}

Status FuzzDifferential(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const DatabasePair pair = RandomDatabasePair(rng);

    ContextMatchOptions o;
    const ViewInferenceKind kinds[] = {ViewInferenceKind::kNaive,
                                       ViewInferenceKind::kSrcClass,
                                       ViewInferenceKind::kTgtClass};
    o.inference = kinds[rng.NextBounded(3)];
    o.selection = rng.NextBounded(2) == 0 ? SelectionPolicy::kQualTable
                                          : SelectionPolicy::kMultiTable;
    o.early_disjuncts = rng.NextBounded(2) == 0;
    o.omega = 0.02 + rng.NextDouble() * 0.2;
    o.seed = rng.Next();
    o.threads = 1;

    CSM_RETURN_IF_ERROR(Replay(
        options, i,
        CheckAllOracles(pair.source, pair.target, o, options.thread_counts)));
  }
  return Status::Ok();
}

}  // namespace csm::check
