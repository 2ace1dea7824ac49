// Tests for src/datagen: wordlists, ground-truth evaluation, retail and
// grades generators, and src/harness: reporting + repetition.

#include <gtest/gtest.h>

#include <set>

#include "datagen/grades_gen.h"
#include "datagen/ground_truth.h"
#include "datagen/retail_gen.h"
#include "datagen/wordlists.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "relational/categorical.h"

namespace csm {
namespace {

// ------------------------------------------------------------- Wordlists

TEST(WordlistsTest, PoolsAreNonEmptyAndDistinct) {
  EXPECT_GT(BookTitleWords().size(), 30u);
  EXPECT_GT(FirstNames().size(), 30u);
  EXPECT_GT(LastNames().size(), 30u);
  EXPECT_GT(BandNameWords().size(), 20u);
  std::set<std::string_view> unique(BookTitleWords().begin(),
                                    BookTitleWords().end());
  EXPECT_EQ(unique.size(), BookTitleWords().size());
}

TEST(WordlistsTest, GeneratorsAreDeterministic) {
  Rng a(5), b(5);
  EXPECT_EQ(MakeBookTitle(a), MakeBookTitle(b));
  EXPECT_EQ(MakePersonName(a), MakePersonName(b));
  EXPECT_EQ(MakeBandName(a), MakeBandName(b));
  EXPECT_EQ(MakeAlbumTitle(a), MakeAlbumTitle(b));
  EXPECT_EQ(MakeIsbn(a), MakeIsbn(b));
  EXPECT_EQ(MakeUpc(a), MakeUpc(b));
}

TEST(WordlistsTest, CodesHaveExpectedShape) {
  Rng rng(6);
  std::string upc = MakeUpc(rng);
  EXPECT_EQ(upc.size(), 12u);
  for (char c : upc) EXPECT_TRUE(c >= '0' && c <= '9');
  std::string isbn = MakeIsbn(rng);
  EXPECT_EQ(std::count(isbn.begin(), isbn.end(), '-'), 3);
}

// ----------------------------------------------------------- GroundTruth

GroundTruth OneEntryTruth() {
  GroundTruth truth;
  truth.entries.push_back(TruthEntry{
      "s", "a", "t", "x", "k",
      {Value::String("v1"), Value::String("v2")}});
  return truth;
}

Match ViewMatch(const char* sattr, const char* tattr,
                std::vector<Value> values, const char* label_attr = "k") {
  Match m;
  m.source = {"s", sattr};
  m.target = {"t", tattr};
  m.condition = Condition::In(label_attr, std::move(values));
  m.confidence = 0.9;
  return m;
}

TEST(GroundTruthTest, CorrectMatchDetection) {
  GroundTruth truth = OneEntryTruth();
  EXPECT_TRUE(IsCorrectMatch(truth, ViewMatch("a", "x", {Value::String("v1")})));
  EXPECT_TRUE(IsCorrectMatch(
      truth, ViewMatch("a", "x", {Value::String("v1"), Value::String("v2")})));
  // Wrong value, wrong attribute pairing, wrong label attribute.
  EXPECT_FALSE(
      IsCorrectMatch(truth, ViewMatch("a", "x", {Value::String("zz")})));
  EXPECT_FALSE(
      IsCorrectMatch(truth, ViewMatch("a", "y", {Value::String("v1")})));
  EXPECT_FALSE(IsCorrectMatch(
      truth, ViewMatch("a", "x", {Value::String("v1")}, "other")));
}

TEST(GroundTruthTest, StandardMatchesIgnored) {
  GroundTruth truth = OneEntryTruth();
  Match standard;
  standard.source = {"s", "a"};
  standard.target = {"t", "x"};
  EXPECT_FALSE(IsCorrectMatch(truth, standard));
  MatchQuality q = EvaluateMatches(truth, {standard});
  EXPECT_EQ(q.view_matches, 0u);
  EXPECT_DOUBLE_EQ(q.accuracy, 0.0);
}

TEST(GroundTruthTest, PartialCoverageEarnsFractionalAccuracy) {
  GroundTruth truth = OneEntryTruth();
  MatchQuality q =
      EvaluateMatches(truth, {ViewMatch("a", "x", {Value::String("v1")})});
  EXPECT_DOUBLE_EQ(q.accuracy, 0.5);  // one of two allowed values covered
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  MatchQuality full = EvaluateMatches(
      truth, {ViewMatch("a", "x", {Value::String("v1")}),
              ViewMatch("a", "x", {Value::String("v2")})});
  EXPECT_DOUBLE_EQ(full.accuracy, 1.0);
}

TEST(GroundTruthTest, IncorrectMatchesHurtPrecision) {
  GroundTruth truth = OneEntryTruth();
  MatchQuality q = EvaluateMatches(
      truth, {ViewMatch("a", "x", {Value::String("v1"), Value::String("v2")}),
              ViewMatch("a", "y", {Value::String("v1")})});
  EXPECT_DOUBLE_EQ(q.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_NEAR(q.fmeasure, 2.0 / 3.0, 1e-12);
}

TEST(GroundTruthTest, ConjunctiveConditionsNotCredited) {
  GroundTruth truth = OneEntryTruth();
  Match m = ViewMatch("a", "x", {Value::String("v1")});
  m.condition = m.condition.Conjoin(Condition::Equals("extra", Value::Int(1)));
  EXPECT_FALSE(IsCorrectMatch(truth, m));
}

// ---------------------------------------------------------------- Retail

TEST(RetailGenTest, SchemaShapeAndDeterminism) {
  RetailOptions options;
  options.num_items = 100;
  options.seed = 3;
  RetailDataset a = MakeRetailDataset(options);
  RetailDataset b = MakeRetailDataset(options);
  const Table& inv = a.source.GetTable("inventory");
  EXPECT_EQ(inv.num_rows(), 100u);
  EXPECT_TRUE(inv.schema().HasAttribute("ItemType"));
  EXPECT_TRUE(inv.schema().HasAttribute("StockStatus"));
  EXPECT_EQ(a.target.tables().size(), 2u);
  // Deterministic.
  EXPECT_EQ(inv.ToString(5), b.source.GetTable("inventory").ToString(5));
}

TEST(RetailGenTest, GammaControlsLabelCardinality) {
  for (size_t gamma : {2u, 4u, 8u}) {
    RetailOptions options;
    options.num_items = 200;
    options.gamma = gamma;
    options.seed = 4;
    RetailDataset data = MakeRetailDataset(options);
    auto counts = data.source.GetTable("inventory").ValueCounts("ItemType");
    EXPECT_EQ(counts.size(), gamma);
    EXPECT_EQ(data.book_labels.size(), gamma / 2);
    EXPECT_EQ(data.cd_labels.size(), gamma / 2);
  }
}

TEST(RetailGenTest, ItemTypeIsCategoricalTitleIsNot) {
  RetailOptions options;
  options.num_items = 300;
  options.seed = 5;
  RetailDataset data = MakeRetailDataset(options);
  const Table& inv = data.source.GetTable("inventory");
  EXPECT_TRUE(IsCategoricalAttribute(inv, "ItemType"));
  EXPECT_TRUE(IsCategoricalAttribute(inv, "StockStatus"));
  EXPECT_FALSE(IsCategoricalAttribute(inv, "Title"));
  EXPECT_FALSE(IsCategoricalAttribute(inv, "Code"));
}

TEST(RetailGenTest, CorrelatedAttributesTrackRho) {
  RetailOptions options;
  options.num_items = 1000;
  options.correlated_attributes = 1;
  options.rho = 0.8;
  options.seed = 6;
  RetailDataset data = MakeRetailDataset(options);
  const Table& inv = data.source.GetTable("inventory");
  size_t agree = 0;
  for (size_t r = 0; r < inv.num_rows(); ++r) {
    if (inv.ValueAt(r, "CorrType1") == inv.ValueAt(r, "ItemType")) ++agree;
  }
  // rho + (1-rho)/gamma chance agreement: 0.8 + 0.2/4 = 0.85.
  EXPECT_NEAR(static_cast<double>(agree) / 1000.0, 0.85, 0.05);
}

TEST(RetailGenTest, SchemaExpansionAddsAttributesEverywhere) {
  RetailOptions options;
  options.num_items = 100;
  options.extra_noncategorical = 3;
  options.extra_categorical = 2;
  options.seed = 7;
  RetailDataset data = MakeRetailDataset(options);
  const Table& inv = data.source.GetTable("inventory");
  EXPECT_TRUE(inv.schema().HasAttribute("Extra3"));
  EXPECT_TRUE(inv.schema().HasAttribute("NoiseCat2"));
  for (const Table& t : data.target.tables()) {
    EXPECT_EQ(t.schema().num_attributes(), 6u + 3u);
  }
}

TEST(RetailGenTest, GroundTruthExcludesIds) {
  RetailOptions options;
  options.num_items = 50;
  options.seed = 8;
  RetailDataset data = MakeRetailDataset(options);
  EXPECT_EQ(data.truth.entries.size(), 10u);  // 5 attrs x 2 tables
  for (const TruthEntry& e : data.truth.entries) {
    EXPECT_NE(e.source_attribute, "ItemID");
    EXPECT_EQ(e.label_attribute, "ItemType");
  }
}

TEST(RetailGenTest, TargetVariantsHaveDistinctNames) {
  std::set<std::string> names;
  for (RetailTarget t : {RetailTarget::kRyanEyers, RetailTarget::kAaronDay,
                         RetailTarget::kBarrettArney}) {
    RetailOptions options;
    options.num_items = 30;
    options.target = t;
    options.seed = 9;
    RetailDataset data = MakeRetailDataset(options);
    for (const Table& table : data.target.tables()) {
      EXPECT_TRUE(names.insert(table.name()).second);
    }
  }
  EXPECT_EQ(names.size(), 6u);
}

TEST(RetailGenTest, BooksAndCdsHaveDistinctPriceRanges) {
  RetailOptions options;
  options.num_items = 500;
  options.gamma = 2;
  options.seed = 10;
  RetailDataset data = MakeRetailDataset(options);
  const Table& inv = data.source.GetTable("inventory");
  DescriptiveStats book_prices, cd_prices;
  for (size_t r = 0; r < inv.num_rows(); ++r) {
    if (inv.ValueAt(r, "ItemType") == data.book_labels[0]) {
      book_prices.Add(inv.ValueAt(r, "Price").AsNumeric());
    } else {
      cd_prices.Add(inv.ValueAt(r, "Price").AsNumeric());
    }
  }
  EXPECT_GT(book_prices.Mean(), cd_prices.Mean());
  EXPECT_LE(cd_prices.Max(), 20.0 + 1e-9);
}

// ---------------------------------------------------------------- Grades

TEST(GradesGenTest, ShapeAndRowCounts) {
  GradesOptions options;
  options.num_students = 50;
  options.num_exams = 5;
  options.seed = 11;
  GradesDataset data = MakeGradesDataset(options);
  EXPECT_EQ(data.source.GetTable("grades_narrow").num_rows(), 250u);
  EXPECT_EQ(data.target.GetTable("grades_wide").num_rows(), 50u);
  EXPECT_EQ(data.target.GetTable("grades_wide").schema().num_attributes(),
            6u);
}

TEST(GradesGenTest, ExamMeansFollowFormula) {
  GradesOptions options;
  options.num_students = 400;
  options.sigma = 3.0;
  options.seed = 12;
  GradesDataset data = MakeGradesDataset(options);
  const Table& narrow = data.source.GetTable("grades_narrow");
  std::map<int64_t, DescriptiveStats> per_exam;
  for (size_t r = 0; r < narrow.num_rows(); ++r) {
    per_exam[narrow.ValueAt(r, "examNum").AsInt()].Add(
        narrow.ValueAt(r, "grade").AsNumeric());
  }
  ASSERT_EQ(per_exam.size(), 5u);
  for (const auto& [exam, stats] : per_exam) {
    EXPECT_NEAR(stats.Mean(), 40.0 + 10.0 * static_cast<double>(exam - 1),
                1.0)
        << "exam " << exam;
    EXPECT_NEAR(stats.SampleStdDev(), 3.0, 0.5);
  }
}

TEST(GradesGenTest, NamesAreUniqueWithinEachSchema) {
  GradesOptions options;
  options.num_students = 300;
  options.seed = 13;
  GradesDataset data = MakeGradesDataset(options);
  const Table& wide = data.target.GetTable("grades_wide");
  std::set<std::string> names;
  for (size_t r = 0; r < wide.num_rows(); ++r) {
    EXPECT_TRUE(names.insert(wide.ValueAt(r, "name").AsString()).second);
  }
}

TEST(GradesGenTest, ExamNumIsTheOnlyCategoricalAttribute) {
  GradesOptions options;
  options.seed = 14;
  GradesDataset data = MakeGradesDataset(options);
  EXPECT_EQ(SplitCategorical(data.source.GetTable("grades_narrow")).categorical,
            (std::vector<std::string>{"examNum"}));
}

TEST(GradesGenTest, TruthHasOneEntryPerExamPlusName) {
  GradesOptions options;
  options.num_exams = 7;
  options.seed = 15;
  GradesDataset data = MakeGradesDataset(options);
  EXPECT_EQ(data.truth.entries.size(), 8u);
  EXPECT_EQ(data.truth.entries[0].source_attribute, "name");
  EXPECT_EQ(data.truth.entries[0].allowed_values.size(), 7u);
  EXPECT_EQ(data.truth.entries[3].allowed_values.size(), 1u);
}

TEST(GradesGenTest, GradesAreClampedToScale) {
  GradesOptions options;
  options.sigma = 50.0;  // extreme noise
  options.seed = 16;
  GradesDataset data = MakeGradesDataset(options);
  const Table& narrow = data.source.GetTable("grades_narrow");
  for (size_t r = 0; r < narrow.num_rows(); ++r) {
    double g = narrow.ValueAt(r, "grade").AsNumeric();
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 100.0);
  }
}

// --------------------------------------------------------------- Harness

TEST(ReportTest, AlignedRenderingAndCsv) {
  ResultTable table("Fig X", {"param", "value"});
  table.AddRow({"1", ResultTable::Num(0.5)});
  table.AddRow({"20", ResultTable::Num(1.0 / 3.0)});
  std::string text = table.ToString();
  EXPECT_NE(text.find("== Fig X =="), std::string::npos);
  EXPECT_NE(text.find("0.500"), std::string::npos);
  EXPECT_NE(text.find("0.333"), std::string::npos);
  EXPECT_EQ(table.ToCsv(), "param,value\n1,0.500\n20,0.333\n");
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(ReportTest, NumDecimals) {
  EXPECT_EQ(ResultTable::Num(1.23456, 2), "1.23");
  EXPECT_EQ(ResultTable::Num(2.0, 0), "2");
}

TEST(ExperimentTest, RunRepeatedAggregates) {
  AggregatedMetrics agg = RunRepeated(5, 100, [](uint64_t seed) {
    MetricMap m;
    m["seed_derived"] = static_cast<double>(seed - 100);
    m["constant"] = 7.0;
    return m;
  });
  EXPECT_DOUBLE_EQ(agg.Mean("seed_derived"), 3.0);  // mean of 1..5
  EXPECT_DOUBLE_EQ(agg.Mean("constant"), 7.0);
  EXPECT_DOUBLE_EQ(agg.StdDev("constant"), 0.0);
  EXPECT_TRUE(agg.Has("seconds"));
  EXPECT_FALSE(agg.Has("nope"));
  EXPECT_DOUBLE_EQ(agg.Mean("nope"), 0.0);
}

TEST(ExperimentTest, StopwatchMeasuresElapsed) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(watch.Seconds(), 0.0);
  watch.Reset();
  EXPECT_LT(watch.Seconds(), 1.0);
}

TEST(ExperimentTest, BenchConfigFromEnv) {
  unsetenv("CSM_BENCH_REPS");
  unsetenv("CSM_BENCH_THREADS");
  unsetenv("CSM_BENCH_TRACE");
  unsetenv("CSM_BENCH_CLIENTS");
  unsetenv("CSM_BENCH_REQUESTS");
  BenchConfig config = BenchConfig::FromEnv();
  EXPECT_EQ(config.Repetitions(8), 8u);
  EXPECT_EQ(config.Threads(1), 1u);
  EXPECT_EQ(config.TracePrefix(), nullptr);
  EXPECT_EQ(config.clients, 0u);

  setenv("CSM_BENCH_REPS", "3", 1);
  // An explicit THREADS=0 means "all hardware threads", distinct from unset.
  setenv("CSM_BENCH_THREADS", "0", 1);
  setenv("CSM_BENCH_TRACE", "/tmp/trace", 1);
  setenv("CSM_BENCH_CLIENTS", "12", 1);
  setenv("CSM_BENCH_REQUESTS", "240", 1);
  config = BenchConfig::FromEnv();
  EXPECT_EQ(config.Repetitions(8), 3u);
  EXPECT_TRUE(config.threads_set);
  EXPECT_EQ(config.Threads(1), 0u);
  EXPECT_STREQ(config.TracePrefix(), "/tmp/trace");
  EXPECT_EQ(config.clients, 12u);
  EXPECT_EQ(config.requests, 240u);

  // Malformed values read as unset.
  setenv("CSM_BENCH_REPS", "junk", 1);
  setenv("CSM_BENCH_THREADS", "-2", 1);
  config = BenchConfig::FromEnv();
  EXPECT_EQ(config.Repetitions(8), 8u);
  EXPECT_FALSE(config.threads_set);

  unsetenv("CSM_BENCH_REPS");
  unsetenv("CSM_BENCH_THREADS");
  unsetenv("CSM_BENCH_TRACE");
  unsetenv("CSM_BENCH_CLIENTS");
  unsetenv("CSM_BENCH_REQUESTS");
}

}  // namespace
}  // namespace csm
