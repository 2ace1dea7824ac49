// Tests for src/relational: Value, Schema, Table, Condition, View,
// categorical detection, sampling, CSV.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "relational/categorical.h"
#include "relational/column.h"
#include "relational/condition.h"
#include "relational/csv.h"
#include "relational/sample.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "relational/table_view.h"
#include "relational/value.h"
#include "relational/view.h"
#include "tests/test_util.h"  // NOLINT

namespace csm {
namespace {

using testing::I;
using testing::MakeTable;
using testing::N;
using testing::R;
using testing::S;

// ----------------------------------------------------------------- Value

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(3).AsInt(), 3);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
}

TEST(ValueTest, NumericView) {
  EXPECT_DOUBLE_EQ(Value::Int(4).AsNumeric(), 4.0);
  EXPECT_DOUBLE_EQ(Value::Real(4.5).AsNumeric(), 4.5);
  EXPECT_TRUE(Value::Int(1).IsNumeric());
  EXPECT_TRUE(Value::Real(1.0).IsNumeric());
  EXPECT_FALSE(Value::String("1").IsNumeric());
  EXPECT_FALSE(Value::Null().IsNumeric());
}

TEST(ValueTest, EqualityIsTypeStrict) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Real(1.0));
  EXPECT_NE(Value::Int(1), Value::String("1"));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int(0));
}

TEST(ValueTest, TotalOrder) {
  // NULL < numerics < strings.
  EXPECT_LT(Value::Null(), Value::Int(-100));
  EXPECT_LT(Value::Int(5), Value::String(""));
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Int(1), Value::Real(1.5));
  EXPECT_LT(Value::Real(0.5), Value::Int(1));
  EXPECT_LT(Value::String("a"), Value::String("b"));
}

TEST(ValueTest, OrderIsStrictWeak) {
  std::vector<Value> values = {Value::String("b"), Value::Int(2),
                               Value::Null(),      Value::Real(1.5),
                               Value::Int(1),      Value::String("a")};
  std::sort(values.begin(), values.end());
  EXPECT_TRUE(values[0].is_null());
  EXPECT_EQ(values[1], Value::Int(1));
  EXPECT_EQ(values[2], Value::Real(1.5));
  EXPECT_EQ(values[3], Value::Int(2));
  EXPECT_EQ(values[4], Value::String("a"));
  EXPECT_EQ(values[5], Value::String("b"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
  // Different types of "equal-looking" values hash apart (not guaranteed in
  // general, but required for these canary cases).
  EXPECT_NE(Value::Int(1).Hash(), Value::String("1").Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "");
  EXPECT_EQ(Value::Int(-5).ToString(), "-5");
  EXPECT_EQ(Value::Real(2.0).ToString(), "2.0");
  EXPECT_EQ(Value::Real(2.25).ToString(), "2.25");
  EXPECT_EQ(Value::String("abc").ToString(), "abc");
}

TEST(ValueTest, ParseInt) {
  auto v = Value::Parse("42", ValueType::kInt);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Int(42));
  EXPECT_FALSE(Value::Parse("4x", ValueType::kInt).ok());
  EXPECT_FALSE(Value::Parse("3.5", ValueType::kInt).ok());
}

TEST(ValueTest, ParseReal) {
  auto v = Value::Parse(" 2.5 ", ValueType::kReal);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Real(2.5));
  EXPECT_FALSE(Value::Parse("abc", ValueType::kReal).ok());
}

TEST(ValueTest, ParseEmptyIsNull) {
  EXPECT_TRUE(Value::Parse("", ValueType::kInt)->is_null());
  EXPECT_TRUE(Value::Parse("   ", ValueType::kReal)->is_null());
  EXPECT_TRUE(Value::Parse("", ValueType::kString)->is_null());
}

TEST(ValueTest, ParseStringKeepsWhitespaceContent) {
  EXPECT_EQ(Value::Parse(" a b ", ValueType::kString)->AsString(), " a b ");
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, TableSchemaBasics) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  schema.AddAttribute("b", ValueType::kString);
  EXPECT_EQ(schema.num_attributes(), 2u);
  EXPECT_EQ(schema.AttributeIndex("b"), 1u);
  EXPECT_TRUE(schema.HasAttribute("a"));
  EXPECT_FALSE(schema.HasAttribute("c"));
  EXPECT_FALSE(schema.FindAttribute("c").has_value());
  EXPECT_EQ(schema.ToString(), "t(a: int, b: string)");
}

TEST(SchemaTest, DuplicateAttributeDies) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  EXPECT_DEATH(schema.AddAttribute("a", ValueType::kReal), "duplicate");
}

TEST(SchemaTest, SchemaCatalog) {
  Schema schema("db");
  schema.AddTable(TableSchema("t1", {{"a", ValueType::kInt}}));
  schema.AddTable(TableSchema(
      "t2", {{"x", ValueType::kString}, {"y", ValueType::kReal}}));
  EXPECT_EQ(schema.num_tables(), 2u);
  EXPECT_EQ(schema.TotalAttributes(), 3u);
  EXPECT_TRUE(schema.HasTable("t1"));
  EXPECT_EQ(schema.GetTable("t2").num_attributes(), 2u);
  EXPECT_EQ(schema.FindTable("nope"), nullptr);
}

TEST(SchemaTest, AttributeRefOrderAndToString) {
  AttributeRef a{"t", "x"}, b{"t", "y"}, c{"u", "a"};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a.ToString(), "t.x");
  EXPECT_EQ(a, (AttributeRef{"t", "x"}));
}

// ----------------------------------------------------------------- Table

Table SampleInventory() {
  return MakeTable("inv", {"id", "type", "name", "price"},
                   {{I(1), S("book"), S("war and peace"), R(12.5)},
                    {I(2), S("cd"), S("abbey road"), R(9.0)},
                    {I(3), S("book"), S("dune"), R(7.25)},
                    {I(4), S("cd"), S("kind of blue"), N()}});
}

TEST(TableTest, BasicAccessors) {
  Table t = SampleInventory();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.name(), "inv");
  EXPECT_EQ(t.at(0, "name"), S("war and peace"));
  EXPECT_EQ(t.at(2, 0u), I(3));
  EXPECT_TRUE(t.at(3, "price").is_null());
}

TEST(TableTest, ArityMismatchDies) {
  Table t = SampleInventory();
  EXPECT_DEATH(t.AddRow({I(9)}), "arity");
}

TEST(TableTest, TypeMismatchDies) {
  Table t = SampleInventory();
  EXPECT_DEATH(t.AddRow({S("x"), S("book"), S("y"), R(1.0)}), "type mismatch");
}

TEST(TableTest, NullsBypassTypeCheck) {
  Table t = SampleInventory();
  t.AddRow({N(), N(), N(), N()});
  EXPECT_EQ(t.num_rows(), 5u);
}

TEST(TableTest, ValueBagKeepsOrderAndNulls) {
  Table t = SampleInventory();
  std::vector<Value> bag = t.ValueBag("price");
  ASSERT_EQ(bag.size(), 4u);
  EXPECT_EQ(bag[0], R(12.5));
  EXPECT_TRUE(bag[3].is_null());
}

TEST(TableTest, ValueCountsSkipsNulls) {
  Table t = SampleInventory();
  auto counts = t.ValueCounts("type");
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[S("book")], 2u);
  EXPECT_EQ(counts[S("cd")], 2u);
  EXPECT_EQ(t.ValueCounts("price").size(), 3u);  // NULL not counted
}

TEST(TableTest, SelectRows) {
  Table t = SampleInventory();
  Table subset = t.SelectRows(std::vector<size_t>{0, 2});
  EXPECT_EQ(subset.num_rows(), 2u);
  EXPECT_EQ(subset.at(1, "name"), S("dune"));
}

TEST(TableTest, Renamed) {
  Table t = SampleInventory().Renamed("inventory2");
  EXPECT_EQ(t.name(), "inventory2");
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.schema().num_attributes(), 4u);
}

TEST(TableTest, ToStringTruncates) {
  Table t = SampleInventory();
  std::string rendered = t.ToString(2);
  EXPECT_NE(rendered.find("2 more rows"), std::string::npos);
}

TEST(DatabaseTest, AddFindGet) {
  Database db("d");
  db.AddTable(SampleInventory());
  EXPECT_TRUE(db.HasTable("inv"));
  EXPECT_EQ(db.GetTable("inv").num_rows(), 4u);
  EXPECT_EQ(db.FindTable("x"), nullptr);
  EXPECT_NE(db.FindMutableTable("inv"), nullptr);
  Schema schema = db.GetSchema();
  EXPECT_EQ(schema.num_tables(), 1u);
}

TEST(DatabaseTest, DuplicateTableDies) {
  Database db("d");
  db.AddTable(SampleInventory());
  EXPECT_DEATH(db.AddTable(SampleInventory()), "duplicate");
}

// ------------------------------------------------------------- Condition

TEST(ConditionTest, TrueCondition) {
  Condition c;
  EXPECT_TRUE(c.is_true());
  EXPECT_EQ(c.NumAttributes(), 0u);
  EXPECT_EQ(c.ToString(), "true");
  Table t = SampleInventory();
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_TRUE(c.Evaluate(t.schema(), t.row(r)));
  }
}

TEST(ConditionTest, SimpleEquality) {
  Condition c = Condition::Equals("type", S("book"));
  Table t = SampleInventory();
  EXPECT_TRUE(c.Evaluate(t.schema(), t.row(0)));
  EXPECT_FALSE(c.Evaluate(t.schema(), t.row(1)));
  EXPECT_EQ(c.ToString(), "type = 'book'");
  EXPECT_EQ(c.NumAttributes(), 1u);
}

TEST(ConditionTest, DisjunctiveIn) {
  Condition c = Condition::In("id", {I(1), I(4)});
  Table t = SampleInventory();
  EXPECT_TRUE(c.Evaluate(t.schema(), t.row(0)));
  EXPECT_FALSE(c.Evaluate(t.schema(), t.row(1)));
  EXPECT_TRUE(c.Evaluate(t.schema(), t.row(3)));
  EXPECT_EQ(c.ToString(), "id in {1, 4}");
}

TEST(ConditionTest, InListIsNormalized) {
  Condition c = Condition::In("id", {I(4), I(1), I(4)});
  EXPECT_EQ(c.clauses()[0].values.size(), 2u);
  EXPECT_EQ(c.clauses()[0].values[0], I(1));  // sorted
  EXPECT_EQ(c, Condition::In("id", {I(1), I(4)}));
}

TEST(ConditionTest, ConjunctionEvaluatesAllClauses) {
  Condition c = Condition::Equals("type", S("book"))
                    .Conjoin(Condition::In("id", {I(3), I(4)}));
  Table t = SampleInventory();
  EXPECT_FALSE(c.Evaluate(t.schema(), t.row(0)));  // book but id 1
  EXPECT_FALSE(c.Evaluate(t.schema(), t.row(3)));  // id 4 but cd
  EXPECT_TRUE(c.Evaluate(t.schema(), t.row(2)));   // book, id 3
  EXPECT_EQ(c.NumAttributes(), 2u);
  EXPECT_EQ(c.ToString(), "type = 'book' and id in {3, 4}");
}

TEST(ConditionTest, NullNeverMatches) {
  Condition c = Condition::Equals("price", R(9.0));
  Table t = SampleInventory();
  EXPECT_TRUE(c.Evaluate(t.schema(), t.row(1)));
  EXPECT_FALSE(c.Evaluate(t.schema(), t.row(3)));  // NULL price
}

TEST(ConditionTest, DuplicateAttributeInConjunctionDies) {
  Condition c = Condition::Equals("a", I(1));
  EXPECT_DEATH(c.AddClause("a", {I(2)}), "already mentions");
}

TEST(ConditionTest, MentionedAttributes) {
  Condition c = Condition::Equals("x", I(1)).Conjoin(
      Condition::Equals("y", I(2)));
  EXPECT_EQ(c.MentionedAttributes(), (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(c.MentionsAttribute("x"));
  EXPECT_FALSE(c.MentionsAttribute("z"));
}

// ------------------------------------------------------------------ View

TEST(ViewTest, SelectOnlyMaterialization) {
  Table t = SampleInventory();
  View v("books", "inv", Condition::Equals("type", S("book")));
  Table m = v.Materialize(t);
  EXPECT_EQ(m.num_rows(), 2u);
  EXPECT_EQ(m.name(), "books");
  EXPECT_EQ(m.schema().num_attributes(), 4u);
  EXPECT_EQ(m.at(0, "name"), S("war and peace"));
}

TEST(ViewTest, ProjectionMaterialization) {
  Table t = SampleInventory();
  View v("book_names", "inv", Condition::Equals("type", S("book")),
         {"name", "price"});
  Table m = v.Materialize(t);
  EXPECT_EQ(m.schema().num_attributes(), 2u);
  EXPECT_EQ(m.schema().attribute(0).name, "name");
  EXPECT_EQ(m.at(1, "name"), S("dune"));
}

TEST(ViewTest, MatchingRows) {
  Table t = SampleInventory();
  View v("cds", "inv", Condition::Equals("type", S("cd")));
  EXPECT_EQ(v.MatchingRows(t), (std::vector<size_t>{1, 3}));
}

TEST(ViewTest, TrueConditionKeepsEverything) {
  Table t = SampleInventory();
  View v("all", "inv", Condition::True());
  EXPECT_EQ(v.Materialize(t).num_rows(), t.num_rows());
}

TEST(ViewTest, WrongBaseTableDies) {
  Table t = SampleInventory().Renamed("other");
  View v("x", "inv", Condition::True());
  EXPECT_DEATH(v.Materialize(t), "");
}

TEST(ViewTest, ToStringRendering) {
  View v("books", "inv", Condition::Equals("type", S("book")));
  EXPECT_EQ(v.ToString(), "books := select * from inv where type = 'book'");
}

TEST(ViewFamilyTest, SimpleFamilyIsWellFormed) {
  Table t = SampleInventory();
  ViewFamily family = MakeSimpleViewFamily(t, "type");
  EXPECT_EQ(family.views.size(), 2u);
  EXPECT_TRUE(family.IsWellFormed());
  EXPECT_EQ(family.label_attribute, "type");
  // Each view selects its slice.
  size_t total = 0;
  for (const View& v : family.views) total += v.Materialize(t).num_rows();
  EXPECT_EQ(total, t.num_rows());
}

TEST(ViewFamilyTest, OverlappingValuesAreIllFormed) {
  ViewFamily family;
  family.base_table = "inv";
  family.label_attribute = "type";
  family.views.emplace_back("a", "inv", Condition::In("type", {S("x"), S("y")}));
  family.views.emplace_back("b", "inv", Condition::Equals("type", S("y")));
  EXPECT_FALSE(family.IsWellFormed());
}

TEST(ViewFamilyTest, WrongAttributeIsIllFormed) {
  ViewFamily family;
  family.base_table = "inv";
  family.label_attribute = "type";
  family.views.emplace_back("a", "inv", Condition::Equals("id", I(1)));
  EXPECT_FALSE(family.IsWellFormed());
}

// ----------------------------------------------------------- Categorical

Table CategoricalFixture(size_t rows_per_value, size_t num_values,
                         size_t unique_rows) {
  std::vector<Row> rows;
  for (size_t v = 0; v < num_values; ++v) {
    for (size_t r = 0; r < rows_per_value; ++r) {
      rows.push_back({S(("v" + std::to_string(v)).c_str()),
                      S(("u" + std::to_string(rows.size())).c_str())});
    }
  }
  for (size_t r = 0; r < unique_rows; ++r) {
    rows.push_back({S(("w" + std::to_string(r)).c_str()),
                    S(("u" + std::to_string(rows.size())).c_str())});
  }
  return MakeTable("t", {"label", "unique"}, rows);
}

TEST(CategoricalTest, LowCardinalityRepeatedIsCategorical) {
  Table t = CategoricalFixture(50, 4, 0);
  EXPECT_TRUE(IsCategoricalAttribute(t, "label"));
}

TEST(CategoricalTest, AllUniqueIsNotCategorical) {
  Table t = CategoricalFixture(50, 4, 0);
  EXPECT_FALSE(IsCategoricalAttribute(t, "unique"));
}

TEST(CategoricalTest, SmallSampleNeedsTwoByTwo) {
  // Two values, but one appears once: fails the 2-values-with-2-tuples rule.
  Table t = MakeTable("t", {"a"}, {{S("x")}, {S("x")}, {S("y")}});
  EXPECT_FALSE(IsCategoricalAttribute(t, "a"));
  // Both values twice: passes.
  Table t2 = MakeTable("t", {"a"}, {{S("x")}, {S("x")}, {S("y")}, {S("y")}});
  EXPECT_TRUE(IsCategoricalAttribute(t2, "a"));
}

TEST(CategoricalTest, EmptyAndAllNullNotCategorical) {
  Table empty = MakeTable("t", {"a"}, {});
  EXPECT_FALSE(IsCategoricalAttribute(empty, "a"));
  Table nulls = MakeTable("t", {"a"}, {{N()}, {N()}});
  EXPECT_FALSE(IsCategoricalAttribute(nulls, "a"));
}

TEST(CategoricalTest, MostlyUniqueWithFewRepeatsNotCategorical) {
  // 2 frequent values among 100 distinct ones: 2% < 10% of values.
  std::vector<Row> rows;
  for (int i = 0; i < 5; ++i) rows.push_back({S("a")});
  for (int i = 0; i < 5; ++i) rows.push_back({S("b")});
  for (int i = 0; i < 98; ++i) {
    rows.push_back({S(("u" + std::to_string(i)).c_str())});
  }
  Table t = MakeTable("t", {"x"}, rows);
  EXPECT_FALSE(IsCategoricalAttribute(t, "x"));
}

TEST(CategoricalTest, PartitionHelpers) {
  Table t = CategoricalFixture(50, 3, 0);
  EXPECT_EQ(CategoricalAttributes(t), (std::vector<std::string>{"label"}));
  EXPECT_EQ(NonCategoricalAttributes(t),
            (std::vector<std::string>{"unique"}));
}

TEST(CategoricalTest, IntLabelsWork) {
  std::vector<Row> rows;
  for (int i = 0; i < 60; ++i) rows.push_back({I(i % 3)});
  Table t = MakeTable("t", {"k"}, rows);
  EXPECT_TRUE(IsCategoricalAttribute(t, "k"));
}

// ---------------------------------------------------------------- Sample

TEST(SampleTest, SplitSizesAndDisjointness) {
  Table t = CategoricalFixture(20, 3, 0);  // 60 rows
  Rng rng(5);
  TrainTestSplit split = SplitTrainTest(t, 0.5, rng);
  EXPECT_EQ(split.train.num_rows() + split.test.num_rows(), 60u);
  EXPECT_NEAR(static_cast<double>(split.train.num_rows()), 30.0, 1.0);
  // Disjoint: every "unique" value appears exactly once across both sides.
  std::set<std::string> seen;
  for (const Row& r : split.train.rows()) seen.insert(r[1].AsString());
  for (const Row& r : split.test.rows()) {
    EXPECT_TRUE(seen.insert(r[1].AsString()).second);
  }
  EXPECT_EQ(seen.size(), 60u);
}

TEST(SampleTest, SplitIsDeterministicGivenSeed) {
  Table t = CategoricalFixture(20, 3, 0);
  Rng rng1(5), rng2(5);
  TrainTestSplit a = SplitTrainTest(t, 0.6, rng1);
  TrainTestSplit b = SplitTrainTest(t, 0.6, rng2);
  ASSERT_EQ(a.train.num_rows(), b.train.num_rows());
  for (size_t r = 0; r < a.train.num_rows(); ++r) {
    EXPECT_EQ(a.train.row(r), b.train.row(r));
  }
}

TEST(SampleTest, SplitAlwaysKeepsBothSidesNonEmpty) {
  Table t = CategoricalFixture(2, 2, 0);  // 4 rows
  Rng rng(1);
  TrainTestSplit lo = SplitTrainTest(t, 0.0, rng);
  EXPECT_GE(lo.train.num_rows(), 1u);
  TrainTestSplit hi = SplitTrainTest(t, 1.0, rng);
  EXPECT_GE(hi.test.num_rows(), 1u);
}

TEST(SampleTest, SampleRowsSubsets) {
  Table t = CategoricalFixture(20, 3, 0);
  Rng rng(9);
  Table s = SampleRows(t, 10, rng);
  EXPECT_EQ(s.num_rows(), 10u);
  Table all = SampleRows(t, 1000, rng);
  EXPECT_EQ(all.num_rows(), 60u);
}

TEST(SampleTest, SampleRowPositionsAscendingDistinctInBounds) {
  Rng rng(7);
  PosList positions = SampleRowPositions(1000, 64, rng);
  ASSERT_EQ(positions.size(), 64u);
  for (size_t i = 0; i < positions.size(); ++i) {
    EXPECT_LT(positions[i], 1000u);
    if (i > 0) {
      EXPECT_LT(positions[i - 1], positions[i]);
    }
  }
}

TEST(SampleTest, SampleRowPositionsReturnsAllWhenSampleCoversTable) {
  Rng rng(7);
  PosList all = SampleRowPositions(10, 10, rng);
  PosList over = SampleRowPositions(10, 99, rng);
  PosList expected = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(all, expected);
  EXPECT_EQ(over, expected);
  EXPECT_TRUE(SampleRowPositions(0, 5, rng).empty());
  EXPECT_TRUE(SampleRowPositions(5, 0, rng).empty());
}

TEST(SampleTest, SampleRowPositionsDeterministicGivenSeed) {
  Rng a(42), b(42), c(43), d(42);
  EXPECT_EQ(SampleRowPositions(500, 20, a), SampleRowPositions(500, 20, b));
  EXPECT_NE(SampleRowPositions(500, 20, d), SampleRowPositions(500, 20, c));
}

// Differential oracle for the SampleRows -> ReservoirSampleRows delegation:
// both entry points must pick bit-identical rows for the same rng state.
TEST(SampleTest, ReservoirSampleRowsMatchesSampleRows) {
  Table t = CategoricalFixture(40, 3, 0);  // 120 rows
  for (uint64_t seed : {1u, 9u, 77u}) {
    for (size_t k : {size_t{1}, size_t{17}, size_t{120}, size_t{500}}) {
      Rng legacy_rng(seed), reservoir_rng(seed);
      Table legacy = SampleRows(t, k, legacy_rng);
      Table reservoir = ReservoirSampleRows(t, k, reservoir_rng);
      ASSERT_EQ(legacy.num_rows(), reservoir.num_rows())
          << "seed=" << seed << " k=" << k;
      for (size_t r = 0; r < legacy.num_rows(); ++r) {
        EXPECT_EQ(legacy.row(r), reservoir.row(r))
            << "seed=" << seed << " k=" << k << " row=" << r;
      }
    }
  }
}

// Regression for the O(table)-cost sampling path: SampleRowPositions must
// draw k of n by index sampling (Floyd), not by materializing and shuffling
// an n-entry vector.  At n = 3e9 the old path would allocate ~12 GB and run
// for minutes; the bounded-cost path finishes instantly or this test times
// out / OOMs.
TEST(SampleTest, SmallSampleCostIndependentOfTableSize) {
  const size_t huge = size_t{3'000'000'000};
  Rng rng(11);
  PosList positions = SampleRowPositions(huge, 64, rng);
  ASSERT_EQ(positions.size(), 64u);
  for (size_t i = 0; i < positions.size(); ++i) {
    EXPECT_LT(positions[i], huge);
    if (i > 0) {
      EXPECT_LT(positions[i - 1], positions[i]);
    }
  }
}

TEST(SampleTest, DeriveTableSampleSeedIsStableAndTableDependent) {
  const uint64_t seed = 0x5eed0f5a4d704e65ULL;
  EXPECT_EQ(DeriveTableSampleSeed(seed, "inventory"),
            DeriveTableSampleSeed(seed, "inventory"));
  EXPECT_NE(DeriveTableSampleSeed(seed, "inventory"),
            DeriveTableSampleSeed(seed, "books"));
  EXPECT_NE(DeriveTableSampleSeed(seed, "inventory"),
            DeriveTableSampleSeed(seed + 1, "inventory"));
}

// ------------------------------------------------------------------- CSV

TEST(CsvTest, RoundTrip) {
  Table t = SampleInventory();
  std::string csv = TableToCsv(t);
  auto parsed = TableFromCsv(t.schema(), csv);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(parsed->row(r), t.row(r));
  }
}

TEST(CsvTest, QuotingSpecialCharacters) {
  Table t = MakeTable("q", {"text"},
                      {{S("has,comma")},
                       {S("has \"quotes\"")},
                       {S("has\nnewline")}});
  std::string csv = TableToCsv(t);
  auto parsed = TableFromCsv(t.schema(), csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at(0, "text"), S("has,comma"));
  EXPECT_EQ(parsed->at(1, "text"), S("has \"quotes\""));
  EXPECT_EQ(parsed->at(2, "text"), S("has\nnewline"));
}

TEST(CsvTest, NullsRoundTripAsEmpty) {
  Table t = MakeTable("n", {"a", "b"}, {{I(1), N()}, {I(2), R(1.5)}});
  auto parsed = TableFromCsv(t.schema(), TableToCsv(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->at(0, "b").is_null());
  EXPECT_EQ(parsed->at(1, "b"), R(1.5));
}

TEST(CsvTest, HeaderMismatchRejected) {
  Table t = SampleInventory();
  TableSchema other("inv");
  other.AddAttribute("wrong", ValueType::kInt);
  other.AddAttribute("type", ValueType::kString);
  other.AddAttribute("name", ValueType::kString);
  other.AddAttribute("price", ValueType::kReal);
  EXPECT_FALSE(TableFromCsv(other, TableToCsv(t)).ok());
}

TEST(CsvTest, ArityMismatchRejected) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  schema.AddAttribute("b", ValueType::kInt);
  EXPECT_FALSE(TableFromCsv(schema, "a,b\n1\n").ok());
}

TEST(CsvTest, BadCellTypeRejected) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  EXPECT_FALSE(TableFromCsv(schema, "a\nnot_an_int\n").ok());
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kString);
  EXPECT_FALSE(TableFromCsv(schema, "a\n\"oops\n").ok());
}

TEST(CsvTest, FileRoundTrip) {
  Table t = SampleInventory();
  std::string path = ::testing::TempDir() + "/csm_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto parsed = ReadCsvFile(t.schema(), path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), t.num_rows());
}

TEST(CsvTest, MissingFileErrors) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  EXPECT_EQ(ReadCsvFile(schema, "/nonexistent/file.csv").status().code(),
            StatusCode::kIoError);
}

// Regression: ParseRecord used to skip a bare "\r" without terminating the
// record, so a classic-Mac (CR-only) file collapsed into a single record.
TEST(CsvTest, BareCarriageReturnTerminatesRecord) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  auto parsed = TableFromCsv(schema, "a\r1\r2\r");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->at(0, "a"), I(1));
  EXPECT_EQ(parsed->at(1, "a"), I(2));
}

TEST(CsvTest, MixedLineEndingsParse) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  auto parsed = TableFromCsv(schema, "a\n1\r\n2\r3\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_rows(), 3u);
  EXPECT_EQ(parsed->at(0, "a"), I(1));
  EXPECT_EQ(parsed->at(1, "a"), I(2));
  EXPECT_EQ(parsed->at(2, "a"), I(3));
}

// Regression: an unquoted embedded "\r" used to be silently dropped; it now
// terminates the record like any other line ending, so the writer's quoting
// is what preserves it through a round trip.
TEST(CsvTest, EmbeddedCarriageReturnRoundTrip) {
  Table t = MakeTable("t", {"text"}, {{S("line\rbreak")}, {S("dos\r\nend")}});
  auto parsed = TableFromCsv(t.schema(), TableToCsv(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at(0, "text"), S("line\rbreak"));
  EXPECT_EQ(parsed->at(1, "text"), S("dos\r\nend"));
}

TEST(CsvTest, Utf8InQuotedFields) {
  Table t = MakeTable("t", {"text"},
                      {{S("h\xc3\xa9llo, world")},
                       {S("\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e")},
                       {S("\xf0\x9f\x99\x82 ok")}});
  auto parsed = TableFromCsv(t.schema(), TableToCsv(t));
  ASSERT_TRUE(parsed.ok());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(parsed->row(r), t.row(r));
  }
}

TEST(CsvTest, TrailingCommaIsEmptyField) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  schema.AddAttribute("b", ValueType::kString);
  auto parsed = TableFromCsv(schema, "a,b\n1,\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_rows(), 1u);
  EXPECT_EQ(parsed->at(0, "a"), I(1));
  EXPECT_TRUE(parsed->at(0, "b").is_null());
}

TEST(CsvTest, QuotedFieldAtEofWithoutNewline) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kString);
  auto parsed = TableFromCsv(schema, "a\n\"hi, there\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_rows(), 1u);
  EXPECT_EQ(parsed->at(0, "a"), S("hi, there"));
}

TEST(CsvTest, EmptyFileRejectedHeaderOnlyAccepted) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  EXPECT_FALSE(TableFromCsv(schema, "").ok());
  auto header_only = TableFromCsv(schema, "a\n");
  ASSERT_TRUE(header_only.ok()) << header_only.status().ToString();
  EXPECT_EQ(header_only->num_rows(), 0u);
  auto no_newline = TableFromCsv(schema, "a");
  ASSERT_TRUE(no_newline.ok()) << no_newline.status().ToString();
  EXPECT_EQ(no_newline->num_rows(), 0u);
}

// Regression (found by FuzzCsvRoundTrip): a single-attribute NULL row used
// to serialize as an empty line, indistinguishable from the file's trailing
// newline, so a trailing NULL row vanished on the round trip.  The writer
// now emits `""` for such rows.
TEST(CsvTest, SingleAttributeNullRowsRoundTrip) {
  Table t = MakeTable("t", {"a"}, {{N()}, {I(1)}, {N()}});
  const std::string csv = TableToCsv(t);
  EXPECT_NE(csv.find("\"\""), std::string::npos);
  auto parsed = TableFromCsv(t.schema(), csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_rows(), 3u);
  EXPECT_TRUE(parsed->at(0, "a").is_null());
  EXPECT_EQ(parsed->at(1, "a"), I(1));
  EXPECT_TRUE(parsed->at(2, "a").is_null());
}

// --------------------------------------------------- Columnar storage

TEST(ColumnTest, DictionaryCodesAreFirstSeenOrder) {
  Table t = MakeTable("t", {"s"}, {{S("b")}, {S("a")}, {S("b")}, {S("c")}});
  const Column& col = t.column(0);
  ASSERT_EQ(col.type(), ValueType::kString);
  EXPECT_EQ(col.codes(), (std::vector<uint32_t>{0, 1, 0, 2}));
  EXPECT_EQ(col.dictionary().size(), 3u);
  EXPECT_EQ(col.dictionary().value(0), "b");
  EXPECT_EQ(col.CodeFor("c"), std::optional<uint32_t>(2));
  EXPECT_EQ(col.CodeFor("missing"), std::nullopt);
}

TEST(ColumnTest, NullStringCellUsesReservedCode) {
  Table t = MakeTable("t", {"s"}, {{S("x")}, {N()}});
  const Column& col = t.column(0);
  EXPECT_EQ(col.codes()[1], kNullCode);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.dictionary().size(), 1u);  // NULL never enters the dict
}

TEST(ColumnTest, CellHashMatchesValueHash) {
  Table t = MakeTable("t", {"s", "i", "r"},
                      {{S("x"), I(7), R(2.5)}, {N(), N(), N()}});
  for (size_t c = 0; c < 3; ++c) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(t.column(c).CellHash(r),
                static_cast<uint64_t>(t.ValueAt(r, c).Hash()))
          << "row " << r << " col " << c;
    }
  }
}

TEST(ColumnTest, GatherSharesDictionaryUntilMutation) {
  Table t = MakeTable("t", {"s"}, {{S("a")}, {S("b")}, {S("a")}});
  Table gathered = t.SelectRows(PosList{2, 0});
  // Zero-copy gather: same dictionary object, original codes preserved.
  EXPECT_EQ(&gathered.column(0).dictionary(), &t.column(0).dictionary());
  EXPECT_EQ(gathered.column(0).codes(), (std::vector<uint32_t>{0, 0}));
  // Appending a new string clones the shared dictionary first
  // (copy-on-write); the parent's encoding is untouched.
  gathered.AddRow({S("z")});
  EXPECT_NE(&gathered.column(0).dictionary(), &t.column(0).dictionary());
  EXPECT_EQ(t.column(0).dictionary().size(), 2u);
  EXPECT_EQ(gathered.column(0).dictionary().size(), 3u);
  EXPECT_EQ(gathered.at(2, "s"), S("z"));
}

TEST(ConditionTest, MatchingPositionsMatchesPerRowEvaluate) {
  Table t = MakeTable("t", {"s", "i"},
                      {{S("a"), I(1)},
                       {S("b"), I(2)},
                       {N(), I(1)},
                       {S("a"), N()},
                       {S("a"), I(1)}});
  // Mixed literals: one present, one absent from the dictionary, one of
  // the wrong type — MatchingPositions must agree with Evaluate on all.
  const Condition cond =
      Condition::In("s", {S("a"), S("zzz"), I(9)})
          .Conjoin(Condition::Equals("i", I(1)));
  PosList expected;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (cond.Evaluate(t.schema(), t.row(r))) {
      expected.push_back(static_cast<RowId>(r));
    }
  }
  EXPECT_EQ(cond.MatchingPositions(t), expected);
  EXPECT_EQ(expected, (PosList{0, 4}));
}

TEST(ConditionTest, TrueConditionMatchesAllPositions) {
  Table t = MakeTable("t", {"i"}, {{I(1)}, {I(2)}});
  EXPECT_EQ(Condition::True().MatchingPositions(t), (PosList{0, 1}));
}

TEST(TableViewTest, IdentityViewIsZeroCopy) {
  Table t = MakeTable("t", {"s"}, {{S("a")}, {S("b")}});
  const TableView view(t);
  EXPECT_TRUE(view.valid());
  EXPECT_TRUE(view.is_identity());
  EXPECT_EQ(view.num_rows(), 2u);
  EXPECT_EQ(view.name(), "t");
  EXPECT_EQ(view.ValueAt(1, 0), S("b"));
  EXPECT_EQ(view.Positions(), (PosList{0, 1}));
}

TEST(TableViewTest, PosListViewReadsAndComposes) {
  Table t = MakeTable("t", {"i"}, {{I(10)}, {I(20)}, {I(30)}, {I(40)}});
  const TableView view(t, PosList{3, 1, 0});
  EXPECT_EQ(view.num_rows(), 3u);
  EXPECT_EQ(view.ValueAt(0, 0), I(40));
  EXPECT_EQ(view.position(1), 1u);
  // Select() composes over *view* rows, not base rows.
  const TableView sub = view.Select(PosList{2, 0});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.ValueAt(0, 0), I(10));
  EXPECT_EQ(sub.ValueAt(1, 0), I(40));
}

TEST(TableViewTest, BagAndCountsMatchMaterializedTable) {
  Table t = MakeTable("t", {"s"},
                      {{S("a")}, {S("b")}, {N()}, {S("a")}, {S("c")}});
  const PosList positions{0, 2, 3, 4};
  const TableView view(t, positions);
  const Table materialized = t.SelectRows(positions);
  EXPECT_EQ(view.ValueBag("s"), materialized.ValueBag("s"));
  EXPECT_EQ(view.ValueCounts("s"), materialized.ValueCounts("s"));
}

TEST(TableViewTest, RenamedAndToTable) {
  Table t = MakeTable("t", {"s"}, {{S("a")}, {S("b")}, {S("c")}});
  const TableView view =
      TableView(t, PosList{2, 0}).Renamed("slice");
  EXPECT_EQ(view.name(), "slice");
  const Table copy = view.ToTable();
  EXPECT_EQ(copy.name(), "slice");
  ASSERT_EQ(copy.num_rows(), 2u);
  EXPECT_EQ(copy.at(0, "s"), S("c"));
  EXPECT_EQ(copy.at(1, "s"), S("a"));
}

TEST(TableViewTest, ViewBindMatchesMaterialize) {
  Table t = MakeTable("t", {"s", "i"},
                      {{S("a"), I(1)}, {S("b"), I(2)}, {S("a"), I(3)}});
  const View v("va", "t", Condition::Equals("s", S("a")));
  const TableView bound = v.Bind(t);
  const Table materialized = v.Materialize(t);
  ASSERT_EQ(bound.num_rows(), materialized.num_rows());
  for (size_t r = 0; r < bound.num_rows(); ++r) {
    for (size_t c = 0; c < bound.num_columns(); ++c) {
      EXPECT_EQ(bound.ValueAt(r, c), materialized.ValueAt(r, c));
    }
  }
  EXPECT_EQ(bound.name(), materialized.name());
}

TEST(SampleTest, ViewSplitSelectsSameRowsAsTableSplit) {
  Table t = MakeTable("t", {"i"},
                      {{I(0)}, {I(1)}, {I(2)}, {I(3)}, {I(4)}, {I(5)}});
  Rng rng_a(99);
  Rng rng_b(99);
  const TrainTestSplit tables = SplitTrainTest(t, 0.5, rng_a);
  const TrainTestViewSplit views = SplitTrainTestView(t, 0.5, rng_b);
  ASSERT_EQ(views.train.num_rows(), tables.train.num_rows());
  ASSERT_EQ(views.test.num_rows(), tables.test.num_rows());
  for (size_t r = 0; r < tables.train.num_rows(); ++r) {
    EXPECT_EQ(views.train.ValueAt(r, 0), tables.train.at(r, 0));
  }
  for (size_t r = 0; r < tables.test.num_rows(); ++r) {
    EXPECT_EQ(views.test.ValueAt(r, 0), tables.test.at(r, 0));
  }
}

}  // namespace
}  // namespace csm
