// Micro-benchmarks (google-benchmark): classifier training/classification,
// ClusteredViewGen (serial, on the small and the 100k-row inventory), view
// materialization, and condition evaluation.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/clustered_view_gen.h"
#include "datagen/retail_gen.h"
#include "datagen/scale_gen.h"
#include "datagen/wordlists.h"
#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"

namespace csm {
namespace {

RetailDataset& SharedData() {
  static RetailDataset* data = [] {
    RetailOptions options;
    options.num_items = 400;
    options.seed = 78;
    return new RetailDataset(MakeRetailDataset(options));
  }();
  return *data;
}

void BM_NaiveBayesTrain(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::pair<Value, std::string>> examples;
  for (int i = 0; i < 200; ++i) {
    examples.emplace_back(Value::String(MakeBookTitle(rng)), "book");
    examples.emplace_back(Value::String(MakeAlbumTitle(rng)), "cd");
  }
  for (auto _ : state) {
    NaiveBayesClassifier nb(3);
    for (const auto& [value, label] : examples) nb.Train(value, label);
    benchmark::DoNotOptimize(nb.TrainingSize());
  }
}
BENCHMARK(BM_NaiveBayesTrain);

void BM_NaiveBayesClassify(benchmark::State& state) {
  Rng rng(6);
  NaiveBayesClassifier nb(3);
  for (int i = 0; i < 200; ++i) {
    nb.Train(Value::String(MakeBookTitle(rng)), "book");
    nb.Train(Value::String(MakeAlbumTitle(rng)), "cd");
  }
  Value probe = Value::String(MakeBookTitle(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nb.Classify(probe));
  }
}
BENCHMARK(BM_NaiveBayesClassify);

void BM_GaussianClassify(benchmark::State& state) {
  Rng rng(7);
  GaussianClassifier g;
  for (int i = 0; i < 500; ++i) {
    g.Train(Value::Real(rng.NextGaussian(20, 5)), "books");
    g.Train(Value::Real(rng.NextGaussian(14, 3)), "cds");
  }
  Value probe = Value::Real(17.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.Classify(probe));
  }
}
BENCHMARK(BM_GaussianClassify);

/// The 400-item inventory, or the 100k-row scale inventory (the
/// match_scale source table) where counted training shows.
const Table& Inventory(int64_t rows) {
  if (rows <= 400) return SharedData().source.GetTable("inventory");
  static RetailDataset* scale = [] {
    ScaleRetailOptions options;
    options.source_rows = 100'000;
    options.gamma = 4;
    options.threads = 1;
    return new RetailDataset(MakeScaleRetailDataset(options));
  }();
  return scale->source.GetTable("inventory");
}

// Args: {early disjuncts, inventory rows}.
void BM_ClusteredViewGen(benchmark::State& state) {
  const Table& inv = Inventory(state.range(1));
  ClassifierFactory factory =
      [](ValueType type) -> std::unique_ptr<ValueClassifier> {
    if (type == ValueType::kInt || type == ValueType::kReal) {
      return std::make_unique<GaussianClassifier>();
    }
    return std::make_unique<NaiveBayesClassifier>(3);
  };
  bool early = state.range(0) != 0;
  for (auto _ : state) {
    Rng rng(9);
    benchmark::DoNotOptimize(
        ClusteredViewGen(inv, factory, {}, {}, early, rng).size());
  }
}
BENCHMARK(BM_ClusteredViewGen)
    ->Args({0, 400})
    ->Args({1, 400})
    ->Args({0, 100'000})
    ->Args({1, 100'000})
    ->Unit(benchmark::kMillisecond);

void BM_ViewMaterialize(benchmark::State& state) {
  const RetailDataset& data = SharedData();
  const Table& inv = data.source.GetTable("inventory");
  View view("books", "inventory",
            Condition::Equals("ItemType", data.book_labels[0]));
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.Materialize(inv).num_rows());
  }
}
BENCHMARK(BM_ViewMaterialize);

void BM_ConditionEvaluate(benchmark::State& state) {
  const RetailDataset& data = SharedData();
  const Table& inv = data.source.GetTable("inventory");
  Condition condition = Condition::In(
      "ItemType", {data.book_labels[0], data.cd_labels[0]});
  // Box the rows once, outside timing: this measures Evaluate alone.
  std::vector<Row> rows;
  for (size_t r = 0; r < inv.num_rows(); ++r) rows.push_back(inv.row(r));
  for (auto _ : state) {
    size_t hits = 0;
    for (const Row& row : rows) {
      if (condition.Evaluate(inv.schema(), row)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_ConditionEvaluate);

}  // namespace
}  // namespace csm

BENCHMARK_MAIN();
