// Tests for src/ml: Naive Bayes, Gaussian classifier, evaluation machinery.

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "ml/evaluation.h"
#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"

namespace csm {
namespace {

// ------------------------------------------------------------ NaiveBayes

NaiveBayesClassifier TrainedBookCdClassifier() {
  NaiveBayesClassifier nb(3);
  const char* books[] = {"the silent river", "a winter garden",
                         "the lost kingdom", "history of light",
                         "the paper ocean"};
  const char* cds[] = {"velvet thunder", "neon wolves live", "cobalt drift",
                       "static bloom remix", "echo parade"};
  for (const char* b : books) nb.Train(Value::String(b), "book");
  for (const char* c : cds) nb.Train(Value::String(c), "cd");
  return nb;
}

TEST(NaiveBayesTest, ClassifiesTrainingLikeInputs) {
  NaiveBayesClassifier nb = TrainedBookCdClassifier();
  EXPECT_EQ(nb.Classify(Value::String("the silent kingdom")), "book");
  EXPECT_EQ(nb.Classify(Value::String("velvet drift")), "cd");
}

TEST(NaiveBayesTest, LabelsAndTrainingSize) {
  NaiveBayesClassifier nb = TrainedBookCdClassifier();
  EXPECT_EQ(nb.Labels(), (std::vector<std::string>{"book", "cd"}));
  EXPECT_EQ(nb.TrainingSize(), 10u);
}

TEST(NaiveBayesTest, UntrainedReturnsEmpty) {
  NaiveBayesClassifier nb;
  EXPECT_EQ(nb.Classify(Value::String("anything")), "");
  EXPECT_TRUE(nb.Labels().empty());
}

TEST(NaiveBayesTest, NullInputsIgnored) {
  NaiveBayesClassifier nb;
  nb.Train(Value::Null(), "x");
  EXPECT_EQ(nb.TrainingSize(), 0u);
  nb.Train(Value::String("abc"), "x");
  EXPECT_EQ(nb.Classify(Value::Null()), "");
}

TEST(NaiveBayesTest, LogScoreOrdersLabels) {
  NaiveBayesClassifier nb = TrainedBookCdClassifier();
  Value v = Value::String("the silent garden");
  EXPECT_GT(nb.LogScore(v, "book"), nb.LogScore(v, "cd"));
  EXPECT_EQ(nb.LogScore(v, "unknown_label"),
            -std::numeric_limits<double>::infinity());
}

TEST(NaiveBayesTest, UnseenInputGetsDeterministicTrainedLabel) {
  NaiveBayesClassifier nb;
  nb.Train(Value::String("aaa"), "major");
  nb.Train(Value::String("aab"), "major");
  nb.Train(Value::String("aac"), "major");
  nb.Train(Value::String("zzz"), "minor");
  // Input sharing no informative grams still classifies to some trained
  // label, deterministically.
  std::string first = nb.Classify(Value::String("qqq"));
  EXPECT_TRUE(first == "major" || first == "minor");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(nb.Classify(Value::String("qqq")), first);
  }
}

TEST(NaiveBayesTest, NumericInputsClassifiedViaRendering) {
  NaiveBayesClassifier nb;
  for (int i = 0; i < 5; ++i) {
    nb.Train(Value::Int(1000 + i), "low");
    nb.Train(Value::Int(999000 + i), "high");
  }
  EXPECT_EQ(nb.Classify(Value::Int(1007)), "low");
  EXPECT_EQ(nb.Classify(Value::Int(999007)), "high");
}

TEST(NaiveBayesTest, DeterministicClassification) {
  NaiveBayesClassifier a = TrainedBookCdClassifier();
  NaiveBayesClassifier b = TrainedBookCdClassifier();
  const char* probes[] = {"river", "thunder", "x", "the the the"};
  for (const char* p : probes) {
    EXPECT_EQ(a.Classify(Value::String(p)), b.Classify(Value::String(p)));
  }
}

TEST(NaiveBayesTest, CodedPathMatchesBoxedPath) {
  StringDictionary dict;
  const char* books[] = {"the silent river", "a winter garden",
                         "the lost kingdom"};
  const char* cds[] = {"velvet thunder", "neon wolves live", "cobalt drift"};
  NaiveBayesClassifier boxed(3), coded(3);
  for (const char* b : books) {
    boxed.Train(Value::String(b), "book");
    coded.TrainCoded(dict, dict.GetOrAdd(b), "book");
  }
  for (const char* c : cds) {
    boxed.Train(Value::String(c), "cd");
    coded.TrainCoded(dict, dict.GetOrAdd(c), "cd");
  }
  EXPECT_EQ(boxed.TrainingSize(), coded.TrainingSize());
  const char* probes[] = {"the silent kingdom", "velvet drift", "qqq"};
  for (const char* p : probes) {
    const uint32_t code = dict.GetOrAdd(p);
    EXPECT_EQ(coded.ClassifyCoded(dict, code), boxed.Classify(Value::String(p)));
  }
  EXPECT_EQ(coded.ClassifyCoded(dict, kNullCode), "");
}

TEST(NaiveBayesTest, WeightedTrainingAndMergeEqualRowTraining) {
  StringDictionary dict;
  const char* texts[] = {"the silent river", "velvet thunder", "the lost king"};
  const char* labels[] = {"book", "cd", "dvd"};
  const size_t counts[] = {3, 2, 4};
  NaiveBayesClassifier counted(3), rows(3);
  for (size_t i = 0; i < 3; ++i) {
    counted.TrainCoded(dict, dict.GetOrAdd(texts[i]), labels[i], counts[i]);
    // Row by row, with the cd and dvd examples already merged.
    const std::string merged = i == 0 ? "book" : "cd\x1f" "dvd";
    for (size_t c = 0; c < counts[i]; ++c) rows.Train(Value::String(texts[i]), merged);
  }
  ASSERT_TRUE(counted.MergeLabels("cd", "dvd", "cd\x1f" "dvd"));
  EXPECT_EQ(counted.Labels(), rows.Labels());
  EXPECT_EQ(counted.TrainingSize(), rows.TrainingSize());
  for (const char* probe : {"the silent king", "velvet", "zzz"}) {
    for (const std::string& label : rows.Labels()) {
      const double a = counted.LogScore(Value::String(probe), label);
      const double b = rows.LogScore(Value::String(probe), label);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0) << probe << " " << label;
    }
    EXPECT_EQ(counted.Classify(Value::String(probe)), rows.Classify(Value::String(probe)));
  }
}

TEST(NaiveBayesTest, TrainingAfterClassifyInvalidatesMemo) {
  StringDictionary dict;
  NaiveBayesClassifier nb(3);
  const uint32_t aaa = dict.GetOrAdd("aaa");
  const uint32_t probe = dict.GetOrAdd("aaz");
  nb.TrainCoded(dict, aaa, "a");
  EXPECT_EQ(nb.ClassifyCoded(dict, probe), "a");
  // Flood a second label; the classifier must re-score, not replay the memo.
  for (int i = 0; i < 20; ++i) {
    nb.TrainCoded(dict, dict.GetOrAdd("aazq"), "z");
  }
  NaiveBayesClassifier fresh(3);
  fresh.TrainCoded(dict, aaa, "a");
  for (int i = 0; i < 20; ++i) {
    fresh.TrainCoded(dict, dict.GetOrAdd("aazq"), "z");
  }
  EXPECT_EQ(nb.ClassifyCoded(dict, probe), fresh.ClassifyCoded(dict, probe));
  EXPECT_EQ(nb.Classify(Value::String("aaz")), fresh.ClassifyCoded(dict, probe));
}

TEST(NaiveBayesTest, LargeQFallsBackToInternedWordGrams) {
  // q > kMaxPackedGramQ routes through the TokenInterner fallback; the
  // classifier contract is unchanged.
  NaiveBayesClassifier nb(6);
  nb.Train(Value::String("alpha beta gamma"), "greek");
  nb.Train(Value::String("monday tuesday"), "days");
  EXPECT_EQ(nb.Classify(Value::String("alpha gamma")), "greek");
  EXPECT_EQ(nb.Classify(Value::String("monday")), "days");
}

// -------------------------------------------------------------- Gaussian

GaussianClassifier TrainedGaussian(double sigma, Rng& rng) {
  GaussianClassifier g;
  for (int i = 0; i < 200; ++i) {
    g.Train(Value::Real(rng.NextGaussian(10.0, sigma)), "low");
    g.Train(Value::Real(rng.NextGaussian(50.0, sigma)), "high");
  }
  return g;
}

TEST(GaussianTest, SeparatesWellSeparatedClasses) {
  Rng rng(17);
  GaussianClassifier g = TrainedGaussian(3.0, rng);
  EXPECT_EQ(g.Classify(Value::Real(11.0)), "low");
  EXPECT_EQ(g.Classify(Value::Real(49.0)), "high");
  EXPECT_EQ(g.Classify(Value::Int(9)), "low");  // ints widen
}

TEST(GaussianTest, MidpointGoesToCloserMean) {
  Rng rng(18);
  GaussianClassifier g = TrainedGaussian(3.0, rng);
  EXPECT_EQ(g.Classify(Value::Real(20.0)), "low");
  EXPECT_EQ(g.Classify(Value::Real(40.0)), "high");
}

TEST(GaussianTest, PriorsMatterForImbalancedData) {
  GaussianClassifier g;
  Rng rng(19);
  for (int i = 0; i < 900; ++i) {
    g.Train(Value::Real(rng.NextGaussian(0.0, 10.0)), "common");
  }
  for (int i = 0; i < 10; ++i) {
    g.Train(Value::Real(rng.NextGaussian(5.0, 10.0)), "rare");
  }
  // Near the rare mean but the common prior dominates at equal likelihood
  // distance.
  EXPECT_EQ(g.Classify(Value::Real(2.5)), "common");
}

TEST(GaussianTest, NonNumericInputFallsBackToMostFrequent) {
  GaussianClassifier g;
  g.Train(Value::Real(1.0), "a");
  g.Train(Value::Real(2.0), "a");
  g.Train(Value::Real(100.0), "b");
  EXPECT_EQ(g.Classify(Value::String("oops")), "a");
}

TEST(GaussianTest, StringTrainingIgnored) {
  GaussianClassifier g;
  g.Train(Value::String("nope"), "a");
  EXPECT_EQ(g.TrainingSize(), 0u);
  EXPECT_EQ(g.Classify(Value::Real(1.0)), "");
}

TEST(GaussianTest, ConstantClassHandledByStdDevFloor) {
  GaussianClassifier g;
  for (int i = 0; i < 10; ++i) g.Train(Value::Real(5.0), "const");
  for (int i = 0; i < 10; ++i) {
    g.Train(Value::Real(20.0 + static_cast<double>(i)), "spread");
  }
  EXPECT_EQ(g.Classify(Value::Real(5.0)), "const");
  EXPECT_EQ(g.Classify(Value::Real(24.0)), "spread");
}

TEST(GaussianTest, LogScoreUnknownLabelIsMinusInfinity) {
  GaussianClassifier g;
  g.Train(Value::Real(1.0), "a");
  EXPECT_EQ(g.LogScore(1.0, "zzz"),
            -std::numeric_limits<double>::infinity());
}

// ------------------------------------------------------------ Evaluation

TEST(EvaluationTest, AccuracyAndCounts) {
  ClassifierEvaluation e;
  e.Observe("a", "a");
  e.Observe("a", "b");
  e.Observe("b", "b");
  e.Observe("b", "b");
  EXPECT_EQ(e.total(), 4u);
  EXPECT_EQ(e.correct(), 3u);
  EXPECT_DOUBLE_EQ(e.Accuracy(), 0.75);
}

TEST(EvaluationTest, MicroAveragesEqualAccuracyForSingleLabel) {
  // Single-label multi-class: micro P == micro R == accuracy.
  ClassifierEvaluation e;
  e.Observe("a", "a");
  e.Observe("a", "b");
  e.Observe("b", "a");
  e.Observe("c", "c");
  EXPECT_DOUBLE_EQ(e.MicroPrecision(), e.Accuracy());
  EXPECT_DOUBLE_EQ(e.MicroRecall(), e.Accuracy());
  EXPECT_DOUBLE_EQ(e.MicroF(1.0), e.Accuracy());
}

TEST(EvaluationTest, PerLabelPrecisionRecall) {
  ClassifierEvaluation e;
  e.Observe("a", "a");  // a: TP
  e.Observe("a", "b");  // a: FN, b: FP
  e.Observe("b", "b");  // b: TP
  EXPECT_DOUBLE_EQ(e.LabelPrecision("a"), 1.0);
  EXPECT_DOUBLE_EQ(e.LabelRecall("a"), 0.5);
  EXPECT_DOUBLE_EQ(e.LabelPrecision("b"), 0.5);
  EXPECT_DOUBLE_EQ(e.LabelRecall("b"), 1.0);
  EXPECT_DOUBLE_EQ(e.LabelPrecision("zzz"), 0.0);
}

TEST(EvaluationTest, FBetaFormula) {
  EXPECT_DOUBLE_EQ(FBeta(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(FBeta(0.0, 0.0), 0.0);
  EXPECT_NEAR(FBeta(0.5, 1.0), 2.0 / 3.0, 1e-12);
  // beta = 2 weighs recall higher.
  EXPECT_GT(FBeta(0.5, 1.0, 2.0), FBeta(1.0, 0.5, 2.0));
}

TEST(EvaluationTest, MacroFAveragesLabels) {
  ClassifierEvaluation e;
  e.Observe("a", "a");
  e.Observe("b", "a");
  // a: P=0.5, R=1 -> F=2/3; b: P=0, R=0 -> F=0.
  EXPECT_NEAR(e.MacroF(1.0), (2.0 / 3.0) / 2.0, 1e-12);
}

TEST(EvaluationTest, ErrorPairsAreUnordered) {
  ClassifierEvaluation e;
  e.Observe("x", "y");
  e.Observe("y", "x");
  e.Observe("x", "z");
  const auto& pairs = e.error_pairs();
  EXPECT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs.at(MakeErrorPair("y", "x")), 2u);
  EXPECT_EQ(pairs.at(MakeErrorPair("x", "z")), 1u);
}

TEST(EvaluationTest, MakeErrorPairCanonicalizes) {
  EXPECT_EQ(MakeErrorPair("b", "a"), MakeErrorPair("a", "b"));
  EXPECT_EQ(MakeErrorPair("a", "b").first, "a");
}

TEST(EvaluationTest, NormalizedErrorPairsRankByRelativeConfusion) {
  ClassifierEvaluation e;
  // "big1"/"big2": 100 observations each, 10 confusions -> 10/200 = 0.05.
  for (int i = 0; i < 90; ++i) {
    e.Observe("big1", "big1");
    e.Observe("big2", "big2");
  }
  for (int i = 0; i < 10; ++i) {
    e.Observe("big1", "big2");
    e.Observe("big2", "big2");
  }
  // "small1"/"small2": 5 observations each, 3 confusions -> 3/10 = 0.3.
  for (int i = 0; i < 2; ++i) {
    e.Observe("small1", "small1");
    e.Observe("small2", "small2");
  }
  for (int i = 0; i < 3; ++i) {
    e.Observe("small1", "small2");
    e.Observe("small2", "small1");
  }
  auto ranked = e.NormalizedErrorPairs();
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].first, MakeErrorPair("small1", "small2"));
}

TEST(EvaluationTest, NoErrorsMeansEmptyPairs) {
  ClassifierEvaluation e;
  e.Observe("a", "a");
  EXPECT_TRUE(e.error_pairs().empty());
  EXPECT_TRUE(e.NormalizedErrorPairs().empty());
}

TEST(EvaluationTest, EmptyEvaluationIsZero) {
  ClassifierEvaluation e;
  EXPECT_DOUBLE_EQ(e.Accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(e.MicroF(1.0), 0.0);
  EXPECT_TRUE(e.Labels().empty());
}

// Parameterized sweep: NB accuracy should degrade gracefully as the two
// classes' vocabularies overlap more.
class NaiveBayesOverlapTest : public ::testing::TestWithParam<int> {};

TEST_P(NaiveBayesOverlapTest, AccuracyAboveChance) {
  const int shared = GetParam();  // shared tokens out of 10
  Rng rng(101 + static_cast<uint64_t>(shared));
  std::vector<std::string> vocab_a, vocab_b;
  for (int i = 0; i < 10; ++i) {
    vocab_a.push_back("worda" + std::to_string(i));
    vocab_b.push_back(i < shared ? vocab_a[static_cast<size_t>(i)]
                                 : "wordb" + std::to_string(i));
  }
  NaiveBayesClassifier nb(3);
  auto sentence = [&](const std::vector<std::string>& vocab) {
    std::string s;
    for (int w = 0; w < 3; ++w) {
      s += vocab[rng.NextBounded(vocab.size())] + " ";
    }
    return s;
  };
  for (int i = 0; i < 60; ++i) {
    nb.Train(Value::String(sentence(vocab_a)), "a");
    nb.Train(Value::String(sentence(vocab_b)), "b");
  }
  ClassifierEvaluation eval;
  for (int i = 0; i < 100; ++i) {
    eval.Observe("a", nb.Classify(Value::String(sentence(vocab_a))));
    eval.Observe("b", nb.Classify(Value::String(sentence(vocab_b))));
  }
  // Even at 70% vocabulary overlap the classifier must beat chance.
  EXPECT_GT(eval.Accuracy(), 0.55) << "shared=" << shared;
}

INSTANTIATE_TEST_SUITE_P(OverlapSweep, NaiveBayesOverlapTest,
                         ::testing::Values(0, 3, 5, 7));

}  // namespace
}  // namespace csm
