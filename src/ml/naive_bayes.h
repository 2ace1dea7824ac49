// Multinomial Naive Bayes over 3-gram tokens (Section 3.2.3: "If h is a
// text attribute, a standard Naive Bayesian classifier is used, with the
// values tokenized into 3-grams").
//
// Internally the classifier runs on the interned token kernel (text/gram.h):
// grams are packed uint32 ids (q <= 4) or interned ids (larger q), and
// per-label counts live in hash maps during training.  All training state
// is integer counts held in doubles, so a weighted TrainCoded call and a
// label merge (MergeLabels) leave it exactly as the equivalent row-by-row
// training would.  The first classification finalizes the counts into a
// label-major table over the vocabulary: each trained gram gets a dense
// local index, each label a row of log-probabilities (the last slot is the
// unseen-gram term), so scoring costs one gram lookup plus one array load
// per label.  Scores are bit-identical to the original map-of-strings
// implementation: every log term is the same std::log((count + alpha) /
// denom) double, summed in the same per-occurrence order.
//
// Thread safety: training is single-writer (no concurrent reads), after
// which any number of threads may classify concurrently — the lazy
// finalize is mutex-guarded.

#ifndef CSM_ML_NAIVE_BAYES_H_
#define CSM_ML_NAIVE_BAYES_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ml/classifier.h"
#include "text/gram.h"

namespace csm {

/// Multinomial NB with Laplace smoothing.  Inputs are rendered to text
/// (numerics via ToString) and tokenized into padded q-grams.
class NaiveBayesClassifier : public ValueClassifier {
 public:
  /// `q` is the gram length (paper: 3).  `smoothing` is the Laplace alpha.
  explicit NaiveBayesClassifier(size_t q = 3, double smoothing = 1.0)
      : q_(q), smoothing_(smoothing) {}

  /// Movable (single-threaded by contract: no concurrent access to either
  /// side during the move); the mutex of the destination starts fresh.
  NaiveBayesClassifier(NaiveBayesClassifier&& other) noexcept;
  NaiveBayesClassifier& operator=(NaiveBayesClassifier&& other) noexcept;

  void Train(const Value& input, const std::string& label) override;
  std::string Classify(const Value& input) const override;

  /// Coded fast path: reads the dictionary string without boxing and adds
  /// `count` examples in one weighted update.
  void TrainCoded(const StringDictionary& dict, uint32_t code,
                  const std::string& label, size_t count = 1) override;
  std::string ClassifyCoded(const StringDictionary& dict,
                            uint32_t code) const override;

  /// Sums the two labels' example counts, token totals and token counts.
  bool MergeLabels(const std::string& a, const std::string& b,
                   const std::string& merged) override;

  std::vector<std::string> Labels() const override;
  size_t TrainingSize() const override { return total_examples_; }

  /// Log posterior (up to the shared evidence term) of `label` for `input`;
  /// -inf for labels never seen.  Exposed for tests and for TgtClassInfer's
  /// tie diagnostics.
  double LogScore(const Value& input, const std::string& label) const;

 private:
  struct LabelStats {
    size_t example_count = 0;
    double token_total = 0.0;
    std::unordered_map<GramId, double> token_counts;
  };

  /// Finalized scoring model, labels in labels_ (lexicographic) order.
  struct Model {
    /// The trained vocabulary, sorted; a gram's local index is its rank.
    std::vector<GramId> vocabulary;
    std::vector<const std::string*> labels;
    std::vector<size_t> example_counts;
    std::vector<double> log_priors;
    /// Label-major: row l holds vocabulary.size() + 1 terms; the last is
    /// log((0 + alpha) / denom), the term of a gram label l never saw.
    std::vector<double> log_probs;

    size_t row_size() const { return vocabulary.size() + 1; }
  };

  bool Packed() const { return q_ <= kMaxPackedGramQ; }

  /// Tokenizes `text` into gram ids, interning unseen word-grams in the
  /// q > kMaxPackedGramQ fallback (training path, single-writer).
  void TokenizeTrain(std::string_view text, std::vector<GramId>* out);

  /// Lookup-only tokenization; unseen word-grams map to kNoGramId, which
  /// scoring treats as unseen.  Safe for concurrent readers.
  void TokenizeLookup(std::string_view text, std::vector<GramId>* out) const;

  void TrainTokens(const std::vector<GramId>& grams, const std::string& label,
                   size_t count);

  /// Builds model_ on first use after training; thread-safe.
  const Model& Finalized() const;

  /// Maps grams to local indices (row_size() - 1 when untrained).
  static void LocalIds(const Model& model, const std::vector<GramId>& grams,
                       std::vector<uint32_t>* out);

  /// Label `l`'s score: its log-prior plus its term of every gram, summed
  /// in gram order.
  static double ScoreLabel(const Model& model, size_t l,
                           const std::vector<uint32_t>& local);

  /// Classify over pre-tokenized input (the shared tie-break loop).
  std::string ClassifyTokens(const std::vector<GramId>& grams) const;

  size_t q_;
  double smoothing_;
  size_t total_examples_ = 0;
  std::map<std::string, LabelStats> labels_;
  std::unordered_set<GramId> vocabulary_;

  /// Interner for the q > kMaxPackedGramQ fallback (mutated during
  /// training only).
  std::unique_ptr<TokenInterner> gram_interner_;

  // Lazily finalized model; see class comment.
  mutable std::mutex model_mu_;
  mutable bool finalized_ = false;  // guarded by model_mu_
  mutable Model model_;
};

}  // namespace csm

#endif  // CSM_ML_NAIVE_BAYES_H_
