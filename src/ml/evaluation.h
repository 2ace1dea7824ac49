// Classifier evaluation: confusion counting, micro-averaged precision /
// recall / F_beta (Section 3.2.2 uses F_1 as the view-family quality), and
// the unordered error-pair extraction that drives early-disjunct merging
// (Section 3.3).

#ifndef CSM_ML_EVALUATION_H_
#define CSM_ML_EVALUATION_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace csm {

/// An unordered pair of labels that were confused with each other; `first`
/// is always <= `second` lexicographically.
struct ErrorPair {
  std::string first;
  std::string second;

  friend bool operator==(const ErrorPair& a, const ErrorPair& b) {
    return a.first == b.first && a.second == b.second;
  }
  friend bool operator<(const ErrorPair& a, const ErrorPair& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  }
};

/// Makes the canonical (sorted) ErrorPair for two labels.
ErrorPair MakeErrorPair(const std::string& a, const std::string& b);

/// Accumulates (actual, predicted) observations and reports quality.
class ClassifierEvaluation {
 public:
  ClassifierEvaluation() = default;

  /// Records `count` test examples of label `actual` classified as
  /// `predicted`.  All state is integer counts, so observations commute.
  void Observe(const std::string& actual, const std::string& predicted,
               size_t count = 1);

  size_t total() const { return total_; }
  size_t correct() const { return correct_; }

  /// correct / total; 0 when empty.
  double Accuracy() const;

  /// Micro-averaged precision over labels (sum TP / sum (TP+FP)).
  double MicroPrecision() const;

  /// Micro-averaged recall over labels (sum TP / sum (TP+FN)).
  double MicroRecall() const;

  /// F_beta of the micro-averaged precision/recall; beta=1 by default.
  double MicroF(double beta = 1.0) const;

  /// Macro-averaged F_beta (unweighted mean of per-label F).
  double MacroF(double beta = 1.0) const;

  /// Per-label precision/recall; labels seen as actual or predicted.
  double LabelPrecision(const std::string& label) const;
  double LabelRecall(const std::string& label) const;

  /// Error-pair counts: for each misclassification (actual v, predicted
  /// v'), the unordered pair {v, v'} is counted once (false positives and
  /// false negatives are not distinguished, per Section 3.3).
  const std::map<ErrorPair, size_t>& error_pairs() const {
    return error_pairs_;
  }

  /// The most frequent error pair after normalizing each pair's count by
  /// the frequencies of its two labels (Section 3.3 "after normalizing for
  /// the frequency of v and v'"); nullopt-like empty pair when there were
  /// no errors.  Ties break lexicographically.
  std::vector<std::pair<ErrorPair, double>> NormalizedErrorPairs() const;

  /// Labels observed (as actual or predicted), sorted.
  std::vector<std::string> Labels() const;

  /// Equal totals, per-label confusion counts and error pairs.
  friend bool operator==(const ClassifierEvaluation&,
                         const ClassifierEvaluation&) = default;

 private:
  struct LabelCounts {
    size_t true_positive = 0;
    size_t false_positive = 0;
    size_t false_negative = 0;
    size_t actual_total = 0;

    friend bool operator==(const LabelCounts&, const LabelCounts&) = default;
  };

  size_t total_ = 0;
  size_t correct_ = 0;
  std::map<std::string, LabelCounts> labels_;
  std::map<ErrorPair, size_t> error_pairs_;
};

/// F_beta from precision and recall; 0 when both are 0.
double FBeta(double precision, double recall, double beta = 1.0);

}  // namespace csm

#endif  // CSM_ML_EVALUATION_H_
