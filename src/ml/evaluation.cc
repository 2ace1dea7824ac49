#include "ml/evaluation.h"

#include <algorithm>

namespace csm {

ErrorPair MakeErrorPair(const std::string& a, const std::string& b) {
  if (a <= b) return ErrorPair{a, b};
  return ErrorPair{b, a};
}

double FBeta(double precision, double recall, double beta) {
  const double b2 = beta * beta;
  const double denom = b2 * precision + recall;
  if (denom == 0.0) return 0.0;
  return (1.0 + b2) * precision * recall / denom;
}

void ClassifierEvaluation::Observe(const std::string& actual,
                                   const std::string& predicted,
                                   size_t count) {
  total_ += count;
  LabelCounts& actual_counts = labels_[actual];
  actual_counts.actual_total += count;
  if (actual == predicted) {
    correct_ += count;
    actual_counts.true_positive += count;
  } else {
    actual_counts.false_negative += count;
    labels_[predicted].false_positive += count;
    error_pairs_[MakeErrorPair(actual, predicted)] += count;
  }
}

double ClassifierEvaluation::Accuracy() const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(correct_) / static_cast<double>(total_);
}

double ClassifierEvaluation::MicroPrecision() const {
  size_t tp = 0, fp = 0;
  for (const auto& [label, counts] : labels_) {
    tp += counts.true_positive;
    fp += counts.false_positive;
  }
  if (tp + fp == 0) return 0.0;
  return static_cast<double>(tp) / static_cast<double>(tp + fp);
}

double ClassifierEvaluation::MicroRecall() const {
  size_t tp = 0, fn = 0;
  for (const auto& [label, counts] : labels_) {
    tp += counts.true_positive;
    fn += counts.false_negative;
  }
  if (tp + fn == 0) return 0.0;
  return static_cast<double>(tp) / static_cast<double>(tp + fn);
}

double ClassifierEvaluation::MicroF(double beta) const {
  return FBeta(MicroPrecision(), MicroRecall(), beta);
}

double ClassifierEvaluation::MacroF(double beta) const {
  if (labels_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [label, counts] : labels_) {
    sum += FBeta(LabelPrecision(label), LabelRecall(label), beta);
  }
  return sum / static_cast<double>(labels_.size());
}

double ClassifierEvaluation::LabelPrecision(const std::string& label) const {
  auto it = labels_.find(label);
  if (it == labels_.end()) return 0.0;
  size_t denom = it->second.true_positive + it->second.false_positive;
  if (denom == 0) return 0.0;
  return static_cast<double>(it->second.true_positive) /
         static_cast<double>(denom);
}

double ClassifierEvaluation::LabelRecall(const std::string& label) const {
  auto it = labels_.find(label);
  if (it == labels_.end()) return 0.0;
  size_t denom = it->second.true_positive + it->second.false_negative;
  if (denom == 0) return 0.0;
  return static_cast<double>(it->second.true_positive) /
         static_cast<double>(denom);
}

std::vector<std::pair<ErrorPair, double>>
ClassifierEvaluation::NormalizedErrorPairs() const {
  std::vector<std::pair<ErrorPair, double>> out;
  out.reserve(error_pairs_.size());
  for (const auto& [pair, count] : error_pairs_) {
    double freq_a = 0.0, freq_b = 0.0;
    if (auto it = labels_.find(pair.first); it != labels_.end()) {
      freq_a = static_cast<double>(it->second.actual_total);
    }
    if (auto it = labels_.find(pair.second); it != labels_.end()) {
      freq_b = static_cast<double>(it->second.actual_total);
    }
    // Normalize the confusion count by the frequency mass of the two
    // labels; labels never seen as "actual" keep the raw count.
    double denom = freq_a + freq_b;
    double normalized = denom > 0.0
                            ? static_cast<double>(count) / denom
                            : static_cast<double>(count);
    out.emplace_back(pair, normalized);
  }
  // Highest normalized count first; ties lexicographic on the pair.
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

std::vector<std::string> ClassifierEvaluation::Labels() const {
  std::vector<std::string> out;
  out.reserve(labels_.size());
  for (const auto& [label, counts] : labels_) out.push_back(label);
  return out;
}

}  // namespace csm
