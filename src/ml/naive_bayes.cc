#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "text/tokenizer.h"

namespace csm {
namespace {

/// Per-thread tokenization scratch (normalized text / gram strings / ids /
/// local indices), so training and classification allocate nothing.
struct TokenScratch {
  std::string padded;
  std::vector<std::string> gram_strings;
  std::vector<GramId> ids;
  std::vector<uint32_t> local;
};

TokenScratch& LocalScratch() {
  static thread_local TokenScratch scratch;
  return scratch;
}

}  // namespace

NaiveBayesClassifier::NaiveBayesClassifier(
    NaiveBayesClassifier&& other) noexcept
    : q_(other.q_),
      smoothing_(other.smoothing_),
      total_examples_(other.total_examples_),
      labels_(std::move(other.labels_)),
      vocabulary_(std::move(other.vocabulary_)),
      gram_interner_(std::move(other.gram_interner_)),
      finalized_(other.finalized_),
      model_(std::move(other.model_)) {}

NaiveBayesClassifier& NaiveBayesClassifier::operator=(
    NaiveBayesClassifier&& other) noexcept {
  if (this == &other) return *this;
  q_ = other.q_;
  smoothing_ = other.smoothing_;
  total_examples_ = other.total_examples_;
  labels_ = std::move(other.labels_);
  vocabulary_ = std::move(other.vocabulary_);
  gram_interner_ = std::move(other.gram_interner_);
  finalized_ = other.finalized_;
  model_ = std::move(other.model_);
  return *this;
}

void NaiveBayesClassifier::TokenizeTrain(std::string_view text,
                                         std::vector<GramId>* out) {
  out->clear();
  if (Packed()) {
    AppendPackedQGrams(text, q_, &LocalScratch().padded, out);
    return;
  }
  if (gram_interner_ == nullptr) {
    gram_interner_ = std::make_unique<TokenInterner>();
  }
  std::vector<std::string>& grams = LocalScratch().gram_strings;
  QGrams(text, q_, &grams);
  out->reserve(grams.size());
  for (const std::string& gram : grams) {
    out->push_back(gram_interner_->GetOrAdd(gram));
  }
}

void NaiveBayesClassifier::TokenizeLookup(std::string_view text,
                                          std::vector<GramId>* out) const {
  out->clear();
  if (Packed()) {
    AppendPackedQGrams(text, q_, &LocalScratch().padded, out);
    return;
  }
  std::vector<std::string>& grams = LocalScratch().gram_strings;
  QGrams(text, q_, &grams);
  out->reserve(grams.size());
  for (const std::string& gram : grams) {
    out->push_back(gram_interner_ == nullptr ? kNoGramId
                                             : gram_interner_->Find(gram));
  }
}

void NaiveBayesClassifier::TrainTokens(const std::vector<GramId>& grams,
                                       const std::string& label,
                                       size_t count) {
  // Integer counts in doubles: adding `count` once is exactly `count`
  // additions of 1.0.
  const double weight = static_cast<double>(count);
  LabelStats& stats = labels_[label];
  stats.example_count += count;
  total_examples_ += count;
  uint64_t fresh = 0;
  for (GramId gram : grams) {
    stats.token_counts[gram] += weight;
    stats.token_total += weight;
    if (vocabulary_.insert(gram).second) ++fresh;
  }
  if (fresh > 0) {
    GlobalTokenKernelStats().grams_interned.fetch_add(
        fresh, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(model_mu_);
  finalized_ = false;
}

void NaiveBayesClassifier::Train(const Value& input, const std::string& label) {
  if (input.is_null()) return;
  std::vector<GramId>& ids = LocalScratch().ids;
  TokenizeTrain(input.ToString(), &ids);
  TrainTokens(ids, label, 1);
}

void NaiveBayesClassifier::TrainCoded(const StringDictionary& dict,
                                      uint32_t code, const std::string& label,
                                      size_t count) {
  if (code == kNullCode || count == 0) return;
  std::vector<GramId>& ids = LocalScratch().ids;
  TokenizeTrain(dict.value(code), &ids);
  TrainTokens(ids, label, count);
}

bool NaiveBayesClassifier::MergeLabels(const std::string& a,
                                       const std::string& b,
                                       const std::string& merged) {
  LabelStats sum;
  bool any = false;
  for (const std::string* name : {&a, &b}) {
    auto it = labels_.find(*name);
    if (it == labels_.end()) continue;
    any = true;
    sum.example_count += it->second.example_count;
    sum.token_total += it->second.token_total;
    for (const auto& [gram, count] : it->second.token_counts) {
      sum.token_counts[gram] += count;
    }
    labels_.erase(it);
  }
  if (!any) return true;
  LabelStats& target = labels_[merged];
  target.example_count += sum.example_count;
  target.token_total += sum.token_total;
  for (const auto& [gram, count] : sum.token_counts) {
    target.token_counts[gram] += count;
  }
  std::lock_guard<std::mutex> lock(model_mu_);
  finalized_ = false;
  return true;
}

const NaiveBayesClassifier::Model& NaiveBayesClassifier::Finalized() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  if (finalized_) return model_;
  Model model;
  model.vocabulary.assign(vocabulary_.begin(), vocabulary_.end());
  std::sort(model.vocabulary.begin(), model.vocabulary.end());
  const size_t row = model.row_size();
  model.log_probs.resize(labels_.size() * row);
  const double num_labels = static_cast<double>(labels_.size());
  const double vocab = static_cast<double>(vocabulary_.size());
  size_t l = 0;
  for (const auto& [label, stats] : labels_) {
    model.labels.push_back(&label);
    model.example_counts.push_back(stats.example_count);
    // The exact expressions of the original per-call implementation, so the
    // precomputed doubles are bit-identical to recomputing them per row.
    model.log_priors.push_back(std::log(
        (static_cast<double>(stats.example_count) + smoothing_) /
        (static_cast<double>(total_examples_) + smoothing_ * num_labels)));
    const double denom = stats.token_total + smoothing_ * (vocab + 1.0);
    double* terms = model.log_probs.data() + l * row;
    std::fill(terms, terms + row, std::log((0.0 + smoothing_) / denom));
    for (const auto& [gram, count] : stats.token_counts) {
      const size_t local = static_cast<size_t>(
          std::lower_bound(model.vocabulary.begin(), model.vocabulary.end(),
                           gram) -
          model.vocabulary.begin());
      terms[local] = std::log((count + smoothing_) / denom);
    }
    ++l;
  }
  model_ = std::move(model);
  finalized_ = true;
  return model_;
}

void NaiveBayesClassifier::LocalIds(const Model& model,
                                    const std::vector<GramId>& grams,
                                    std::vector<uint32_t>* out) {
  const uint32_t unseen = static_cast<uint32_t>(model.vocabulary.size());
  out->clear();
  out->reserve(grams.size());
  for (GramId gram : grams) {
    uint32_t local = unseen;
    if (gram != kNoGramId) {
      auto it = std::lower_bound(model.vocabulary.begin(),
                                 model.vocabulary.end(), gram);
      if (it != model.vocabulary.end() && *it == gram) {
        local = static_cast<uint32_t>(it - model.vocabulary.begin());
      }
    }
    out->push_back(local);
  }
}

double NaiveBayesClassifier::ScoreLabel(const Model& model, size_t l,
                                        const std::vector<uint32_t>& local) {
  const double* terms = model.log_probs.data() + l * model.row_size();
  double score = model.log_priors[l];
  for (uint32_t index : local) score += terms[index];
  return score;
}

double NaiveBayesClassifier::LogScore(const Value& input,
                                      const std::string& label) const {
  auto it = labels_.find(label);
  if (it == labels_.end() || total_examples_ == 0) {
    return -std::numeric_limits<double>::infinity();
  }
  const Model& model = Finalized();
  const size_t index =
      static_cast<size_t>(std::distance(labels_.begin(), it));
  TokenScratch& scratch = LocalScratch();
  TokenizeLookup(input.ToString(), &scratch.ids);
  LocalIds(model, scratch.ids, &scratch.local);
  return ScoreLabel(model, index, scratch.local);
}

std::string NaiveBayesClassifier::ClassifyTokens(
    const std::vector<GramId>& grams) const {
  const Model& model = Finalized();
  std::vector<uint32_t>& local = LocalScratch().local;
  LocalIds(model, grams, &local);
  const std::string* best = nullptr;
  double best_score = -std::numeric_limits<double>::infinity();
  size_t best_frequency = 0;
  for (size_t l = 0; l < model.labels.size(); ++l) {
    const double score = ScoreLabel(model, l, local);
    // Ties break toward the more frequent label, then lexicographically
    // (model order == label map order), for determinism.
    if (score > best_score ||
        (score == best_score && model.example_counts[l] > best_frequency)) {
      best = model.labels[l];
      best_score = score;
      best_frequency = model.example_counts[l];
    }
  }
  return best == nullptr ? "" : *best;
}

std::string NaiveBayesClassifier::Classify(const Value& input) const {
  if (labels_.empty() || input.is_null()) return "";
  std::vector<GramId>& ids = LocalScratch().ids;
  TokenizeLookup(input.ToString(), &ids);
  return ClassifyTokens(ids);
}

std::string NaiveBayesClassifier::ClassifyCoded(const StringDictionary& dict,
                                                uint32_t code) const {
  if (labels_.empty() || code == kNullCode) return "";
  std::vector<GramId>& ids = LocalScratch().ids;
  TokenizeLookup(dict.value(code), &ids);
  return ClassifyTokens(ids);
}

std::vector<std::string> NaiveBayesClassifier::Labels() const {
  std::vector<std::string> out;
  out.reserve(labels_.size());
  for (const auto& [label, stats] : labels_) out.push_back(label);
  return out;
}

}  // namespace csm
