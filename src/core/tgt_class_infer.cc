#include "core/tgt_class_infer.h"

#include "common/logging.h"
#include "core/clustered_view_gen.h"
#include "core/src_class_infer.h"
#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"

namespace csm {

std::unique_ptr<ValueClassifier> CreateTargetClassifier(
    ValueType type, const Database& target_sample) {
  std::unique_ptr<ValueClassifier> classifier;
  if (type == ValueType::kInt || type == ValueType::kReal) {
    classifier = std::make_unique<GaussianClassifier>();
  } else {
    classifier = std::make_unique<NaiveBayesClassifier>(/*q=*/3);
  }
  bool trained_any = false;
  for (const Table& table : target_sample.tables()) {
    for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
      const AttributeDef& attr = table.schema().attribute(c);
      // Numeric classifiers accept both int and real columns; the string
      // classifier takes string columns only.
      const bool numeric_type =
          type == ValueType::kInt || type == ValueType::kReal;
      const bool numeric_attr =
          attr.type == ValueType::kInt || attr.type == ValueType::kReal;
      if (numeric_type != numeric_attr) continue;
      if (!numeric_type && attr.type != type) continue;
      const std::string label = table.name() + "." + attr.name;
      if (attr.type == ValueType::kString) {
        // Counted: each distinct value trains once, weighted by its
        // occurrences (the classifier's state is integer counts).
        const Column& column = table.column(c);
        const StringDictionary& dict = column.dictionary();
        std::vector<size_t> per_code(dict.size(), 0);
        for (uint32_t code : column.codes()) {
          if (code != kNullCode) ++per_code[code];
        }
        for (uint32_t code = 0; code < per_code.size(); ++code) {
          if (per_code[code] == 0) continue;
          classifier->TrainCoded(dict, code, label, per_code[code]);
          trained_any = true;
        }
        continue;
      }
      for (const Value& value : table.ValueBag(c)) {
        if (value.is_null()) continue;
        classifier->Train(value, label);
        trained_any = true;
      }
    }
  }
  if (!trained_any) return nullptr;
  return classifier;
}

void MemoizedTagger::Train(const Value&, const std::string&) {
  CSM_CHECK(false) << "MemoizedTagger wraps an already trained tagger";
}

std::string MemoizedTagger::ClassifyCoded(const StringDictionary& dict,
                                          uint32_t code) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto dict_it = memo_.find(&dict);
    if (dict_it != memo_.end()) {
      auto it = dict_it->second.find(code);
      if (it != dict_it->second.end()) {
        GlobalTokenKernelStats().nb_memo_hits.fetch_add(
            1, std::memory_order_relaxed);
        return it->second;
      }
    }
  }
  // Miss: classify outside the lock (a racing duplicate computes the same
  // deterministic tag), then publish.
  std::string tag = tagger_->ClassifyCoded(dict, code);
  std::lock_guard<std::mutex> lock(mu_);
  memo_[&dict].emplace(code, tag);
  return tag;
}

std::string TgtTagClassifier::Tag(const Value& input) const {
  if (tagger_ == nullptr) return "";
  return tagger_->Classify(input);
}

std::string TgtTagClassifier::TagCoded(const StringDictionary& dict,
                                       uint32_t code) const {
  if (tagger_ == nullptr) return "";
  return tagger_->ClassifyCoded(dict, code);
}

void TgtTagClassifier::AddToBag(const std::string& tag,
                                const std::string& label, size_t count) {
  tbag_[{tag, label}] += count;
  tag_totals_[tag] += count;
  label_totals_[label] += count;
  total_ += count;
}

void TgtTagClassifier::Train(const Value& input, const std::string& label) {
  if (input.is_null()) return;
  AddToBag(Tag(input), label, 1);
}

void TgtTagClassifier::TrainCoded(const StringDictionary& dict, uint32_t code,
                                  const std::string& label, size_t count) {
  if (code == kNullCode || count == 0) return;
  AddToBag(TagCoded(dict, code), label, count);
}

bool TgtTagClassifier::MergeLabels(const std::string& a, const std::string& b,
                                   const std::string& merged) {
  // Collect first: `merged` may already be a label (token collisions).
  std::map<std::string, size_t> moved_tags;
  size_t moved_total = 0;
  for (const std::string* label : {&a, &b}) {
    auto total_it = label_totals_.find(*label);
    if (total_it == label_totals_.end()) continue;
    moved_total += total_it->second;
    label_totals_.erase(total_it);
    for (auto it = tbag_.begin(); it != tbag_.end();) {
      if (it->first.second == *label) {
        moved_tags[it->first.first] += it->second;
        it = tbag_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (moved_total == 0) return true;
  label_totals_[merged] += moved_total;
  for (const auto& [tag, count] : moved_tags) tbag_[{tag, merged}] += count;
  return true;
}

double TgtTagClassifier::Score(const std::string& tag,
                               const std::string& label) const {
  auto it = tbag_.find({tag, label});
  if (it == tbag_.end()) return 0.0;
  const double joint = static_cast<double>(it->second);
  const double tag_total =
      static_cast<double>(tag_totals_.at(tag));        // P(v|g) denominator
  const double label_total =
      static_cast<double>(label_totals_.at(label));    // P(g|v) denominator
  return (joint / tag_total) * (joint / label_total);
}

std::string TgtTagClassifier::BestCat(const std::string& tag) const {
  std::string best;
  double best_score = -1.0;
  size_t best_frequency = 0;
  bool tag_seen = tag_totals_.count(tag) > 0;
  for (const auto& [label, frequency] : label_totals_) {
    double score = tag_seen ? Score(tag, label) : 0.0;
    // Ties (including the unseen-tag case where all scores are 0) break
    // toward the more common label, then map order for determinism.
    if (score > best_score ||
        (score == best_score && frequency > best_frequency)) {
      best = label;
      best_score = score;
      best_frequency = frequency;
    }
  }
  return best;
}

std::string TgtTagClassifier::Classify(const Value& input) const {
  if (total_ == 0 || input.is_null()) return "";
  return BestCat(Tag(input));
}

std::string TgtTagClassifier::ClassifyCoded(const StringDictionary& dict,
                                            uint32_t code) const {
  if (total_ == 0 || code == kNullCode) return "";
  return BestCat(TagCoded(dict, code));
}

std::vector<std::string> TgtTagClassifier::Labels() const {
  std::vector<std::string> out;
  out.reserve(label_totals_.size());
  for (const auto& [label, count] : label_totals_) out.push_back(label);
  return out;
}

std::vector<CandidateView> TgtClassInfer::InferCandidateViews(
    const InferenceInput& input, Rng& rng) {
  if (input.matches == nullptr || input.matches->empty()) return {};
  if (!input.source_sample.valid() || input.source_sample.num_rows() == 0) {
    return {};
  }
  CSM_CHECK(input.target_sample != nullptr);
  const CategoricalSplit split = SplitSourceCategorical(input, categorical_);
  std::vector<std::string> labels = FilteredLabelAttributes(input, split);
  if (labels.empty()) return {};

  // One shared target classifier per basic type family; the string tagger
  // memoizes per distinct value across cells.
  std::shared_ptr<const ValueClassifier> string_tagger;
  if (auto tagger =
          CreateTargetClassifier(ValueType::kString, *input.target_sample)) {
    string_tagger = std::make_shared<MemoizedTagger>(std::move(tagger));
  }
  auto numeric_tagger = std::shared_ptr<const ValueClassifier>(
      CreateTargetClassifier(ValueType::kReal, *input.target_sample));

  ClassifierFactory factory =
      [&](ValueType evidence_type) -> std::unique_ptr<ValueClassifier> {
    if (evidence_type == ValueType::kInt ||
        evidence_type == ValueType::kReal) {
      return std::make_unique<TgtTagClassifier>(numeric_tagger);
    }
    return std::make_unique<TgtTagClassifier>(string_tagger);
  };
  std::vector<ViewFamily> families = ClusteredViewGen(
      input.source_sample, factory, clustered_, categorical_,
      input.early_disjuncts, rng, std::move(labels), &split, input.pool,
      input.obs, input.cancel);
  return CandidatesFromFamilies(families);
}

}  // namespace csm
