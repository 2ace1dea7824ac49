// TgtClassInfer (Section 3.2.4): tag source values with the target column
// they most resemble, then learn the tag -> categorical-value association.
//
// createTargetClassifier(D, Rt) trains, per basic type D, a classifier over
// all target columns of that type whose labels are column names
// ("Book.Title").  During ClusteredViewGen's doTraining the TBag of (tag,
// label) pairs is collected; classification returns
// bestCAT(tag) = argmax_v score(tag, v) where
// score(g, v) = acc(g, v) * prec(g, v) = P(v|g) * P(g|v),
// ties broken toward the more common v, and unseen tags map to the most
// common label (the paper allows an arbitrary choice; we pick the most
// common for determinism).

#ifndef CSM_CORE_TGT_CLASS_INFER_H_
#define CSM_CORE_TGT_CLASS_INFER_H_

#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/view_inference.h"
#include "ml/classifier.h"

namespace csm {

/// Trains the per-type target classifier C_D over the sample of the target
/// database: every non-null value of every attribute of type `type` becomes
/// a training example labeled with its column name.  Returns nullptr when
/// the target has no attribute of that type.
std::unique_ptr<ValueClassifier> CreateTargetClassifier(
    ValueType type, const Database& target_sample);

/// A trained tagger shared read-only by every grid cell, with a memo of
/// ClassifyCoded per (dictionary, code): the cells of one evidence
/// attribute tag each distinct value once between them.  Memo hits count
/// into TokenKernelStats::nb_memo_hits.  Thread-safe for classification;
/// the wrapped tagger must be fully trained (Train CHECK-fails).
class MemoizedTagger : public ValueClassifier {
 public:
  explicit MemoizedTagger(std::unique_ptr<ValueClassifier> tagger)
      : tagger_(std::move(tagger)) {}

  void Train(const Value& input, const std::string& label) override;
  std::string Classify(const Value& input) const override {
    return tagger_->Classify(input);
  }
  std::string ClassifyCoded(const StringDictionary& dict,
                            uint32_t code) const override;
  std::vector<std::string> Labels() const override {
    return tagger_->Labels();
  }
  size_t TrainingSize() const override { return tagger_->TrainingSize(); }

 private:
  std::unique_ptr<ValueClassifier> tagger_;
  mutable std::mutex mu_;
  mutable std::unordered_map<const StringDictionary*,
                             std::unordered_map<uint32_t, std::string>>
      memo_;  // guarded by mu_
};

/// The TBag / bestCAT wrapper: a ValueClassifier whose labels are
/// categorical values, driven by a shared per-type target classifier.
class TgtTagClassifier : public ValueClassifier {
 public:
  /// `tagger` assigns target-column tags; shared across (h, l) pairs of the
  /// same evidence type.  May be null (everything maps to the most common
  /// label).
  explicit TgtTagClassifier(std::shared_ptr<const ValueClassifier> tagger)
      : tagger_(std::move(tagger)) {}

  void Train(const Value& input, const std::string& label) override;
  std::string Classify(const Value& input) const override;
  /// Coded fast paths: hand the dictionary code straight to the shared
  /// tagger (a MemoizedTagger keys its memo on it); TrainCoded tags once and
  /// adds `count` to the TBag.
  void TrainCoded(const StringDictionary& dict, uint32_t code,
                  const std::string& label, size_t count = 1) override;
  std::string ClassifyCoded(const StringDictionary& dict,
                            uint32_t code) const override;
  /// Sums the two labels' TBag columns and totals.
  bool MergeLabels(const std::string& a, const std::string& b,
                   const std::string& merged) override;
  std::vector<std::string> Labels() const override;
  size_t TrainingSize() const override { return total_; }

  /// bestCAT for a raw tag (exposed for tests).
  std::string BestCat(const std::string& tag) const;

  /// score(g, v) = P(v|g) * P(g|v); 0 when unseen.
  double Score(const std::string& tag, const std::string& label) const;

 private:
  std::string Tag(const Value& input) const;
  std::string TagCoded(const StringDictionary& dict, uint32_t code) const;
  void AddToBag(const std::string& tag, const std::string& label,
                size_t count);

  std::shared_ptr<const ValueClassifier> tagger_;
  /// TBag counts: (tag, label) -> occurrences.
  std::map<std::pair<std::string, std::string>, size_t> tbag_;
  std::map<std::string, size_t> tag_totals_;
  std::map<std::string, size_t> label_totals_;
  size_t total_ = 0;
};

class TgtClassInfer : public ViewInference {
 public:
  TgtClassInfer(ClusteredViewGenOptions clustered,
                CategoricalOptions categorical)
      : clustered_(clustered), categorical_(categorical) {}

  std::string Name() const override { return "TgtClassInfer"; }

  std::vector<CandidateView> InferCandidateViews(const InferenceInput& input,
                                                 Rng& rng) override;

 private:
  ClusteredViewGenOptions clustered_;
  CategoricalOptions categorical_;
};

}  // namespace csm

#endif  // CSM_CORE_TGT_CLASS_INFER_H_
