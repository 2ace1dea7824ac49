// SrcClassInfer (Section 3.2.3): train the ClusteredViewGen classifier
// directly on source values — Naive Bayes over 3-grams for text evidence
// attributes, a Gaussian statistical classifier for numeric ones.

#ifndef CSM_CORE_SRC_CLASS_INFER_H_
#define CSM_CORE_SRC_CLASS_INFER_H_

#include "core/view_inference.h"
#include "relational/categorical.h"

namespace csm {

class SrcClassInfer : public ViewInference {
 public:
  SrcClassInfer(ClusteredViewGenOptions clustered,
                CategoricalOptions categorical)
      : clustered_(clustered), categorical_(categorical) {}

  std::string Name() const override { return "SrcClassInfer"; }

  std::vector<CandidateView> InferCandidateViews(const InferenceInput& input,
                                                 Rng& rng) override;

 private:
  ClusteredViewGenOptions clustered_;
  CategoricalOptions categorical_;
};

/// Converts accepted families into the flat candidate list (shared with
/// TgtClassInfer).
std::vector<CandidateView> CandidatesFromFamilies(
    const std::vector<ViewFamily>& families);

/// The source sample's categorical split, traced as the
/// "inference.categorical" span under the input's parent span (shared with
/// TgtClassInfer and NaiveInfer).
CategoricalSplit SplitSourceCategorical(const InferenceInput& input,
                                        const CategoricalOptions& categorical);

/// The split's categorical attributes minus the input's excluded partition
/// attributes (shared with TgtClassInfer).  Callers should skip inference
/// when it is empty.
std::vector<std::string> FilteredLabelAttributes(
    const InferenceInput& input, const CategoricalSplit& split);

}  // namespace csm

#endif  // CSM_CORE_SRC_CLASS_INFER_H_
