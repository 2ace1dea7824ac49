#include "core/src_class_infer.h"

#include <algorithm>

#include "core/clustered_view_gen.h"
#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"
#include "obs/trace.h"
#include "relational/categorical.h"

namespace csm {

std::vector<CandidateView> CandidatesFromFamilies(
    const std::vector<ViewFamily>& families) {
  std::vector<CandidateView> out;
  for (const ViewFamily& family : families) {
    for (const View& view : family.views) {
      CandidateView candidate;
      candidate.view = view;
      candidate.family_f1 = family.classifier_f1;
      candidate.family_significance = family.significance;
      candidate.evidence_attribute = family.evidence_attribute;
      out.push_back(std::move(candidate));
    }
  }
  return DeduplicateCandidates(std::move(out));
}

CategoricalSplit SplitSourceCategorical(
    const InferenceInput& input, const CategoricalOptions& categorical) {
  obs::ScopedSpan span(input.obs.tracer, "inference.categorical",
                       input.obs.parent_span);
  return SplitCategorical(input.source_sample, categorical);
}

std::vector<std::string> FilteredLabelAttributes(
    const InferenceInput& input, const CategoricalSplit& split) {
  std::vector<std::string> labels = split.categorical;
  const auto& excluded = input.excluded_partition_attributes;
  std::erase_if(labels, [&](const std::string& name) {
    return std::find(excluded.begin(), excluded.end(), name) != excluded.end();
  });
  return labels;
}

std::vector<CandidateView> SrcClassInfer::InferCandidateViews(
    const InferenceInput& input, Rng& rng) {
  if (input.matches == nullptr || input.matches->empty()) return {};
  if (!input.source_sample.valid() || input.source_sample.num_rows() == 0) {
    return {};
  }
  const CategoricalSplit split = SplitSourceCategorical(input, categorical_);
  std::vector<std::string> labels = FilteredLabelAttributes(input, split);
  if (labels.empty()) return {};
  ClassifierFactory factory =
      [](ValueType evidence_type) -> std::unique_ptr<ValueClassifier> {
    if (evidence_type == ValueType::kInt || evidence_type == ValueType::kReal) {
      return std::make_unique<GaussianClassifier>();
    }
    return std::make_unique<NaiveBayesClassifier>(/*q=*/3);
  };
  std::vector<ViewFamily> families = ClusteredViewGen(
      input.source_sample, factory, clustered_, categorical_,
      input.early_disjuncts, rng, std::move(labels), &split, input.pool,
      input.obs, input.cancel);
  return CandidatesFromFamilies(families);
}

}  // namespace csm
