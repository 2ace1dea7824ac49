#include "core/naive_infer.h"

#include <algorithm>

#include "core/src_class_infer.h"
#include "relational/categorical.h"

namespace csm {

std::vector<CandidateView> NaiveInfer::InferCandidateViews(
    const InferenceInput& input, Rng& rng) {
  (void)rng;  // NaiveInfer is deterministic.
  std::vector<CandidateView> out;
  if (input.matches == nullptr || input.matches->empty()) return out;
  if (!input.source_sample.valid()) return out;
  const TableView& source = input.source_sample;

  const auto& excluded = input.excluded_partition_attributes;
  const CategoricalSplit split = SplitSourceCategorical(input, categorical_);
  for (size_t li = 0; li < split.categorical.size(); ++li) {
    const std::string& l = split.categorical[li];
    if (std::find(excluded.begin(), excluded.end(), l) != excluded.end()) {
      continue;
    }
    std::vector<Value> values;
    for (const auto& [value, count] : split.categorical_counts[li]) {
      values.push_back(value);
    }
    if (values.size() > max_label_cardinality_) continue;
    // Simple conditions: one view per value.
    for (const Value& value : values) {
      CandidateView candidate;
      candidate.view = View(
          source.name() + "[" + l + "=" + value.ToString() + "]",
          source.name(), Condition::Equals(l, value));
      out.push_back(std::move(candidate));
    }
    // Disjunctive subset conditions under EarlyDisjuncts.  Every non-empty
    // proper subset of size >= 2 becomes a candidate; this is the
    // exponential enumeration the paper warns about (Section 3.3), bounded
    // by `disjunct_limit_` to keep it runnable.
    if (!input.early_disjuncts) continue;
    const size_t n = values.size();
    if (n < 3 || n > disjunct_limit_) continue;
    const uint64_t limit = uint64_t{1} << n;
    for (uint64_t mask = 1; mask + 1 < limit; ++mask) {
      // Skip singletons (already emitted) and require >= 2 members.
      if ((mask & (mask - 1)) == 0) continue;
      std::vector<Value> subset;
      std::string label;
      for (size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1) {
          subset.push_back(values[i]);
          if (!label.empty()) label += "|";
          label += values[i].ToString();
        }
      }
      CandidateView candidate;
      candidate.view =
          View(source.name() + "[" + l + "=" + label + "]", source.name(),
               Condition::In(l, std::move(subset)));
      out.push_back(std::move(candidate));
    }
  }
  return DeduplicateCandidates(std::move(out));
}

}  // namespace csm
