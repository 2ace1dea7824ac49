// Categorical-attribute detection, per Section 2.1 of the paper:
//
//   "we consider an attribute a to be categorical if more than 10% of the
//    values of a are associated with more than 1% of the tuples in our
//    sample.  In the case of small samples, at least two values must be
//    associated with at least two tuples."
//
// SplitCategorical classifies every attribute of a sample in one pass and
// keeps the value counts of the categorical ones, which view inference
// reuses as its label lists and label value counts.  String columns count
// dictionary codes through the view's positions.  Numeric columns count
// into the same std::map<Value> TableView::ValueCounts builds, in the same
// row order (so NaN and signed zeros group exactly as there), and stop as
// soon as the distinct count alone rules the attribute out (see
// CategoricalDistinctBound).

#ifndef CSM_RELATIONAL_CATEGORICAL_H_
#define CSM_RELATIONAL_CATEGORICAL_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "relational/table.h"
#include "relational/table_view.h"

namespace csm {

/// Tunable thresholds for the categorical rule; defaults follow the paper.
struct CategoricalOptions {
  /// Fraction of distinct values that must be "frequent" (paper: 10%).
  double value_fraction = 0.10;
  /// A value is "frequent" when it covers more than this fraction of the
  /// sample's tuples (paper: 1%).
  double tuple_fraction = 0.01;
  /// Small-sample guard: at least this many values must each be associated
  /// with at least `min_tuples_per_value` tuples (paper: 2 and 2).
  size_t min_frequent_values = 2;
  size_t min_tuples_per_value = 2;
};

/// Cat(R) and its complement, from one pass over the sample.
struct CategoricalSplit {
  /// Categorical attributes, in schema order.
  std::vector<std::string> categorical;
  /// Non-categorical attributes (the h candidates of ClusteredViewGen), in
  /// schema order.
  std::vector<std::string> non_categorical;
  /// TableView::ValueCounts of each categorical attribute, parallel to
  /// `categorical`.
  std::vector<std::map<Value, size_t>> categorical_counts;

  /// The value counts of categorical attribute `name`; null when `name` is
  /// not categorical.
  const std::map<Value, size_t>* CountsOf(std::string_view name) const;
};

/// Classifies every attribute of `instance` (a Table converts implicitly).
CategoricalSplit SplitCategorical(const TableView& instance,
                                  const CategoricalOptions& options = {});

/// Applies the rule to one attribute of `instance`.  Attributes with no
/// non-null values are never categorical.
bool IsCategoricalAttribute(const TableView& instance,
                            std::string_view attribute,
                            const CategoricalOptions& options = {});

/// The smallest distinct-value count at which the rule can no longer hold,
/// whatever the value counts: each frequent value covers more than
/// tuple_fraction of the tuples, so fewer than 1/tuple_fraction values are
/// frequent, and once the distinct count D reaches that bound over
/// value_fraction the frequent fraction is at most value_fraction.  The
/// bound adds one to both steps so that the floating-point rounding of the
/// rule's own arithmetic cannot cross it.  SIZE_MAX (no bound) when either
/// fraction is not positive or the bound is too large to be exact.
size_t CategoricalDistinctBound(const CategoricalOptions& options);

}  // namespace csm

#endif  // CSM_RELATIONAL_CATEGORICAL_H_
