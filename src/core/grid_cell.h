// The counted train/test cycle of one ClusteredViewGen grid cell (l, h).
//
// A cell trains a classifier h -> l on the train split of the sample and
// tests it on the rest; under EarlyDisjuncts it repeats after every merge
// of two label groups.  CountedCell makes one pass over each split into
// (h, l) -> count and never walks the rows again:
//
//   * String evidence is counted.  Training makes one weighted TrainCoded
//     call per distinct (dictionary code, label key) pair; testing
//     classifies each distinct test value once per cycle and observes it
//     `count` times.  A merge relabels the trained classifier
//     (ValueClassifier::MergeLabels) instead of retraining it.
//   * Other evidence keeps row order.  Its classifier (GaussianClassifier)
//     sums floating moments, whose value depends on the order of the rows,
//     so every cycle retrains it row by row, and testing classifies each
//     row.
//
// Both are exact: Naive Bayes, TgtTagClassifier and ClassifierEvaluation
// state is integer counts, and integer sums in doubles do not depend on
// their order, so every log-probability, label, confusion count and error
// pair equals the row-by-row cycle's (check::FuzzContingencyNbEquivalence
// holds them to it).

#ifndef CSM_CORE_GRID_CELL_H_
#define CSM_CORE_GRID_CELL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "ml/evaluation.h"
#include "relational/table_view.h"
#include "relational/value.h"

namespace csm {

/// Builds a fresh classifier suited to evidence attribute values of
/// `evidence_type` (SrcClassInfer: NB for strings, Gaussian for numerics;
/// TgtClassInfer: the tag-and-bestCAT wrapper).
using ClassifierFactory =
    std::function<std::unique_ptr<ValueClassifier>(ValueType evidence_type)>;

/// Tracks the current grouping of label values; a "group" becomes one view
/// of the family (a disjunct after merges).
class LabelGrouping {
 public:
  /// One group per distinct value, in map order.
  explicit LabelGrouping(const std::map<Value, size_t>& value_counts);

  size_t num_groups() const { return groups_.size(); }
  const std::vector<std::vector<Value>>& groups() const { return groups_; }

  /// Canonical token of group `g` (the classifier label): member strings
  /// joined by '\x1f'.
  std::string Token(size_t g) const;

  /// Merges the groups whose tokens are `a` and `b`; returns false if
  /// either token is unknown or they are the same group.
  bool MergeByTokens(const std::string& a, const std::string& b);

 private:
  std::vector<std::vector<Value>> groups_;
};

/// A label column of the sample as dense per-row keys: two rows share a key
/// iff their cells are identical (same dictionary code, or the same numeric
/// bits), so a key resolves to a label group exactly as each of its rows'
/// values would.
struct LabelKeys {
  static constexpr uint32_t kNull = 0xffffffffu;

  /// Key of each sample row; kNull for NULL cells.
  std::vector<uint32_t> row_keys;
  /// The cell value of each key.
  std::vector<Value> values;

  static LabelKeys Build(const TableView& sample, size_t col);
};

/// One doTraining + doTesting cycle's result.
struct CellOutcome {
  ClassifierEvaluation eval;
  double most_common_fraction = 0.0;
  size_t train_count = 0;
};

/// The (h, l) contingency of one grid cell and its classifier across the
/// cycles of a merge loop.  `sample`, `label` and `factory` must outlive
/// the cell.  Not thread-safe; each grid cell owns one.
class CountedCell {
 public:
  /// `train_rows` / `test_rows` are sample row indices (SplitPositions).
  CountedCell(const TableView& sample, size_t h_col, const LabelKeys& label,
              const PosList& train_rows, const PosList& test_rows,
              const ClassifierFactory& factory);

  /// Trains under `grouping` and tests.  `merged` names the two group
  /// tokens merged into `grouping` since the previous cycle (null on the
  /// first cycle): the trained classifier then merges the two labels
  /// instead of retraining, when that is exact.
  CellOutcome Cycle(const LabelGrouping& grouping, const ErrorPair* merged);

  /// The classifier of the last cycle (null before the first).
  const ValueClassifier* classifier() const { return classifier_.get(); }

  /// Classifier training calls so far: one per distinct (h, l) pair for
  /// string evidence, one per row otherwise.
  uint64_t training_calls() const { return training_calls_; }

 private:
  /// `count` rows with evidence `h` (a dictionary code for string
  /// evidence, else a base row position) and label key `l`.
  struct Pair {
    uint32_t h;
    uint32_t l;
    size_t count;
  };

  std::vector<Pair> Contingency(const TableView& sample,
                                const PosList& rows) const;
  /// Resolves every label key to its group token under `grouping` into
  /// key_tokens_ (null: the value is in no group).
  void ResolveTokens(const LabelGrouping& grouping);
  /// Whether relabeling the previous cycle's tokens by `merged` gives
  /// exactly this cycle's tokens; sets `*merged_token` to the merged
  /// group's token, or null when no key carried either merged token.
  bool MergeIsExact(const ErrorPair& merged,
                    const std::string** merged_token) const;
  void Train();

  const Column& h_column_;
  const ValueType h_type_;
  const bool coded_;
  const LabelKeys& label_;
  const ClassifierFactory& factory_;
  std::vector<Pair> train_;
  std::vector<Pair> test_;
  std::unique_ptr<ValueClassifier> classifier_;
  uint64_t training_calls_ = 0;
  /// Group tokens of this / the previous cycle, and each label key's token.
  std::vector<std::string> tokens_, prev_tokens_;
  std::vector<const std::string*> key_tokens_, prev_key_tokens_;
};

}  // namespace csm

#endif  // CSM_CORE_GRID_CELL_H_
