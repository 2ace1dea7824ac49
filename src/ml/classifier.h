// Single-label classifier interface used by ClusteredViewGen (Fig. 6).
//
// A classifier maps a scalar Value (a cell of the evidence attribute h) to
// a label string.  For SrcClassInfer labels are the categorical values of
// l; for TgtClassInfer's per-type target classifiers labels are target
// column names ("Book.Title").

#ifndef CSM_ML_CLASSIFIER_H_
#define CSM_ML_CLASSIFIER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "relational/column.h"
#include "relational/value.h"

namespace csm {

class ValueClassifier {
 public:
  virtual ~ValueClassifier() = default;

  /// Adds one training example.  NULL inputs are ignored.
  virtual void Train(const Value& input, const std::string& label) = 0;

  /// Classifies `input`.  Returns the empty string when the classifier has
  /// seen no training data (or cannot score the input at all).
  virtual std::string Classify(const Value& input) const = 0;

  /// Coded fast path: `count` examples of cell `code` of a
  /// dictionary-encoded string column, all labeled `label`.  Semantically
  /// identical to `count` Train calls on the boxed cell (kNullCode behaves
  /// as NULL); classifiers whose state is integer counts absorb them as one
  /// weighted update.  The default falls back to the Value path.
  virtual void TrainCoded(const StringDictionary& dict, uint32_t code,
                          const std::string& label, size_t count = 1) {
    if (code == kNullCode) return;
    const Value input = Value::String(dict.value(code));
    for (size_t i = 0; i < count; ++i) Train(input, label);
  }
  virtual std::string ClassifyCoded(const StringDictionary& dict,
                                    uint32_t code) const {
    if (code == kNullCode) return Classify(Value::Null());
    return Classify(Value::String(dict.value(code)));
  }

  /// Relabels every example of labels `a` and `b` as `merged` (adding to
  /// `merged`'s examples if it exists), leaving the classifier exactly as if
  /// it had been trained on the relabeled examples from scratch.  Returns
  /// false, changing nothing, when the classifier cannot merge exactly
  /// (its state depends on training order); the caller then retrains.
  virtual bool MergeLabels(const std::string& /*a*/,
                           const std::string& /*b*/,
                           const std::string& /*merged*/) {
    return false;
  }

  /// Distinct labels seen during training, sorted.
  virtual std::vector<std::string> Labels() const = 0;

  /// Total number of training examples absorbed.
  virtual size_t TrainingSize() const = 0;
};

}  // namespace csm

#endif  // CSM_ML_CLASSIFIER_H_
