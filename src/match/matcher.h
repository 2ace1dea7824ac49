// The base matcher framework of Section 2.3: a standard instance-based
// schema matching system employs a variety of "matchers" that each compute
// a raw similarity score for a (source attribute, target attribute) pair.

#ifndef CSM_MATCH_MATCHER_H_
#define CSM_MATCH_MATCHER_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "match/attribute_codes.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "stats/descriptive.h"
#include "text/gram.h"

namespace csm {

/// The evidence a matcher sees for one attribute: its identity, type and
/// value bag v(R, a).  Token profiles and numeric statistics are built
/// lazily and cached, so a sample kept alive across many Score() calls
/// (e.g., a target attribute compared against many candidate views) pays
/// the tokenization cost once.
///
/// Two storage modes:
///   * Coded (FromTable, FromPositions): a shared AttributeCodes
///     (match/attribute_codes.h) plus a row position list.  The codes
///     tokenize each distinct value the column references once, and a
///     sample's profiles count those token ids scaled by each value's
///     multiplicity — bit-identical to per-row tokenization because the
///     counts are exact integers.  Session samples cover every row of a
///     (training-capped) table; ContextMatch's candidate-view and placebo
///     samples restrict one run-wide AttributeCodes to their rows, so
///     scoring many bags of an attribute tokenizes each value once in all.
///   * The explicit-bag constructor keeps boxed Values.  It is the test
///     API and the reference the coded mode is checked against
///     (FuzzCodedSampleEquivalence); no production path builds one.
/// values() boxes lazily in coded mode.
///
/// Thread safety: the lazy caches are built under std::call_once, so a
/// sample shared across ParallelFor workers (a TableMatchSession's target
/// samples during parallel candidate-view scoring) may be read from any
/// number of threads concurrently.  Copies share the cache block — the
/// values are identical, so the derived profiles are too.
class AttributeSample {
 public:
  AttributeSample() = default;
  /// Bag mode: the test API and the oracle of the coded mode (see above).
  AttributeSample(AttributeRef ref, ValueType type, std::vector<Value> values)
      : ref_(std::move(ref)),
        type_(type),
        values_(std::move(values)),
        size_(values_.size()) {}

  /// Builds a sample over every row of one attribute of `instance` (no
  /// per-row boxing; the codes share the column's dictionary).
  static AttributeSample FromTable(const Table& instance,
                                   std::string_view attribute);

  /// Builds a sample over the rows at `positions` (each < codes->
  /// num_rows(); repeats allowed) of the column `codes` was built from.
  /// Every statistic equals that of the boxed bag of the same rows in the
  /// same order, bit for bit.
  static AttributeSample FromPositions(AttributeRef ref, ValueType type,
                                       std::shared_ptr<const AttributeCodes>
                                           codes,
                                       PosList positions);

  const AttributeRef& ref() const { return ref_; }
  ValueType declared_type() const { return type_; }

  /// The boxed value bag; in coded mode it is materialized lazily on
  /// first use (the profile paths never need it).
  const std::vector<Value>& values() const;
  size_t size() const { return size_; }

  /// Number of non-null values (cached).
  size_t NonNullCount() const;

  /// Cached padded 3-gram profile over all non-null values.
  const GramProfile& QGramProfile() const;

  /// Cached word-token profile over all non-null values.
  const csm::WordProfile& WordProfile() const;

  /// Cached numeric stats over the numeric values; empty accumulator when
  /// the attribute has no numeric values.
  const DescriptiveStats& NumericStats() const;

  /// True if at least `fraction` of the non-null values are numeric.
  bool MostlyNumeric(double fraction = 0.5) const;

 private:
  /// Lazily built caches guarded by once-flags (which are neither copyable
  /// nor movable, hence the shared heap block).
  struct Caches {
    std::once_flag values_once;
    std::once_flag non_null_once;
    std::once_flag distinct_once;
    std::once_flag qgram_once;
    std::once_flag word_once;
    std::once_flag numeric_once;
    std::optional<std::vector<Value>> boxed_values;
    size_t non_null_count = 0;
    /// Bag mode: distinct rendered (ToString) non-null values with
    /// multiplicities.
    std::optional<std::vector<std::pair<std::string, double>>> distinct;
    /// Coded mode: distinct value ids with multiplicities.
    std::optional<AttributeCodes::ValueCounts> coded_values;
    std::optional<GramProfile> qgram_profile;
    std::optional<csm::WordProfile> word_profile;
    std::optional<DescriptiveStats> numeric_stats;
  };

  /// Bag mode: distinct rendered values with multiplicities — the shared
  /// input of both token profile builders.
  const std::vector<std::pair<std::string, double>>& DistinctRenders() const;
  /// Coded mode: the counterpart of DistinctRenders.
  const AttributeCodes::ValueCounts& CodedValues() const;

  AttributeRef ref_;
  ValueType type_ = ValueType::kString;
  /// Coded mode: codes_ and positions_.  Bag mode: values_ holds the bag.
  std::shared_ptr<const AttributeCodes> codes_;
  PosList positions_;
  std::vector<Value> values_;
  size_t size_ = 0;
  std::shared_ptr<Caches> caches_ = std::make_shared<Caches>();
};

/// One matching heuristic.  Implementations must be stateless with respect
/// to individual Score() calls (Prepare() may set up corpus-level state).
class AttributeMatcher {
 public:
  virtual ~AttributeMatcher() = default;

  /// Short identifier ("qgram", "name", ...).
  virtual std::string Name() const = 0;

  /// Relative weight in the combined confidence (default 1).
  virtual double Weight() const { return 1.0; }

  /// Whether this matcher can meaningfully score the pair (e.g., the
  /// numeric matcher requires numeric bags on both sides).
  virtual bool Applicable(const AttributeSample& source,
                          const AttributeSample& target) const {
    (void)source;
    (void)target;
    return true;
  }

  /// Corpus-level preparation before a batch of Score() calls; the default
  /// does nothing.  `targets` are all target attribute samples in play.
  virtual void Prepare(const std::vector<const AttributeSample*>& targets) {
    (void)targets;
  }

  /// Raw similarity in [0, 1].
  virtual double Score(const AttributeSample& source,
                       const AttributeSample& target) const = 0;
};

}  // namespace csm

#endif  // CSM_MATCH_MATCHER_H_
