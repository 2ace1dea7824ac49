// AttributeCodes: one source attribute tokenized once, so that many row
// subsets of it (ContextMatch's candidate views and their size-matched
// placebo draws) can be profiled by counting integer ids instead of
// re-rendering and re-tokenizing every row of every subset.
//
// Layout, all read-only after Build:
//
//   row_ids      row -> dense local value id (kNullId for NULL cells)
//   grams        per value id: its padded 3-grams as ranks into the
//                sorted gram universe (flat array + offsets)
//   words        per value id: its word tokens as ids of an interner whose
//                id order is lexicographic token order (flat + offsets)
//
// A subset's profiles are exact integer bags, so summing per-value token
// lists weighted by the value's multiplicity gives the same counts (and
// totals) as tokenizing every row; emitting in rank order gives the same
// sorted entries as the builders of text/gram.h.  A profile built here is
// therefore bit-identical to the one a boxed bag of the same rows builds —
// FuzzCodedSampleEquivalence (check/fuzz.h) holds the two paths together.
//
// Thread safety: a built AttributeCodes is immutable and may be shared by
// any number of scoring threads; the counting scratch is per thread.

#ifndef CSM_MATCH_ATTRIBUTE_CODES_H_
#define CSM_MATCH_ATTRIBUTE_CODES_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "relational/column.h"
#include "stats/descriptive.h"
#include "text/gram.h"

namespace csm {

class AttributeCodes {
 public:
  /// The q of the q-gram profile (the QGramMatcher's 3-grams).
  static constexpr size_t kGramQ = 3;

  /// (value id, multiplicity) of the non-null cells at some positions, in
  /// first-seen position order.
  using ValueCounts = std::vector<std::pair<uint32_t, uint64_t>>;

  /// Tokenizes every distinct value `column`'s rows reference, once.  Cost
  /// is O(rows + distinct referenced values) — never O(dictionary), since a
  /// gathered column shares its (possibly much larger) parent dictionary.
  /// Keeps a copy of the column (sharing its dictionary) for typed reads.
  static std::shared_ptr<const AttributeCodes> Build(const Column& column);

  const Column& column() const { return column_; }
  size_t num_rows() const { return row_ids_.size(); }
  /// Distinct non-null values the column references.
  size_t num_values() const { return gram_offsets_.size() - 1; }
  /// Distinct 3-grams / word tokens over those values.
  size_t num_grams() const { return gram_universe_.size(); }
  size_t num_words() const { return words_->size(); }

  /// Non-null cells among `positions` (each < num_rows()).
  size_t NonNullCount(const PosList& positions) const;

  /// Distinct values among `positions` with their multiplicities.
  ValueCounts CountValues(const PosList& positions) const;

  /// Profiles of the bag described by `values` (from CountValues).
  GramProfile QGramProfile(const ValueCounts& values) const;
  csm::WordProfile WordProfile(const ValueCounts& values) const;

  /// Numeric cells among `positions`, accumulated in position order (the
  /// order DescriptiveStats is sensitive to).
  DescriptiveStats NumericStats(const PosList& positions) const;

 private:
  /// Local value id of a NULL cell.
  static constexpr uint32_t kNullId = 0xffffffffu;

  AttributeCodes() = default;

  Column column_;
  std::vector<uint32_t> row_ids_;
  std::vector<size_t> gram_offsets_{0};
  std::vector<uint32_t> gram_ranks_;     // ranks into gram_universe_
  std::vector<GramId> gram_universe_;    // sorted, distinct
  std::vector<size_t> word_offsets_{0};
  std::vector<uint32_t> word_ids_;       // ids of words_ (== lex rank)
  std::shared_ptr<const TokenInterner> words_;
};

}  // namespace csm

#endif  // CSM_MATCH_ATTRIBUTE_CODES_H_
