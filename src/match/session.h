// TableMatchSession: one standard-match run of a source table against a
// target database, retaining the per-matcher score distributions so that
// restricted (view) value bags can be re-scored consistently — exactly the
// contract ContextMatch's ScoreMatch step needs (Section 3.1).
//
// Score -> confidence normalization (Section 2.3): "for a single matcher m
// and source attribute a, the distribution of scores to all target
// attributes are treated as samples of a normal distribution, allowing the
// raw scores given by m for a to be converted into confidence scores"; the
// per-matcher confidences are then combined by weight.

#ifndef CSM_MATCH_SESSION_H_
#define CSM_MATCH_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "match/match_types.h"
#include "match/matcher.h"
#include "relational/table.h"
#include "stats/descriptive.h"

namespace csm {

/// Tuning knobs for a match session.
struct MatchOptions {
  /// Floor on the per-(matcher, source attribute) score stddev, so a nearly
  /// constant score row does not produce saturated z-scores.
  double min_score_stddev = 0.05;
  /// Attributes whose bags have fewer non-null values than this never
  /// produce matches (too little evidence).
  size_t min_non_null_values = 1;
  /// Blend the relative confidence Phi(z) with the absolute raw score as
  /// sqrt(Phi(z) * raw).  Pure z-normalization makes every source
  /// attribute's best target look confident even when the raw evidence is
  /// weak (an attribute of random codes still has *some* best target); the
  /// blend keeps weak-evidence pairs below threshold.  Disable to ablate.
  bool blend_raw_score = true;
  /// Upper bound on the rows used to build each table's attribute samples
  /// (the classifier-training value bags).  0 = every row.  When a table
  /// exceeds the cap its bags come from a deterministic uniform row sample
  /// (ReservoirSampleRows seeded by DeriveTableSampleSeed(
  /// training_sample_seed, table name)), so session construction cost is
  /// bounded by the cap, not by table size — the paper's matchers train on
  /// *samples* of instance data, and this knob is what keeps that true at
  /// 10^6+ rows.
  size_t max_training_rows = 0;
  /// Seed for the per-table training-sample draws; folded with each table
  /// name so every table samples an independent reproducible stream.
  uint64_t training_sample_seed = 0x5eed0f5a4d704e65ULL;
};

/// Combined (score, confidence) for one attribute pair.
struct MatchScore {
  double score = 0.0;
  double confidence = 0.0;
  /// Number of matchers that were applicable.
  size_t matchers_used = 0;
};

class TableMatchSession {
 public:
  /// Runs the matcher suite for `source` against every table of `target`.
  /// The session keeps references into neither table; it copies the value
  /// bags it needs.  `matchers` is owned by the session.
  TableMatchSession(const Table& source, const Database& target,
                    std::vector<std::unique_ptr<AttributeMatcher>> matchers,
                    MatchOptions options = {});

  /// The standard matches with confidence >= tau, best-confidence first.
  MatchList AcceptedMatches(double tau) const;

  /// The combined score/confidence of (source attribute, target attribute);
  /// zero MatchScore when never scored (inapplicable everywhere).
  MatchScore PairScore(std::string_view source_attribute,
                       const AttributeRef& target) const;

  /// Re-scores a restricted source bag (a candidate view's values of
  /// `source_attribute`) against `target`, converting raw scores with the
  /// distributions recorded during construction, per the strawman
  /// discussion in Section 3.  This is ContextMatch's ScoreMatch over a
  /// boxed bag: the test API and the reference the coded path is checked
  /// against.  The engine scores through MakeRestrictedSample instead.
  MatchScore ScoreRestricted(std::string_view source_attribute,
                             const std::vector<Value>& restricted_bag,
                             const AttributeRef& target) const;

  /// Builds a reusable restricted sample of `source_attribute` over the
  /// rows at `positions`, profiled from `codes` (built over that
  /// attribute's column of the source table).  When one bag is scored
  /// against many targets, build the sample once (its token profiles are
  /// cached inside) and call ScoreRestrictedSample per target.
  AttributeSample MakeRestrictedSample(
      std::string_view source_attribute,
      std::shared_ptr<const AttributeCodes> codes, PosList positions) const;

  /// Scores a sample created by MakeRestrictedSample against `target`.
  MatchScore ScoreRestrictedSample(const AttributeSample& sample,
                                   const AttributeRef& target) const;

  /// All target attribute refs the session scored against.
  const std::vector<AttributeRef>& target_refs() const { return target_refs_; }

  /// Source attribute names in schema order.
  std::vector<std::string> source_attributes() const;

  const std::string& source_table() const { return source_table_; }

 private:
  struct DistributionKey {
    size_t matcher_index;
    size_t source_index;
    friend bool operator<(const DistributionKey& a, const DistributionKey& b) {
      if (a.matcher_index != b.matcher_index) {
        return a.matcher_index < b.matcher_index;
      }
      return a.source_index < b.source_index;
    }
  };

  /// Converts a raw score into a confidence using the stored distribution
  /// for (matcher, source attribute).
  double Confidence(size_t matcher_index, size_t source_index,
                    double raw_score) const;

  MatchScore CombineForBag(const AttributeSample& source_sample,
                           size_t source_index, size_t target_index) const;

  size_t SourceIndex(std::string_view attribute) const;
  size_t TargetIndex(const AttributeRef& target) const;

  std::string source_table_;
  MatchOptions options_;
  std::vector<std::unique_ptr<AttributeMatcher>> matchers_;
  std::vector<AttributeSample> source_samples_;
  std::vector<AttributeSample> target_samples_;
  std::vector<AttributeRef> target_refs_;

  /// raw_scores_[m][s][t]: score of matcher m for source attr s vs target
  /// attr t; NaN when inapplicable.
  std::vector<std::vector<std::vector<double>>> raw_scores_;
  /// Normal model of each (matcher, source attr) score row.
  std::map<DistributionKey, DescriptiveStats> distributions_;
};

/// Convenience: run a default-suite session and return matches >= tau.
MatchList StandardMatch(const Table& source, const Database& target,
                        double tau, MatchOptions options = {});

}  // namespace csm

#endif  // CSM_MATCH_SESSION_H_
