#include "match/session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>

#include "common/logging.h"
#include "match/matchers.h"
#include "relational/sample.h"
#include "stats/distributions.h"

namespace csm {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

TableMatchSession::TableMatchSession(
    const Table& source, const Database& target,
    std::vector<std::unique_ptr<AttributeMatcher>> matchers,
    MatchOptions options)
    : source_table_(source.name()),
      options_(options),
      matchers_(std::move(matchers)) {
  CSM_CHECK(!matchers_.empty()) << "match session needs at least one matcher";
  // Training cap: bags come from a deterministic per-table row sample when
  // the table is larger than max_training_rows.  The draw depends only on
  // (options, table name, row count).
  auto capped = [&](const Table& table) -> Table {
    Rng rng(DeriveTableSampleSeed(options_.training_sample_seed, table.name()));
    return ReservoirSampleRows(table, options_.max_training_rows, rng);
  };
  const bool cap_source = options_.max_training_rows > 0 &&
                          source.num_rows() > options_.max_training_rows;
  const Table source_capped = cap_source ? capped(source) : Table();
  const Table& src = cap_source ? source_capped : source;
  for (const auto& attr : src.schema().attributes()) {
    source_samples_.push_back(AttributeSample::FromTable(src, attr.name));
  }
  for (const Table& table : target.tables()) {
    const bool cap = options_.max_training_rows > 0 &&
                     table.num_rows() > options_.max_training_rows;
    const Table table_capped = cap ? capped(table) : Table();
    const Table& tgt = cap ? table_capped : table;
    for (const auto& attr : tgt.schema().attributes()) {
      target_samples_.push_back(AttributeSample::FromTable(tgt, attr.name));
      target_refs_.push_back(target_samples_.back().ref());
    }
  }

  std::vector<const AttributeSample*> target_ptrs;
  target_ptrs.reserve(target_samples_.size());
  for (const auto& sample : target_samples_) target_ptrs.push_back(&sample);
  for (auto& matcher : matchers_) matcher->Prepare(target_ptrs);

  // Score every applicable (matcher, source, target) triple and record the
  // per-(matcher, source) score distribution across targets.
  raw_scores_.assign(matchers_.size(), {});
  for (size_t m = 0; m < matchers_.size(); ++m) {
    raw_scores_[m].assign(source_samples_.size(),
                          std::vector<double>(target_samples_.size(), kNaN));
    for (size_t s = 0; s < source_samples_.size(); ++s) {
      if (source_samples_[s].NonNullCount() < options_.min_non_null_values) {
        continue;
      }
      DescriptiveStats distribution;
      for (size_t t = 0; t < target_samples_.size(); ++t) {
        if (target_samples_[t].NonNullCount() <
            options_.min_non_null_values) {
          continue;
        }
        if (!matchers_[m]->Applicable(source_samples_[s],
                                      target_samples_[t])) {
          continue;
        }
        double score =
            matchers_[m]->Score(source_samples_[s], target_samples_[t]);
        raw_scores_[m][s][t] = score;
        distribution.Add(score);
      }
      if (!distribution.empty()) {
        distributions_[DistributionKey{m, s}] = distribution;
      }
    }
  }
}

double TableMatchSession::Confidence(size_t matcher_index,
                                     size_t source_index,
                                     double raw_score) const {
  auto it = distributions_.find(DistributionKey{matcher_index, source_index});
  if (it == distributions_.end()) return 0.0;
  const DescriptiveStats& d = it->second;
  double stddev = std::max(d.PopulationStdDev(), options_.min_score_stddev);
  double relative = NormalCdf(ZScore(raw_score, d.Mean(), stddev));
  if (!options_.blend_raw_score) return relative;
  return std::sqrt(relative * std::clamp(raw_score, 0.0, 1.0));
}

MatchScore TableMatchSession::CombineForBag(const AttributeSample& sample,
                                            size_t source_index,
                                            size_t target_index) const {
  MatchScore out;
  double weight_total = 0.0;
  double score_sum = 0.0;
  double confidence_sum = 0.0;
  for (size_t m = 0; m < matchers_.size(); ++m) {
    const AttributeSample& target = target_samples_[target_index];
    if (!matchers_[m]->Applicable(sample, target)) continue;
    // Only matchers with a recorded distribution can produce confidences.
    if (distributions_.find(DistributionKey{m, source_index}) ==
        distributions_.end()) {
      continue;
    }
    double raw = matchers_[m]->Score(sample, target);
    double weight = matchers_[m]->Weight();
    score_sum += weight * raw;
    confidence_sum += weight * Confidence(m, source_index, raw);
    weight_total += weight;
    ++out.matchers_used;
  }
  if (weight_total > 0.0) {
    out.score = score_sum / weight_total;
    out.confidence = confidence_sum / weight_total;
  }
  return out;
}

size_t TableMatchSession::SourceIndex(std::string_view attribute) const {
  for (size_t s = 0; s < source_samples_.size(); ++s) {
    if (source_samples_[s].ref().attribute == attribute) return s;
  }
  CSM_CHECK(false) << "unknown source attribute '" << attribute << "'";
  return 0;
}

size_t TableMatchSession::TargetIndex(const AttributeRef& target) const {
  for (size_t t = 0; t < target_refs_.size(); ++t) {
    if (target_refs_[t] == target) return t;
  }
  CSM_CHECK(false) << "unknown target attribute '" << target.ToString() << "'";
  return 0;
}

MatchScore TableMatchSession::PairScore(std::string_view source_attribute,
                                        const AttributeRef& target) const {
  size_t s = SourceIndex(source_attribute);
  size_t t = TargetIndex(target);
  MatchScore out;
  double weight_total = 0.0;
  double score_sum = 0.0;
  double confidence_sum = 0.0;
  for (size_t m = 0; m < matchers_.size(); ++m) {
    double raw = raw_scores_[m][s][t];
    if (std::isnan(raw)) continue;
    double weight = matchers_[m]->Weight();
    score_sum += weight * raw;
    confidence_sum += weight * Confidence(m, s, raw);
    weight_total += weight;
    ++out.matchers_used;
  }
  if (weight_total > 0.0) {
    out.score = score_sum / weight_total;
    out.confidence = confidence_sum / weight_total;
  }
  return out;
}

MatchScore TableMatchSession::ScoreRestricted(
    std::string_view source_attribute, const std::vector<Value>& restricted_bag,
    const AttributeRef& target) const {
  const AttributeSample& source = source_samples_[SourceIndex(source_attribute)];
  return ScoreRestrictedSample(
      AttributeSample(source.ref(), source.declared_type(), restricted_bag),
      target);
}

AttributeSample TableMatchSession::MakeRestrictedSample(
    std::string_view source_attribute,
    std::shared_ptr<const AttributeCodes> codes, PosList positions) const {
  const AttributeSample& source = source_samples_[SourceIndex(source_attribute)];
  return AttributeSample::FromPositions(source.ref(), source.declared_type(),
                                        std::move(codes), std::move(positions));
}

MatchScore TableMatchSession::ScoreRestrictedSample(
    const AttributeSample& sample, const AttributeRef& target) const {
  size_t s = SourceIndex(sample.ref().attribute);
  size_t t = TargetIndex(target);
  if (sample.NonNullCount() < options_.min_non_null_values) {
    return MatchScore{};
  }
  return CombineForBag(sample, s, t);
}

MatchList TableMatchSession::AcceptedMatches(double tau) const {
  MatchList out;
  for (size_t s = 0; s < source_samples_.size(); ++s) {
    for (size_t t = 0; t < target_refs_.size(); ++t) {
      MatchScore ms = PairScore(source_samples_[s].ref().attribute,
                                target_refs_[t]);
      if (ms.matchers_used == 0 || ms.confidence < tau) continue;
      Match match;
      match.source = source_samples_[s].ref();
      match.target = target_refs_[t];
      match.condition = Condition::True();
      match.score = ms.score;
      match.confidence = ms.confidence;
      out.push_back(std::move(match));
    }
  }
  std::sort(out.begin(), out.end(), [](const Match& a, const Match& b) {
    if (a.confidence != b.confidence) return a.confidence > b.confidence;
    if (a.source < b.source) return true;
    if (b.source < a.source) return false;
    return a.target < b.target;
  });
  return out;
}

std::vector<std::string> TableMatchSession::source_attributes() const {
  std::vector<std::string> out;
  out.reserve(source_samples_.size());
  for (const auto& sample : source_samples_) {
    out.push_back(sample.ref().attribute);
  }
  return out;
}

MatchList StandardMatch(const Table& source, const Database& target,
                        double tau, MatchOptions options) {
  TableMatchSession session(source, target, DefaultMatcherSuite(), options);
  return session.AcceptedMatches(tau);
}

}  // namespace csm
