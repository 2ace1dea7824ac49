#include "match/matcher.h"

#include <numeric>
#include <unordered_map>

#include "check/invariants.h"

namespace csm {

AttributeSample AttributeSample::FromTable(const Table& instance,
                                           std::string_view attribute) {
  const size_t col = instance.schema().AttributeIndex(attribute);
  PosList all_rows(instance.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), RowId{0});
  return FromPositions(AttributeRef{instance.name(), std::string(attribute)},
                       instance.schema().attribute(col).type,
                       AttributeCodes::Build(instance.column(col)),
                       std::move(all_rows));
}

AttributeSample AttributeSample::FromPositions(
    AttributeRef ref, ValueType type,
    std::shared_ptr<const AttributeCodes> codes, PosList positions) {
  if constexpr (check::kInvariantsEnabled) {
    for (RowId p : positions) CSM_INVARIANT_LT(p, codes->num_rows());
  }
  AttributeSample sample;
  sample.ref_ = std::move(ref);
  sample.type_ = type;
  sample.codes_ = std::move(codes);
  sample.positions_ = std::move(positions);
  sample.size_ = sample.positions_.size();
  return sample;
}

const std::vector<Value>& AttributeSample::values() const {
  if (codes_ == nullptr) return values_;
  std::call_once(caches_->values_once, [this] {
    std::vector<Value> boxed;
    codes_->column().BoxGatheredTo(positions_, &boxed);
    caches_->boxed_values = std::move(boxed);
  });
  return *caches_->boxed_values;
}

size_t AttributeSample::NonNullCount() const {
  std::call_once(caches_->non_null_once, [this] {
    size_t n = 0;
    if (codes_ != nullptr) {
      n = codes_->NonNullCount(positions_);
    } else {
      for (const Value& v : values_) {
        if (!v.is_null()) ++n;
      }
    }
    caches_->non_null_count = n;
  });
  return caches_->non_null_count;
}

const std::vector<std::pair<std::string, double>>&
AttributeSample::DistinctRenders() const {
  std::call_once(caches_->distinct_once, [this] {
    std::vector<std::pair<std::string, double>> out;
    std::unordered_map<std::string, size_t> index;
    for (const Value& v : values_) {
      if (v.is_null()) continue;
      std::string render = v.ToString();
      auto [it, inserted] = index.try_emplace(std::move(render), out.size());
      if (inserted) {
        out.emplace_back(it->first, 1.0);
      } else {
        out[it->second].second += 1.0;
      }
    }
    caches_->distinct = std::move(out);
  });
  return *caches_->distinct;
}

const AttributeCodes::ValueCounts& AttributeSample::CodedValues() const {
  std::call_once(caches_->distinct_once, [this] {
    caches_->coded_values = codes_->CountValues(positions_);
  });
  return *caches_->coded_values;
}

const GramProfile& AttributeSample::QGramProfile() const {
  std::call_once(caches_->qgram_once, [this] {
    if (codes_ != nullptr) {
      caches_->qgram_profile = codes_->QGramProfile(CodedValues());
      return;
    }
    GramProfileBuilder builder;
    for (const auto& [text, count] : DistinctRenders()) {
      builder.AddText(text, AttributeCodes::kGramQ, count);
    }
    caches_->qgram_profile = builder.Build();
  });
  return *caches_->qgram_profile;
}

const csm::WordProfile& AttributeSample::WordProfile() const {
  std::call_once(caches_->word_once, [this] {
    if (codes_ != nullptr) {
      caches_->word_profile = codes_->WordProfile(CodedValues());
      return;
    }
    WordProfileBuilder builder;
    for (const auto& [text, count] : DistinctRenders()) {
      builder.AddText(text, count);
    }
    caches_->word_profile = builder.Build();
  });
  return *caches_->word_profile;
}

const DescriptiveStats& AttributeSample::NumericStats() const {
  std::call_once(caches_->numeric_once, [this] {
    DescriptiveStats stats;
    if (codes_ != nullptr) {
      stats = codes_->NumericStats(positions_);
    } else {
      for (const Value& v : values_) {
        if (v.IsNumeric()) stats.Add(v.AsNumeric());
      }
    }
    caches_->numeric_stats = stats;
  });
  return *caches_->numeric_stats;
}

bool AttributeSample::MostlyNumeric(double fraction) const {
  size_t non_null = NonNullCount();
  if (non_null == 0) return false;
  return static_cast<double>(NumericStats().count()) >=
         fraction * static_cast<double>(non_null);
}

}  // namespace csm
