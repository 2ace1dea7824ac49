#include "relational/categorical.h"

#include <cmath>
#include <limits>
#include <optional>
#include <ranges>

namespace csm {
namespace {

/// The rule over the non-zero counts of the distinct values.
template <typename Counts>
bool RuleHolds(const Counts& counts, const CategoricalOptions& options) {
  size_t distinct = 0;
  size_t total_tuples = 0;
  for (size_t count : counts) {
    if (count == 0) continue;
    ++distinct;
    total_tuples += count;
  }
  if (distinct == 0) return false;

  // Main rule: more than `value_fraction` of the distinct values must each
  // cover more than `tuple_fraction` of the tuples.
  const double tuple_threshold =
      options.tuple_fraction * static_cast<double>(total_tuples);
  size_t frequent_values = 0;
  size_t values_with_min_tuples = 0;
  for (size_t count : counts) {
    if (count == 0) continue;
    if (static_cast<double>(count) > tuple_threshold) ++frequent_values;
    if (count >= options.min_tuples_per_value) ++values_with_min_tuples;
  }
  const double frequent_fraction = static_cast<double>(frequent_values) /
                                   static_cast<double>(distinct);
  if (frequent_fraction <= options.value_fraction) return false;

  // Small-sample guard (always applied; for large samples it is implied in
  // practice): at least `min_frequent_values` values each associated with at
  // least `min_tuples_per_value` tuples.
  return values_with_min_tuples >= options.min_frequent_values;
}

/// Counts one numeric column's non-null values exactly as
/// TableView::ValueCounts does, stopping once the map holds `bound`
/// distinct values (nullopt: ruled out).
template <typename T>
std::optional<std::map<Value, size_t>> CountNumeric(const TableView& view,
                                                    const Column& col,
                                                    const std::vector<T>& data,
                                                    size_t bound) {
  const auto& nulls = col.null_mask();
  std::map<Value, size_t> counts;
  for (size_t r = 0; r < view.num_rows(); ++r) {
    const RowId p = view.position(r);
    if (nulls[p]) continue;
    ++counts[Value(data[p])];
    if (counts.size() >= bound) return std::nullopt;
  }
  return counts;
}

/// The value counts of one attribute when it is categorical; nullopt when
/// it is not.
std::optional<std::map<Value, size_t>> CategoricalCounts(
    const TableView& view, size_t col_index, const CategoricalOptions& options,
    size_t bound) {
  const Column& col = view.column(col_index);
  std::optional<std::map<Value, size_t>> counts;
  switch (col.type()) {
    case ValueType::kNull:
      return std::nullopt;
    case ValueType::kInt:
      counts = CountNumeric(view, col, col.ints(), bound);
      break;
    case ValueType::kReal:
      counts = CountNumeric(view, col, col.reals(), bound);
      break;
    case ValueType::kString: {
      std::vector<size_t> per_code(col.dictionary().size(), 0);
      const auto& codes = col.codes();
      for (size_t r = 0; r < view.num_rows(); ++r) {
        const uint32_t code = codes[view.position(r)];
        if (code != kNullCode) ++per_code[code];
      }
      if (!RuleHolds(per_code, options)) return std::nullopt;
      counts.emplace();
      for (uint32_t code = 0; code < per_code.size(); ++code) {
        if (per_code[code] > 0) {
          counts->emplace(Value::String(col.dictionary().value(code)),
                          per_code[code]);
        }
      }
      return counts;
    }
  }
  if (!counts.has_value() ||
      !RuleHolds(*counts | std::views::values, options)) {
    return std::nullopt;
  }
  return counts;
}

}  // namespace

size_t CategoricalDistinctBound(const CategoricalOptions& options) {
  constexpr size_t kNoBound = std::numeric_limits<size_t>::max();
  if (!(options.tuple_fraction > 0.0) || !(options.value_fraction > 0.0)) {
    return kNoBound;
  }
  // Past 2^50 the +1 margins no longer dominate the rounding error.
  constexpr double kExact = 1125899906842624.0;  // 2^50
  const double max_frequent = std::floor(1.0 / options.tuple_fraction) + 1.0;
  if (!(max_frequent < kExact)) return kNoBound;
  const double bound = std::ceil(max_frequent / options.value_fraction) + 1.0;
  if (!(bound < kExact)) return kNoBound;
  return static_cast<size_t>(bound);
}

const std::map<Value, size_t>* CategoricalSplit::CountsOf(
    std::string_view name) const {
  for (size_t i = 0; i < categorical.size(); ++i) {
    if (categorical[i] == name) return &categorical_counts[i];
  }
  return nullptr;
}

CategoricalSplit SplitCategorical(const TableView& instance,
                                  const CategoricalOptions& options) {
  const size_t bound = CategoricalDistinctBound(options);
  CategoricalSplit split;
  const auto& attributes = instance.schema().attributes();
  for (size_t c = 0; c < attributes.size(); ++c) {
    std::optional<std::map<Value, size_t>> counts =
        CategoricalCounts(instance, c, options, bound);
    if (counts.has_value()) {
      split.categorical.push_back(attributes[c].name);
      split.categorical_counts.push_back(std::move(*counts));
    } else {
      split.non_categorical.push_back(attributes[c].name);
    }
  }
  return split;
}

bool IsCategoricalAttribute(const TableView& instance,
                            std::string_view attribute,
                            const CategoricalOptions& options) {
  return CategoricalCounts(instance, instance.schema().AttributeIndex(attribute),
                           options, CategoricalDistinctBound(options))
      .has_value();
}

}  // namespace csm
