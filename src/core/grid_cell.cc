#include "core/grid_cell.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "common/logging.h"

namespace csm {

LabelGrouping::LabelGrouping(const std::map<Value, size_t>& value_counts) {
  for (const auto& [value, count] : value_counts) groups_.push_back({value});
}

std::string LabelGrouping::Token(size_t g) const {
  std::string out;
  for (const Value& member : groups_[g]) {
    if (!out.empty()) out += '\x1f';
    out += member.ToString();
  }
  return out;
}

bool LabelGrouping::MergeByTokens(const std::string& a, const std::string& b) {
  int ga = -1, gb = -1;
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (Token(g) == a) ga = static_cast<int>(g);
    if (Token(g) == b) gb = static_cast<int>(g);
  }
  if (ga < 0 || gb < 0 || ga == gb) return false;
  auto& dst = groups_[static_cast<size_t>(std::min(ga, gb))];
  auto& src = groups_[static_cast<size_t>(std::max(ga, gb))];
  dst.insert(dst.end(), src.begin(), src.end());
  std::sort(dst.begin(), dst.end());
  groups_.erase(groups_.begin() + std::max(ga, gb));
  return true;
}

LabelKeys LabelKeys::Build(const TableView& sample, size_t col) {
  const Column& column = sample.column(col);
  LabelKeys keys;
  keys.row_keys.assign(sample.num_rows(), kNull);
  std::unordered_map<uint64_t, uint32_t> key_of;
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    const RowId p = sample.position(r);
    if (column.IsNull(p)) continue;
    uint64_t raw = 0;
    switch (column.type()) {
      case ValueType::kString:
        raw = column.codes()[p];
        break;
      case ValueType::kInt:
        raw = std::bit_cast<uint64_t>(column.ints()[p]);
        break;
      case ValueType::kReal:
        raw = std::bit_cast<uint64_t>(column.reals()[p]);
        break;
      case ValueType::kNull:
        continue;
    }
    auto [it, fresh] =
        key_of.try_emplace(raw, static_cast<uint32_t>(keys.values.size()));
    if (fresh) keys.values.push_back(column.GetValue(p));
    keys.row_keys[r] = it->second;
  }
  return keys;
}

CountedCell::CountedCell(const TableView& sample, size_t h_col,
                         const LabelKeys& label, const PosList& train_rows,
                         const PosList& test_rows,
                         const ClassifierFactory& factory)
    : h_column_(sample.column(h_col)),
      h_type_(sample.schema().attribute(h_col).type),
      coded_(h_column_.type() == ValueType::kString),
      label_(label),
      factory_(factory),
      train_(Contingency(sample, train_rows)),
      test_(Contingency(sample, test_rows)) {}

std::vector<CountedCell::Pair> CountedCell::Contingency(
    const TableView& sample, const PosList& rows) const {
  std::vector<Pair> pairs;
  if (!coded_) {
    // Row order: one pair per row with both cells non-null.
    for (RowId r : rows) {
      const uint32_t l = label_.row_keys[r];
      const RowId p = sample.position(r);
      if (l == LabelKeys::kNull || h_column_.IsNull(p)) continue;
      pairs.push_back(Pair{p, l, 1});
    }
    return pairs;
  }
  // Counted: sort (code, key) and count runs.
  const std::vector<uint32_t>& codes = h_column_.codes();
  std::vector<uint64_t> packed;
  packed.reserve(rows.size());
  for (RowId r : rows) {
    const uint32_t l = label_.row_keys[r];
    const uint32_t h = codes[sample.position(r)];
    if (l == LabelKeys::kNull || h == kNullCode) continue;
    packed.push_back(uint64_t{h} << 32 | l);
  }
  std::sort(packed.begin(), packed.end());
  for (size_t i = 0; i < packed.size();) {
    size_t j = i + 1;
    while (j < packed.size() && packed[j] == packed[i]) ++j;
    pairs.push_back(Pair{static_cast<uint32_t>(packed[i] >> 32),
                         static_cast<uint32_t>(packed[i]), j - i});
    i = j;
  }
  return pairs;
}

void CountedCell::ResolveTokens(const LabelGrouping& grouping) {
  std::swap(tokens_, prev_tokens_);
  std::swap(key_tokens_, prev_key_tokens_);
  // The value -> group map the row-by-row cycle looked every row up in,
  // built in the same order: find() then resolves each key exactly as it
  // resolved each of the key's rows (NaN and signed zeros included).
  std::map<Value, size_t> group_of;
  tokens_.clear();
  for (size_t g = 0; g < grouping.num_groups(); ++g) {
    tokens_.push_back(grouping.Token(g));
    for (const Value& member : grouping.groups()[g]) {
      group_of.emplace(member, g);
    }
  }
  key_tokens_.assign(label_.values.size(), nullptr);
  for (size_t k = 0; k < label_.values.size(); ++k) {
    auto it = group_of.find(label_.values[k]);
    if (it != group_of.end()) key_tokens_[k] = &tokens_[it->second];
  }
}

bool CountedCell::MergeIsExact(const ErrorPair& merged,
                               const std::string** merged_token) const {
  const std::string* target = nullptr;
  for (size_t k = 0; k < key_tokens_.size(); ++k) {
    const std::string* before = prev_key_tokens_[k];
    const std::string* after = key_tokens_[k];
    if (before == nullptr || after == nullptr) {
      if (before != after) return false;
      continue;
    }
    if (*before == merged.first || *before == merged.second) {
      if (target == nullptr) target = after;
      if (*after != *target) return false;
    } else if (*after != *before) {
      return false;
    }
  }
  *merged_token = target;
  return true;
}

void CountedCell::Train() {
  classifier_ = factory_(h_type_);
  CSM_CHECK(classifier_ != nullptr);
  for (const Pair& pair : train_) {
    const std::string* token = key_tokens_[pair.l];
    if (token == nullptr) continue;  // value unseen when grouping was formed
    if (coded_) {
      classifier_->TrainCoded(h_column_.dictionary(), pair.h, *token,
                              pair.count);
    } else {
      classifier_->Train(h_column_.GetValue(pair.h), *token);
    }
    ++training_calls_;
  }
}

CellOutcome CountedCell::Cycle(const LabelGrouping& grouping,
                               const ErrorPair* merged) {
  ResolveTokens(grouping);
  bool retrain = true;
  const std::string* merged_token = nullptr;
  if (classifier_ != nullptr && merged != nullptr &&
      MergeIsExact(*merged, &merged_token)) {
    // No key carried either token: the classifier never saw them.
    retrain = merged_token != nullptr &&
              !classifier_->MergeLabels(merged->first, merged->second,
                                        *merged_token);
  }
  if (retrain) Train();

  CellOutcome out;
  // Training examples per group token (tokens may collide, so the most
  // common label is counted by token, as a classifier sees it).
  std::map<std::string, size_t> per_token;
  std::vector<size_t> per_key(label_.values.size(), 0);
  for (const Pair& pair : train_) {
    if (key_tokens_[pair.l] == nullptr) continue;
    per_key[pair.l] += pair.count;
    out.train_count += pair.count;
  }
  if (out.train_count == 0) return out;
  for (size_t k = 0; k < per_key.size(); ++k) {
    if (per_key[k] > 0) per_token[*key_tokens_[k]] += per_key[k];
  }
  size_t most_common = 0;
  for (const auto& [token, count] : per_token) {
    most_common = std::max(most_common, count);
  }
  out.most_common_fraction = static_cast<double>(most_common) /
                             static_cast<double>(out.train_count);

  // Test pairs with the same evidence are adjacent (sorted by code), so
  // each distinct value is classified once.
  std::string predicted;
  bool have_prediction = false;
  uint32_t predicted_h = 0;
  for (const Pair& pair : test_) {
    const std::string* actual = key_tokens_[pair.l];
    if (actual == nullptr) continue;
    if (!have_prediction || pair.h != predicted_h) {
      predicted = coded_ ? classifier_->ClassifyCoded(h_column_.dictionary(),
                                                      pair.h)
                         : classifier_->Classify(h_column_.GetValue(pair.h));
      predicted_h = pair.h;
      have_prediction = true;
    }
    out.eval.Observe(*actual, predicted, pair.count);
  }
  return out;
}

}  // namespace csm
