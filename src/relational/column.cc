#include "relational/column.h"

#include <algorithm>
#include <charconv>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace csm {

uint32_t StringDictionary::GetOrAdd(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  CSM_CHECK_LT(values_.size(), static_cast<size_t>(kNullCode))
      << "string dictionary full";
  uint32_t code = static_cast<uint32_t>(values_.size());
  values_.emplace_back(s);
  index_.emplace(values_.back(), code);
  return code;
}

std::optional<uint32_t> StringDictionary::Find(std::string_view s) const {
  auto it = index_.find(s);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const std::string& StringDictionary::value(uint32_t code) const {
  CSM_CHECK_LT(code, values_.size());
  return values_[code];
}

Column::Column(ValueType type) : type_(type) {
  if (type_ == ValueType::kString) {
    dict_ = std::make_shared<StringDictionary>();
  }
}

bool Column::IsNull(size_t i) const {
  CSM_CHECK_LT(i, size_);
  if (type_ == ValueType::kString) return codes_[i] == kNullCode;
  return nulls_[i] != 0;
}

Value Column::GetValue(size_t i) const {
  CSM_CHECK_LT(i, size_);
  switch (type_) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt:
      return nulls_[i] ? Value::Null() : Value::Int(ints_[i]);
    case ValueType::kReal:
      return nulls_[i] ? Value::Null() : Value::Real(reals_[i]);
    case ValueType::kString:
      return codes_[i] == kNullCode ? Value::Null()
                                    : Value::String(dict_->value(codes_[i]));
  }
  return Value::Null();
}

void Column::BoxAllTo(std::vector<Value>* out) const {
  // emplace_back constructs each Value directly in the vector storage with
  // the alternative known at compile time: one construction per cell, no
  // temporary + move and no per-cell variant dispatch.
  out->reserve(out->size() + size_);
  switch (type_) {
    case ValueType::kNull:
      for (size_t i = 0; i < size_; ++i) out->emplace_back();
      break;
    case ValueType::kInt:
      for (size_t i = 0; i < size_; ++i) {
        if (nulls_[i]) out->emplace_back();
        else out->emplace_back(ints_[i]);
      }
      break;
    case ValueType::kReal:
      for (size_t i = 0; i < size_; ++i) {
        if (nulls_[i]) out->emplace_back();
        else out->emplace_back(reals_[i]);
      }
      break;
    case ValueType::kString: {
      const std::vector<std::string>& strings = dict_->values();
      for (size_t i = 0; i < size_; ++i) {
        if (codes_[i] == kNullCode) out->emplace_back();
        else out->emplace_back(strings[codes_[i]]);
      }
      break;
    }
  }
}

void Column::BoxGatheredTo(const PosList& positions,
                           std::vector<Value>* out) const {
  out->reserve(out->size() + positions.size());
  switch (type_) {
    case ValueType::kNull:
      for (size_t i = 0; i < positions.size(); ++i) out->emplace_back();
      break;
    case ValueType::kInt:
      for (RowId p : positions) {
        CSM_CHECK_LT(p, size_);
        if (nulls_[p]) out->emplace_back();
        else out->emplace_back(ints_[p]);
      }
      break;
    case ValueType::kReal:
      for (RowId p : positions) {
        CSM_CHECK_LT(p, size_);
        if (nulls_[p]) out->emplace_back();
        else out->emplace_back(reals_[p]);
      }
      break;
    case ValueType::kString: {
      const std::vector<std::string>& strings = dict_->values();
      for (RowId p : positions) {
        CSM_CHECK_LT(p, size_);
        if (codes_[p] == kNullCode) out->emplace_back();
        else out->emplace_back(strings[codes_[p]]);
      }
      break;
    }
  }
}

uint64_t Column::CellHash(size_t i) const {
  CSM_CHECK_LT(i, size_);
  // Must stay formula-identical to Value::Hash() — the differential fuzzer
  // and the engine's sample-fingerprint cache keys both depend on it.
  constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case ValueType::kNull:
      return kNullHash;
    case ValueType::kInt:
      return nulls_[i] ? kNullHash : std::hash<int64_t>{}(ints_[i]) * 3 + 1;
    case ValueType::kReal:
      return nulls_[i] ? kNullHash : std::hash<double>{}(reals_[i]) * 3 + 2;
    case ValueType::kString:
      return codes_[i] == kNullCode
                 ? kNullHash
                 : std::hash<std::string>{}(dict_->value(codes_[i])) * 3;
  }
  return 0;
}

void Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  CSM_CHECK(v.type() == type_)
      << "column type mismatch: expected " << ValueTypeToString(type_)
      << ", got " << ValueTypeToString(v.type());
  switch (type_) {
    case ValueType::kNull:
      break;  // unreachable: non-null v never has type kNull
    case ValueType::kInt:
      ints_.push_back(v.AsInt());
      nulls_.push_back(0);
      break;
    case ValueType::kReal:
      reals_.push_back(v.AsReal());
      nulls_.push_back(0);
      break;
    case ValueType::kString:
      EnsureOwnDictionary();
      codes_.push_back(dict_->GetOrAdd(v.AsString()));
      break;
  }
  ++size_;
}

void Column::AppendNull() {
  switch (type_) {
    case ValueType::kNull:
      nulls_.push_back(1);
      break;
    case ValueType::kInt:
      ints_.push_back(0);
      nulls_.push_back(1);
      break;
    case ValueType::kReal:
      reals_.push_back(0.0);
      nulls_.push_back(1);
      break;
    case ValueType::kString:
      codes_.push_back(kNullCode);
      break;
  }
  ++size_;
}

Status Column::AppendParsed(std::string_view text) {
  // Mirrors Value::Parse exactly: trimmed-empty cells are NULL, numeric
  // cells must consume the whole trimmed text, string cells keep the
  // untrimmed original.
  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    AppendNull();
    return Status::Ok();
  }
  switch (type_) {
    case ValueType::kNull:
      AppendNull();
      return Status::Ok();
    case ValueType::kInt: {
      int64_t out = 0;
      auto [ptr, ec] =
          std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), out);
      if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
        return Status::InvalidArgument("cannot parse int: '" +
                                       std::string(trimmed) + "'");
      }
      ints_.push_back(out);
      nulls_.push_back(0);
      ++size_;
      return Status::Ok();
    }
    case ValueType::kReal: {
      double out = 0;
      auto [ptr, ec] =
          std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), out);
      if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
        return Status::InvalidArgument("cannot parse real: '" +
                                       std::string(trimmed) + "'");
      }
      reals_.push_back(out);
      nulls_.push_back(0);
      ++size_;
      return Status::Ok();
    }
    case ValueType::kString:
      EnsureOwnDictionary();
      codes_.push_back(dict_->GetOrAdd(text));
      ++size_;
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown value type");
}

void Column::AppendFrom(const Column& other) {
  CSM_CHECK(other.type_ == type_)
      << "column type mismatch: expected " << ValueTypeToString(type_)
      << ", got " << ValueTypeToString(other.type_);
  switch (type_) {
    case ValueType::kNull:
      nulls_.insert(nulls_.end(), other.nulls_.begin(), other.nulls_.end());
      break;
    case ValueType::kInt:
      ints_.insert(ints_.end(), other.ints_.begin(), other.ints_.end());
      nulls_.insert(nulls_.end(), other.nulls_.begin(), other.nulls_.end());
      break;
    case ValueType::kReal:
      reals_.insert(reals_.end(), other.reals_.begin(), other.reals_.end());
      nulls_.insert(nulls_.end(), other.nulls_.begin(), other.nulls_.end());
      break;
    case ValueType::kString: {
      EnsureOwnDictionary();
      codes_.reserve(codes_.size() + other.codes_.size());
      // Lazy per-row remap: other's values enter this dictionary in the
      // order other's *rows* first reference them, which is exactly the
      // order a serial parse of the concatenated rows would have assigned.
      // kNullCode doubles as the "not yet remapped" sentinel because no
      // real code can equal it (GetOrAdd CHECKs the dictionary below it).
      std::vector<uint32_t> remap(other.dict_->size(), kNullCode);
      for (uint32_t code : other.codes_) {
        if (code == kNullCode) {
          codes_.push_back(kNullCode);
          continue;
        }
        if (remap[code] == kNullCode) {
          remap[code] = dict_->GetOrAdd(other.dict_->value(code));
        }
        codes_.push_back(remap[code]);
      }
      break;
    }
  }
  size_ += other.size_;
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case ValueType::kNull:
      nulls_.reserve(n);
      break;
    case ValueType::kInt:
      ints_.reserve(n);
      nulls_.reserve(n);
      break;
    case ValueType::kReal:
      reals_.reserve(n);
      nulls_.reserve(n);
      break;
    case ValueType::kString:
      codes_.reserve(n);
      break;
  }
}

Column Column::Gather(const PosList& positions) const {
  Column out(type_);
  out.size_ = positions.size();
  switch (type_) {
    case ValueType::kNull:
      out.nulls_.assign(positions.size(), 1);
      break;
    case ValueType::kInt:
      out.ints_.reserve(positions.size());
      out.nulls_.reserve(positions.size());
      for (RowId p : positions) {
        CSM_CHECK_LT(p, size_);
        out.ints_.push_back(ints_[p]);
        out.nulls_.push_back(nulls_[p]);
      }
      break;
    case ValueType::kReal:
      out.reals_.reserve(positions.size());
      out.nulls_.reserve(positions.size());
      for (RowId p : positions) {
        CSM_CHECK_LT(p, size_);
        out.reals_.push_back(reals_[p]);
        out.nulls_.push_back(nulls_[p]);
      }
      break;
    case ValueType::kString:
      out.codes_.reserve(positions.size());
      for (RowId p : positions) {
        CSM_CHECK_LT(p, size_);
        out.codes_.push_back(codes_[p]);
      }
      // Share the encoding; a later Append to either column clones first.
      out.dict_ = dict_;
      break;
  }
  return out;
}

const StringDictionary& Column::dictionary() const {
  CSM_CHECK(type_ == ValueType::kString) << "not a string column";
  return *dict_;
}

std::optional<uint32_t> Column::CodeFor(std::string_view s) const {
  if (type_ != ValueType::kString) return std::nullopt;
  return dict_->Find(s);
}

std::vector<std::pair<uint32_t, size_t>> Column::CodeCounts() const {
  CSM_CHECK(type_ == ValueType::kString) << "not a string column";
  std::unordered_map<uint32_t, size_t> counts;
  for (uint32_t code : codes_) {
    if (code != kNullCode) ++counts[code];
  }
  std::vector<std::pair<uint32_t, size_t>> out(counts.begin(), counts.end());
  std::sort(out.begin(), out.end());
  return out;
}

void Column::EnsureOwnDictionary() {
  if (dict_.use_count() > 1) {
    dict_ = std::make_shared<StringDictionary>(*dict_);
  }
}

}  // namespace csm
