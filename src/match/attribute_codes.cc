#include "match/attribute_codes.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>

#include "relational/value.h"
#include "text/tokenizer.h"

namespace csm {
namespace {

/// Dense counters indexed by a local id plus the ids touched since the last
/// drain.  Every counter is zero between uses, so a use costs O(touched),
/// not O(ids); one instance per thread, grown on demand.
struct DenseCounts {
  std::vector<uint64_t> counts;
  std::vector<uint32_t> touched;

  void Fit(size_t n) {
    if (counts.size() < n) counts.resize(n, 0);
  }
  void Add(uint32_t id, uint64_t n) {
    if (counts[id] == 0) touched.push_back(id);
    counts[id] += n;
  }
};

thread_local DenseCounts value_scratch;
thread_local DenseCounts token_scratch;

/// Sums each value's token ids (ids[offsets[v] .. offsets[v+1]), each id
/// < num_ids) weighted by the value's multiplicity, then calls
/// emit(id, count) in ascending id order.  Returns the total count.
template <typename Emit>
uint64_t SumTokens(const AttributeCodes::ValueCounts& values,
                   const std::vector<size_t>& offsets,
                   const std::vector<uint32_t>& ids, size_t num_ids,
                   Emit&& emit) {
  DenseCounts& scratch = token_scratch;
  scratch.Fit(num_ids);
  uint64_t total = 0;
  for (const auto& [v, multiplicity] : values) {
    for (size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      scratch.Add(ids[i], multiplicity);
      total += multiplicity;
    }
  }
  // Ascending emission: sort the touched ids when they are few, otherwise
  // sweep the dense range (cheaper than sorting most of it).
  if (scratch.touched.size() * 16 < num_ids) {
    std::sort(scratch.touched.begin(), scratch.touched.end());
    for (uint32_t id : scratch.touched) {
      emit(id, scratch.counts[id]);
      scratch.counts[id] = 0;
    }
  } else {
    for (uint32_t id = 0; id < num_ids; ++id) {
      if (scratch.counts[id] == 0) continue;
      emit(id, scratch.counts[id]);
      scratch.counts[id] = 0;
    }
  }
  scratch.touched.clear();
  return total;
}

/// Renumbers the first-seen provisional ids of `index` (key -> id) by key
/// order: rewrites each of `*ids` to its key's rank and returns the keys
/// sorted, so only the distinct keys are sorted, never every occurrence.
template <typename Key>
std::vector<Key> RankByKey(const std::unordered_map<Key, uint32_t>& index,
                           std::vector<uint32_t>* ids) {
  std::vector<std::pair<Key, uint32_t>> sorted(index.begin(), index.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint32_t> rank_of(sorted.size());
  std::vector<Key> keys;
  keys.reserve(sorted.size());
  for (auto& [key, provisional] : sorted) {
    rank_of[provisional] = static_cast<uint32_t>(keys.size());
    keys.push_back(std::move(key));
  }
  for (uint32_t& id : *ids) id = rank_of[id];
  return keys;
}

}  // namespace

std::shared_ptr<const AttributeCodes> AttributeCodes::Build(
    const Column& column) {
  std::shared_ptr<AttributeCodes> codes(new AttributeCodes());
  codes->column_ = column;
  codes->row_ids_.assign(column.size(), kNullId);

  // Tokenize each distinct value on first sight, under provisional
  // first-seen gram and word ids (ranked once all values are seen).
  std::unordered_map<GramId, uint32_t> gram_index;
  std::unordered_map<std::string, uint32_t> word_index;
  std::string pad_scratch;
  std::vector<GramId> grams;
  std::vector<std::string> tokens;
  uint32_t num_values = 0;
  auto add_value = [&](std::string_view text) {
    grams.clear();
    AppendPackedQGrams(text, kGramQ, &pad_scratch, &grams);
    for (GramId gram : grams) {
      codes->gram_ranks_.push_back(
          gram_index.try_emplace(gram, gram_index.size()).first->second);
    }
    codes->gram_offsets_.push_back(codes->gram_ranks_.size());
    WordTokens(text, &tokens);
    for (const std::string& token : tokens) {
      codes->word_ids_.push_back(
          word_index.try_emplace(token, word_index.size()).first->second);
    }
    codes->word_offsets_.push_back(codes->word_ids_.size());
    return num_values++;
  };
  // Group rows by a typed key: the rendering of equal keys is equal, and
  // each new key is rendered (Value::ToString semantics) exactly once.
  auto encode = [&](auto key_of, auto render_of, auto is_null) {
    using Key = decltype(key_of(size_t{0}));
    std::unordered_map<Key, uint32_t> index;
    for (size_t r = 0; r < column.size(); ++r) {
      if (is_null(r)) continue;
      auto [it, inserted] = index.try_emplace(key_of(r), 0);
      if (inserted) it->second = add_value(render_of(r));
      codes->row_ids_[r] = it->second;
    }
  };
  const std::vector<uint8_t>& nulls = column.null_mask();
  auto null_in_mask = [&](size_t r) { return nulls[r] != 0; };
  switch (column.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt: {
      const std::vector<int64_t>& ints = column.ints();
      encode([&](size_t r) { return ints[r]; },
             [&](size_t r) { return Value::Int(ints[r]).ToString(); },
             null_in_mask);
      break;
    }
    case ValueType::kReal: {
      // Keyed by bit pattern: identical bits render identically, and each
      // distinct NaN / signed-zero encoding just forms its own group.
      const std::vector<double>& reals = column.reals();
      encode(
          [&](size_t r) {
            uint64_t bits;
            std::memcpy(&bits, &reals[r], sizeof(bits));
            return bits;
          },
          [&](size_t r) { return Value::Real(reals[r]).ToString(); },
          null_in_mask);
      break;
    }
    case ValueType::kString: {
      const std::vector<uint32_t>& cells = column.codes();
      const std::vector<std::string>& dict = column.dictionary().values();
      encode([&](size_t r) { return cells[r]; },
             [&](size_t r) { return std::string_view(dict[cells[r]]); },
             [&](size_t r) { return cells[r] == kNullCode; });
      break;
    }
  }

  // Gram ids in packed order (== lexicographic gram order) and word ids
  // in lexicographic token order, so a rank-ordered sweep emits sorted
  // profile entries.
  codes->gram_universe_ = RankByKey(gram_index, &codes->gram_ranks_);
  GlobalTokenKernelStats().grams_interned.fetch_add(
      codes->gram_universe_.size(), std::memory_order_relaxed);
  auto words = std::make_shared<TokenInterner>();
  for (const std::string& token : RankByKey(word_index, &codes->word_ids_)) {
    words->GetOrAdd(token);
  }
  codes->words_ = std::move(words);
  return codes;
}

size_t AttributeCodes::NonNullCount(const PosList& positions) const {
  size_t n = 0;
  for (RowId p : positions) {
    if (row_ids_[p] != kNullId) ++n;
  }
  return n;
}

AttributeCodes::ValueCounts AttributeCodes::CountValues(
    const PosList& positions) const {
  DenseCounts& scratch = value_scratch;
  scratch.Fit(num_values());
  for (RowId p : positions) {
    const uint32_t v = row_ids_[p];
    if (v != kNullId) scratch.Add(v, 1);
  }
  ValueCounts out;
  out.reserve(scratch.touched.size());
  for (uint32_t v : scratch.touched) {
    out.emplace_back(v, scratch.counts[v]);
    scratch.counts[v] = 0;
  }
  scratch.touched.clear();
  return out;
}

GramProfile AttributeCodes::QGramProfile(const ValueCounts& values) const {
  std::vector<GramProfile::Entry> entries;
  const uint64_t total =
      SumTokens(values, gram_offsets_, gram_ranks_, gram_universe_.size(),
                [&](uint32_t rank, uint64_t count) {
                  entries.push_back({gram_universe_[rank],
                                     static_cast<double>(count)});
                });
  return GramProfile::FromSortedEntries(std::move(entries),
                                        static_cast<double>(total));
}

WordProfile AttributeCodes::WordProfile(const ValueCounts& values) const {
  std::vector<csm::WordProfile::Entry> entries;
  const uint64_t total =
      SumTokens(values, word_offsets_, word_ids_, words_->size(),
                [&](uint32_t id, uint64_t count) {
                  entries.push_back({std::string_view(words_->value(id)),
                                     static_cast<double>(count)});
                });
  return csm::WordProfile::FromSortedEntries(words_, std::move(entries),
                                             static_cast<double>(total));
}

DescriptiveStats AttributeCodes::NumericStats(const PosList& positions) const {
  DescriptiveStats stats;
  const std::vector<uint8_t>& nulls = column_.null_mask();
  switch (column_.type()) {
    case ValueType::kNull:
    case ValueType::kString:
      break;  // no numeric cells
    case ValueType::kInt: {
      const std::vector<int64_t>& ints = column_.ints();
      for (RowId p : positions) {
        if (!nulls[p]) stats.Add(static_cast<double>(ints[p]));
      }
      break;
    }
    case ValueType::kReal: {
      const std::vector<double>& reals = column_.reals();
      for (RowId p : positions) {
        if (!nulls[p]) stats.Add(reals[p]);
      }
      break;
    }
  }
  return stats;
}

}  // namespace csm
