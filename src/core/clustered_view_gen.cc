#include "core/clustered_view_gen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "exec/parallel.h"
#include "exec/task_rng.h"
#include "ml/evaluation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/sample.h"
#include "stats/significance.h"
#include "text/gram.h"

namespace csm {
namespace {

/// Builds the view family for a grouping of label attribute `l` on `table`.
ViewFamily FamilyFromGrouping(const TableView& table, const std::string& l,
                              const LabelGrouping& grouping) {
  ViewFamily family;
  family.base_table = table.name();
  family.label_attribute = l;
  for (const auto& group : grouping.groups()) {
    std::string view_name = table.name() + "[" + l + "=";
    for (size_t i = 0; i < group.size(); ++i) {
      if (i > 0) view_name += "|";
      view_name += group[i].ToString();
    }
    view_name += "]";
    family.views.emplace_back(view_name, table.name(),
                              Condition::In(l, group));
  }
  return family;
}

/// One (label attribute, evidence attribute) cell of the classifier grid.
struct GridCell {
  const std::string* label;
  const std::map<Value, size_t>* counts;
  const LabelKeys* keys;
  const std::string* evidence;
  size_t h_col;
};

/// Trains and evaluates one grid cell: the full LateDisjuncts cycle or the
/// EarlyDisjuncts merge loop for (l, h), emitting every grouping that
/// passes the significance gate in merge order.  Runs on a worker thread;
/// everything it touches besides `rng` is shared read-only state.
std::vector<ViewFamily> RunGridCell(const TableView& source_sample,
                                    const GridCell& cell,
                                    const ClassifierFactory& factory,
                                    const ClusteredViewGenOptions& options,
                                    bool early_disjuncts, Rng& rng,
                                    uint64_t* training_calls) {
  std::vector<ViewFamily> emitted;
  const auto [train_rows, test_rows] =
      SplitPositions(source_sample.num_rows(), options.train_fraction, rng);
  CountedCell counted(source_sample, cell.h_col, *cell.keys, train_rows,
                      test_rows, factory);
  LabelGrouping grouping(*cell.counts);

  // Merge loop: one iteration for LateDisjuncts; repeated error-pair
  // merging under EarlyDisjuncts.
  std::optional<ErrorPair> merged;
  for (;;) {
    CellOutcome outcome =
        counted.Cycle(grouping, merged.has_value() ? &*merged : nullptr);
    // The explicit total() == 0 clause keeps the empty-test case (all-NULL
    // columns, single-row samples) out of the significance gate even when a
    // caller sets min_test_size to 0.
    if (outcome.train_count == 0 || outcome.eval.total() == 0 ||
        outcome.eval.total() < options.min_test_size) {
      break;
    }
    SignificanceResult sig =
        ClassifierSignificance(outcome.eval.correct(), outcome.eval.total(),
                               outcome.most_common_fraction);
    if (sig.significance > options.significance_threshold &&
        grouping.num_groups() >= 2) {
      ViewFamily family =
          FamilyFromGrouping(source_sample, *cell.label, grouping);
      family.classifier_f1 = outcome.eval.MicroF(1.0);
      family.significance = sig.significance;
      family.evidence_attribute = *cell.evidence;
      emitted.push_back(std::move(family));
    }
    if (!early_disjuncts) break;
    if (outcome.eval.error_pairs().empty()) break;
    if (grouping.num_groups() <= 2) break;
    const auto ranked = outcome.eval.NormalizedErrorPairs();
    merged.reset();
    for (const auto& [pair, weight] : ranked) {
      if (grouping.MergeByTokens(pair.first, pair.second)) {
        merged = pair;
        break;
      }
    }
    if (!merged.has_value()) break;
  }
  *training_calls = counted.training_calls();
  return emitted;
}

/// Dedup key of a family: its label attribute plus the partition it induces
/// (reconstructed from the emitted views' conditions is unnecessary — the
/// grouping's canonical PartitionKey is rebuilt from the view conditions'
/// value lists).
std::string FamilyPartitionKey(const ViewFamily& family) {
  std::vector<std::string> tokens;
  tokens.reserve(family.views.size());
  for (const View& view : family.views) {
    std::string token;
    for (const Value& member : view.condition().clauses()[0].values) {
      if (!token.empty()) token += '\x1f';
      token += member.ToString();
    }
    tokens.push_back(std::move(token));
  }
  std::sort(tokens.begin(), tokens.end());
  std::string out = family.label_attribute;
  out += '\x1d';
  for (const auto& token : tokens) {
    out += token;
    out += '\x1e';
  }
  return out;
}

}  // namespace

std::vector<ViewFamily> ClusteredViewGen(
    const TableView& source_sample, const ClassifierFactory& factory,
    const ClusteredViewGenOptions& options,
    const CategoricalOptions& categorical, bool early_disjuncts, Rng& rng,
    std::vector<std::string> label_attributes, const CategoricalSplit* split,
    exec::ThreadPool* pool, const obs::ObsHooks& obs,
    const CancellationToken* cancel) {
  // Nothing to split into train/test: no cell could pass the significance
  // gate, so skip the grid entirely.
  if (source_sample.num_rows() < 2) return {};
  std::optional<CategoricalSplit> local_split;
  if (split == nullptr) {
    local_split = SplitCategorical(source_sample, categorical);
    split = &*local_split;
  }
  if (label_attributes.empty()) label_attributes = split->categorical;

  // Lay out the (l, h) grid up front: one cell per admissible pair, in the
  // same nested order the sequential loop used, so the merge below visits
  // results in the legacy order regardless of which worker ran which cell.
  // Each label's counts and row keys are shared read-only by its cells.
  std::vector<std::map<Value, size_t>> other_counts(label_attributes.size());
  std::vector<LabelKeys> label_keys(label_attributes.size());
  std::vector<GridCell> cells;
  for (size_t li = 0; li < label_attributes.size(); ++li) {
    const std::string& l = label_attributes[li];
    const std::map<Value, size_t>* counts = split->CountsOf(l);
    if (counts == nullptr) {
      other_counts[li] = source_sample.ValueCounts(l);
      counts = &other_counts[li];
    }
    if (counts->size() < 2 || counts->size() > options.max_label_cardinality) {
      continue;
    }
    label_keys[li] = LabelKeys::Build(source_sample,
                                      source_sample.schema().AttributeIndex(l));
    for (const std::string& h : split->non_categorical) {
      if (h == l) continue;
      cells.push_back(GridCell{&l, counts, &label_keys[li], &h,
                               source_sample.schema().AttributeIndex(h)});
    }
  }

  if (obs.metrics != nullptr && !cells.empty()) {
    obs.metrics->AddCounter("inference.grid_cells", cells.size());
  }

  // One seed drawn from the sequential stream; each cell splits off its own
  // deterministic RNG, so the train/test partitions do not depend on the
  // number of workers (or on which other cells exist being re-ordered).
  const uint64_t grid_seed = rng.Next();
  const TokenKernelStats& kernel_stats = GlobalTokenKernelStats();
  const uint64_t memo_hits_before =
      kernel_stats.nb_memo_hits.load(std::memory_order_relaxed);
  const uint64_t grams_before =
      kernel_stats.grams_interned.load(std::memory_order_relaxed);
  std::atomic<uint64_t> training_calls{0};
  std::vector<std::vector<ViewFamily>> cell_results = exec::ParallelMap(
      pool, cells.size(),
      [&](size_t i) {
        // Fault site "inference.cell" (index = grid cell index).  A kFail
        // arm drops just this cell's families; kCancel arms cancel the
        // caller-owned token, which the surrounding ParallelMap drains on.
        if (FaultInjector::Hit("inference.cell", i)) {
          return std::vector<ViewFamily>{};
        }
        std::string span_name;
        if (obs.tracer != nullptr) {
          span_name = "cell:" + *cells[i].label + "/" + *cells[i].evidence;
        }
        // Prefer the thread's current span (the pool-task span on workers,
        // the caller's span inline); the explicit hook parent is the
        // fallback when this runs on a pool with no tracer attached.
        uint64_t parent = obs::Tracer::CurrentSpan();
        if (parent == 0) parent = obs.parent_span;
        obs::ScopedSpan span(obs.tracer, span_name, parent);
        const auto cell_start = std::chrono::steady_clock::now();
        Rng cell_rng = exec::TaskRng(grid_seed, i);
        uint64_t cell_training_calls = 0;
        std::vector<ViewFamily> families = RunGridCell(
            source_sample, cells[i], factory, options, early_disjuncts,
            cell_rng, &cell_training_calls);
        training_calls.fetch_add(cell_training_calls,
                                 std::memory_order_relaxed);
        if (obs.metrics != nullptr) {
          obs.metrics->Observe(
              "inference.cell_seconds",
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            cell_start)
                  .count());
        }
        return families;
      },
      cancel);

  if (obs.metrics != nullptr) {
    const uint64_t memo_hits =
        kernel_stats.nb_memo_hits.load(std::memory_order_relaxed) -
        memo_hits_before;
    const uint64_t grams =
        kernel_stats.grams_interned.load(std::memory_order_relaxed) -
        grams_before;
    if (memo_hits > 0) obs.metrics->AddCounter("ml.nb_memo_hits", memo_hits);
    if (grams > 0) obs.metrics->AddCounter("text.grams_interned", grams);
    const uint64_t pairs = training_calls.load(std::memory_order_relaxed);
    if (pairs > 0) obs.metrics->AddCounter("inference.train_pairs", pairs);
  }

  // Merge in grid order: best accepted family per (label, partition).
  std::map<std::string, ViewFamily> accepted;
  for (std::vector<ViewFamily>& families : cell_results) {
    for (ViewFamily& family : families) {
      std::string key = FamilyPartitionKey(family);
      auto it = accepted.find(key);
      if (it == accepted.end() ||
          it->second.significance < family.significance) {
        accepted[key] = std::move(family);
      }
    }
  }

  std::vector<ViewFamily> out;
  out.reserve(accepted.size());
  for (auto& [key, family] : accepted) out.push_back(std::move(family));
  // Most significant families first; stable tiebreak on base/label.
  std::sort(out.begin(), out.end(), [](const ViewFamily& a,
                                       const ViewFamily& b) {
    if (a.significance != b.significance) {
      return a.significance > b.significance;
    }
    if (a.label_attribute != b.label_attribute) {
      return a.label_attribute < b.label_attribute;
    }
    return a.views.size() < b.views.size();
  });
  return out;
}

}  // namespace csm
