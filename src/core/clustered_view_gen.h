// Algorithm ClusteredViewGen (Fig. 6) and its disjunctive extension
// (Section 3.3).
//
// For each (non-categorical attribute h, categorical attribute l) pair the
// values of h are treated as documents, the values of l as classification
// labels, and the tuples as the expert assignment.  A classifier h -> l is
// trained on one random subset of the sample (doTraining) and tested on the
// rest (doTesting); if its micro-averaged F1 is significantly better than
// the random-label null hypothesis (see stats/significance.h) the view
// family partitioning R on l is considered well-clustered and returned.
//
// Under EarlyDisjuncts the most frequent (frequency-normalized) error pair
// (v, v') is repeatedly merged into a disjunct l IN {v, v'} and the
// train/test cycle repeats, emitting every grouping that passes the
// significance gate, until testing is error-free or no values remain to
// merge.

#ifndef CSM_CORE_CLUSTERED_VIEW_GEN_H_
#define CSM_CORE_CLUSTERED_VIEW_GEN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/random.h"
#include "core/context_options.h"
#include "core/grid_cell.h"
#include "exec/thread_pool.h"
#include "ml/classifier.h"
#include "obs/hooks.h"
#include "relational/categorical.h"
#include "relational/table.h"
#include "relational/table_view.h"
#include "relational/view.h"

namespace csm {

/// Runs ClusteredViewGen over every (h, l) pair of `source_sample` — a
/// zero-copy TableView (a Table converts implicitly) — and
/// returns the accepted well-clustered view families, deduplicated by
/// (label attribute, partition) keeping the most significant evidence.
///
/// `split` is the sample's SplitCategorical under `categorical`; when null
/// it is computed here.  Evidence attributes are its non-categorical
/// attributes; `label_attributes` defaults (when empty) to its categorical
/// ones, whose value counts it already holds.  Each grid cell trains and
/// tests from (evidence, label) counts (core/grid_cell.h).
///
/// When `pool` is non-null the (l, h) classifier grid is trained and
/// evaluated concurrently, one task per cell.  Each cell derives its own
/// RNG stream from a single seed drawn from `rng` (exec/task_rng.h) and the
/// per-cell results are merged in grid order, so the output is identical at
/// any pool size — including the serial `pool == nullptr` path.  `factory`
/// must be safe to invoke concurrently (both built-in factories are: they
/// only read captured state).
///
/// `obs` optionally records one span and one "inference.cell_seconds"
/// histogram observation per grid cell, plus the "inference.grid_cells"
/// and "inference.train_pairs" (classifier training calls, see
/// CountedCell::training_calls) counters.  Observation never affects the
/// emitted families.
///
/// `cancel` makes the grid cooperative: workers poll the token between
/// cell claims and drain once it is cancelled, so only a subset of cells
/// contributes.  Callers must then treat the returned families as
/// incomplete.  The "inference.cell" FaultInjector site fires once per
/// cell (cell grid index) before the cell trains; a kFail arm drops just
/// that cell's families.
///
/// Degenerate inputs return cleanly and empty: tables with fewer than two
/// rows (nothing to split into train/test), label attributes that are
/// all-NULL or whose distinct-value count is outside [2,
/// max_label_cardinality], and cells whose test side ends up empty (the
/// significance gate needs test evidence) all emit no families.
std::vector<ViewFamily> ClusteredViewGen(
    const TableView& source_sample, const ClassifierFactory& factory,
    const ClusteredViewGenOptions& options,
    const CategoricalOptions& categorical, bool early_disjuncts, Rng& rng,
    std::vector<std::string> label_attributes = {},
    const CategoricalSplit* split = nullptr,
    exec::ThreadPool* pool = nullptr, const obs::ObsHooks& obs = {},
    const CancellationToken* cancel = nullptr);

}  // namespace csm

#endif  // CSM_CORE_CLUSTERED_VIEW_GEN_H_
