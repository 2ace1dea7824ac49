// Deterministic structured fuzzers.
//
// Each fuzzer runs `iterations` independent trials; trial i derives its own
// seed IterationSeed(options.seed, i) (generators.h), so a failure replays
// exactly by re-running the same fuzzer with the same FuzzOptions — every
// failure Status embeds "replay: seed=<S> iteration=<I>".  The fuzz_smoke
// test binary wires these to the CSM_FUZZ_SEED / CSM_FUZZ_ITERS environment
// knobs; CI runs them with fixed seeds under CSM_CHECKS=ON + ASan, so a
// violated invariant aborts and a divergence returns a replayable Status.
//
//   * FuzzCsvRoundTrip       random hostile tables through
//                            TableToCsv -> TableFromCsv, plus a re-rendered
//                            variant with randomized \n / \r\n / \r record
//                            terminators through the same parser
//   * FuzzCsvChunkedParse     random hostile tables rendered with mixed
//                            record terminators through the chunked
//                            parallel parser at hostile chunk sizes (down
//                            to 1 byte) and several thread counts; checks
//                            chunk-scan invariants plus bit-identical
//                            tables *and* dictionary code assignment
//                            against the serial parser
//   * FuzzConditionEvaluation random conditions: View::Materialize and
//                            View::MatchingRows against per-row
//                            Condition::Evaluate ground truth
//   * FuzzPipeline           random database pairs through MatchEngine;
//                            checks result invariants (confidence bounds,
//                            row-count conservation, selection contracts)
//   * FuzzDifferential       random database pairs through every
//                            differential oracle (differential.h) at
//                            threads 1/2/4
//   * FuzzRowColumnarEquivalence
//                            random hostile tables: the columnar store's
//                            typed segments, dictionary codes, CellHash,
//                            Condition::MatchingPositions and TableView
//                            gather/reads against boxed row-at-a-time
//                            ground truth (bit-identical fingerprints)
//   * FuzzTokenKernelEquivalence
//                            random hostile tables through the interned
//                            token kernel (text/gram.h): packed gram ids,
//                            flat profiles, TF-IDF weighted cosine and the
//                            Naive Bayes classifier (boxed and coded paths)
//                            against map-of-strings reference
//                            implementations — every score bit-identical
//   * FuzzCodedSampleEquivalence
//                            random hostile columns (plus signed-zero/NaN
//                            reals, all-NULL and gathered string columns
//                            sharing a 10x larger dictionary) at empty,
//                            full, subset and repeated position lists:
//                            AttributeSample::FromPositions against the
//                            boxed bag of the same rows on every statistic,
//                            profile entry and default-suite matcher score,
//                            doubles memcmp-equal
//   * FuzzCategoricalEquivalence
//                            hostile tables (NULL-heavy, NaN/signed-zero,
//                            all-NULL and gathered columns, numeric columns
//                            at the distinct-count early-exit bound and one
//                            either side) through identity, subset and
//                            repeating views under extreme
//                            CategoricalOptions: SplitCategorical and
//                            IsCategoricalAttribute against the rule over
//                            TableView::ValueCounts, counts bit-identical
//   * FuzzContingencyNbEquivalence
//                            hostile cells (duplicate and NULL evidence,
//                            NaN/signed-zero/int/string labels, labels
//                            unseen at grouping time, gathered views) under
//                            random and error-pair merge sequences:
//                            CountedCell against the row-by-row cycle for
//                            Naive Bayes, Gaussian and TgtTag classifiers —
//                            confusion and error pairs equal, every
//                            log-probability and TBag score memcmp-equal

#ifndef CSM_CHECK_FUZZ_H_
#define CSM_CHECK_FUZZ_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace csm::check {

struct FuzzOptions {
  /// Harness seed; trial i uses IterationSeed(seed, i).
  uint64_t seed = 1;
  size_t iterations = 100;
  /// Thread counts the pipeline fuzzers sweep.
  std::vector<size_t> thread_counts = {1, 2, 4};
};

Status FuzzCsvRoundTrip(const FuzzOptions& options);
Status FuzzCsvChunkedParse(const FuzzOptions& options);
Status FuzzConditionEvaluation(const FuzzOptions& options);
Status FuzzPipeline(const FuzzOptions& options);
Status FuzzDifferential(const FuzzOptions& options);
Status FuzzRowColumnarEquivalence(const FuzzOptions& options);
Status FuzzTokenKernelEquivalence(const FuzzOptions& options);
Status FuzzCodedSampleEquivalence(const FuzzOptions& options);
Status FuzzCategoricalEquivalence(const FuzzOptions& options);
Status FuzzContingencyNbEquivalence(const FuzzOptions& options);

}  // namespace csm::check

#endif  // CSM_CHECK_FUZZ_H_
