// Workload ingest_scale: streaming CSV ingest of a million-row inventory.
//
// Why: the relational layer does all the work here and the match and
// service layers do none, so this is where the CSV path's throughput
// (serial and at 4 parse workers) shows.  Set-up generates the scale retail
// inventory from the seed and writes it once as CSV; one untimed load then
// leaves the file in the page cache, so the timed loads measure parsing,
// not the disk.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "check/fingerprint.h"
#include "datagen/scale_gen.h"
#include "layer_metrics.h"
#include "perfbench.h"
#include "relational/csv.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace csm;

constexpr size_t kInventoryRows = 1'000'000;
/// The target tables play no part in ingest; keep them small so set-up
/// time is the inventory's.
constexpr size_t kTargetRows = 1000;
/// Generating and writing 79 MB takes seconds; two runs keep the run short.
constexpr size_t kSetupReps = 2;
constexpr size_t kMinLoads = 3;

/// FingerprintTable, reduced to its length and hash so a million-row
/// reference does not stay resident beside the table under test.
struct TableDigest {
  size_t length = 0;
  size_t hash = 0;
  bool operator==(const TableDigest&) const = default;
};

TableDigest Digest(const Table& table) {
  const std::string fp = check::FingerprintTable(table);
  return TableDigest{fp.size(), std::hash<std::string>{}(fp)};
}

}  // namespace

Report RunIngestScale(const RunArgs& args) {
  Report report;
  const std::string csv_path = args.workdir + "/inventory.csv";
  // 79 MB per run: never leave it behind.
  struct RemoveOnExit {
    const std::string& path;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove(path, ignored);
    }
  } remove_csv{csv_path};

  std::optional<RetailDataset> data;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    data.reset();
    ScaleRetailOptions gen;
    gen.source_rows = kInventoryRows;
    gen.target_rows_per_table = kTargetRows;
    gen.gamma = 4;
    gen.seed = args.seed;
    gen.threads = kLibraryThreads;
    data = MakeScaleRetailDataset(gen);
    const Status written = WriteCsvFile(data->source.tables().front(), csv_path);
    if (!written.ok()) report.Fail("write " + csv_path + ": " + written.ToString());
  });
  const TableSchema schema = data->source.tables().front().schema();
  const TableDigest reference = Digest(data->source.tables().front());
  data.reset();
  const size_t file_bytes = std::filesystem::file_size(csv_path);

  // One untimed read leaves the file in the page cache; it also serves
  // the traced run's scan and parse probes.
  std::string bytes(file_bytes, '\0');
  if (FILE* f = std::fopen(csv_path.c_str(), "rb")) {
    if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      report.Fail("short read of " + csv_path);
    }
    std::fclose(f);
  } else {
    report.Fail("cannot open " + csv_path);
  }
  if (!args.trace) std::string().swap(bytes);
  std::cout << "ingest_scale: " << kInventoryRows << " rows, " << file_bytes
            << " bytes of CSV, " << kLibraryThreads << " parse threads\n"
            << "page cache: warmed by one untimed read before timing; timed "
               "loads read the file from memory\n";

  CsvIngestOptions options;
  options.threads = kLibraryThreads;
  CsvIngestStats stats;

  // Untraced loads: the end-to-end numbers (and the overhead baseline).
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  // CPU is read around each load only, so the table check after it does
  // not count as ingest work.
  std::vector<double> load_s, load_cpu_s;
  const auto start = Clock::now();
  while (load_s.size() < kMinLoads || SecondsSince(start) < budget) {
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    auto loaded = ReadCsvFileStreaming(schema, csv_path, options, &stats);
    load_s.push_back(SecondsSince(t0));
    load_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    const bool ok = loaded.ok() && Digest(loaded.value()) == reference;
    if (!ok) report.Fail("load " + std::to_string(load_s.size()) + " differs");
    report.CountOp(ok);
  }
  const double cpu_util = CpuUtilization(load_cpu_s, load_s);
  const double cpu_s_per_op = Median(load_cpu_s);
  const double mb = static_cast<double>(file_bytes) / 1e6;
  std::cout << "loads: " << load_s.size() << ", median " << Median(load_s)
            << " s, " << mb / Median(load_s) << " MB/s\n";

  if (!args.trace) {
    AddEndToEndMetrics(setup_s, Median(load_s), cpu_s_per_op, &report);
    return report;
  }

  // Traced loads.  The scan and parse probes rerun the two halves of the
  // load over the same bytes held in memory, outside the timed operation.
  const size_t body = bytes.find('\n') + 1;
  SpanRecorder spans;
  const auto traced_start = Clock::now();
  for (uint64_t i = 1; i <= kMinLoads || SecondsSince(traced_start) < budget; ++i) {
    const uint64_t op = spans.Begin("op", 0, i);
    const uint64_t call = spans.Begin("relational.load", op, i);
    auto loaded = ReadCsvFileStreaming(schema, csv_path, options, &stats);
    spans.End(call);
    spans.End(op);
    bool ok = loaded.ok() && Digest(loaded.value()) == reference;

    const uint64_t probe = spans.Begin("probe", 0, i);
    const uint64_t scan = spans.Begin("relational.scan", probe, i);
    const std::vector<CsvChunkSpan> chunks =
        ScanCsvChunks(bytes, body, stats.chunk_bytes);
    spans.End(scan);
    const uint64_t parse = spans.Begin("relational.parse", probe, i);
    auto parsed = TableFromCsvParallel(schema, bytes, options);
    spans.End(parse);
    spans.End(probe);
    ok = ok && chunks.size() == stats.chunks && parsed.ok() &&
         Digest(parsed.value()) == reference;
    if (!ok) report.Fail("traced load " + std::to_string(i) + " differs");
    report.CountOp(ok);
  }
  const std::vector<Span> recorded = spans.Spans();
  const std::string trace_path = args.workdir + "/trace-ingest_scale.jsonl";
  if (!spans.Write(trace_path)) report.Fail("cannot write " + trace_path);

  const Attribution attribution = AttributeOps(recorded);
  const double traced_op = Median(SpanDurations(recorded, "op"));
  report.Add("relational.load_s", Median(SpanDurations(recorded, "relational.load")), "s");
  report.Add("relational.scan_s", Median(SpanDurations(recorded, "relational.scan")), "s");
  report.Add("relational.parse_s", Median(SpanDurations(recorded, "relational.parse")), "s");
  report.Add("relational.rows", static_cast<double>(stats.records), "count");
  report.Add("relational.bytes", static_cast<double>(stats.file_bytes), "bytes");
  report.Add("relational.chunks", static_cast<double>(stats.chunks), "count");
  LayerCounters().Report(recorded, &report);
  AddIdleServiceMetrics(&report);
  report.Add("exec.cpu_util", cpu_util, "fraction");
  report.Add("exec.cpu_s_per_op", cpu_s_per_op, "s");
  report.Add("trace.coverage", attribution.Coverage(), "fraction");
  report.Add("trace.overhead", traced_op / Median(load_s) - 1.0, "fraction");
  return report;
}

}  // namespace perfbench
