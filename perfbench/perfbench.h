// Shared pieces of the end-to-end benchmark: run arguments, exact sample
// statistics, process resource readings and the result record that the
// caller parses from the last line of standard output.

#ifndef CSM_PERFBENCH_PERFBENCH_H_
#define CSM_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double SecondsSince(Clock::time_point from) {
  return SecondsBetween(from, Clock::now());
}

/// Worker threads every workload gives the library (ingest parse workers,
/// engine pool size).  Fixed, so a run on a bigger host measures the same
/// configuration.
inline constexpr size_t kLibraryThreads = 4;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated files and the span dump.
  std::string workdir;
};

/// The q-quantile of `samples`, interpolated linearly between the two
/// nearest order statistics (Python's statistics.quantiles "inclusive"
/// method).  Exact over the raw samples: no bucketing.  Requires at least
/// one sample.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

inline double Mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// User + system CPU seconds the process has used so far.
double ProcessCpuSeconds();
/// The process's peak resident set size (ru_maxrss) in MiB.
double PeakRssMb();
/// Returns the allocator's free memory to the system (glibc malloc_trim).
/// Called between operations, outside their timing, so each operation
/// starts from the same resident baseline: without it, the blocks the
/// thread arenas kept moved match_scale's peak RSS over 510-681 MiB across
/// five seeds; with it, 500-580 MiB, set by each run's inputs.
void ReleaseFreeMemory();
/// Online processors (what `nproc` prints).
size_t OnlineProcessors();

/// CPU usage over a measured window: cpu_util is process CPU over
/// (wall x online processors), cpu_s_per_op is process CPU per operation.
struct CpuWindow {
  Clock::time_point wall_start = Clock::now();
  double cpu_start = ProcessCpuSeconds();

  double Utilization() const;
  double SecondsPerOp(size_t ops) const;
};

/// Summed CPU seconds over summed wall seconds x online processors, for
/// operations timed one by one.
double CpuUtilization(const std::vector<double>& cpu_s, const std::vector<double>& wall_s);

/// The result record: correctness, operation counts and named metrics.
class Report {
 public:
  /// Counts one attempted operation; `ok` false counts it failed and marks
  /// the run incorrect.
  void CountOp(bool ok);
  /// Marks the run incorrect and explains why on stderr.
  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit);

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Adds the end-to-end metrics, which every workload reports in the same
/// terms: setup_s, peak_rss_mb, ok_frac (operations that succeeded with
/// correct output over attempted), op_s (wall seconds of one timed
/// operation) and cpu_s_per_op (process CPU seconds per timed operation).
void AddEndToEndMetrics(double setup_s, double op_s, double cpu_s_per_op,
                        Report* report);

/// Runs `setup` `reps` times and returns the median wall time; the last
/// run's state is what the workload keeps.
template <typename Fn>
double MedianSetupSeconds(size_t reps, Fn&& setup) {
  std::vector<double> seconds;
  for (size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    setup();
    seconds.push_back(SecondsSince(start));
  }
  return Median(std::move(seconds));
}

Report RunIngestScale(const RunArgs& args);
Report RunMatchScale(const RunArgs& args);
Report RunServiceOpen(const RunArgs& args);

}  // namespace perfbench

#endif  // CSM_PERFBENCH_PERFBENCH_H_
