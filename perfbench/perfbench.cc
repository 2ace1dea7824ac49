#include "perfbench.h"

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void ReleaseFreeMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

size_t OnlineProcessors() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

double CpuWindow::Utilization() const {
  const double wall = SecondsSince(wall_start);
  const double cpu = ProcessCpuSeconds() - cpu_start;
  return cpu / (wall * static_cast<double>(OnlineProcessors()));
}

double CpuWindow::SecondsPerOp(size_t ops) const {
  return (ProcessCpuSeconds() - cpu_start) / static_cast<double>(std::max<size_t>(ops, 1));
}

double CpuUtilization(const std::vector<double>& cpu_s, const std::vector<double>& wall_s) {
  double cpu = 0.0, wall = 0.0;
  for (double v : cpu_s) cpu += v;
  for (double v : wall_s) wall += v;
  return cpu / (wall * static_cast<double>(OnlineProcessors()));
}

void Report::CountOp(bool ok) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
  }
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::cerr << "CHECK FAILED: " << why << "\n";
}

void Report::Add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = -1.0;
  }
  metrics_.push_back(Metric{name, value, unit});
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void AddEndToEndMetrics(double setup_s, double op_s, double cpu_s_per_op,
                        Report* report) {
  report->Add("setup_s", setup_s, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
  report->Add("ok_frac",
              1.0 - static_cast<double>(report->failed()) /
                        static_cast<double>(report->attempted()),
              "fraction");
  report->Add("op_s", op_s, "s");
  report->Add("cpu_s_per_op", cpu_s_per_op, "s");
}

}  // namespace perfbench
