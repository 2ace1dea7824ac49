#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t parent,
                             uint64_t request) {
  const double now = At(Clock::now());
  return Record(name, now, now, parent, request);
}

void SpanRecorder::End(uint64_t id) {
  const double now = At(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(id - 1).end = now;
}

uint64_t SpanRecorder::Record(const std::string& name, double start,
                              double end, uint64_t parent, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::Write(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : Spans()) {
    std::fprintf(out,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 s.start, s.end);
  }
  return std::fclose(out) == 0;
}

namespace {

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return covered;
}

}  // namespace

double Attribution::Coverage() const {
  double layers = 0.0;
  for (const auto& [layer, seconds] : layer_self_seconds) layers += seconds;
  return op_seconds > 0.0 ? layers / op_seconds : 0.0;
}

Attribution AttributeOps(const std::vector<Span>& spans) {
  // Spans are stored by id, so a parent's index is parent - 1.
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent - 1].push_back(i);
  }
  auto root_of = [&](size_t i) {
    while (spans[i].parent != 0) i = spans[i].parent - 1;
    return i;
  };
  Attribution out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (spans[root_of(i)].name != "op") continue;
    if (s.parent == 0) {
      out.op_seconds += s.end - s.start;
      continue;
    }
    std::vector<std::pair<double, double>> kids;
    for (size_t c : children[i]) kids.emplace_back(spans[c].start, spans[c].end);
    out.layer_self_seconds[LayerOf(s.name)] +=
        (s.end - s.start) - CoveredLength(std::move(kids), s.start, s.end);
  }
  return out;
}

std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

}  // namespace perfbench
