#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

namespace parparaw::perfbench {

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

namespace {

int64_t StatusFieldKib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoll(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return -1;
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

uint32_t ThisThreadSpanTid() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid = next.fetch_add(1);
  return tid;
}

/// Innermost open span of the calling thread (-1 = none).
thread_local int64_t current_span = -1;

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int64_t PeakRssKib() { return StatusFieldKib("VmHWM"); }
int64_t CurrentRssKib() { return StatusFieldKib("VmRSS"); }

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.user_s = TimevalSeconds(ru.ru_utime);
  usage.sys_s = TimevalSeconds(ru.ru_stime);
  usage.minor_faults = ru.ru_minflt;
  return usage;
}

double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t fields[8] = {};
  stat >> cpu;
  for (int64_t& f : fields) stat >> f;
  if (!stat || cpu != "cpu") return 0;
  static const double kTicksPerSecond =
      static_cast<double>(sysconf(_SC_CLK_TCK));
  // user nice system idle iowait irq softirq steal
  return static_cast<double>(fields[7]) / kTicksPerSecond;
}

CpuProbe ProbeCpu() {
  CpuProbe probe;
  const Usage usage = ReadUsage();
  probe.cpu = usage.user_s + usage.sys_s;
  probe.steal = StealSeconds();
  probe.wall = NowSeconds();
  return probe;
}

double GrantedSeconds(const CpuProbe& before, const CpuProbe& after) {
  const double wall = after.wall - before.wall;
  const double cpu = after.cpu - before.cpu;
  const double steal = std::max(0.0, after.steal - before.steal);
  if (cpu <= 0) return wall;
  return wall * cpu / (cpu + steal);
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name,
                           int64_t op)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                           : nullptr),
      start_(std::chrono::steady_clock::now()) {
  if (recorder_ == nullptr) return;
  parent_ = current_span;
  index_ = recorder_->Open(name, op, parent_);
  current_span = index_;
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->Close(index_);
  current_span = parent_;
}

double SpanRecorder::Scope::Seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

int64_t SpanRecorder::Open(const std::string& name, int64_t op,
                           int64_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = op;
  span.tid = ThisThreadSpanTid();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::Close(int64_t index) {
  const int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - epoch_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

std::vector<SpanRecorder::Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_ns - s.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

std::vector<std::pair<std::string, double>> SpanRecorder::SelfSeconds()
    const {
  const std::vector<Span> spans = Spans();
  // Children of one parent run on the parent's thread, one after the
  // other, so their durations never overlap and simply subtract.
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, int64_t> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, ns] : by_name) {
    out.emplace_back(name, static_cast<double>(ns) * 1e-9);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

std::string SpanRecorder::ChromeTraceJson() const {
  const std::vector<Span> spans = Spans();
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",";
    out += "\n{\"name\":";
    AppendJsonString(s.name, &out);
    out += ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(s.tid) +
           ",\"ts\":" + FormatNumber(static_cast<double>(s.start_ns) / 1e3) +
           ",\"dur\":" +
           FormatNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
           ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"op\":" + std::to_string(s.op) + "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(metrics[i].name, &out);
    out += ": {\"value\": ";
    out += std::isfinite(metrics[i].value) ? FormatNumber(metrics[i].value)
                                           : std::string("0");
    out += ", \"unit\": ";
    AppendJsonString(metrics[i].unit, &out);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace parparaw::perfbench
