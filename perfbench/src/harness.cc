#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> values, double q) {
  if (values.empty() || !(q >= 0.0 && q <= 1.0)) return std::nullopt;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  const size_t beyond = values.size() - 1 - hi;
  if (beyond < static_cast<size_t>(kMinTailSamples)) return std::nullopt;
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void Require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SelfNanos(const std::vector<SpanView>& spans, int index) {
  const SpanView& parent = spans[static_cast<size_t>(index)];
  const int64_t begin = parent.start_nanos;
  const int64_t end = parent.start_nanos + parent.duration_nanos;
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const SpanView& span : spans) {
    if (span.parent != index) continue;
    const int64_t lo = std::max(begin, span.start_nanos);
    const int64_t hi = std::min(end, span.start_nanos + span.duration_nanos);
    if (hi > lo) children.emplace_back(lo, hi);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = begin;
  for (const auto& [lo, hi] : children) {
    const int64_t from = std::max(lo, cursor);
    if (hi > from) {
      covered += hi - from;
      cursor = hi;
    }
  }
  return parent.duration_nanos - covered;
}

void AnswerHash::Add(uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    state_ ^= (value >> (8 * byte)) & 0xffu;
    state_ *= 1099511628211ull;
  }
}

void AnswerHash::AddDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

namespace {

const cpu_set_t& InitialCpus() {
  static const cpu_set_t initial = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  return initial;
}

}  // namespace

void PinToCpu(int index) {
  const cpu_set_t& initial = InitialCpus();
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &initial)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(index) % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

void UnpinCpu() { sched_setaffinity(0, sizeof(cpu_set_t), &InitialCpus()); }

int SetupsBefore(int part, int parts, int total) {
  return total * (part + 1) / parts - total * part / parts;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!IsValidMetricName(name)) {
    throw std::invalid_argument("bad metric name: " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for metric " + name);
  }
  metrics_[name] = Metric{value, unit};
}

void Report::Print(const std::string& workload) const {
  std::printf("== perfbench %s ==\n", workload.c_str());
  for (const std::string& note : notes_) std::printf("  %s\n", note.c_str());
  for (const auto& [name, metric] : metrics_) {
    std::printf("  %-28s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  attempted=%lld failed=%lld correct=%s\n",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), correct ? "true" : "false");
  std::printf("PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %lld, "
              "\"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}, \"unexercised\": [");
  for (size_t i = 0; i < unexercised_.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", unexercised_[i].c_str());
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

void NoteSetups(Report* report, const std::vector<double>& seconds) {
  const auto [lo, hi] = std::minmax_element(seconds.begin(), seconds.end());
  char line[160];
  std::snprintf(line, sizeof(line),
                "setup_s is the median of %zu set-ups (%.4f s to %.4f s)",
                seconds.size(), *lo, *hi);
  report->Note(line);
}

void SetPercentileMs(Report* report, const std::string& name,
                     const std::vector<double>& seconds, double q) {
  const std::optional<double> value = Percentile(seconds, q);
  if (value.has_value()) {
    report->Set(name, *value * 1e3, "ms");
  } else {
    report->Note(name + ": not reported, " + std::to_string(seconds.size()) +
                 " samples leave fewer than " +
                 std::to_string(kMinTailSamples) + " beyond it");
  }
}

}  // namespace perfbench
