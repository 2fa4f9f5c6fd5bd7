// Measurement helpers shared by every perfbench workload: percentiles that
// refuse to extrapolate, open-loop due-time accounting, span self time, and
// the metric report that perfbench/run.py filters into its result line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise the sample cannot support it.
inline constexpr int kMinTailSamples = 10;

/// The q-quantile (q in [0, 1]) of `values` by linear interpolation between
/// the two closest ranks (numpy's default). Empty when fewer than
/// kMinTailSamples samples rank strictly above the upper interpolation
/// point.
std::optional<double> Percentile(std::vector<double> values, double q);

/// Median of a non-empty sample (mean of the middle pair for even sizes).
double Median(std::vector<double> values);

/// Metric names use only [A-Za-z0-9_.-], start with a letter or digit and
/// are at most 64 characters long.
bool IsValidMetricName(const std::string& name);

/// \brief Open-loop schedule: request `i` is due at `start + i * interval`.
/// Latency is taken from the due time, so a stall also charges the wait it
/// imposes on every request scheduled behind it.
struct OpenLoopSample {
  double due = 0.0;    // seconds on the run's clock
  double ready = 0.0;  // when its connection last finished a request
  double sent = 0.0;   // when the request left the generator
  double done = 0.0;   // when its response was complete
  double latency() const { return done - due; }
  double send_lag() const { return sent - due; }
  /// The part of the send lag the generator caused: lateness past both the
  /// due time and the moment its connection was free. Waiting behind a
  /// slow response on the connection is the server's, and counts in
  /// latency instead.
  double generator_lag() const { return sent - std::max(due, ready); }
};

inline double DueTime(double start, double interval, int64_t i) {
  return start + static_cast<double>(i) * interval;
}

/// Throws std::runtime_error(`what`) unless `ok`; a workload's failures end
/// the run without a result.
void Require(bool ok, const std::string& what);

/// Monotonic seconds since an arbitrary process-wide origin.
double NowSeconds();

/// \brief A finished span, as read from a program trace.
struct SpanView {
  std::string name;
  int parent = -1;
  int64_t start_nanos = 0;
  int64_t duration_nanos = 0;
};

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once and
/// clipped to the parent's interval).
int64_t SelfNanos(const std::vector<SpanView>& spans, int index);

/// FNV-1a accumulator for answer hashes that must repeat exactly.
class AnswerHash {
 public:
  void Add(uint64_t value);
  void AddDouble(double value);
  /// Folded to 32 bits so it survives a JSON double exactly.
  uint32_t value() const {
    return static_cast<uint32_t>(state_ ^ (state_ >> 32));
  }

 private:
  uint64_t state_ = 1469598103934665603ull;
};

/// Moves the calling thread to the `index`-th CPU (modulo the count) of the
/// set the process started with. The machine's CPUs run at speeds that vary
/// with load outside the process, so single-threaded workloads rotate over
/// all of them instead of staying wherever the scheduler first put them.
void PinToCpu(int index);

/// Lets the calling thread run on every CPU of the starting set again.
void UnpinCpu();

/// How many of `total` set-ups run before part `part` of `parts`, so that
/// set-ups spread evenly over a run instead of sampling one moment of it.
int SetupsBefore(int part, int parts, int total);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// \brief Named metrics of one run, printed as text lines for people and as
/// one JSON line that perfbench/run.py filters against BENCHMARK.json.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// A free-form line printed with the text report (sizes, seeds, notes).
  void Note(const std::string& line) { notes_.push_back(line); }
  /// Layers (metric names or name prefixes before a '.') this workload does
  /// not use; their per-layer metrics read 0.
  void Unexercised(std::vector<std::string> layers) {
    unexercised_ = std::move(layers);
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

  /// Text lines, then `PERFBENCH_RESULT {...}` on the last line.
  void Print(const std::string& workload) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> unexercised_;
};

/// Notes how many set-ups setup_s is the median of, and their range.
void NoteSetups(Report* report, const std::vector<double>& seconds);

/// Sets `name` to the q-percentile of `values` in milliseconds when the
/// sample supports it; records a note instead when it does not.
void SetPercentileMs(Report* report, const std::string& name,
                     const std::vector<double>& seconds, double q);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
