// Self-tests of the perfbench harness: percentile tail rule, metric names,
// open-loop due-time accounting, span self time and the set-up spread.
//
//   perfbench_selftest [path/to/BENCHMARK.json]
//
// With a path, every metric name declared there is checked as well.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void TestPercentileTailRule() {
  for (int n = 1; n <= 1200; ++n) {
    std::vector<double> values;
    for (int i = 0; i < n; ++i) values.push_back(static_cast<double>(n - i));
    for (double q : {0.5, 0.9, 0.99}) {
      const std::optional<double> p = perfbench::Percentile(values, q);
      if (!p.has_value()) continue;
      int beyond = 0;
      for (double v : values) beyond += v > *p ? 1 : 0;
      Expect(beyond >= perfbench::kMinTailSamples,
             "p" + std::to_string(q) + " of " + std::to_string(n) +
                 " samples has only " + std::to_string(beyond) + " beyond");
    }
  }
  std::vector<double> odd;
  for (int i = 1; i <= 21; ++i) odd.push_back(i);
  Expect(perfbench::Percentile(odd, 0.5) == 11.0, "p50 of 1..21 is 11");
  Expect(!perfbench::Percentile(odd, 0.9).has_value(),
         "p90 of 21 samples is refused");
  std::vector<double> big;
  for (int i = 0; i < 111; ++i) big.push_back(i);
  Expect(perfbench::Percentile(big, 0.9) == 99.0, "p90 of 0..110 is 99");
  Expect(perfbench::Median({3.0, 1.0, 2.0, 4.0}) == 2.5, "median of four");
}

void TestMetricNames(const char* benchmark_json) {
  for (const char* good : {"setup_s", "nn.gmac_per_s", "a-b.c_d", "9lives"}) {
    Expect(perfbench::IsValidMetricName(good), std::string("valid ") + good);
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "ms/s", "é"}) {
    Expect(!perfbench::IsValidMetricName(bad), std::string("invalid ") + bad);
  }
  Expect(!perfbench::IsValidMetricName(std::string(65, 'a')), "65 chars");
  bool threw = false;
  try {
    perfbench::Report report;
    report.Set("bad name", 1.0, "s");
  } catch (const std::exception&) {
    threw = true;
  }
  Expect(threw, "Report::Set rejects a bad name");
  if (benchmark_json == nullptr) return;
  std::ifstream in(benchmark_json);
  std::stringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  Expect(!body.empty(), std::string("read ") + benchmark_json);
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]*)\"");
  int names = 0;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    ++names;
    Expect(perfbench::IsValidMetricName((*it)[1].str()),
           "BENCHMARK.json name " + (*it)[1].str());
  }
  Expect(names > 0, "BENCHMARK.json declares names");
}

/// One keep-alive connection on a synthetic clock: a request is sent at its
/// due time or when the previous response arrives, whichever is later.
void TestDueTimeAccounting() {
  const double start = 100.0;
  const double interval = 0.010;
  const std::vector<double> service = {0.001, 0.001, 0.001, 0.050,
                                       0.001, 0.001, 0.001};
  std::vector<perfbench::OpenLoopSample> samples;
  double free_at = 0.0;
  for (size_t i = 0; i < service.size(); ++i) {
    perfbench::OpenLoopSample s;
    s.due = perfbench::DueTime(start, interval, static_cast<int64_t>(i));
    s.ready = free_at;
    // Request 6's thread sends 2 ms after its connection is free.
    s.sent = std::max(s.due, free_at) + (i == 6 ? 0.002 : 0.0);
    s.done = s.sent + service[i];
    free_at = s.done;
    samples.push_back(s);
  }
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };
  Expect(near(samples[3].due, 100.030), "due time of request 3");
  Expect(near(samples[3].latency(), 0.050), "stalled request latency");
  // The stall ends at 100.080: request 4 (due 100.040) waits 40 ms to be
  // sent and is charged that wait; a send-time clock would report 1 ms.
  Expect(near(samples[4].send_lag(), 0.040), "send lag behind a stall");
  Expect(near(samples[4].latency(), 0.041), "latency from the due time");
  Expect(near(samples[4].generator_lag(), 0.0),
         "waiting behind a busy connection is not the generator's lag");
  Expect(near(samples[5].latency(), 0.032), "backlog drains");
  Expect(near(samples[6].latency(), 0.025), "a late send counts in latency");
  Expect(near(samples[6].generator_lag(), 0.002),
         "lateness past a free connection is the generator's lag");
  Expect(near(samples[0].send_lag(), 0.0), "on-time send has no lag");
}

void TestSpanSelfTime() {
  using perfbench::SpanView;
  const std::vector<SpanView> spans = {
      {"root", -1, 0, 100},
      {"a", 0, 10, 20},   // [10, 30)
      {"b", 0, 20, 20},   // [20, 40) overlaps a
      {"c", 0, 90, 30},   // [90, 120) runs past the parent
      {"a.child", 1, 12, 5},  // grandchild: covered by a, not by root
  };
  Expect(perfbench::SelfNanos(spans, 0) == 100 - 30 - 10,
         "root self time = duration - covered child interval");
  Expect(perfbench::SelfNanos(spans, 1) == 15, "a self time");
  Expect(perfbench::SelfNanos(spans, 4) == 5, "leaf self time");
}

void TestSetupSpread() {
  for (int parts = 1; parts <= 40; ++parts) {
    int sum = 0, low = 1 << 30, high = 0;
    for (int part = 0; part < parts; ++part) {
      const int n = perfbench::SetupsBefore(part, parts, 16);
      sum += n;
      low = std::min(low, n);
      high = std::max(high, n);
    }
    Expect(sum == 16 && high - low <= 1,
           "16 set-ups spread evenly over " + std::to_string(parts) + " parts");
  }
}

}  // namespace

int main(int argc, char** argv) {
  TestPercentileTailRule();
  TestMetricNames(argc > 1 ? argv[1] : nullptr);
  TestDueTimeAccounting();
  TestSpanSelfTime();
  TestSetupSpread();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failures\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: ok\n");
  return 0;
}
