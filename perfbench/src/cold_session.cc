// cold_session: Fig 6 workload 1 plus Fig 11 on MiniResNet. Nothing is
// preprocessed, so each layer's index is built by the first query that
// touches it (inference + sort + persist). Layer transitions follow
// p_same/p_prev/p_new = .5/.3/.2; every query is SimHigh over 3 neurons, and
// consecutive queries on one layer keep the target and swap one neuron, so
// Inter-Query Acceleration (IQA) serves most of their rows. The IQA capacity
// is fixed below the session's activation working set, which an untimed
// calibration session with an unbounded cache measures, so the cache must
// evict.
//
// One session is too few queries to be steady across seeds, so a run is
// several short sessions, each on a fresh store with its own targets and
// groups drawn from the run's seed; every session rebuilds the same layers.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util/query_gen.h"
#include "common/rng.h"
#include "core/deepeverest.h"
#include "data/dataset.h"
#include "inprocess.h"
#include "nn/model_zoo.h"
#include "storage/file_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace bench_util = deepeverest::bench_util;

constexpr uint32_t kInputs = 240;
constexpr int kQueries = 100;  // per session
constexpr int kSetups = 16;  // per run, spread over its sessions
constexpr int kTopK = 10;
/// IQA capacity: below every session's activation working set (about
/// 10.8 MiB on this dataset; each run prints its calibration session's).
constexpr uint64_t kIqaCapacityBytes = 9ull << 20;
/// Sessions per second of --seconds (one session takes about 2.3 s on a
/// 4-core x86 VM).
constexpr double kSessionsPerSecond = 0.4;
/// Fig 6 workload 1 is one fixed layer sequence; the run's seed draws the
/// targets and neuron groups.
constexpr uint64_t kLayerSequenceSeed = 6;

/// The dataset is fixed; the seed drives the query session only.
data::Dataset MakeDataset() {
  data::SyntheticImageConfig config;
  config.num_inputs = kInputs;
  config.seed = 4048;
  return data::MakeSyntheticImages(config);
}

/// The seeded session: layer sequence, then per run of same-layer queries
/// one target and a group that loses one neuron per query.
std::vector<core::QuerySpec> MakeSession(const nn::Model& model,
                                         const data::Dataset& dataset,
                                         uint64_t seed) {
  bench_util::WorkloadSpec spec;
  spec.p_same = 0.5;
  spec.p_prev = 0.3;
  spec.p_new = 0.2;
  spec.num_queries = kQueries;
  spec.seed = kLayerSequenceSeed;
  const std::vector<int> layers =
      bench_util::GenerateLayerSequence(model.activation_layers(), spec);
  nn::InferenceEngine generator(&model, &dataset, 8);
  deepeverest::Rng rng(seed * 1000003 + 29);
  std::vector<core::QuerySpec> session;
  for (size_t begin = 0; begin < layers.size();) {
    size_t end = begin;
    while (end < layers.size() && layers[end] == layers[begin]) ++end;
    const uint32_t target =
        static_cast<uint32_t>(rng.NextUint64(dataset.size()));
    auto groups = bench_util::GenerateIqaSequence(
        &generator, target, layers[begin], /*group_size=*/3,
        /*num_replace=*/1, static_cast<int>(end - begin), &rng);
    Require(groups.ok(), groups.status().ToString());
    for (const core::NeuronGroup& group : *groups) {
      core::QuerySpec query;
      query.kind = core::QuerySpec::Kind::kMostSimilar;
      query.k = kTopK;
      query.layer = group.layer;
      query.neurons = group.neurons;
      query.target_id = target;
      session.push_back(std::move(query));
    }
    begin = end;
  }
  return session;
}

core::DeepEverestOptions EngineOptions(uint64_t iqa_capacity) {
  core::DeepEverestOptions options;
  options.batch_size = 8;
  options.enable_iqa = true;
  options.iqa_capacity_bytes = iqa_capacity;
  return options;
}

/// One session on a fresh store and engine.
struct Session {
  std::vector<double> latency;
  std::vector<core::TopKResult> answers;
  double seconds = 0.0;
  uint64_t iqa_bytes = 0;
  core::IqaCache::Stats iqa;
  uint64_t index_bytes = 0;
  uint64_t analytic_bytes = 0;
  uint64_t full_bytes = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  int64_t inputs_run = 0;
};

Session RunSession(const nn::Model& model, const data::Dataset& dataset,
                   const std::vector<core::QuerySpec>& queries,
                   uint64_t iqa_capacity, const std::string& dir, bool traced,
                   StepTotals* totals) {
  ResetDir(dir);
  auto store = storage::FileStore::Open(dir);
  Require(store.ok(), store.status().ToString());
  auto engine = core::DeepEverest::Create(&model, &dataset, &*store,
                                          EngineOptions(iqa_capacity));
  Require(engine.ok(), engine.status().ToString());
  Session session;
  for (const core::QuerySpec& query : queries) {
    double wall = 0.0;
    session.answers.push_back(
        RunQuery(engine->get(), query, traced, totals, &wall));
    session.latency.push_back(wall);
    session.seconds += wall;
  }
  core::IqaCache* iqa = (*engine)->iqa_cache();
  session.iqa = iqa->stats();
  for (const auto& shard : iqa->ShardSnapshots()) {
    session.iqa_bytes += shard.size_bytes;
  }
  session.index_bytes = (*engine)->PersistedIndexBytes().ValueOr(0);
  session.analytic_bytes = (*engine)->AnalyticIndexBytes();
  session.full_bytes = (*engine)->FullMaterializationBytes();
  session.inputs_run = (*engine)->inference()->stats().inputs_run;
  session.bytes_written = store->bytes_written();
  session.bytes_read = store->bytes_read();
  return session;
}

}  // namespace

void RunColdSession(const Args& args, Report* report) {
  auto model = deepeverest::nn::MakeMiniResNet(/*seed=*/202);

  const data::Dataset dataset = MakeDataset();

  // A fixed number of sessions for a given --seconds, so a seed always
  // means the same work. A traced run executes half as many, each twice in
  // a row (untraced, then traced), so tracing overhead is a paired
  // difference and the run takes as long as an untraced one.
  const int sessions = std::max(
      2, static_cast<int>(std::lround(args.seconds * kSessionsPerSecond)));
  const int distinct = args.trace ? std::max(1, sessions / 2) : sessions;
  std::vector<std::vector<core::QuerySpec>> lists;
  for (int i = 0; i < distinct; ++i) {
    lists.push_back(MakeSession(*model, dataset, args.seed * 1000 + i));
  }

  const uint64_t capacity = kIqaCapacityBytes;
  std::vector<Session> untraced, traced;
  std::vector<double> setup_s;
  StepTotals totals;
  for (size_t i = 0; i < lists.size(); ++i) {
    const std::vector<core::QuerySpec>& list = lists[i];
    PinToCpu(static_cast<int>(i));
    // Set-up is what a session needs before its first query: the dataset
    // and an engine over an empty store. kSetups of them are spread over
    // the run's sessions; the median is setup_s.
    for (int j = SetupsBefore(static_cast<int>(i),
                              static_cast<int>(lists.size()), kSetups);
         j > 0; --j) {
      const std::string dir = args.work_dir + "/setup";
      ResetDir(dir);
      const double t0 = NowSeconds();
      const data::Dataset fresh = MakeDataset();
      auto store = storage::FileStore::Open(dir);
      Require(store.ok(), store.status().ToString());
      auto engine = core::DeepEverest::Create(model.get(), &fresh, &*store,
                                              EngineOptions(capacity));
      Require(engine.ok(), engine.status().ToString());
      setup_s.push_back(NowSeconds() - t0);
    }
    untraced.push_back(RunSession(*model, dataset, list, capacity,
                                  args.work_dir + "/session", false, &totals));
    if (args.trace) {
      traced.push_back(RunSession(*model, dataset, list, capacity,
                                  args.work_dir + "/session", true, &totals));
    }
  }
  // Before the untimed work below: the calibration session's unbounded
  // cache and the answer check's reference hold more than a timed session.
  report->Set("peak_rss_mb", PeakRssMb(), "MB");

  // Calibration: the first list with an unbounded cache measures the
  // working set. The timed sessions' capacity is fixed, so it does not
  // depend on one seeded draw.
  StepTotals unused;
  const Session calibration =
      RunSession(*model, dataset, lists[0], /*iqa_capacity=*/1ull << 34,
                 args.work_dir + "/calibration", false, &unused);

  // Answers: every session against a scan over full materialisation, and
  // the calibration session (same list, other cache size) against session 0.
  const auto full = Materialize(*model, dataset);
  int64_t mismatches = 0;
  int64_t executed = static_cast<int64_t>(calibration.answers.size());
  AnswerHash hash;
  for (size_t i = 0; i < lists.size(); ++i) {
    for (size_t q = 0; q < lists[i].size(); ++q) {
      const core::TopKResult expected = ReferenceAnswer(full, lists[i][q]);
      if (!SameEntries(untraced[i].answers[q], expected)) ++mismatches;
      if (args.trace && !SameEntries(traced[i].answers[q], expected)) {
        ++mismatches;
      }
      HashEntries(untraced[i].answers[q], &hash);
    }
    executed += static_cast<int64_t>(lists[i].size()) * (args.trace ? 2 : 1);
  }
  for (size_t q = 0; q < lists[0].size(); ++q) {
    if (!SameEntries(calibration.answers[q], untraced[0].answers[q])) {
      ++mismatches;
    }
  }
  report->correct = mismatches == 0;
  report->attempted = executed;
  report->failed = 0;
  report->Unexercised({"service", "net", "ingest", "snapshot",
                       "storage.write_amp"});
  // One in-process closed-loop client: nothing is scheduled, nothing lags.
  report->Set("loadgen.sent", static_cast<double>(executed), "count");
  report->Set("loadgen.completed", static_cast<double>(executed), "count");
  report->Set("loadgen.send_lag_p99_ms", 0.0, "ms");

  auto pooled = [](const std::vector<Session>& group) {
    std::vector<double> latency;
    for (const Session& session : group) {
      latency.insert(latency.end(), session.latency.begin(),
                     session.latency.end());
    }
    return latency;
  };
  std::vector<double> session_s;
  for (const Session& session : untraced) session_s.push_back(session.seconds);
  std::set<int> touched;
  for (const core::QuerySpec& query : lists[0]) touched.insert(query.layer);
  const Session& first = untraced.front();

  report->Note("model MiniResNet, " + std::to_string(kInputs) +
               " inputs, seed " + std::to_string(args.seed) + ", " +
               std::to_string(lists.size()) + " sessions of " +
               std::to_string(kQueries) + " queries over " +
               std::to_string(touched.size()) + " layers");
  report->Note("iqa working set " + std::to_string(calibration.iqa_bytes) +
               " B, capacity " + std::to_string(capacity) + " B");
  report->Note("answer_hash " + std::to_string(hash.value()) +
               " mismatches " + std::to_string(mismatches));
  int64_t inputs_run = 0;
  for (const Session& session : untraced) inputs_run += session.inputs_run;
  report->Note("nn.inputs_run " + std::to_string(inputs_run));
  NoteSetups(report, setup_s);
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("session_s", Median(session_s), "s");
  report->Set("queries_per_s",
              static_cast<double>(kQueries) / Median(session_s), "1/s");
  SetPercentileMs(report, "query_p50_ms", pooled(untraced), 0.5);
  report->Set("storage_ratio",
              static_cast<double>(first.index_bytes) /
                  static_cast<double>(first.full_bytes),
              "ratio");

  if (args.trace) {
    const Session& measured = traced.front();
    ReportStepTotals(totals, report);
    report->Set("index.builds", static_cast<double>(totals.builds), "count");
    report->Set("index.infer_s", totals.ensure_forward_s, "s");
    // On the query path the build's sort and persist are one step.
    report->Set("index.sort_s", totals.ensure_s - totals.ensure_forward_s,
                "s");
    report->Set("index.persist_s", 0.0, "s");
    report->Set("index.bytes_disk", static_cast<double>(measured.index_bytes),
                "B");
    report->Set("index.bytes_analytic",
                static_cast<double>(measured.analytic_bytes), "B");
    core::IqaCache::Stats iqa;
    uint64_t written = 0, read = 0;
    for (const Session& session : traced) {
      iqa.hits += session.iqa.hits;
      iqa.misses += session.iqa.misses;
      iqa.evictions += session.iqa.evictions;
      iqa.insertions += session.iqa.insertions;
      written += session.bytes_written;
      read += session.bytes_read;
    }
    report->Set("iqa.hit_ratio",
                iqa.hits + iqa.misses > 0
                    ? static_cast<double>(iqa.hits) /
                          static_cast<double>(iqa.hits + iqa.misses)
                    : 0.0,
                "ratio");
    report->Set("iqa.evictions", static_cast<double>(iqa.evictions), "count");
    report->Set("iqa.insertions", static_cast<double>(iqa.insertions),
                "count");
    report->Set("iqa.capacity_bytes", static_cast<double>(capacity), "B");
    report->Set("iqa.working_set_bytes",
                static_cast<double>(calibration.iqa_bytes), "B");
    report->Set("storage.bytes_written", static_cast<double>(written), "B");
    report->Set("storage.bytes_read", static_cast<double>(read), "B");
    const double overhead = *Percentile(pooled(traced), 0.5) -
                            *Percentile(pooled(untraced), 0.5);
    report->Set("trace.overhead_p50_ms", overhead * 1e3, "ms");
  }
}

}  // namespace perfbench
