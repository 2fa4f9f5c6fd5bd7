// served_ingest: the TinyMlp demo system behind an in-process QueryServer on
// loopback (2 service workers, an attached IngestQueue). An open loop sends
// the mixed query workload at a fixed rate on 3 keep-alive connections and
// fixed-size ingest batches at a fixed rate on a fourth, which also saves a
// snapshot every few batches and, between its due times, polls /v1/stats for
// when each acknowledged batch is indexed. Latency is timed from each
// request's due time. After the schedule, closed-loop passes over the query
// list measure the server's query capacity.
#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/demo_system.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/query_spec_json.h"
#include "inprocess.h"
#include "net/http_client.h"
#include "net/query_server.h"
#include "persist/ingest.h"
#include "service/engine_registry.h"
#include "service/query_service.h"
#include "tensor/tensor.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace bench_util = deepeverest::bench_util;
namespace net = deepeverest::net;
namespace persist = deepeverest::persist;
namespace service = deepeverest::service;
using deepeverest::JsonValue;

constexpr uint32_t kBaseInputs = 2000;
constexpr int kDims = 8;
constexpr int kWorkers = 2;
constexpr int kQueryConnections = 3;
/// Fixed rates, about half of the closed-loop capacity on a 4-core x86 VM.
/// Queries: the capacity passes measure about 430 queries/s. Ingest: a
/// one-time probe with every connection sending back to back sustained 112
/// batches/s beside the queries.
constexpr double kQueryRate = 200.0;   // queries per second
constexpr double kIngestRate = 56.0;   // batches per second
constexpr int kIngestBatch = 4;        // inputs per batch
constexpr int kSnapshotEvery = 25;     // batches between snapshot saves
constexpr int kCheckEvery = 20;        // one query answer in 20 is verified
constexpr size_t kCheckVersions = 8;   // dataset versions re-executed
/// A segment whose generator lag p99 (on either stream) exceeds this many
/// seconds is invalid: it is answer-checked, then discarded and run again,
/// at most kMaxInvalidSegments times per run.
constexpr double kMaxGeneratorLagP99 = 0.25;
constexpr int kMaxInvalidSegments = 2;
constexpr int kSetups = 16;  // per run, spread over its segments
/// Closed-loop passes over the query list after each segment's schedule.
constexpr int kCapacityPasses = 5;
/// Length of one segment of a run (see RunServedIngest).
constexpr double kSegmentSeconds = 20.0;

/// The served system is fixed; the seed drives only the load (query order
/// and ingested values), so every seed exercises the same program state.
bench_util::DemoSystemOptions SystemOptions(const std::string& dir,
                                            bool preprocess) {
  bench_util::DemoSystemOptions options;
  options.num_inputs = kBaseInputs;
  options.input_units = kDims;
  options.preprocess = preprocess;
  options.store_dir = dir;
  return options;
}

/// One full serving stack over a store directory inside the checkout.
class Stack {
 public:
  Stack(const std::string& dir,
        std::function<void(std::shared_ptr<deepeverest::Trace>)> apply_sink)
      : dir_(dir) {
    ResetDir(dir);
    auto system = bench_util::DemoSystem::Make(SystemOptions(dir, true));
    Require(system.ok(), "demo system: " + system.status().ToString());
    system_ = std::move(*system);
    persist::IngestQueueOptions ingest_options;
    ingest_options.trace_sink = std::move(apply_sink);
    auto ingest = persist::IngestQueue::Create(
        system_->engine(), system_->mutable_dataset(), system_->store(),
        ingest_options);
    Require(ingest.ok(), "ingest queue: " + ingest.status().ToString());
    ingest_ = std::move(*ingest);
    service::QueryServiceOptions service_options;
    service_options.num_workers = kWorkers;
    auto svc = service::QueryService::Create(system_->engine(),
                                             service_options);
    Require(svc.ok(), "query service: " + svc.status().ToString());
    service_ = std::move(*svc);
    Require(registry_.Register(system_->model_name(), service_.get()).ok() &&
                registry_.AttachIngest(system_->model_name(), ingest_.get())
                    .ok(),
            "registry");
    auto server = net::QueryServer::Start(&registry_, {});
    Require(server.ok(), "query server: " + server.status().ToString());
    server_ = std::move(*server);
  }

  ~Stack() {
    server_->Shutdown();
    ingest_->Shutdown();
    service_->Shutdown();
    server_.reset();
    ingest_.reset();
    service_.reset();
    system_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  uint16_t port() const { return server_->port(); }
  bench_util::DemoSystem* system() { return system_.get(); }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::unique_ptr<bench_util::DemoSystem> system_;
  std::unique_ptr<persist::IngestQueue> ingest_;
  std::unique_ptr<service::QueryService> service_;
  service::EngineRegistry registry_;
  std::unique_ptr<net::QueryServer> server_;
};

std::vector<service::IngestInput> MakeIngestInputs(uint64_t seed,
                                                   size_t count) {
  deepeverest::Rng rng(seed * 7919 + 11);
  std::vector<service::IngestInput> inputs(count);
  for (size_t i = 0; i < count; ++i) {
    inputs[i].values.resize(kDims);
    for (float& v : inputs[i].values) {
      v = static_cast<float>(rng.NextGaussian());
    }
    inputs[i].label = static_cast<int>(i % 4);
  }
  return inputs;
}

std::string IngestBody(const std::vector<service::IngestInput>& inputs,
                       size_t begin, size_t end) {
  deepeverest::JsonWriter w;
  w.BeginObject();
  w.Key("inputs");
  w.BeginArray();
  for (size_t i = begin; i < end; ++i) {
    w.BeginObject();
    w.Key("values");
    w.BeginArray();
    for (float v : inputs[i].values) w.Double(v);
    w.EndArray();
    w.Key("label");
    w.Int(inputs[i].label);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

void SleepUntil(double due) {
  const auto target = std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(due)));
  std::this_thread::sleep_until(target);
}

double Number(const JsonValue& object, const char* key) {
  const JsonValue* field = object.Find(key);
  Require(field != nullptr && field->is_number(),
          std::string("response lacks ") + key);
  return field->number_value();
}

struct QuerySample {
  OpenLoopSample time;
  size_t spec = 0;
  bool ok = false;
  bool traced = false;
  size_t bytes = 0;
  int64_t version = 0;
  int64_t rounds = 0;
  int64_t inputs_run = 0;
  std::vector<core::ResultEntry> entries;  // kept for verified samples
  // From the inline trace of traced requests.
  double query_span_s = 0.0;
  double queue_wait_s = 0.0;
  double serialize_s = 0.0;
  double nta_s = 0.0;
  double nta_self_s = 0.0;
};

/// Reads the spans of an inline trace into `sample`.
void ReadTrace(const JsonValue& trace, QuerySample* sample) {
  const JsonValue* spans = trace.Find("spans");
  Require(spans != nullptr && spans->is_array(), "trace without spans");
  std::vector<SpanView> views;
  for (const JsonValue& span : spans->array_items()) {
    const JsonValue* name = span.Find("name");
    Require(name != nullptr && name->is_string(), "span without a name");
    views.push_back({name->string_value(),
                     static_cast<int>(Number(span, "parent")),
                     static_cast<int64_t>(Number(span, "start_nanos")),
                     static_cast<int64_t>(Number(span, "duration_nanos"))});
  }
  int64_t nta_self = 0;
  for (size_t i = 0; i < views.size(); ++i) {
    const SpanView& v = views[i];
    const double s = static_cast<double>(v.duration_nanos) * 1e-9;
    if (v.name == "query") sample->query_span_s += s;
    if (v.name == "queue_wait") sample->queue_wait_s += s;
    if (v.name == "serialize") sample->serialize_s += s;
    if (v.name == "nta") sample->nta_s += s;
    if (v.name == "nta" || v.name == "nta.round" || v.name == "nta.target") {
      nta_self += SelfNanos(views, static_cast<int>(i));
    }
  }
  sample->nta_self_s = static_cast<double>(nta_self) * 1e-9;
}

struct IngestResult {
  std::vector<double> ack_s;
  std::vector<double> visible_s;
  std::vector<double> snapshot_s;
  std::vector<OpenLoopSample> sends;  // every batch sent
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t lag_inputs_max = 0;
  /// Acknowledged batches in ack order: (batch index, assigned first id).
  std::vector<std::pair<int, uint32_t>> acked;
  std::string error;
};

struct ServedStats {
  int64_t applies = 0;
  int64_t snapshot_bytes = 0;
  uint32_t min_watermark = 0;
  uint32_t dataset_size = 0;
  double worker_utilization = 0.0;
  double batch_fill = 0.0;
  int64_t rejected = 0;
};

ServedStats ReadStats(net::HttpClient* client) {
  auto response = client->Get("/v1/stats");
  Require(response.ok() && response->status == 200, "GET /v1/stats");
  auto json = deepeverest::ParseJson(response->body);
  Require(json.ok(), "stats json");
  const JsonValue* models = json->Find("models");
  Require(models != nullptr && models->is_array() &&
              !models->array_items().empty(),
          "stats without models");
  const JsonValue& model = models->array_items().front();
  const JsonValue* ingest = model.Find("ingest");
  Require(ingest != nullptr, "stats without ingest section");
  ServedStats stats;
  stats.applies = static_cast<int64_t>(Number(*ingest, "applies_total"));
  stats.snapshot_bytes =
      static_cast<int64_t>(Number(*ingest, "snapshot_bytes"));
  stats.min_watermark = static_cast<uint32_t>(Number(*ingest, "min_watermark"));
  stats.dataset_size = static_cast<uint32_t>(Number(*ingest, "dataset_size"));
  stats.worker_utilization = Number(model, "worker_utilization");
  stats.rejected = static_cast<int64_t>(Number(model, "rejected_queue_full") +
                                        Number(model, "rejected_session_limit"));
  double fill = 0.0;
  int classes = 0;
  const JsonValue* per_class = model.Find("per_class");
  Require(per_class != nullptr && per_class->is_array(), "no per_class");
  for (const JsonValue& cls : per_class->array_items()) {
    if (Number(cls, "completed") > 0) {
      fill += Number(cls, "batch_fill");
      ++classes;
    }
  }
  stats.batch_fill = classes > 0 ? fill / classes : 0.0;
  return stats;
}

/// The ingest connection, open loop: batch j is sent at its due time, and
/// every kSnapshotEvery-th ack is followed by a snapshot save. While it
/// waits for the next due time it polls /v1/stats and records when each
/// acknowledged batch became visible (to within one poll). After the last
/// batch it polls until every batch is visible.
void IngestLoop(uint16_t port, const std::vector<service::IngestInput>& inputs,
                double start, int batches, IngestResult* out) {
  try {
    auto client = net::HttpClient::Connect("127.0.0.1", port, 30.0);
    Require(client.ok(), "connect");
    struct Unseen {
      uint32_t size;  // dataset size once the batch is in
      double acked;
    };
    std::deque<Unseen> unseen;
    double ready = 0.0;  // when the connection last finished a request
    for (int j = 0; j <= batches; ++j) {
      const double due = DueTime(start, 1.0 / kIngestRate, j);
      while (!unseen.empty() && (j == batches || NowSeconds() < due)) {
        const ServedStats stats = ReadStats(&*client);
        const double now = NowSeconds();
        out->lag_inputs_max = std::max<int64_t>(
            out->lag_inputs_max,
            static_cast<int64_t>(stats.dataset_size) - stats.min_watermark);
        while (!unseen.empty() && stats.min_watermark >= unseen.front().size) {
          out->visible_s.push_back(now - unseen.front().acked);
          unseen.pop_front();
        }
        if (unseen.empty()) break;
        SleepUntil(j == batches ? now + 5e-4 : std::min(now + 5e-4, due));
      }
      if (j == batches) break;
      OpenLoopSample t;
      t.due = due;
      t.ready = ready;
      SleepUntil(t.due);
      t.sent = NowSeconds();
      const size_t begin = static_cast<size_t>(j) * kIngestBatch;
      auto ack = client->Post("/v1/ingest",
                              IngestBody(inputs, begin, begin + kIngestBatch));
      t.done = NowSeconds();
      ready = t.done;
      out->sends.push_back(t);
      ++out->attempted;
      if (!ack.ok() || ack->status != 200) {
        ++out->failed;
        continue;
      }
      out->ack_s.push_back(t.latency());
      auto json = deepeverest::ParseJson(ack->body);
      Require(json.ok(), "ack json");
      out->acked.emplace_back(
          j, static_cast<uint32_t>(Number(*json, "first_id")));
      unseen.push_back(
          {static_cast<uint32_t>(Number(*json, "dataset_size")), t.done});
      if ((j + 1) % kSnapshotEvery == 0) {
        const double s0 = NowSeconds();
        auto saved = client->Post("/v1/snapshot/save", "{}");
        ++out->attempted;
        if (!saved.ok() || saved->status != 200) {
          ++out->failed;
        } else {
          out->snapshot_s.push_back(NowSeconds() - s0);
        }
        ready = NowSeconds();
      }
    }
  } catch (const std::exception& e) {
    out->error = e.what();
  }
}

/// Sends one query and reads its response into `sample`, whose spec, due
/// time and tracing the caller has set. `keep_entries` keeps the answer for
/// the answer check.
void SendQuery(net::HttpClient* client, const std::string& body,
               bool keep_entries, QuerySample* sample) {
  sample->time.sent = NowSeconds();
  auto response = client->Post(
      sample->traced ? "/v1/query?trace=1" : "/v1/query", body);
  sample->time.done = NowSeconds();
  sample->ok = response.ok() && response->status == 200;
  if (!sample->ok) return;
  sample->bytes = response->body.size();
  auto json = deepeverest::ParseJson(response->body);
  Require(json.ok(), "query json");
  const JsonValue* stats = json->Find("stats");
  Require(stats != nullptr, "query response without stats");
  sample->version = static_cast<int64_t>(Number(*stats, "dataset_version"));
  sample->rounds = static_cast<int64_t>(Number(*stats, "rounds"));
  sample->inputs_run = static_cast<int64_t>(Number(*stats, "inputs_run"));
  const JsonValue* entries = json->Find("entries");
  Require(entries != nullptr && entries->is_array(), "no entries");
  if (keep_entries) {
    for (const JsonValue& e : entries->array_items()) {
      sample->entries.push_back({static_cast<uint32_t>(Number(e, "input_id")),
                                 Number(e, "value")});
    }
  }
  if (sample->traced) {
    const JsonValue* trace = json->Find("trace");
    Require(trace != nullptr, "traced response without a trace");
    ReadTrace(*trace, sample);
  }
}

/// One query connection of the open loop: requests c, c + 3, c + 6, ... of
/// the schedule, each sent at its due time.
void QueryLoop(uint16_t port, const std::vector<std::string>& bodies,
               double start, int connection, int requests, bool trace,
               std::vector<QuerySample>* out, std::string* error) {
  try {
    auto client = net::HttpClient::Connect("127.0.0.1", port, 30.0);
    Require(client.ok(), "connect");
    double ready = 0.0;  // when the connection last finished a request
    for (int i = connection; i < requests; i += kQueryConnections) {
      QuerySample sample;
      sample.spec = static_cast<size_t>(i) % bodies.size();
      // A traced run traces every other request, so both halves share the
      // same moment of the run and the overhead is their difference.
      sample.traced = trace && i % 2 == 1;
      sample.time.due = DueTime(start, 1.0 / kQueryRate, i);
      sample.time.ready = ready;
      SleepUntil(sample.time.due);
      SendQuery(&*client, bodies[sample.spec], i % kCheckEvery == 0, &sample);
      ready = sample.time.done;
      out->push_back(std::move(sample));
    }
  } catch (const std::exception& e) {
    *error = e.what();
  }
}

/// One closed-loop pass over the query list: each of the kQueryConnections
/// connections sends its share back to back from a common start. Returns
/// the pass's completion rate in queries per second; the samples are
/// appended to `out`.
double CapacityPass(uint16_t port, const std::vector<std::string>& bodies,
                    bool keep_entries, std::vector<QuerySample>* out) {
  std::vector<std::vector<QuerySample>> per_connection(kQueryConnections);
  std::vector<std::string> errors(kQueryConnections);
  const double start = NowSeconds() + 0.01;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kQueryConnections; ++c) {
      threads.emplace_back([&, c] {
        try {
          auto client = net::HttpClient::Connect("127.0.0.1", port, 30.0);
          Require(client.ok(), "connect");
          SleepUntil(start);
          for (size_t i = static_cast<size_t>(c); i < bodies.size();
               i += kQueryConnections) {
            QuerySample sample;
            sample.spec = i;
            sample.time.due = NowSeconds();
            SendQuery(&*client, bodies[i], keep_entries && i % kCheckEvery == 0,
                      &sample);
            per_connection[static_cast<size_t>(c)].push_back(
                std::move(sample));
          }
        } catch (const std::exception& e) {
          errors[static_cast<size_t>(c)] = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::string& error : errors) Require(error.empty(), error);
  double end = start;
  for (auto& samples : per_connection) {
    for (QuerySample& sample : samples) {
      end = std::max(end, sample.time.done);
      out->push_back(std::move(sample));
    }
  }
  return static_cast<double>(bodies.size()) / (end - start);
}

/// Re-executes the sampled answers on fresh engines over each answer's
/// pinned dataset prefix. Returns the number of mismatches.
int64_t VerifySamples(const std::string& dir,
                      const std::vector<core::QuerySpec>& specs,
                      const std::vector<service::IngestInput>& ingested,
                      const std::vector<const QuerySample*>& samples,
                      size_t* versions_checked) {
  std::vector<int64_t> versions;
  for (const QuerySample* s : samples) versions.push_back(s->version);
  std::sort(versions.begin(), versions.end());
  versions.erase(std::unique(versions.begin(), versions.end()),
                 versions.end());
  // Evenly spaced, from the first version to the last (the capacity
  // passes' final one).
  std::vector<int64_t> chosen;
  const size_t n = versions.size();
  const size_t count = std::min(kCheckVersions, n);
  for (size_t i = 0; i < count; ++i) {
    chosen.push_back(versions[count == 1 ? n - 1 : i * (n - 1) / (count - 1)]);
  }
  int64_t mismatches = 0;
  for (int64_t version : chosen) {
    ResetDir(dir);
    auto fresh = bench_util::DemoSystem::Make(SystemOptions(dir, false));
    Require(fresh.ok(), "reference system: " + fresh.status().ToString());
    for (int64_t id = kBaseInputs; id < version; ++id) {
      const service::IngestInput& input =
          ingested.at(static_cast<size_t>(id - kBaseInputs));
      (*fresh)->mutable_dataset()->Add(
          deepeverest::Tensor(deepeverest::Shape({kDims}), input.values),
          input.label);
    }
    for (const QuerySample* s : samples) {
      if (s->version != version) continue;
      auto expected = (*fresh)->engine()->ExecuteSpec(specs[s->spec]);
      Require(expected.ok(), "reference query: " +
                                 expected.status().ToString());
      core::TopKResult got;
      got.entries = s->entries;
      if (!SameEntries(got, *expected)) ++mismatches;
    }
  }
  *versions_checked = chosen.size();
  return mismatches;
}

using ApplySink = std::function<void(std::shared_ptr<deepeverest::Trace>)>;

/// One segment of a run: a freshly started stack driven on the fixed
/// schedule, then by the closed-loop capacity passes, and what it measured.
struct Segment {
  std::vector<QuerySample> samples;  // the open loop's
  std::vector<QuerySample> capacity_samples;
  std::vector<double> capacity_qps;  // one per pass
  IngestResult ingest;
  ServedStats before;
  ServedStats after;  // at the end of the open loop
  nn::InferenceStats forward;
  uint64_t written = 0;
  uint64_t read = 0;
  uint64_t store_bytes = 0;
  uint64_t full_bytes = 0;
  uint64_t index_bytes = 0;
  uint64_t analytic_bytes = 0;
  int64_t mismatches = 0;
  size_t checked = 0;
  size_t versions_checked = 0;
};

Segment RunSegment(const Args& args, const std::string& dir,
                   const ApplySink& apply_sink,
                   const std::vector<std::string>& bodies,
                   const std::vector<service::IngestInput>& inputs,
                   double seconds) {
  auto stack = std::make_unique<Stack>(dir, apply_sink);
  core::DeepEverest* engine = stack->system()->engine();
  storage::FileStore* store = stack->system()->store();
  const int requests = static_cast<int>(seconds * kQueryRate);
  const int batches = static_cast<int>(inputs.size()) / kIngestBatch;
  // A fresh connection per read: the server closes idle keep-alives.
  auto read_stats = [port = stack->port()] {
    auto client = net::HttpClient::Connect("127.0.0.1", port);
    Require(client.ok(), "connect");
    return ReadStats(&*client);
  };

  Segment seg;
  const uint64_t written_before = store->bytes_written();
  const uint64_t read_before = store->bytes_read();
  const nn::InferenceStats forward_before = engine->inference()->stats();
  seg.before = read_stats();
  const double start = NowSeconds() + 0.05;
  std::vector<std::vector<QuerySample>> per_connection(kQueryConnections);
  std::vector<std::string> errors(kQueryConnections);
  {
    std::vector<std::thread> threads;
    threads.emplace_back(IngestLoop, stack->port(), std::cref(inputs), start,
                         batches, &seg.ingest);
    for (int c = 0; c < kQueryConnections; ++c) {
      threads.emplace_back(QueryLoop, stack->port(), std::cref(bodies), start,
                           c, requests, args.trace, &per_connection[c],
                           &errors[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::string& error : errors) Require(error.empty(), error);
  Require(seg.ingest.error.empty(), seg.ingest.error);

  seg.after = read_stats();
  seg.forward = engine->inference()->stats() - forward_before;
  seg.written = store->bytes_written() - written_before;
  seg.read = store->bytes_read() - read_before;
  seg.store_bytes = DirBytes(stack->dir());
  seg.full_bytes = engine->FullMaterializationBytes();
  seg.index_bytes = engine->PersistedIndexBytes().ValueOr(0);
  seg.analytic_bytes = engine->AnalyticIndexBytes();
  for (auto& samples : per_connection) {
    for (QuerySample& sample : samples) {
      seg.samples.push_back(std::move(sample));
    }
  }

  // Capacity: every ingested batch is visible now, so the passes run over
  // the same grown dataset for a given seed, with nothing else in flight.
  for (int p = 0; p < kCapacityPasses; ++p) {
    seg.capacity_qps.push_back(CapacityPass(stack->port(), bodies, p == 0,
                                            &seg.capacity_samples));
  }
  return seg;
}

/// The segment's answer check, outside every timed region: every ack must
/// have been assigned the next dense id, and sampled answers are
/// re-executed over their pinned prefixes.
void VerifySegment(const std::string& dir,
                   const std::vector<core::QuerySpec>& specs,
                   const std::vector<service::IngestInput>& inputs,
                   Segment* seg) {
  std::vector<service::IngestInput> ingested;
  for (const auto& [batch, first_id] : seg->ingest.acked) {
    if (first_id != kBaseInputs + ingested.size()) ++seg->mismatches;
    const auto begin =
        inputs.begin() + static_cast<ptrdiff_t>(batch) * kIngestBatch;
    ingested.insert(ingested.end(), begin, begin + kIngestBatch);
  }
  std::vector<const QuerySample*> checked;
  for (const auto* samples : {&seg->samples, &seg->capacity_samples}) {
    for (const QuerySample& sample : *samples) {
      if (sample.ok && !sample.entries.empty()) checked.push_back(&sample);
    }
  }
  seg->checked = checked.size();
  seg->mismatches +=
      VerifySamples(dir, specs, ingested, checked, &seg->versions_checked);
}

/// The p99 of `values`, or their maximum when too few samples support one.
double P99OrMax(const std::vector<double>& values) {
  Require(!values.empty(), "no samples");
  return Percentile(values, 0.99)
      .value_or(*std::max_element(values.begin(), values.end()));
}

/// Send lags of the query and ingest streams of the open loop.
struct Lags {
  std::vector<double> queries, ingest;

  /// Appends `seg`'s send lags, or only the generator's part of them.
  void Add(const Segment& seg, bool generator_only) {
    for (const QuerySample& s : seg.samples) {
      queries.push_back(generator_only ? s.time.generator_lag()
                                       : s.time.send_lag());
    }
    for (const OpenLoopSample& t : seg.ingest.sends) {
      ingest.push_back(generator_only ? t.generator_lag() : t.send_lag());
    }
  }

  /// The p99 of the worse stream.
  double p99() const { return std::max(P99OrMax(queries), P99OrMax(ingest)); }
};

}  // namespace

void RunServedIngest(const Args& args, Report* report) {
  // Apply spans reach the benchmark through the queue's trace sink.
  std::mutex apply_mu;
  std::vector<double> apply_s;
  ApplySink apply_sink;
  if (args.trace) {
    apply_sink = [&](std::shared_ptr<deepeverest::Trace> trace) {
      const deepeverest::Trace::Data data = trace->Snapshot();
      std::lock_guard<std::mutex> lock(apply_mu);
      for (const deepeverest::TraceSpan& span : data.spans) {
        if (span.name == "ingest.apply") {
          apply_s.push_back(static_cast<double>(span.duration_nanos) * 1e-9);
        }
      }
    };
  }

  // The dataset grows by every ingested batch, so a long run is several
  // segments of about kSegmentSeconds, each on a fresh stack from the same
  // base; one long schedule would end in a different (saturated) regime.
  const int segments = std::max(
      1, static_cast<int>(std::lround(args.seconds / kSegmentSeconds)));
  const double seconds = args.seconds / segments;

  // Set-up: start the whole serving stack, kSetups times in a run, spread
  // over the segments and each on the next CPU (where the stack's threads
  // start too); the median is setup_s.
  std::vector<double> setup_s;
  std::vector<core::QuerySpec> specs;
  auto set_up = [&](int segment) {
    for (int i = SetupsBefore(segment, segments, kSetups); i > 0; --i) {
      PinToCpu(static_cast<int>(setup_s.size()));
      const double t0 = NowSeconds();
      Stack stack(args.work_dir + "/setup", apply_sink);
      setup_s.push_back(NowSeconds() - t0);
      if (specs.empty()) {
        specs = bench_util::MakeMixedWorkload(*stack.system()->model(), 240);
      }
    }
    UnpinCpu();
  };
  set_up(0);

  // The seeded workload: the shared mixed query list in a seeded order, and
  // Gaussian ingest inputs.
  deepeverest::Rng order(args.seed * 104729 + 7);
  order.Shuffle(&specs);
  std::vector<std::string> bodies;
  for (const core::QuerySpec& spec : specs) {
    bodies.push_back(core::QuerySpecJson(spec));
  }
  const int batches = static_cast<int>(seconds * kIngestRate);
  const std::vector<service::IngestInput> inputs =
      MakeIngestInputs(args.seed, static_cast<size_t>(batches) * kIngestBatch);
  // A segment in which the generator itself fell behind is invalid, not a
  // regression: it is run again. Its answers are still checked.
  std::vector<Segment> segs, invalid;
  for (int k = 0; k < segments; ++k) {
    if (k > 0) set_up(k);
    for (;;) {
      Segment seg = RunSegment(args,
                               args.work_dir + "/served-" + std::to_string(k),
                               apply_sink, bodies, inputs, seconds);
      Lags lags;
      lags.Add(seg, true);
      if (lags.p99() <= kMaxGeneratorLagP99) {
        segs.push_back(std::move(seg));
        break;
      }
      report->Note("segment " + std::to_string(k) +
                   " invalid and run again: generator lag p99 " +
                   std::to_string(lags.p99() * 1e3) + " ms");
      invalid.push_back(std::move(seg));
      Require(static_cast<int>(invalid.size()) <= kMaxInvalidSegments,
              "invalid run: the load generator fell behind its schedule in " +
                  std::to_string(invalid.size()) + " segments");
    }
  }
  // Before the answer check, whose reference engines are not timed work.
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  int64_t mismatches = 0;
  size_t checked = 0, versions_checked = 0;
  for (auto* group : {&segs, &invalid}) {
    for (Segment& seg : *group) {
      VerifySegment(args.work_dir + "/reference", specs, inputs, &seg);
      mismatches += seg.mismatches;
      checked += seg.checked;
      versions_checked += seg.versions_checked;
    }
  }

  // Pool the samples of every segment.
  std::vector<double> latency, traced_latency, untraced_latency, queue_wait,
      net_overhead, ack_s, visible_s, snapshot_s, storage_ratio, capacity_qps;
  int64_t sent = 0, completed = 0, failed = 0, response_bytes = 0;
  int64_t rounds = 0, inputs_run = 0, traced_queries = 0;
  int64_t acked = 0, lag_inputs_max = 0, applies = 0;
  int64_t rejected = 0, ingest_attempted = 0, ingest_failed = 0;
  int64_t capacity_sent = 0, capacity_failed = 0;
  double serialize_s = 0.0, nta_s = 0.0, nta_self_s = 0.0, latency_sum = 0.0;
  double utilization = 0.0, batch_fill = 0.0;
  uint64_t written = 0, read = 0;
  nn::InferenceStats forward;
  for (const Segment& seg : segs) {
    for (const QuerySample& s : seg.samples) {
      ++sent;
      if (!s.ok) {
        ++failed;
        continue;
      }
      ++completed;
      latency.push_back(s.time.latency());
      latency_sum += s.time.latency();
      response_bytes += static_cast<int64_t>(s.bytes);
      (s.traced ? traced_latency : untraced_latency)
          .push_back(s.time.latency());
      if (s.traced) {
        ++traced_queries;
        rounds += s.rounds;
        inputs_run += s.inputs_run;
        queue_wait.push_back(s.queue_wait_s);
        net_overhead.push_back(s.time.done - s.time.sent - s.query_span_s);
        serialize_s += s.serialize_s;
        nta_s += s.nta_s;
        nta_self_s += s.nta_self_s;
      }
    }
    for (const QuerySample& s : seg.capacity_samples) {
      ++capacity_sent;
      if (!s.ok) ++capacity_failed;
    }
    capacity_qps.insert(capacity_qps.end(), seg.capacity_qps.begin(),
                        seg.capacity_qps.end());
    const IngestResult& in = seg.ingest;
    ack_s.insert(ack_s.end(), in.ack_s.begin(), in.ack_s.end());
    visible_s.insert(visible_s.end(), in.visible_s.begin(),
                     in.visible_s.end());
    snapshot_s.insert(snapshot_s.end(), in.snapshot_s.begin(),
                      in.snapshot_s.end());
    acked += static_cast<int64_t>(in.acked.size());
    lag_inputs_max = std::max(lag_inputs_max, in.lag_inputs_max);
    ingest_attempted += in.attempted;
    ingest_failed += in.failed;
    applies += seg.after.applies - seg.before.applies;
    rejected += seg.after.rejected - seg.before.rejected;
    utilization += seg.after.worker_utilization / segs.size();
    batch_fill += seg.after.batch_fill / segs.size();
    written += seg.written;
    read += seg.read;
    forward.inputs_run += seg.forward.inputs_run;
    forward.batches_run += seg.forward.batches_run;
    forward.macs += seg.forward.macs;
    forward.wall_seconds += seg.forward.wall_seconds;
    storage_ratio.push_back(static_cast<double>(seg.store_bytes) /
                            static_cast<double>(seg.full_bytes));
  }
  const Segment& last = segs.back();
  report->correct = mismatches == 0 && checked > 0;
  // Operations of invalid segments count as attempted; only their timings
  // are dropped.
  int64_t invalid_attempted = 0, invalid_failed = 0;
  for (const Segment& seg : invalid) {
    for (const auto* samples : {&seg.samples, &seg.capacity_samples}) {
      for (const QuerySample& s : *samples) {
        ++invalid_attempted;
        if (!s.ok) ++invalid_failed;
      }
    }
    invalid_attempted += seg.ingest.attempted;
    invalid_failed += seg.ingest.failed;
  }
  report->attempted =
      sent + capacity_sent + ingest_attempted + invalid_attempted;
  report->failed = failed + capacity_failed + ingest_failed + invalid_failed;
  // Indexes are built in set-up (ingest merges count under ingest.*), and
  // the demo engine runs without IQA.
  report->Unexercised({"iqa", "index.builds", "index.infer_s", "index.sort_s",
                       "index.persist_s"});

  Lags send_lag, generator_lag;
  for (const Segment& seg : segs) {
    send_lag.Add(seg, false);
    generator_lag.Add(seg, true);
  }
  report->Note("TinyMlp, " + std::to_string(kBaseInputs) +
               " base inputs, seed " + std::to_string(args.seed) + ", " +
               std::to_string(segments) + " segments of " +
               std::to_string(seconds) + " s: " + std::to_string(kQueryRate) +
               " queries/s on " + std::to_string(kQueryConnections) +
               " connections, " + std::to_string(kIngestRate) +
               " batches/s of " + std::to_string(kIngestBatch) +
               " inputs, snapshot every " + std::to_string(kSnapshotEvery) +
               " batches; then " + std::to_string(kCapacityPasses) +
               " closed-loop passes of " + std::to_string(bodies.size()) +
               " queries");
  report->Note("verified " + std::to_string(checked) + " sampled answers at " +
               std::to_string(versions_checked) +
               " dataset versions, mismatches " + std::to_string(mismatches));
  report->Note("send lag p99 (generator's part): queries " +
               std::to_string(P99OrMax(send_lag.queries) * 1e3) + " ms (" +
               std::to_string(P99OrMax(generator_lag.queries) * 1e3) +
               " ms), ingest " +
               std::to_string(P99OrMax(send_lag.ingest) * 1e3) + " ms (" +
               std::to_string(P99OrMax(generator_lag.ingest) * 1e3) + " ms)");
  NoteSetups(report, setup_s);
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("queries_per_s", Median(capacity_qps), "1/s");
  SetPercentileMs(report, "query_p50_ms", latency, 0.5);
  SetPercentileMs(report, "query_p90_ms", latency, 0.9);
  SetPercentileMs(report, "query_p99_ms", latency, 0.99);
  SetPercentileMs(report, "ingest.ack_p50_ms", ack_s, 0.5);
  SetPercentileMs(report, "ingest.visible_p50_ms", visible_s, 0.5);
  SetPercentileMs(report, "ingest.visible_p90_ms", visible_s, 0.9);
  report->Set("storage_ratio", Median(storage_ratio), "ratio");

  report->Set("loadgen.sent", static_cast<double>(sent), "count");
  report->Set("loadgen.completed", static_cast<double>(completed), "count");
  report->Set("loadgen.send_lag_p99_ms", generator_lag.p99() * 1e3, "ms");
  report->Set("index.bytes_disk", static_cast<double>(last.index_bytes), "B");
  report->Set("index.bytes_analytic", static_cast<double>(last.analytic_bytes),
              "B");
  report->Set("ingest.applies", static_cast<double>(applies), "count");
  report->Set("ingest.lag_inputs_max", static_cast<double>(lag_inputs_max),
              "inputs");
  report->Set("snapshot.saves", static_cast<double>(snapshot_s.size()),
              "count");
  report->Set("snapshot.save_s", snapshot_s.empty() ? 0.0 : Median(snapshot_s),
              "s");
  report->Set("snapshot.bytes", static_cast<double>(last.after.snapshot_bytes),
              "B");
  report->Set("storage.bytes_written", static_cast<double>(written), "B");
  report->Set("storage.bytes_read", static_cast<double>(read), "B");
  const double payload =
      static_cast<double>(acked) * kIngestBatch * kDims * sizeof(float);
  report->Set("storage.write_amp",
              payload > 0 ? static_cast<double>(written) / payload : 0.0,
              "ratio");
  report->Set("service.worker_utilization", utilization, "ratio");
  report->Set("service.batch_fill", batch_fill, "ratio");
  report->Set("service.rejected", static_cast<double>(rejected), "count");
  report->Set("nn.inputs_run", static_cast<double>(forward.inputs_run),
              "count");
  report->Set("nn.batches_run", static_cast<double>(forward.batches_run),
              "count");
  report->Set("nn.forward_s", forward.wall_seconds, "s");
  report->Set("nn.gmac_per_s",
              forward.wall_seconds > 0
                  ? static_cast<double>(forward.macs) / forward.wall_seconds /
                        1e9
                  : 0.0,
              "GMAC/s");
  report->Set("nn.forward_share",
              latency_sum > 0 ? forward.wall_seconds / latency_sum : 0.0,
              "ratio");
  if (args.trace) {
    {
      std::lock_guard<std::mutex> lock(apply_mu);
      double total = 0.0;
      for (double s : apply_s) total += s;
      report->Set("ingest.apply_s", total, "s");
    }
    SetPercentileMs(report, "service.queue_wait_p50_ms", queue_wait, 0.5);
    SetPercentileMs(report, "service.queue_wait_p90_ms", queue_wait, 0.9);
    SetPercentileMs(report, "net.overhead_p50_ms", net_overhead, 0.5);
    report->Set("net.serialize_s", serialize_s, "s");
    report->Set("net.response_bytes",
                static_cast<double>(response_bytes) /
                    static_cast<double>(std::max<int64_t>(completed, 1)),
                "B");
    report->Set("nta.rounds", static_cast<double>(rounds), "count");
    report->Set("nta.step_s", nta_s, "s");
    report->Set("nta.self_s", nta_self_s, "s");
    report->Set("nta.inputs_per_query",
                traced_queries > 0 ? static_cast<double>(inputs_run) /
                                         static_cast<double>(traced_queries)
                                   : 0.0,
                "inputs");
    report->Set("trace.overhead_p50_ms",
                (*Percentile(traced_latency, 0.5) -
                 *Percentile(untraced_latency, 0.5)) *
                    1e3,
                "ms");
  }
}

}  // namespace perfbench
