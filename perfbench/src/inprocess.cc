#include "inprocess.h"

#include <cstring>
#include <filesystem>
#include <memory>

#include "common/trace.h"
#include "core/distance.h"
#include "core/nta.h"
#include "nn/inference.h"

namespace perfbench {

namespace {

void Check(const deepeverest::Status& status, const char* what) {
  Require(status.ok(), std::string(what) + ": " + status.ToString());
}

/// Sum of the self time of every NTA span (the phase span, its target
/// evaluation and its rounds): NTA's own work with the forward passes of
/// its compute_layer children taken out.
double NtaSelfSeconds(const deepeverest::Trace::Data& data) {
  std::vector<SpanView> spans;
  spans.reserve(data.spans.size());
  for (const deepeverest::TraceSpan& span : data.spans) {
    spans.push_back(
        {span.name, span.parent, span.start_nanos, span.duration_nanos});
  }
  int64_t self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    if (name == "nta" || name == "nta.round" || name == "nta.target") {
      self += SelfNanos(spans, static_cast<int>(i));
    }
  }
  return static_cast<double>(self) * 1e-9;
}

}  // namespace

core::TopKResult RunQuery(core::DeepEverest* engine,
                          const core::QuerySpec& spec, bool traced,
                          StepTotals* totals, double* wall_s) {
  core::QueryContext ctx;
  if (!traced) {
    const double t0 = NowSeconds();
    auto execution = engine->BeginSpec(spec, &ctx);
    Check(execution.status(), "begin query");
    auto result = (*execution)->Run();
    *wall_s = NowSeconds() - t0;
    Check(result.status(), "run query");
    return std::move(result).value();
  }

  ctx.trace = std::make_shared<deepeverest::Trace>(
      deepeverest::Trace::NextId(), /*max_spans=*/1u << 16);
  nn::InferenceEngine* inference = engine->inference();
  const double t0 = NowSeconds();
  auto execution = engine->BeginSpec(spec, &ctx);
  Check(execution.status(), "begin query");
  double elapsed = NowSeconds() - t0;
  int64_t nta_steps = 0;
  double nta_step_s = 0.0;
  for (int step = 0; !(*execution)->done(); ++step) {
    const nn::InferenceStats before = inference->stats();
    const double s0 = NowSeconds();
    Check((*execution)->Step(), "query step");
    const double step_s = NowSeconds() - s0;
    const nn::InferenceStats delta = inference->stats() - before;
    elapsed += step_s;
    totals->inputs_run += delta.inputs_run;
    totals->batches_run += delta.batches_run;
    totals->macs += delta.macs;
    totals->forward_s += delta.wall_seconds;
    // Step 0 resolves the group, step 1 ensures the index (and answers
    // from the fresh scan when it had to build), later steps are NTA.
    if (step == 1) {
      totals->ensure_s += step_s;
      totals->ensure_forward_s += delta.wall_seconds;
    } else if (step >= 2) {
      ++nta_steps;
      nta_step_s += step_s;
      totals->nta_inputs += delta.inputs_run;
    }
  }
  auto result = (*execution)->TakeResult();
  Check(result.status(), "query result");
  *wall_s = elapsed;

  ctx.trace->Finish();
  const deepeverest::Trace::Data data = ctx.trace->Snapshot();
  for (const deepeverest::TraceSpan& span : data.spans) {
    if (span.name != "index.ensure") continue;
    for (const deepeverest::TraceAttr& attr : span.attrs) {
      if (attr.key == "built") totals->builds += attr.int_value;
    }
  }
  totals->query_s += elapsed;
  if (nta_steps > 0) {
    ++totals->nta_queries;
    totals->nta_rounds += result->stats.rounds;
    totals->nta_step_s += nta_step_s;
    totals->nta_self_s += NtaSelfSeconds(data);
  }
  return std::move(result).value();
}

std::vector<storage::LayerActivationMatrix> Materialize(
    const nn::Model& model, const data::Dataset& dataset) {
  nn::InferenceEngine engine(&model, &dataset, /*batch_size=*/16);
  const uint32_t n = dataset.size();
  std::vector<storage::LayerActivationMatrix> full;
  std::vector<deepeverest::Tensor> outputs;
  for (uint32_t id = 0; id < n; ++id) {
    Check(engine.ComputeAllLayers(id, &outputs), "materialize");
    if (full.empty()) {
      for (const deepeverest::Tensor& out : outputs) {
        full.push_back(storage::LayerActivationMatrix::Make(
            n, static_cast<uint64_t>(out.NumElements())));
      }
    }
    for (size_t layer = 0; layer < outputs.size(); ++layer) {
      std::memcpy(full[layer].MutableRow(id), outputs[layer].data(),
                  sizeof(float) * full[layer].num_neurons);
    }
  }
  return full;
}

core::TopKResult ReferenceAnswer(
    const std::vector<storage::LayerActivationMatrix>& full,
    const core::QuerySpec& spec) {
  const storage::LayerActivationMatrix& matrix =
      full.at(static_cast<size_t>(spec.layer));
  auto dist = core::MakeDistance(spec.distance);
  Check(dist.status(), "distance");
  if (spec.kind == core::QuerySpec::Kind::kHighest) {
    return core::ScanHighest(matrix, spec.neurons, spec.k, *dist);
  }
  const uint32_t target = static_cast<uint32_t>(spec.target_id);
  std::vector<float> target_acts;
  for (int64_t neuron : spec.neurons) {
    target_acts.push_back(matrix.At(target, static_cast<uint64_t>(neuron)));
  }
  return core::ScanMostSimilar(matrix, spec.neurons, target_acts, spec.k,
                               *dist, /*exclude_target=*/true, target);
}

bool SameEntries(const core::TopKResult& a, const core::TopKResult& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    if (a.entries[i].input_id != b.entries[i].input_id) return false;
    if (std::memcmp(&a.entries[i].value, &b.entries[i].value,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void HashEntries(const core::TopKResult& result, AnswerHash* hash) {
  hash->Add(result.entries.size());
  for (const core::ResultEntry& entry : result.entries) {
    hash->Add(entry.input_id);
    hash->AddDouble(entry.value);
  }
}

void ReportStepTotals(const StepTotals& t, Report* report) {
  report->Set("nn.inputs_run", static_cast<double>(t.inputs_run), "count");
  report->Set("nn.batches_run", static_cast<double>(t.batches_run), "count");
  report->Set("nn.forward_s", t.forward_s, "s");
  report->Set("nn.gmac_per_s",
              t.forward_s > 0 ? static_cast<double>(t.macs) / t.forward_s / 1e9
                              : 0.0,
              "GMAC/s");
  report->Set("nn.forward_share", t.query_s > 0 ? t.forward_s / t.query_s : 0,
              "ratio");
  report->Set("nta.rounds", static_cast<double>(t.nta_rounds), "count");
  report->Set("nta.step_s", t.nta_step_s, "s");
  report->Set("nta.self_s", t.nta_self_s, "s");
  report->Set("nta.inputs_per_query",
              t.nta_queries > 0 ? static_cast<double>(t.nta_inputs) /
                                      static_cast<double>(t.nta_queries)
                                : 0.0,
              "inputs");
}

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace perfbench
