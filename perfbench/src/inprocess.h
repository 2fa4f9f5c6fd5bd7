// In-process query driving for cold_session: one closed-loop client steps
// each query through DeepEverest::BeginSpec and, in a traced run, times
// every QueryExecution::Step with the inference engine's counters read
// around it. Also the answer check: a scan over a full float32
// materialisation computed outside the timed region.
#ifndef PERFBENCH_INPROCESS_H_
#define PERFBENCH_INPROCESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/deepeverest.h"
#include "core/query_spec.h"
#include "data/dataset.h"
#include "harness.h"
#include "nn/model.h"
#include "storage/activation_store.h"

namespace perfbench {

namespace core = deepeverest::core;
namespace data = deepeverest::data;
namespace nn = deepeverest::nn;
namespace storage = deepeverest::storage;

/// Per-layer totals accumulated over the queries of a traced run.
struct StepTotals {
  double query_s = 0.0;
  // nn: engine counter deltas around every Step.
  int64_t inputs_run = 0;
  int64_t batches_run = 0;
  int64_t macs = 0;
  double forward_s = 0.0;
  // core.index: the index-ensure Step (the second one of every query).
  int64_t builds = 0;
  double ensure_s = 0.0;
  double ensure_forward_s = 0.0;
  // core.nta: the Steps after it, one NTA round each.
  int64_t nta_queries = 0;
  int64_t nta_rounds = 0;
  double nta_step_s = 0.0;
  double nta_self_s = 0.0;  // NTA spans' self time, forward excluded
  int64_t nta_inputs = 0;
};

/// Runs `spec` to completion on `engine`. Untraced: BeginSpec + Run, timed
/// as one call. Traced: a Trace rides the context and every Step is timed
/// with InferenceEngine::stats() deltas, accumulated into `totals`.
/// Returns the answer; `*wall_s` receives the query's wall time.
core::TopKResult RunQuery(core::DeepEverest* engine,
                          const core::QuerySpec& spec, bool traced,
                          StepTotals* totals, double* wall_s);

/// Every layer's activations for every input, from a private engine whose
/// work is not counted anywhere.
std::vector<storage::LayerActivationMatrix> Materialize(
    const nn::Model& model, const data::Dataset& dataset);

/// The answer a scan over `full` gives for `spec` (explicit groups only).
core::TopKResult ReferenceAnswer(
    const std::vector<storage::LayerActivationMatrix>& full,
    const core::QuerySpec& spec);

/// Bit-for-bit equality of the entries (ids and value bits).
bool SameEntries(const core::TopKResult& a, const core::TopKResult& b);

void HashEntries(const core::TopKResult& result, AnswerHash* hash);

/// Sets the per-layer metrics derived from `totals` (nn, core.index's
/// ensure-step figures, core.nta).
void ReportStepTotals(const StepTotals& totals, Report* report);

/// Removes and recreates `dir`.
void ResetDir(const std::string& dir);

/// Bytes stored under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_INPROCESS_H_
