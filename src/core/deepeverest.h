#ifndef DEEPEVEREST_CORE_DEEPEVEREST_H_
#define DEEPEVEREST_CORE_DEEPEVEREST_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "core/index_manager.h"
#include "core/iqa_cache.h"
#include "core/nta.h"
#include "core/query.h"
#include "core/query_spec.h"
#include "data/dataset.h"
#include "nn/model.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace core {

/// \brief Top-level DeepEverest options.
struct DeepEverestOptions {
  /// Storage budget for all indexes. When 0, the budget is
  /// `storage_budget_fraction` of full materialisation (the paper's default
  /// experiments use 20%).
  uint64_t storage_budget_bytes = 0;
  double storage_budget_fraction = 0.2;

  /// Throughput-optimal inference batch size for this model/hardware.
  int batch_size = 64;

  /// Manual overrides for the automatic configuration selection (§4.7.2);
  /// used by the ablation experiments. Leave at the sentinels to let the
  /// selector decide.
  int num_partitions_override = 0;   // 0 = automatic
  double mai_ratio_override = -1.0;  // < 0 = automatic

  /// Use the MAI fast path during query execution (§4.7.1).
  bool enable_mai = true;

  /// Inter-Query Acceleration (§4.7.3): in-memory activation cache shared
  /// across queries.
  bool enable_iqa = false;
  uint64_t iqa_capacity_bytes = 1ull << 30;  // paper uses a 1 GB budget
  /// Lock stripes for the IQA cache. 1 reproduces the paper's single cache;
  /// the concurrent query service uses more to avoid contention.
  int iqa_shards = 1;
};

class DeepEverest;

/// \brief One in-flight QuerySpec as a first-class, resumable object: the
/// whole-query phase machine (derived-group resolution → incremental index
/// ensure → scan or round-sliced NTA) with all state checkpointed between
/// `Step()` calls.
///
/// Created by DeepEverest::BeginSpec(). The first Steps run the coarse
/// phases (resolution costs at most one inference pass; the index ensure may
/// build the layer index); once NTA starts, every further Step runs exactly
/// one NTA round. The final result — and its receipt-metered `inputs_run`
/// attribution over the *whole* execution, resolution and index build
/// included — is identical to an uninterrupted ExecuteSpec call.
///
/// Ownership/threading: single-owner state, NOT internally synchronised. At
/// most one thread may touch the object at a time; a cross-thread handoff
/// must be ordered by an external synchronisation point (the QueryService
/// parks executions in its mutex-guarded dispatch queue). The QueryContext
/// passed to BeginSpec must outlive the execution; cancellation and deadline
/// are re-validated at every Step, so an execution whose deadline expired
/// while parked aborts on its first resumed Step.
class QueryExecution {
 public:
  ~QueryExecution();
  QueryExecution(const QueryExecution&) = delete;
  QueryExecution& operator=(const QueryExecution&) = delete;

  /// Runs one unit of work (one phase transition or one NTA round). A
  /// non-OK status finishes the execution; TakeResult() returns the same
  /// status. Calling Step() once done is a no-op.
  Status Step();

  /// True once the query finished (answer ready or terminal error).
  bool done() const;

  /// Steps until done() or until `should_yield` returns true between
  /// steps. Returns OK when yielding; otherwise the terminal status.
  Status RunUntil(const std::function<bool()>& should_yield);

  /// Steps to completion and returns the final result.
  Result<TopKResult> Run();

  /// After done(): the final result or the terminal error. `wall_seconds`
  /// is accumulated *active* stepping time; parked time is not charged.
  Result<TopKResult> TakeResult();

 private:
  friend class DeepEverest;
  struct Impl;
  explicit QueryExecution(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// \brief The DeepEverest system: declarative top-k queries over DNN
/// activations, accelerated by NPI + MAI + NTA with incremental indexing.
///
/// Typical use:
/// \code
///   auto store = storage::FileStore::Open(dir).value();
///   auto de = DeepEverest::Create(model.get(), &dataset, &store, {});
///   NeuronGroup g{.layer = 7, .neurons = {12, 55, 203}};
///   auto top = (*de)->TopKMostSimilar(/*target_id=*/42, g, /*k=*/20);
/// \endcode
///
/// The system has ONE execution mechanism: every query is a core::QuerySpec
/// run through the resumable QueryExecution phase machine (BeginSpec). The
/// run-to-completion entry points are thin spec-building wrappers over it;
/// there is no separate non-resumable path and no entry point that bypasses
/// ValidateSpec or QueryContext.
class DeepEverest {
 public:
  /// `model`, `dataset`, and `store` must outlive the returned object.
  static Result<std::unique_ptr<DeepEverest>> Create(
      const nn::Model* model, const data::Dataset* dataset,
      storage::FileStore* store, const DeepEverestOptions& options);

  /// Top-k highest query ("FireMax"): the k inputs with the largest
  /// dist-aggregated activations for the group. Builds a QuerySpec and runs
  /// it through the canonical path (tie-complete termination, default
  /// context).
  Result<TopKResult> TopKHighest(const NeuronGroup& group, int k,
                                 DistanceKind distance = DistanceKind::kL2);

  /// Top-k most-similar query ("SimTop"/"SimHigh"): the k inputs closest to
  /// dataset input `target_id` in the group's activation space. The target
  /// itself is excluded from the result.
  Result<TopKResult> TopKMostSimilar(uint32_t target_id,
                                     const NeuronGroup& group, int k,
                                     DistanceKind distance = DistanceKind::kL2);

  /// \brief Begins a resumable execution of `spec` — the one mechanism every
  /// query runs through.
  ///
  /// Validates the spec (the shared ValidateSpec choke point) immediately;
  /// all further work — derived `TOP m NEURONS [OF input]` resolution under
  /// `ctx` (receipt-metered, deadline-checked, cancellable), incremental
  /// index ensure, then tie-complete NTA one round per Step — happens in
  /// Step(). The canonical serving mode is tie-complete: results are
  /// bit-identical to a fresh activation scan even on k-th-boundary value
  /// ties, regardless of schedule, park/resume timing, or cache state. The
  /// spec's serving envelope (session, QoS, deadline, weight) is NOT applied
  /// here — scheduling is the QueryService's job; `ctx` carries whatever of
  /// it applies. `ctx` must be non-null and outlive the execution; when its
  /// `iqa` is null it is filled with the engine's cache.
  Result<std::unique_ptr<QueryExecution>> BeginSpec(const QuerySpec& spec,
                                                    QueryContext* ctx);

  /// Begin + Run convenience: executes `spec` to completion. `ctx` may be
  /// null (a default context: no deadline, direct inference).
  Result<TopKResult> ExecuteSpec(const QuerySpec& spec,
                                 QueryContext* ctx = nullptr);

  /// The `m` maximally activated neurons of `layer` for `target_id`
  /// (descending activation) — the standard way interpretation sessions
  /// choose their neuron groups (§4.7.1). Costs one inference pass. The
  /// context-taking overload meters that pass into `ctx->receipt`, routes
  /// it through the context's batch scheduler, and honours
  /// cancellation/deadline — it is how BeginSpec resolves derived
  /// groups; the convenience overload runs with a default context.
  Result<std::vector<int64_t>> MaximallyActivatedNeurons(uint32_t target_id,
                                                         int layer, int m);
  Result<std::vector<int64_t>> MaximallyActivatedNeurons(uint32_t target_id,
                                                         int layer, int m,
                                                         QueryContext* ctx);

  /// Eagerly indexes every layer (paper Figure 10's extreme case). Without
  /// this call, indexes build incrementally as layers are queried.
  Status PreprocessAllLayers(PreprocessTimings* timings = nullptr);

  const SystemConfig& config() const { return config_; }
  const DeepEverestOptions& options() const { return options_; }
  nn::InferenceEngine* inference() { return &inference_; }
  IndexManager* index_manager() { return &index_manager_; }
  IqaCache* iqa_cache() { return iqa_cache_.get(); }

  /// Bytes of full float32 materialisation of every layer (the storage
  /// baseline all budgets are fractions of).
  uint64_t FullMaterializationBytes() const;

  /// Bytes of the model's committed index snapshot (manifest + segments).
  Result<uint64_t> PersistedIndexBytes() const {
    return index_manager_.PersistedBytes();
  }

  /// Index cost for all layers under the paper's §4.7.2 accounting formulas
  /// (PID bits + MAI pairs; per-partition bounds excluded as negligible at
  /// the paper's scale). This is what the configuration selector budgets.
  uint64_t AnalyticIndexBytes() const;

 private:
  DeepEverest(const nn::Model* model, const data::Dataset* dataset,
              storage::FileStore* store, const DeepEverestOptions& options,
              const SystemConfig& config);

  const nn::Model* model_;
  DeepEverestOptions options_;
  SystemConfig config_;
  nn::InferenceEngine inference_;
  IndexManager index_manager_;
  std::unique_ptr<IqaCache> iqa_cache_;
};

}  // namespace core
}  // namespace deepeverest

#endif  // DEEPEVEREST_CORE_DEEPEVEREST_H_
