#ifndef DEEPEVEREST_CORE_INDEX_MANAGER_H_
#define DEEPEVEREST_CORE_INDEX_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "core/npi.h"
#include "nn/inference.h"
#include "persist/snapshot.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace core {

/// \brief Wall-clock breakdown of building one layer's index, matching the
/// paper's Figure 10 components.
struct PreprocessTimings {
  double inference_seconds = 0.0;  // DNN inference over the dataset
  double index_seconds = 0.0;      // sort & partition, MAI extraction
  double persist_seconds = 0.0;    // the snapshot commit (always fsynced)

  PreprocessTimings& operator+=(const PreprocessTimings& other) {
    inference_seconds += other.inference_seconds;
    index_seconds += other.index_seconds;
    persist_seconds += other.persist_seconds;
    return *this;
  }
};

struct IndexManagerOptions {
  LayerIndexConfig layer_config;
};

/// Immutable, shared view of one layer's index. Queries hold a reference for
/// their whole lifetime, pinning the dataset version (== num_inputs()) they
/// started at even if ingest swaps in a newer index underneath them.
using LayerIndexPtr = std::shared_ptr<const LayerIndex>;

/// \brief Builds, loads, merges, and caches per-layer indexes — the
/// incremental indexing strategy of paper §4.6, extended with live appends
/// for the ingest path — and commits them to the model's snapshot
/// (persist/snapshot.h), the only durable copy of an index.
///
/// No preprocessing happens up front: the first query against a layer pays
/// for one full-dataset inference pass over that layer, builds NPI+MAI from
/// the computed activations, and commits the index as one new snapshot
/// segment. Later queries reuse the in-memory index; a later session over
/// the same FileStore loads the layer's committed segment instead.
///
/// Durability: Commit() is the one writer of the model's snapshot manifest,
/// and its calls are serialised. A commit writes segments only for the
/// layers it is given and carries every other committed layer over by key.
/// CatchUp merges in memory and writes nothing: ingested inputs are durable
/// in the ingest log, and persist::IngestQueue commits the caught-up
/// indexes on its snapshot cadence.
///
/// Thread-safety: all public methods are safe to call concurrently. Index
/// construction is build-once/read-many: a per-layer build mutex serialises
/// builders/mergers of the *same* layer (the losers wait and then reuse the
/// winner's index, so the expensive full-dataset inference pass runs exactly
/// once per layer), while different layers build in parallel. Loaded indexes
/// are immutable and handed out as shared_ptr; CatchUp replaces the pointer
/// wholesale, so readers of the old version are never invalidated.
class IndexManager {
 public:
  /// Does not take ownership; all pointers must outlive the manager.
  IndexManager(nn::InferenceEngine* inference, storage::FileStore* store,
               IndexManagerOptions options)
      : inference_(inference), store_(store), options_(std::move(options)) {}

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Returns the index for `layer`: from memory, else from the layer's
  /// committed snapshot segment (merged up to the dataset size if it is
  /// behind), else built and committed. When the index had to be built, the
  /// full activation matrix computed in the process is moved into
  /// `*fresh_acts` (if non-null) so the caller can answer the triggering
  /// query from it directly — exactly the §4.6 flow. `timings`, if non-null,
  /// receives the build-cost breakdown (zeros when the index was already
  /// available). `receipt`, if non-null, is charged the inference this call
  /// ran — losers of a build race and segment loads add nothing.
  Result<LayerIndexPtr> EnsureIndex(
      int layer, storage::LayerActivationMatrix* fresh_acts = nullptr,
      PreprocessTimings* timings = nullptr,
      nn::InferenceReceipt* receipt = nullptr);

  /// The loaded index for `layer`, or nullptr (never touches disk).
  LayerIndexPtr Peek(int layer) const;

  /// Layers currently loaded in memory, ascending.
  std::vector<int> LoadedLayers() const;

  /// Startup recovery, run after the ingest log replay: loads the committed
  /// segment of every layer not in memory yet. A segment past the dataset
  /// or failing validation is skipped with a warning; that layer rebuilds
  /// on its first query. Returns the committed manifest (NotFound when none
  /// exists, FailedPrecondition when it belongs to another dataset) and sets
  /// `*installed` to the number of layers loaded.
  Result<persist::SnapshotManifest> LoadCommitted(uint32_t* installed);

  /// Commits `indexes` as one new snapshot generation (see
  /// persist::WriteSnapshot); every other committed layer is carried over.
  /// Always fsyncs. Returns the snapshot's bytes on disk.
  Result<uint64_t> Commit(
      const std::vector<std::pair<int, const LayerIndex*>>& indexes);

  /// Merges inputs [index.num_inputs, target_size) into `layer`'s loaded
  /// index: inference on just the new rows, incremental NPI/MAI insert,
  /// pointer swap. Writes nothing to the store. No-op when already caught
  /// up; error if the layer was never built (first query builds at full size
  /// anyway). Serialises with concurrent builders via the per-layer build
  /// mutex.
  Status CatchUp(int layer, uint32_t target_size,
                 nn::InferenceReceipt* receipt = nullptr);

  /// Whether the layer's index is loaded or the snapshot lists it.
  bool IsIndexed(int layer) const;

  /// True only if the index is already loaded in memory.
  bool IsLoaded(int layer) const {
    common::ReaderMutexLock lock(&mu_);
    return loaded_.count(layer) != 0;
  }

  /// Builds indexes for every model layer front to back (the paper's
  /// extreme preprocessing experiment, Figure 10) and commits the built
  /// ones as one snapshot generation. Accumulates timings.
  Status PreprocessAllLayers(PreprocessTimings* timings = nullptr);

  /// Bytes of the model's committed snapshot (manifest + segments), 0
  /// before the first commit.
  Result<uint64_t> PersistedBytes() const;

  const IndexManagerOptions& options() const { return options_; }

 private:
  /// EnsureIndex's body. With `uncommitted` null a built index is committed
  /// before it is published; otherwise it is published uncommitted and
  /// appended to `*uncommitted`, for the caller to commit with others.
  Result<LayerIndexPtr> LoadOrBuild(
      int layer, storage::LayerActivationMatrix* fresh_acts,
      PreprocessTimings* timings, nn::InferenceReceipt* receipt,
      std::vector<std::pair<int, LayerIndexPtr>>* uncommitted);

  /// Full-dataset inference and an NPI/MAI build for `layer`; neither
  /// committed nor published.
  Result<LayerIndex> BuildIndex(int layer,
                                storage::LayerActivationMatrix* fresh_acts,
                                PreprocessTimings* timings,
                                nn::InferenceReceipt* receipt);

  /// Commit() that adds its wall time to `timings->persist_seconds`.
  Status CommitTimed(
      const std::vector<std::pair<int, const LayerIndex*>>& indexes,
      PreprocessTimings* timings);

  /// The model's manifest, or FailedPrecondition when it belongs to another
  /// dataset (NotFound before the first commit).
  Result<persist::SnapshotManifest> ReadCommittedManifest() const;

  /// The committed segment of `layer` in `manifest`, checked against the
  /// current dataset. NotFound when the manifest has no usable segment.
  Result<LayerIndex> LoadCommittedSegment(
      const persist::SnapshotManifest& manifest, int layer) const;

  /// Merges `current` (the loaded index of `layer`) up to `target_size` and
  /// publishes each step. The caller holds the layer's build mutex.
  Result<LayerIndexPtr> MergeTo(int layer, LayerIndexPtr current,
                                uint32_t target_size,
                                nn::InferenceReceipt* receipt);

  /// Computes activations for input ids [base, base + count) of `layer`.
  Result<storage::LayerActivationMatrix> ComputeRows(
      int layer, uint32_t base, uint32_t count, nn::InferenceReceipt* receipt);

  /// Stores `index` as the loaded entry for `layer` (insert or replace).
  LayerIndexPtr Publish(int layer, LayerIndex index);

  /// The per-layer mutex serialising builders of `layer`. Takes build_map_mu_.
  common::Mutex* BuildMutexFor(int layer);

  const std::string& model_name() const { return inference_->model().name(); }

  nn::InferenceEngine* inference_;
  storage::FileStore* store_;
  IndexManagerOptions options_;

  /// Guards loaded_. Readers (queries on indexed layers) take it shared.
  mutable common::SharedMutex mu_;
  std::map<int, LayerIndexPtr> loaded_ GUARDED_BY(mu_);

  /// Guards build_mu_; never held while building.
  common::Mutex build_map_mu_;
  std::map<int, std::unique_ptr<common::Mutex>> build_mu_
      GUARDED_BY(build_map_mu_);

  /// Serialises Commit(): the manifest's single writer. Taken after a build
  /// mutex, never before one.
  common::Mutex commit_mu_;
};

}  // namespace core
}  // namespace deepeverest

#endif  // DEEPEVEREST_CORE_INDEX_MANAGER_H_
