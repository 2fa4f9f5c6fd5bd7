#include "core/index_manager.h"

#include <chrono>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace deepeverest {
namespace core {

bool IndexManager::IsIndexed(int layer) const {
  if (Peek(layer) != nullptr) return true;
  Result<persist::SnapshotManifest> manifest = ReadCommittedManifest();
  return manifest.ok() && manifest->Find(layer) != nullptr;
}

LayerIndexPtr IndexManager::Peek(int layer) const {
  common::ReaderMutexLock lock(&mu_);
  auto it = loaded_.find(layer);
  return it != loaded_.end() ? it->second : nullptr;
}

std::vector<int> IndexManager::LoadedLayers() const {
  common::ReaderMutexLock lock(&mu_);
  std::vector<int> layers;
  layers.reserve(loaded_.size());
  for (const auto& entry : loaded_) layers.push_back(entry.first);
  return layers;
}

LayerIndexPtr IndexManager::Publish(int layer, LayerIndex index) {
  auto shared = std::make_shared<const LayerIndex>(std::move(index));
  common::WriterMutexLock lock(&mu_);
  loaded_[layer] = shared;
  return shared;
}

common::Mutex* IndexManager::BuildMutexFor(int layer) {
  common::MutexLock lock(&build_map_mu_);
  auto& slot = build_mu_[layer];
  if (slot == nullptr) slot = std::make_unique<common::Mutex>();
  return slot.get();
}

Result<uint64_t> IndexManager::Commit(
    const std::vector<std::pair<int, const LayerIndex*>>& indexes) {
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  common::MutexLock lock(&commit_mu_);
  const data::Dataset& dataset = inference_->dataset();
  return persist::WriteSnapshot(store_, model_name(), dataset.name(),
                                dataset.size(), indexes, now);
}

Result<persist::SnapshotManifest> IndexManager::ReadCommittedManifest()
    const {
  DE_ASSIGN_OR_RETURN(persist::SnapshotManifest manifest,
                      persist::ReadManifest(store_, model_name()));
  if (manifest.dataset != inference_->dataset().name()) {
    return Status::FailedPrecondition("snapshot is of dataset '" +
                                      manifest.dataset + "', not '" +
                                      inference_->dataset().name() + "'");
  }
  return manifest;
}

Result<LayerIndex> IndexManager::LoadCommittedSegment(
    const persist::SnapshotManifest& manifest, int layer) const {
  const persist::SegmentInfo* segment = manifest.Find(layer);
  if (segment == nullptr) {
    return Status::NotFound("no committed segment for layer " +
                            std::to_string(layer));
  }
  if (layer < 0 || layer >= inference_->model().num_layers()) {
    return Status::IOError("segment layer " + std::to_string(layer) +
                           " is not a layer of the model");
  }
  if (segment->watermark > inference_->dataset().size()) {
    // The snapshot is ahead of the dataset (ingest log truncated or
    // deleted): installing would index inputs that no longer exist.
    return Status::FailedPrecondition(
        "segment watermark " + std::to_string(segment->watermark) +
        " is past the dataset (" +
        std::to_string(inference_->dataset().size()) + " inputs)");
  }
  DE_ASSIGN_OR_RETURN(LayerIndex index,
                      persist::LoadSegment(store_, *segment));
  if (index.num_neurons() != inference_->model().NeuronCount(layer)) {
    return Status::IOError("segment neuron count does not match layer " +
                           std::to_string(layer));
  }
  return index;
}

Result<persist::SnapshotManifest> IndexManager::LoadCommitted(
    uint32_t* installed) {
  *installed = 0;
  DE_ASSIGN_OR_RETURN(persist::SnapshotManifest manifest,
                      ReadCommittedManifest());
  for (const persist::SegmentInfo& segment : manifest.segments) {
    common::MutexLock build_lock(BuildMutexFor(segment.layer));
    if (IsLoaded(segment.layer)) continue;
    Result<LayerIndex> index = LoadCommittedSegment(manifest, segment.layer);
    if (!index.ok()) {
      DE_LOG_WARNING << "not loading the committed segment of layer "
                     << segment.layer << ": " << index.status().ToString();
      continue;
    }
    Publish(segment.layer, std::move(*index));
    ++*installed;
  }
  return manifest;
}

Result<storage::LayerActivationMatrix> IndexManager::ComputeRows(
    int layer, uint32_t base, uint32_t count, nn::InferenceReceipt* receipt) {
  const uint64_t num_neurons =
      static_cast<uint64_t>(inference_->model().NeuronCount(layer));
  std::vector<uint32_t> ids(count);
  std::iota(ids.begin(), ids.end(), base);
  std::vector<std::vector<float>> rows;
  DE_RETURN_NOT_OK(inference_->ComputeLayer(ids, layer, &rows, receipt));
  storage::LayerActivationMatrix acts =
      storage::LayerActivationMatrix::Make(count, num_neurons);
  for (uint32_t i = 0; i < count; ++i) {
    std::copy(rows[i].begin(), rows[i].end(), acts.MutableRow(i));
  }
  return acts;
}

Result<LayerIndexPtr> IndexManager::EnsureIndex(
    int layer, storage::LayerActivationMatrix* fresh_acts,
    PreprocessTimings* timings, nn::InferenceReceipt* receipt) {
  return LoadOrBuild(layer, fresh_acts, timings, receipt, nullptr);
}

Result<LayerIndexPtr> IndexManager::LoadOrBuild(
    int layer, storage::LayerActivationMatrix* fresh_acts,
    PreprocessTimings* timings, nn::InferenceReceipt* receipt,
    std::vector<std::pair<int, LayerIndexPtr>>* uncommitted) {
  if (layer < 0 || layer >= inference_->model().num_layers()) {
    return Status::OutOfRange("layer " + std::to_string(layer) +
                              " out of range");
  }
  // Fast path: already in memory (shared lock only).
  if (LayerIndexPtr index = Peek(layer)) return index;

  // Build-once/read-many: serialise loaders/builders of this layer while
  // other layers proceed in parallel. Whoever wins the race does the work;
  // later arrivals find the loaded entry on re-check.
  common::MutexLock build_lock(BuildMutexFor(layer));
  if (LayerIndexPtr index = Peek(layer)) return index;

  // Try the committed segment. Any validation failure (truncation, bit rot,
  // another dataset) falls through to a rebuild, whose commit replaces it.
  Result<persist::SnapshotManifest> manifest = ReadCommittedManifest();
  Result<LayerIndex> loaded = manifest.ok()
                                  ? LoadCommittedSegment(*manifest, layer)
                                  : Result<LayerIndex>(manifest.status());
  if (loaded.ok()) {
    return MergeTo(layer, Publish(layer, std::move(*loaded)),
                   inference_->dataset().size(), receipt);
  }
  if (loaded.status().code() != StatusCode::kNotFound) {
    DE_LOG_WARNING << "rebuilding the index of layer " << layer
                   << " instead of loading it: "
                   << loaded.status().ToString();
  }
  DE_ASSIGN_OR_RETURN(LayerIndex index,
                      BuildIndex(layer, fresh_acts, timings, receipt));
  if (uncommitted != nullptr) {
    LayerIndexPtr published = Publish(layer, std::move(index));
    uncommitted->emplace_back(layer, published);
    return published;
  }
  // One new snapshot generation holding this layer's segment, committed
  // before the index is visible.
  DE_RETURN_NOT_OK(CommitTimed({{layer, &index}}, timings));
  return Publish(layer, std::move(index));
}

Status IndexManager::CommitTimed(
    const std::vector<std::pair<int, const LayerIndex*>>& indexes,
    PreprocessTimings* timings) {
  Stopwatch watch;
  DE_RETURN_NOT_OK(Commit(indexes).status());
  if (timings != nullptr) timings->persist_seconds += watch.ElapsedSeconds();
  return Status::OK();
}

Result<LayerIndex> IndexManager::BuildIndex(
    int layer, storage::LayerActivationMatrix* fresh_acts,
    PreprocessTimings* timings, nn::InferenceReceipt* receipt) {
  const uint32_t num_inputs = inference_->dataset().size();

  // 1. DNN inference over the entire dataset for this layer (§4.6 notes
  // inference restarts from the first layer every time, because only queried
  // layers are persisted — ComputeLayer does exactly that).
  Stopwatch watch;
  DE_ASSIGN_OR_RETURN(storage::LayerActivationMatrix acts,
                      ComputeRows(layer, 0, num_inputs, receipt));
  const double inference_seconds = watch.ElapsedSeconds();

  // 2. Sort & partition: build NPI + MAI.
  watch.Reset();
  DE_ASSIGN_OR_RETURN(LayerIndex index,
                      LayerIndex::Build(acts, options_.layer_config));
  const double index_seconds = watch.ElapsedSeconds();

  if (timings != nullptr) {
    timings->inference_seconds += inference_seconds;
    timings->index_seconds += index_seconds;
  }
  if (fresh_acts != nullptr) *fresh_acts = std::move(acts);
  return index;
}

Result<LayerIndexPtr> IndexManager::MergeTo(int layer, LayerIndexPtr current,
                                            uint32_t target_size,
                                            nn::InferenceReceipt* receipt) {
  while (current->num_inputs() < target_size) {
    const uint32_t base = current->num_inputs();
    const uint32_t count = target_size - base;
    DE_ASSIGN_OR_RETURN(storage::LayerActivationMatrix delta,
                        ComputeRows(layer, base, count, receipt));
    Result<LayerIndex> merged = current->AppendInputs(delta);
    if (!merged.ok()) {
      if (merged.status().code() != StatusCode::kFailedPrecondition) {
        return merged.status();
      }
      // Degenerate index shape that cannot take appends: rebuild wholesale
      // at the target size (rare; only all-MAI configs).
      DE_ASSIGN_OR_RETURN(storage::LayerActivationMatrix all,
                          ComputeRows(layer, 0, target_size, receipt));
      merged = LayerIndex::Build(all, options_.layer_config);
      DE_RETURN_NOT_OK(merged.status());
    }
    current = Publish(layer, std::move(*merged));
  }
  return current;
}

Status IndexManager::CatchUp(int layer, uint32_t target_size,
                             nn::InferenceReceipt* receipt) {
  if (layer < 0 || layer >= inference_->model().num_layers()) {
    return Status::OutOfRange("layer " + std::to_string(layer) +
                              " out of range");
  }
  common::MutexLock build_lock(BuildMutexFor(layer));
  LayerIndexPtr current = Peek(layer);
  if (current == nullptr) {
    return Status::FailedPrecondition("layer " + std::to_string(layer) +
                                      " has no loaded index to merge into");
  }
  return MergeTo(layer, std::move(current), target_size, receipt).status();
}

Status IndexManager::PreprocessAllLayers(PreprocessTimings* timings) {
  // Every layer built here goes into one commit at the end: one manifest
  // write for the whole pass instead of one per layer.
  std::vector<std::pair<int, LayerIndexPtr>> built;
  for (int layer = 0; layer < inference_->model().num_layers(); ++layer) {
    if (IsLoaded(layer)) continue;
    DE_RETURN_NOT_OK(
        LoadOrBuild(layer, nullptr, timings, nullptr, &built).status());
  }
  if (built.empty()) return Status::OK();
  std::vector<std::pair<int, const LayerIndex*>> indexes;
  for (const auto& [layer, index] : built) {
    indexes.emplace_back(layer, index.get());
  }
  return CommitTimed(indexes, timings);
}

Result<uint64_t> IndexManager::PersistedBytes() const {
  Result<persist::SnapshotManifest> manifest =
      persist::ReadManifest(store_, model_name());
  if (manifest.status().code() == StatusCode::kNotFound) return uint64_t{0};
  DE_RETURN_NOT_OK(manifest.status());
  return manifest->total_bytes;
}

}  // namespace core
}  // namespace deepeverest
