#include "core/index_manager.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/snapshot.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::TempDir;
using testing_util::TinySystem;

IndexManagerOptions Opts(int partitions = 4, double ratio = 0.1) {
  IndexManagerOptions options;
  options.layer_config = LayerIndexConfig{partitions, ratio};
  return options;
}

persist::SnapshotManifest Manifest(storage::FileStore* store,
                                   const nn::Model& model) {
  auto manifest = persist::ReadManifest(store, model.name());
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  return manifest.ok() ? std::move(manifest.value())
                       : persist::SnapshotManifest{};
}

TEST(IndexManagerTest, BuildsOnFirstUseAndReturnsFreshActs) {
  TinySystem sys(30, 31, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());

  const int layer = sys.model->activation_layers()[0];
  EXPECT_FALSE(manager.IsIndexed(layer));

  storage::LayerActivationMatrix fresh;
  PreprocessTimings timings;
  auto index = manager.EnsureIndex(layer, &fresh, &timings);
  ASSERT_TRUE(index.ok());
  // Fresh activations returned so the triggering query can be answered
  // without a second pass (section 4.6).
  EXPECT_EQ(fresh.num_inputs, 30u);
  EXPECT_EQ(fresh.num_neurons,
            static_cast<uint64_t>(sys.model->NeuronCount(layer)));
  EXPECT_GT(timings.inference_seconds, 0.0);
  EXPECT_GT(timings.persist_seconds, 0.0);  // the snapshot commit
  EXPECT_TRUE(manager.IsIndexed(layer));
  EXPECT_TRUE(manager.IsLoaded(layer));
  const persist::SnapshotManifest manifest =
      Manifest(&store.value(), *sys.model);
  ASSERT_NE(manifest.Find(layer), nullptr);
  EXPECT_EQ(manifest.Find(layer)->watermark, 30u);
}

TEST(IndexManagerTest, SecondCallDoesNotRebuild) {
  TinySystem sys(30, 32, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  const int layer = sys.model->activation_layers()[1];

  ASSERT_TRUE(manager.EnsureIndex(layer).ok());
  const int64_t after_build = sys.engine->stats().inputs_run;
  storage::LayerActivationMatrix fresh;
  auto again = manager.EnsureIndex(layer, &fresh);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(sys.engine->stats().inputs_run, after_build);  // no inference
  EXPECT_EQ(fresh.num_inputs, 0u);  // nothing recomputed
}

TEST(IndexManagerTest, LoadsPersistedIndexAcrossManagers) {
  TinySystem sys(25, 33, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  const int layer = sys.model->activation_layers()[0];
  {
    IndexManager manager(sys.engine.get(), &store.value(), Opts());
    ASSERT_TRUE(manager.EnsureIndex(layer).ok());
  }
  // A new manager (new session) finds the index on disk: no inference.
  IndexManager manager2(sys.engine.get(), &store.value(), Opts());
  EXPECT_TRUE(manager2.IsIndexed(layer));
  EXPECT_FALSE(manager2.IsLoaded(layer));
  const int64_t before = sys.engine->stats().inputs_run;
  auto index = manager2.EnsureIndex(layer);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(sys.engine->stats().inputs_run, before);
  EXPECT_EQ((*index)->num_inputs(), 25u);
}

TEST(IndexManagerTest, PreprocessAllLayersIndexesEverything) {
  TinySystem sys(15, 35, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  PreprocessTimings timings;
  DE_ASSERT_OK(manager.PreprocessAllLayers(&timings));
  for (int layer = 0; layer < sys.model->num_layers(); ++layer) {
    EXPECT_TRUE(manager.IsIndexed(layer)) << "layer " << layer;
  }
  auto bytes = manager.PersistedBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_GT(*bytes, 0u);
  EXPECT_GT(timings.inference_seconds, 0.0);
}

TEST(IndexManagerTest, PreprocessLeavesOnlySnapshotKeys) {
  TinySystem sys(25, 51, 8);
  TempDir dir("im-keys");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  DE_ASSERT_OK(manager.PreprocessAllLayers());

  // The snapshot is the only durable copy: no temp leftovers, no second
  // per-layer format, and the manifest lists every layer.
  auto keys = store->ListKeys();
  ASSERT_TRUE(keys.ok());
  ASSERT_FALSE(keys->empty());
  uint64_t on_disk = 0;
  for (const std::string& key : *keys) {
    EXPECT_EQ(key.find(".tmp"), std::string::npos) << key;
    EXPECT_NE(key.rfind("index/", 0), 0u) << key;
    EXPECT_EQ(key.rfind("snapshot/" + sys.model->name() + "/", 0), 0u)
        << key;
    on_disk += store->SizeOf(key).ValueOr(0);
  }
  const persist::SnapshotManifest manifest =
      Manifest(&store.value(), *sys.model);
  EXPECT_EQ(manifest.segments.size(),
            static_cast<size_t>(sys.model->num_layers()));
  EXPECT_EQ(manager.PersistedBytes().ValueOr(0), on_disk);
}

TEST(IndexManagerTest, BuildCommitsOneSegmentAndCarriesTheOthers) {
  TinySystem sys(40, 52, 8);
  TempDir dir("im-carry");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  const int layer_a = sys.model->activation_layers()[0];
  const int layer_b = sys.model->activation_layers()[1];

  ASSERT_TRUE(manager.EnsureIndex(layer_a).ok());
  const persist::SegmentInfo segment_a =
      *Manifest(&store.value(), *sys.model).Find(layer_a);
  const uint64_t written_before = store->bytes_written();

  ASSERT_TRUE(manager.EnsureIndex(layer_b).ok());
  const persist::SnapshotManifest manifest =
      Manifest(&store.value(), *sys.model);
  ASSERT_NE(manifest.Find(layer_b), nullptr);
  auto manifest_bytes =
      store->SizeOf(persist::ManifestKeyFor(sys.model->name()));
  ASSERT_TRUE(manifest_bytes.ok());
  // B's segment plus the manifest, and nothing of A rewritten.
  EXPECT_EQ(store->bytes_written() - written_before,
            manifest.Find(layer_b)->bytes + *manifest_bytes);
  ASSERT_NE(manifest.Find(layer_a), nullptr);
  EXPECT_EQ(manifest.Find(layer_a)->key, segment_a.key);
  EXPECT_EQ(manifest.Find(layer_a)->crc, segment_a.crc);
  EXPECT_TRUE(store->Exists(segment_a.key));
}

TEST(IndexManagerTest, CatchUpWritesNothing) {
  TinySystem sys(30, 53, 8);
  TempDir dir("im-catchup");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  const int layer = sys.model->activation_layers()[0];
  ASSERT_TRUE(manager.EnsureIndex(layer).ok());

  const data::Dataset extra = testing_util::MakeVectorDataset(6, 8, 99);
  for (uint32_t id = 0; id < extra.size(); ++id) {
    sys.dataset.Add(extra.input(id), extra.label(id));
  }
  const uint64_t written_before = store->bytes_written();
  DE_ASSERT_OK(manager.CatchUp(layer, sys.dataset.size()));
  EXPECT_EQ(manager.Peek(layer)->num_inputs(), 36u);
  EXPECT_EQ(store->bytes_written(), written_before);
  // The committed segment stays at its watermark until the next commit.
  EXPECT_EQ(Manifest(&store.value(), *sys.model).Find(layer)->watermark, 30u);
}

TEST(IndexManagerTest, SegmentBehindTheDatasetLoadsAndMergesUp) {
  TinySystem sys(30, 56, 8);
  TempDir dir("im-behind");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  const int layer = sys.model->activation_layers()[1];
  {
    IndexManager manager(sys.engine.get(), &store.value(), Opts());
    ASSERT_TRUE(manager.EnsureIndex(layer).ok());
  }
  const data::Dataset extra = testing_util::MakeVectorDataset(5, 8, 98);
  for (uint32_t id = 0; id < extra.size(); ++id) {
    sys.dataset.Add(extra.input(id), extra.label(id));
  }

  // A new session loads the 30-input segment and merges only the 5 new
  // inputs: it never serves a stale prefix, and never rebuilds.
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  nn::InferenceReceipt receipt;
  const uint64_t written_before = store->bytes_written();
  auto index = manager.EnsureIndex(layer, nullptr, nullptr, &receipt);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->num_inputs(), 35u);
  EXPECT_EQ(receipt.inputs_run, 5);
  EXPECT_EQ(store->bytes_written(), written_before);
}

TEST(IndexManagerTest, LoadCommittedSkipsUnusableSegments) {
  TinySystem sys(30, 57, 8);
  TempDir dir("im-load");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  const int layer = sys.model->activation_layers()[0];
  {
    IndexManager manager(sys.engine.get(), &store.value(), Opts());
    ASSERT_TRUE(manager.EnsureIndex(layer).ok());
    // A segment for a layer the model does not have, as a store written by
    // a different build of the model would hold.
    LayerIndexPtr index = manager.Peek(layer);
    DE_ASSERT_OK(manager.Commit({{99, index.get()}}).status());
  }
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  uint32_t installed = 0;
  auto manifest = manager.LoadCommitted(&installed);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->segments.size(), 2u);
  EXPECT_EQ(installed, 1u);
  EXPECT_EQ(manager.LoadedLayers(), std::vector<int>{layer});
}

TEST(IndexManagerTest, RejectsBadLayer) {
  TinySystem sys(10, 36, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  EXPECT_TRUE(manager.EnsureIndex(-1).status().IsOutOfRange());
  EXPECT_TRUE(manager.EnsureIndex(99).status().IsOutOfRange());
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
