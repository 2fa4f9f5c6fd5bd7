// Crash/corruption behavior of the snapshot an IndexManager commits: every
// segment and the manifest are write-temp/fsync/rename (a commit never
// leaves a temp file behind), every segment load is checksum-validated, and
// a truncated or bit-flipped segment makes that layer rebuild on its first
// query — never a silently wrong index.
#include "core/index_manager.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "core/deepeverest.h"
#include "core/nta.h"
#include "persist/snapshot.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::ExpectValidTopK;
using testing_util::TempDir;
using testing_util::TinySystem;

IndexManagerOptions Opts() {
  IndexManagerOptions options;
  options.layer_config = LayerIndexConfig{4, 0.1};
  return options;
}

DeepEverestOptions EngineOptions() {
  DeepEverestOptions options;
  options.batch_size = 8;
  options.num_partitions_override = 4;
  options.mai_ratio_override = 0.1;
  return options;
}

persist::SnapshotManifest Manifest(storage::FileStore* store,
                                   const nn::Model& model) {
  auto manifest = persist::ReadManifest(store, model.name());
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  return manifest.ok() ? std::move(manifest.value())
                       : persist::SnapshotManifest{};
}

void FlipByteAt(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

TEST(IndexManagerCrashTest, PersistLeavesNoTempFiles) {
  TinySystem sys(25, 51, 8);
  TempDir dir("imc");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  const int layer = sys.model->activation_layers()[0];
  ASSERT_TRUE(manager.EnsureIndex(layer).ok());

  // The first-touch build committed its segment and the manifest; neither
  // left a temp file, and the segment sits under the snapshot prefix.
  auto keys = store->ListKeys();
  ASSERT_TRUE(keys.ok());
  for (const std::string& key : *keys) {
    EXPECT_EQ(key.find(".tmp"), std::string::npos) << key;
  }
  const persist::SnapshotManifest manifest =
      Manifest(&store.value(), *sys.model);
  ASSERT_NE(manifest.Find(layer), nullptr);
  EXPECT_TRUE(store->Exists(manifest.Find(layer)->key));
  EXPECT_EQ(manifest.Find(layer)->key.rfind(
                "snapshot/" + sys.model->name() + "/", 0),
            0u);
}

/// One engine indexes layers A and B; `damage` then corrupts B's committed
/// segment file. A fresh engine over the same store must rebuild B on its
/// first query (full-dataset inference, brute-force answers), still load A
/// without inference, and commit a segment for B that loads cleanly.
void ExpectCorruptSegmentRebuilds(
    uint64_t seed, const std::function<void(const std::string&)>& damage) {
  TinySystem sys(40, seed, 8);
  TempDir dir("imc-corrupt");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  const NeuronGroup group_a{sys.model->activation_layers()[0], {0, 3, 5}};
  const NeuronGroup group_b{sys.model->activation_layers()[1], {1, 2, 4}};
  {
    auto de = DeepEverest::Create(sys.model.get(), &sys.dataset,
                                  &store.value(), EngineOptions());
    ASSERT_TRUE(de.ok());
    ASSERT_TRUE((*de)->TopKHighest(group_a, 5).ok());
    ASSERT_TRUE((*de)->TopKHighest(group_b, 5).ok());
  }
  const persist::SegmentInfo damaged =
      *Manifest(&store.value(), *sys.model).Find(group_b.layer);
  damage(store->root() + "/" + damaged.key);

  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                EngineOptions());
  ASSERT_TRUE(de.ok());
  auto rebuilt = (*de)->TopKHighest(group_b, 5);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_GE(rebuilt->stats.inputs_run, 40);  // corrupt bytes never trusted
  auto expected =
      BruteForceHighest((*de)->inference(), group_b, 5, L2Distance());
  ASSERT_TRUE(expected.ok());
  ExpectValidTopK(*expected, *rebuilt, /*smaller_is_better=*/false);

  auto intact = (*de)->TopKHighest(group_a, 5);
  ASSERT_TRUE(intact.ok());
  EXPECT_LT(intact->stats.inputs_run, 40);  // loaded, not rebuilt

  // The rebuild replaced the damaged segment: a third engine loads both.
  const persist::SnapshotManifest manifest =
      Manifest(&store.value(), *sys.model);
  EXPECT_NE(manifest.Find(group_b.layer)->key, damaged.key);
  EXPECT_FALSE(store->Exists(damaged.key));
  IndexManager fresh(sys.engine.get(), &store.value(), Opts());
  const int64_t inputs_before = sys.engine->stats().inputs_run;
  ASSERT_TRUE(fresh.EnsureIndex(group_b.layer).ok());
  EXPECT_EQ(sys.engine->stats().inputs_run, inputs_before);
}

TEST(IndexManagerCrashTest, TruncatedSegmentRebuildsThatLayer) {
  ExpectCorruptSegmentRebuilds(54, [](const std::string& path) {
    std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  });
}

TEST(IndexManagerCrashTest, BitFlippedSegmentRebuildsThatLayer) {
  ExpectCorruptSegmentRebuilds(55, [](const std::string& path) {
    FlipByteAt(path, std::filesystem::file_size(path) / 2);
  });
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
