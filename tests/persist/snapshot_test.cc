// Crash- and corruption-injection tests for the snapshot tier: a kill at
// ANY point inside the writer must leave a store that loads as the old or
// the new snapshot, never a hybrid; and a single flipped bit anywhere must
// fail the load (so recovery falls back to a rebuild instead of serving
// silently wrong indexes).
#include "persist/snapshot.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "persist/format.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace persist {
namespace {

using testing_util::TempDir;

storage::LayerActivationMatrix MakeActs(uint32_t num_inputs,
                                        uint64_t num_neurons, uint64_t seed) {
  Rng rng(seed);
  storage::LayerActivationMatrix acts;
  acts.num_inputs = num_inputs;
  acts.num_neurons = num_neurons;
  acts.values.resize(static_cast<size_t>(num_inputs) * num_neurons);
  for (float& v : acts.values) v = static_cast<float>(rng.NextGaussian());
  return acts;
}

core::LayerIndex BuildIndex(uint32_t num_inputs, uint64_t seed) {
  auto index = core::LayerIndex::Build(MakeActs(num_inputs, 6, seed),
                                       core::LayerIndexConfig{4, 0.25});
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index.value());
}

/// The manifest and every segment it lists, all validated.
struct Loaded {
  SnapshotManifest manifest;
  std::vector<std::pair<int, core::LayerIndex>> indexes;
};

Result<Loaded> LoadSnapshot(storage::FileStore* store,
                            const std::string& model) {
  Loaded loaded;
  DE_ASSIGN_OR_RETURN(loaded.manifest, ReadManifest(store, model));
  for (const SegmentInfo& seg : loaded.manifest.segments) {
    DE_ASSIGN_OR_RETURN(core::LayerIndex index, LoadSegment(store, seg));
    loaded.indexes.emplace_back(seg.layer, std::move(index));
  }
  return loaded;
}

/// Writes one snapshot holding layers {1, 2} built over `num_inputs` rows.
Status WriteState(storage::FileStore* store, uint32_t num_inputs,
                  const Failpoint& failpoint = nullptr) {
  const core::LayerIndex a = BuildIndex(num_inputs, 7);
  const core::LayerIndex b = BuildIndex(num_inputs, 9);
  return WriteSnapshot(store, "m", "d", num_inputs, {{1, &a}, {2, &b}},
                       /*created_unix_seconds=*/1234, failpoint)
      .status();
}

TEST(SnapshotTest, RoundTrip) {
  TempDir dir("snap");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(WriteState(&store.value(), 20));

  auto loaded = LoadSnapshot(&store.value(), "m");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->manifest.model, "m");
  EXPECT_EQ(loaded->manifest.dataset, "d");
  EXPECT_EQ(loaded->manifest.dataset_size, 20u);
  EXPECT_EQ(loaded->manifest.created_unix_seconds, 1234u);
  ASSERT_EQ(loaded->indexes.size(), 2u);
  for (const auto& [layer, index] : loaded->indexes) {
    EXPECT_TRUE(layer == 1 || layer == 2);
    EXPECT_EQ(index.num_inputs(), 20u);
  }
  EXPECT_GT(loaded->manifest.total_bytes, 0u);
}

TEST(SnapshotTest, MissingSnapshotIsNotFound) {
  TempDir dir("snap");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto loaded = LoadSnapshot(&store.value(), "m");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

/// Asserts the loaded snapshot is EXACTLY state `20` or state `30`: one
/// generation throughout, every watermark equal to the manifest's size.
void ExpectOldOrNew(storage::FileStore* store) {
  auto loaded = LoadSnapshot(store, "m");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const uint32_t size = loaded->manifest.dataset_size;
  EXPECT_TRUE(size == 20u || size == 30u) << "hybrid dataset size " << size;
  ASSERT_EQ(loaded->indexes.size(), 2u);
  for (const SegmentInfo& seg : loaded->manifest.segments) {
    EXPECT_EQ(seg.watermark, size) << seg.key;
    // Every referenced segment carries the manifest's generation stamp.
    EXPECT_NE(seg.key.find(".g" + std::to_string(loaded->manifest.generation) +
                           ".seg"),
              std::string::npos)
        << seg.key << " not from generation " << loaded->manifest.generation;
  }
  for (const auto& [layer, index] : loaded->indexes) {
    (void)layer;
    EXPECT_EQ(index.num_inputs(), size);
  }
}

TEST(SnapshotTest, KillPointSweepYieldsOldOrNewNeverHybrid) {
  // Enumerate every failpoint a clean old->new overwrite passes through.
  std::vector<std::string> points;
  {
    TempDir dir("snap-enum");
    auto store = storage::FileStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    DE_ASSERT_OK(WriteState(&store.value(), 20));
    DE_ASSERT_OK(WriteState(&store.value(), 30, [&](const std::string& p) {
      points.push_back(p);
      return false;
    }));
  }
  ASSERT_GE(points.size(), 6u);  // 2 per segment + 2 manifest + gc

  for (const std::string& point : points) {
    SCOPED_TRACE("kill at " + point);
    TempDir dir("snap-kill");
    auto store = storage::FileStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    DE_ASSERT_OK(WriteState(&store.value(), 20));

    const Status aborted =
        WriteState(&store.value(), 30,
                   [&](const std::string& p) { return p == point; });
    EXPECT_EQ(aborted.code(), StatusCode::kCancelled);

    // The store must load as exactly one committed state.
    ExpectOldOrNew(&store.value());

    // And a retry must commit the new state cleanly, reclaiming every
    // orphan the aborted attempt left behind.
    DE_ASSERT_OK(WriteState(&store.value(), 30));
    auto loaded = LoadSnapshot(&store.value(), "m");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->manifest.dataset_size, 30u);
    auto keys = store->ListKeys();
    ASSERT_TRUE(keys.ok());
    std::set<std::string> referenced = {ManifestKeyFor("m")};
    for (const SegmentInfo& seg : loaded->manifest.segments) {
      referenced.insert(seg.key);
    }
    for (const std::string& key : *keys) {
      if (key.rfind("snapshot/m/", 0) == 0) {
        EXPECT_TRUE(referenced.count(key)) << "orphan survived GC: " << key;
      }
    }
  }
}

TEST(SnapshotTest, CommitCarriesOtherLayersByKey) {
  TempDir dir("snap-carry");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(WriteState(&store.value(), 20));
  auto before = ReadManifest(&store.value(), "m");
  ASSERT_TRUE(before.ok());

  // Committing layer 3 alone writes its segment and the manifest; layers 1
  // and 2 keep their files.
  const core::LayerIndex c = BuildIndex(20, 11);
  const uint64_t written_before = store->bytes_written();
  auto bytes = WriteSnapshot(&store.value(), "m", "d", 20, {{3, &c}}, 1235);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto after = LoadSnapshot(&store.value(), "m");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->manifest.segments.size(), 3u);
  for (int layer : {1, 2}) {
    EXPECT_EQ(after->manifest.Find(layer)->key,
              before->Find(layer)->key);
  }
  auto manifest_bytes = store->SizeOf(ManifestKeyFor("m"));
  ASSERT_TRUE(manifest_bytes.ok());
  EXPECT_EQ(store->bytes_written() - written_before,
            after->manifest.Find(3)->bytes + *manifest_bytes);
  EXPECT_EQ(*bytes, after->manifest.total_bytes);

  // Replacing layer 1 retires its old file and carries 2 and 3.
  const core::LayerIndex a = BuildIndex(25, 13);
  DE_ASSERT_OK(
      WriteSnapshot(&store.value(), "m", "d", 25, {{1, &a}}, 1236).status());
  auto replaced = LoadSnapshot(&store.value(), "m");
  ASSERT_TRUE(replaced.ok()) << replaced.status().ToString();
  EXPECT_EQ(replaced->manifest.Find(1)->watermark, 25u);
  EXPECT_FALSE(store->Exists(before->Find(1)->key));
  EXPECT_EQ(replaced->manifest.Find(2)->key, before->Find(2)->key);
  EXPECT_EQ(replaced->manifest.Find(3)->key, after->manifest.Find(3)->key);

  // Nothing is carried across datasets. A segment past the committed size
  // is carried: a reader that replays more of the ingest log may use it.
  DE_ASSERT_OK(
      WriteSnapshot(&store.value(), "m", "other", 30, {{1, &a}}, 1237)
          .status());
  auto foreign = ReadManifest(&store.value(), "m");
  ASSERT_TRUE(foreign.ok());
  ASSERT_EQ(foreign->segments.size(), 1u);
  const core::LayerIndex small = BuildIndex(10, 17);
  DE_ASSERT_OK(
      WriteSnapshot(&store.value(), "m", "other", 10, {{4, &small}}, 1238)
          .status());
  foreign = ReadManifest(&store.value(), "m");
  ASSERT_TRUE(foreign.ok());
  ASSERT_EQ(foreign->segments.size(), 2u);
  EXPECT_EQ(foreign->Find(1)->watermark, 25u);
  EXPECT_EQ(foreign->Find(4)->watermark, 10u);
}

TEST(SnapshotTest, UnknownSegmentKindFailsLoad) {
  TempDir dir("snap-kind");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(WriteState(&store.value(), 20));
  auto blob = store->Read(ManifestKeyFor("m"));
  ASSERT_TRUE(blob.ok());
  auto payload = UnwrapChecksum(*blob, "manifest");
  ASSERT_TRUE(payload.ok());
  // magic, version, generation (4 each), model "m" and dataset "d" (u64
  // length + 1 byte each), dataset size (4), created (8), segment count
  // (4), then the first segment's layer (4) and kind byte.
  constexpr size_t kFirstKind = 4 + 4 + 4 + 9 + 9 + 4 + 8 + 4 + 4;
  ASSERT_EQ((*payload)[kFirstKind], 0u);  // SegmentKind::kIndex
  (*payload)[kFirstKind] = 1;
  DE_ASSERT_OK(store->Write(ManifestKeyFor("m"), WrapChecksum(*payload)));
  auto manifest = ReadManifest(&store.value(), "m");
  ASSERT_FALSE(manifest.ok());
  EXPECT_NE(manifest.status().ToString().find("segment kind"),
            std::string::npos)
      << manifest.status().ToString();
}

void FlipByteAt(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

TEST(SnapshotTest, BitFlippedSegmentFailsLoad) {
  TempDir dir("snap-flip");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(WriteState(&store.value(), 20));
  auto loaded = LoadSnapshot(&store.value(), "m");
  ASSERT_TRUE(loaded.ok());

  for (const SegmentInfo& seg : loaded->manifest.segments) {
    SCOPED_TRACE(seg.key);
    const std::string path = store->root() + "/" + seg.key;
    // Flip one bit in the middle of the payload, then restore it.
    FlipByteAt(path, seg.bytes / 2);
    EXPECT_FALSE(LoadSnapshot(&store.value(), "m").ok());
    FlipByteAt(path, seg.bytes / 2);
    EXPECT_TRUE(LoadSnapshot(&store.value(), "m").ok());
  }
}

TEST(SnapshotTest, BitFlippedManifestFailsLoad) {
  TempDir dir("snap-flipm");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(WriteState(&store.value(), 20));
  const std::string path = store->root() + "/" + ManifestKeyFor("m");
  const auto size = std::filesystem::file_size(path);
  FlipByteAt(path, static_cast<size_t>(size) / 2);
  EXPECT_FALSE(LoadSnapshot(&store.value(), "m").ok());
}

TEST(SnapshotTest, TruncatedSegmentFailsLoad) {
  TempDir dir("snap-trunc");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(WriteState(&store.value(), 20));
  auto loaded = LoadSnapshot(&store.value(), "m");
  ASSERT_TRUE(loaded.ok());
  const SegmentInfo& seg = loaded->manifest.segments.front();
  std::filesystem::resize_file(store->root() + "/" + seg.key,
                               seg.bytes / 2);
  EXPECT_FALSE(LoadSnapshot(&store.value(), "m").ok());
}

}  // namespace
}  // namespace persist
}  // namespace deepeverest
