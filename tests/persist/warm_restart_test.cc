// Warm restart from a committed snapshot: a second process over the same
// store must serve its first query from the snapshot's indexes — zero
// dataset inference at startup, first-query cost exactly equal to a warm
// query in the first process, answers bit-identical.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/ingest.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace persist {
namespace {

using testing_util::MakeVectorDataset;
using testing_util::TempDir;

constexpr uint64_t kSeed = 83;
constexpr int kDims = 8;

core::DeepEverestOptions SmallOptions() {
  core::DeepEverestOptions options;
  options.batch_size = 8;
  options.num_partitions_override = 4;
  options.mai_ratio_override = 0.1;
  return options;
}

TEST(WarmRestartTest, FirstQueryRunsNoDatasetInference) {
  TempDir dir("warm");
  auto model = nn::MakeTinyMlp(kDims, kSeed);
  const int layer = model->activation_layers()[0];
  const core::NeuronGroup group{layer, {2, 5}};

  core::TopKResult expected;
  int64_t warm_query_inputs = 0;
  size_t preprocessed_layers = 0;

  // First life: preprocess everything, commit a snapshot, and measure what
  // the first post-preprocess query costs on a warm engine.
  {
    auto store = storage::FileStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    data::Dataset dataset = MakeVectorDataset(30, kDims, kSeed + 1);
    auto engine = core::DeepEverest::Create(model.get(), &dataset,
                                            &store.value(), SmallOptions());
    ASSERT_TRUE(engine.ok());
    DE_ASSERT_OK((*engine)->PreprocessAllLayers());
    preprocessed_layers = (*engine)->index_manager()->LoadedLayers().size();

    auto queue =
        IngestQueue::Create(engine->get(), &dataset, &store.value(), {});
    ASSERT_TRUE(queue.ok()) << queue.status().ToString();
    DE_ASSERT_OK((*queue)->SaveSnapshot());

    auto warm = (*engine)->TopKHighest(group, 5);
    ASSERT_TRUE(warm.ok());
    expected = std::move(warm.value());
    warm_query_inputs = expected.stats.inputs_run;
    EXPECT_LT(warm_query_inputs, 30);  // index-guided, not a full scan
    (*queue)->Shutdown();
  }

  // The snapshot is the only index copy on disk, so the restart can only be
  // warm through it.
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto keys = store->ListKeys();
  ASSERT_TRUE(keys.ok());
  for (const std::string& key : *keys) {
    EXPECT_TRUE(key.rfind("snapshot/", 0) == 0 || key.rfind("ingest/", 0) == 0)
        << key;
  }

  // Second life: no preprocessing call anywhere.
  data::Dataset dataset = MakeVectorDataset(30, kDims, kSeed + 1);
  auto engine = core::DeepEverest::Create(model.get(), &dataset,
                                          &store.value(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  auto queue =
      IngestQueue::Create(engine->get(), &dataset, &store.value(), {});
  ASSERT_TRUE(queue.ok()) << queue.status().ToString();
  EXPECT_EQ((*queue)->recovered_layers(), preprocessed_layers);

  // Startup ran zero inference: recovery is deserialization, not compute.
  EXPECT_EQ((*engine)->inference()->stats().inputs_run, 0);

  auto first = (*engine)->TopKHighest(group, 5);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // The first query costs exactly what a warm query costs — the full
  // 30-input preprocessing pass never ran.
  EXPECT_EQ(first->stats.inputs_run, warm_query_inputs);
  EXPECT_EQ((*engine)->inference()->stats().inputs_run, warm_query_inputs);

  ASSERT_EQ(first->entries.size(), expected.entries.size());
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(first->entries[i].input_id, expected.entries[i].input_id);
    EXPECT_EQ(first->entries[i].value, expected.entries[i].value);
  }

  (*queue)->Shutdown();
}

}  // namespace
}  // namespace persist
}  // namespace deepeverest
