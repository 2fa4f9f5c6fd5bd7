#include "core/npi.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_pack.h"
#include "common/rng.h"
#include "common/serde.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

/// The Figure 1 running example: six inputs, three neurons.
storage::LayerActivationMatrix Figure1Matrix() {
  storage::LayerActivationMatrix m = storage::LayerActivationMatrix::Make(6, 3);
  const float values[6][3] = {
      {2.0f, 2.0f, 2.0f}, {2.0f, 1.6f, 1.0f}, {1.5f, 1.8f, 1.6f},
      {1.8f, 1.7f, 1.8f}, {1.2f, 1.2f, 1.1f}, {1.1f, 1.1f, 1.2f},
  };
  for (uint32_t i = 0; i < 6; ++i) {
    for (uint64_t n = 0; n < 3; ++n) m.MutableRow(i)[n] = values[i][n];
  }
  return m;
}

TEST(NpiTest, Figure1PartitionAssignments) {
  auto index = LayerIndex::Build(Figure1Matrix(), LayerIndexConfig{3, 0.0});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_partitions(), 3);
  EXPECT_FALSE(index->has_mai());

  // Neuron R1 (index 0): p0={x0,x1}, p1={x3,x2}, p2={x4,x5}.
  EXPECT_EQ(index->GetPid(0, 0), 0u);
  EXPECT_EQ(index->GetPid(0, 1), 0u);
  EXPECT_EQ(index->GetPid(0, 3), 1u);
  EXPECT_EQ(index->GetPid(0, 2), 1u);
  EXPECT_EQ(index->GetPid(0, 4), 2u);
  EXPECT_EQ(index->GetPid(0, 5), 2u);
  // Neuron R2 (index 1): p0={x0,x2}, p1={x3,x1}, p2={x4,x5}.
  EXPECT_EQ(index->GetPid(1, 0), 0u);
  EXPECT_EQ(index->GetPid(1, 2), 0u);
  EXPECT_EQ(index->GetPid(1, 3), 1u);
  EXPECT_EQ(index->GetPid(1, 1), 1u);
  // Neuron R3 (index 2): p0={x0,x3}, p1={x2,x5}, p2={x4,x1}.
  EXPECT_EQ(index->GetPid(2, 0), 0u);
  EXPECT_EQ(index->GetPid(2, 3), 0u);
  EXPECT_EQ(index->GetPid(2, 2), 1u);
  EXPECT_EQ(index->GetPid(2, 5), 1u);
  EXPECT_EQ(index->GetPid(2, 4), 2u);
  EXPECT_EQ(index->GetPid(2, 1), 2u);
}

TEST(NpiTest, Figure1Bounds) {
  auto index = LayerIndex::Build(Figure1Matrix(), LayerIndexConfig{3, 0.0});
  ASSERT_TRUE(index.ok());
  // R1: lBnd = 2.0, 1.5, 1.1; uBnd = 2.0, 1.8, 1.2 (Figure 1).
  EXPECT_FLOAT_EQ(index->LowerBound(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(index->LowerBound(0, 1), 1.5f);
  EXPECT_FLOAT_EQ(index->LowerBound(0, 2), 1.1f);
  EXPECT_FLOAT_EQ(index->UpperBound(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(index->UpperBound(0, 1), 1.8f);
  EXPECT_FLOAT_EQ(index->UpperBound(0, 2), 1.2f);
  // R2: lBnd = 1.8, 1.6, 1.1; uBnd = 2.0, 1.7, 1.2.
  EXPECT_FLOAT_EQ(index->LowerBound(1, 0), 1.8f);
  EXPECT_FLOAT_EQ(index->LowerBound(1, 1), 1.6f);
  EXPECT_FLOAT_EQ(index->LowerBound(1, 2), 1.1f);
  EXPECT_FLOAT_EQ(index->UpperBound(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(index->UpperBound(1, 1), 1.7f);
  EXPECT_FLOAT_EQ(index->UpperBound(1, 2), 1.2f);
  // R3: lBnd = 1.8, 1.2, 1.0; uBnd = 2.0, 1.6, 1.1.
  EXPECT_FLOAT_EQ(index->LowerBound(2, 0), 1.8f);
  EXPECT_FLOAT_EQ(index->LowerBound(2, 1), 1.2f);
  EXPECT_FLOAT_EQ(index->LowerBound(2, 2), 1.0f);
  EXPECT_FLOAT_EQ(index->UpperBound(2, 0), 2.0f);
  EXPECT_FLOAT_EQ(index->UpperBound(2, 1), 1.6f);
  EXPECT_FLOAT_EQ(index->UpperBound(2, 2), 1.1f);
}

TEST(NpiTest, GetInputIdsReturnsPartitionMembers) {
  auto index = LayerIndex::Build(Figure1Matrix(), LayerIndexConfig{3, 0.0});
  ASSERT_TRUE(index.ok());
  std::vector<uint32_t> ids;
  index->GetInputIds(0, 2, &ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{4, 5}));
  ids.clear();
  index->GetInputIds(2, 1, &ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{2, 5}));
}

TEST(NpiTest, PidForActivationInsideAndInGaps) {
  auto index = LayerIndex::Build(Figure1Matrix(), LayerIndexConfig{3, 0.0});
  ASSERT_TRUE(index.ok());
  // Inside partition ranges.
  EXPECT_EQ(index->PidForActivation(0, 2.0f), 0u);
  EXPECT_EQ(index->PidForActivation(0, 1.6f), 1u);
  EXPECT_EQ(index->PidForActivation(0, 1.15f), 2u);
  // In the gap between p1 (lBnd 1.5) and p2 (uBnd 1.2): nearer side wins.
  EXPECT_EQ(index->PidForActivation(0, 1.45f), 1u);
  EXPECT_EQ(index->PidForActivation(0, 1.25f), 2u);
  // Outside the global range.
  EXPECT_EQ(index->PidForActivation(0, 99.0f), 0u);
  EXPECT_EQ(index->PidForActivation(0, -99.0f), 2u);
}

TEST(NpiTest, MaiBecomesPartitionZero) {
  // ratio 0.5 of 6 inputs -> 3 MAI entries per neuron = partition 0.
  auto index = LayerIndex::Build(Figure1Matrix(), LayerIndexConfig{3, 0.5});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->has_mai());
  EXPECT_EQ(index->mai_count(), 3u);
  // R1's top-3: x0 (2.0), x1 (2.0), x3 (1.8), descending with id tiebreak.
  const MaiEntry* mai = index->MaiEntries(0);
  EXPECT_EQ(mai[0].input_id, 0u);
  EXPECT_FLOAT_EQ(mai[0].activation, 2.0f);
  EXPECT_EQ(mai[1].input_id, 1u);
  EXPECT_EQ(mai[2].input_id, 3u);
  EXPECT_FLOAT_EQ(mai[2].activation, 1.8f);
  // Those three are partition 0.
  EXPECT_EQ(index->GetPid(0, 0), 0u);
  EXPECT_EQ(index->GetPid(0, 1), 0u);
  EXPECT_EQ(index->GetPid(0, 3), 0u);
  // Remaining three split over partitions 1 and 2 (2 + 1).
  EXPECT_EQ(index->GetPid(0, 2), 1u);
  EXPECT_EQ(index->GetPid(0, 4), 1u);
  EXPECT_EQ(index->GetPid(0, 5), 2u);
}

TEST(NpiTest, EquiDepthSizesDifferByAtMostOne) {
  testing_util::TinySystem sys(53, 5);
  std::vector<uint32_t> ids(53);
  for (uint32_t i = 0; i < 53; ++i) ids[i] = i;
  std::vector<std::vector<float>> rows;
  DE_ASSERT_OK(sys.engine->ComputeLayer(ids, 1, &rows));
  auto matrix = storage::LayerActivationMatrix::Make(53, rows[0].size());
  for (uint32_t i = 0; i < 53; ++i) {
    std::copy(rows[i].begin(), rows[i].end(), matrix.MutableRow(i));
  }
  auto index = LayerIndex::Build(matrix, LayerIndexConfig{8, 0.0});
  ASSERT_TRUE(index.ok());
  for (int64_t n = 0; n < index->num_neurons(); ++n) {
    std::vector<size_t> sizes(8, 0);
    for (uint32_t id = 0; id < 53; ++id) {
      ++sizes[index->GetPid(n, id)];
    }
    size_t lo = sizes[0], hi = sizes[0];
    for (size_t s : sizes) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    EXPECT_LE(hi - lo, 1u) << "neuron " << n;
  }
}

TEST(NpiTest, PartitionZeroHoldsLargestActivations) {
  auto index = LayerIndex::Build(Figure1Matrix(), LayerIndexConfig{3, 0.0});
  ASSERT_TRUE(index.ok());
  const auto matrix = Figure1Matrix();
  for (int64_t n = 0; n < 3; ++n) {
    for (int pid = 0; pid + 1 < 3; ++pid) {
      EXPECT_GE(index->LowerBound(n, pid), index->UpperBound(n, pid + 1));
    }
  }
}

TEST(NpiTest, ClampsPartitionCountToInputs) {
  storage::LayerActivationMatrix m = storage::LayerActivationMatrix::Make(4, 2);
  for (uint32_t i = 0; i < 4; ++i) {
    m.MutableRow(i)[0] = static_cast<float>(i);
    m.MutableRow(i)[1] = static_cast<float>(-static_cast<int>(i));
  }
  auto index = LayerIndex::Build(m, LayerIndexConfig{64, 0.0});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_partitions(), 4);
}

TEST(NpiTest, SerializationRoundTrip) {
  auto built = LayerIndex::Build(Figure1Matrix(), LayerIndexConfig{3, 0.5});
  ASSERT_TRUE(built.ok());
  BinaryWriter writer;
  built->Serialize(&writer);
  BinaryReader reader(writer.buffer());
  auto loaded = LayerIndex::Deserialize(&reader);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_inputs(), built->num_inputs());
  EXPECT_EQ(loaded->num_neurons(), built->num_neurons());
  EXPECT_EQ(loaded->num_partitions(), built->num_partitions());
  EXPECT_EQ(loaded->mai_count(), built->mai_count());
  for (int64_t n = 0; n < 3; ++n) {
    for (uint32_t id = 0; id < 6; ++id) {
      EXPECT_EQ(loaded->GetPid(n, id), built->GetPid(n, id));
    }
    for (int pid = 0; pid < 3; ++pid) {
      EXPECT_EQ(loaded->LowerBound(n, pid), built->LowerBound(n, pid));
      EXPECT_EQ(loaded->UpperBound(n, pid), built->UpperBound(n, pid));
    }
    for (uint32_t r = 0; r < built->mai_count(); ++r) {
      EXPECT_EQ(loaded->MaiEntries(n)[r].input_id,
                built->MaiEntries(n)[r].input_id);
      EXPECT_EQ(loaded->MaiEntries(n)[r].activation,
                built->MaiEntries(n)[r].activation);
    }
  }
}

TEST(NpiTest, CorruptPayloadRejected) {
  auto built = LayerIndex::Build(Figure1Matrix(), LayerIndexConfig{3, 0.0});
  ASSERT_TRUE(built.ok());
  BinaryWriter writer;
  built->Serialize(&writer);
  std::vector<uint8_t> bytes = writer.buffer();
  bytes.resize(bytes.size() / 2);  // truncate
  BinaryReader reader(bytes);
  EXPECT_FALSE(LayerIndex::Deserialize(&reader).ok());

  std::vector<uint8_t> garbage(16, 0x5A);
  BinaryReader reader2(garbage);
  EXPECT_TRUE(LayerIndex::Deserialize(&reader2).status().IsIOError());
}

TEST(NpiTest, AnalyticStorageBytesMatchesPaperFormula) {
  // 3 neurons, 6 inputs, 4 partitions (2 bits), no MAI:
  // pid bits = 3*6*2 = 36 bits -> 5 bytes; bounds = 3*4*2*4 = 96 bytes.
  EXPECT_EQ(LayerIndex::AnalyticStorageBytes(3, 6, 4, 0), 5u + 96u);
  // With 2 MAI entries: + 3 neurons * 2 entries * 8 bytes = 48.
  EXPECT_EQ(LayerIndex::AnalyticStorageBytes(3, 6, 4, 2), 5u + 96u + 48u);
}

TEST(NpiTest, StorageFarBelowFullMaterialization) {
  // The paper's §4.3 claim: with 8 partitions a PID costs 3 bits, under 10%
  // of full float32 materialisation (bounds included at the paper's scale).
  const int64_t neurons = 1024;
  const uint32_t inputs = 10000;  // the paper's dataset size
  const uint64_t full = static_cast<uint64_t>(neurons) * inputs * 4;
  EXPECT_LT(LayerIndex::AnalyticStorageBytes(neurons, inputs, 8, 0),
            full / 10);
  // And 64 partitions (6 bits) stays under the 20% budget the evaluation
  // grants DeepEverest.
  EXPECT_LT(LayerIndex::AnalyticStorageBytes(neurons, inputs, 64, 0),
            full / 4);
}

TEST(NpiTest, RejectsInvalidConfigs) {
  const auto m = Figure1Matrix();
  EXPECT_FALSE(LayerIndex::Build(m, LayerIndexConfig{0, 0.0}).ok());
  EXPECT_FALSE(LayerIndex::Build(m, LayerIndexConfig{4, -0.1}).ok());
  EXPECT_FALSE(LayerIndex::Build(m, LayerIndexConfig{4, 1.5}).ok());
  storage::LayerActivationMatrix empty;
  EXPECT_FALSE(LayerIndex::Build(empty, LayerIndexConfig{4, 0.0}).ok());
}

TEST(NpiTest, TiesBrokenDeterministically) {
  // All-equal activations: partition assignment must be by inputID.
  storage::LayerActivationMatrix m = storage::LayerActivationMatrix::Make(6, 1);
  for (uint32_t i = 0; i < 6; ++i) m.MutableRow(i)[0] = 1.0f;
  auto index = LayerIndex::Build(m, LayerIndexConfig{3, 0.0});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->GetPid(0, 0), 0u);
  EXPECT_EQ(index->GetPid(0, 1), 0u);
  EXPECT_EQ(index->GetPid(0, 2), 1u);
  EXPECT_EQ(index->GetPid(0, 3), 1u);
  EXPECT_EQ(index->GetPid(0, 4), 2u);
  EXPECT_EQ(index->GetPid(0, 5), 2u);
  // Bounds of every partition collapse to the single value.
  for (int pid = 0; pid < 3; ++pid) {
    EXPECT_FLOAT_EQ(index->LowerBound(0, pid), 1.0f);
    EXPECT_FLOAT_EQ(index->UpperBound(0, pid), 1.0f);
  }
}

/// The oracle for Build's sort: the equi-depth build with every neuron's
/// inputs ordered by the original comparator (activation descending, ties
/// by input id ascending, -0.0 == +0.0), serialized in LayerIndex's format.
std::vector<uint8_t> SerializeComparatorBuild(
    const storage::LayerActivationMatrix& acts,
    const LayerIndexConfig& config) {
  const uint32_t n = acts.num_inputs;
  const int64_t neurons = static_cast<int64_t>(acts.num_neurons);
  const uint32_t mai_count =
      std::min(n, static_cast<uint32_t>(config.mai_ratio * n));
  const uint32_t rest = n - mai_count;
  const int parts = mai_count > 0 ? std::min(config.num_partitions,
                                             1 + static_cast<int>(rest))
                                   : std::min(config.num_partitions,
                                              static_cast<int>(n));
  std::vector<uint32_t> sizes(static_cast<size_t>(parts), 0);
  const int first = mai_count > 0 ? 1 : 0;
  if (mai_count > 0) sizes[0] = mai_count;
  const int equi = parts - first;
  for (int p = 0; p < equi; ++p) {
    sizes[static_cast<size_t>(first + p)] =
        rest / static_cast<uint32_t>(equi) +
        (static_cast<uint32_t>(p) < rest % static_cast<uint32_t>(equi) ? 1
                                                                        : 0);
  }

  const float inf = std::numeric_limits<float>::infinity();
  PackedIntArray pids(static_cast<size_t>(neurons) * n,
                      PackedIntArray::BitsFor(static_cast<uint64_t>(parts)));
  std::vector<float> lower(static_cast<size_t>(neurons * parts), inf);
  std::vector<float> upper(static_cast<size_t>(neurons * parts), -inf);
  std::vector<float> mai_acts(static_cast<size_t>(neurons) * mai_count);
  std::vector<uint32_t> mai_ids(mai_acts.size());
  std::vector<uint32_t> order(n);
  for (int64_t neuron = 0; neuron < neurons; ++neuron) {
    const uint64_t col = static_cast<uint64_t>(neuron);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const float va = acts.At(a, col);
      const float vb = acts.At(b, col);
      if (va != vb) return va > vb;
      return a < b;
    });
    size_t rank = 0;
    for (int pid = 0; pid < parts; ++pid) {
      const size_t bound = static_cast<size_t>(neuron * parts + pid);
      for (uint32_t j = 0; j < sizes[static_cast<size_t>(pid)]; ++j, ++rank) {
        const uint32_t id = order[rank];
        const float act = acts.At(id, col);
        pids.Set(static_cast<size_t>(neuron) * n + id,
                 static_cast<uint64_t>(pid));
        if (j == 0) upper[bound] = act;
        lower[bound] = act;
        if (pid == 0 && mai_count > 0) {
          mai_acts[static_cast<size_t>(neuron) * mai_count + j] = act;
          mai_ids[static_cast<size_t>(neuron) * mai_count + j] = id;
        }
      }
    }
  }
  BinaryWriter writer;
  writer.WriteU32(0xDEE71DE8);  // LayerIndex magic
  writer.WriteU32(n);
  writer.WriteI64(neurons);
  writer.WriteI32(parts);
  writer.WriteU32(mai_count);
  writer.WriteF32Vector(lower);
  writer.WriteF32Vector(upper);
  writer.WriteU64Vector(pids.words());
  writer.WriteF32Vector(mai_acts);
  writer.WriteU32Vector(mai_ids);
  return writer.TakeBuffer();
}

TEST(NpiTest, BuildMatchesComparatorSortBitForBit) {
  // Values from a small pool so most neurons have long runs of ties, with
  // both zero signs (equal under the comparator), negatives, infinities and
  // denormals; 37 neurons leave a partial block of the build's neuron
  // blocking.
  const float inf = std::numeric_limits<float>::infinity();
  const float pool[] = {-0.0f,   0.0f,   -0.0f, 0.0f, 1.5f, -2.25f,
                        -1e-40f, 1e-40f, 3.0f,  -inf, inf,  0.5f};
  const uint32_t num_inputs = 300;
  const uint64_t num_neurons = 37;
  storage::LayerActivationMatrix m =
      storage::LayerActivationMatrix::Make(num_inputs, num_neurons);
  Rng rng(77);
  for (uint32_t i = 0; i < num_inputs; ++i) {
    for (uint64_t j = 0; j < num_neurons; ++j) {
      // Every third neuron draws fresh values, which exercises every byte
      // of the radix key.
      m.MutableRow(i)[j] =
          j % 3 == 0 ? static_cast<float>(rng.NextGaussian() * 4.0)
                     : pool[rng.NextUint64(sizeof(pool) / sizeof(pool[0]))];
    }
  }
  const LayerIndexConfig configs[] = {
      {16, 0.0}, {16, 0.1}, {5, 0.25}, {1, 0.0}, {2, 0.5}, {400, 0.0}};
  for (const LayerIndexConfig& config : configs) {
    auto index = LayerIndex::Build(m, config);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    BinaryWriter writer;
    index->Serialize(&writer);
    EXPECT_EQ(writer.buffer(), SerializeComparatorBuild(m, config))
        << "partitions " << config.num_partitions << " mai "
        << config.mai_ratio;
  }
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
