// Golden hashes of every layer's forward output for the three model-zoo
// models. The constants were computed with the original single-loop Conv2D
// and Tensor::At MaxPool2D; any kernel change that moves one bit of one
// activation, under either DEEPEVEREST_KERNELS mode, fails here.
//
// Softmax outputs are left out of the hash: they go through libm's expf,
// whose last bit is not pinned across C libraries, and this test pins the
// project's own kernels.

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/model_zoo.h"

namespace deepeverest {
namespace nn {
namespace {

/// FNV-1a over the bytes of every non-softmax layer output of every input.
/// Inputs are uniform in [-1, 1); the last one also carries -0.0, denormals
/// and one +inf and one -inf, whose NaNs then flow through every layer.
uint64_t HashForwardAll(const Model& model, int num_inputs, uint64_t seed) {
  Rng rng(seed);
  uint64_t hash = 1469598103934665603ull;
  std::vector<Tensor> outputs;
  for (int n = 0; n < num_inputs; ++n) {
    Tensor input(model.input_shape());
    for (float& v : input.vec()) {
      v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    }
    if (n == num_inputs - 1) {
      std::vector<float>& x = input.vec();
      for (size_t i = 0; i < x.size(); i += 7) x[i] = -0.0f;
      for (size_t i = 3; i < x.size(); i += 13) x[i] = 1e-40f;
      x[x.size() / 3] = std::numeric_limits<float>::infinity();
      x[x.size() / 2] = -std::numeric_limits<float>::infinity();
    }
    EXPECT_TRUE(model.ForwardAll(input, &outputs).ok());
    for (int layer = 0; layer < model.num_layers(); ++layer) {
      if (model.layer(layer).kind() == LayerKind::kSoftmax) continue;
      const Tensor& t = outputs[static_cast<size_t>(layer)];
      for (const float v : t.vec()) {
        uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int byte = 0; byte < 4; ++byte) {
          hash ^= (bits >> (8 * byte)) & 0xffu;
          hash *= 1099511628211ull;
        }
      }
    }
  }
  return hash;
}

TEST(ForwardGoldenTest, MiniVgg) {
  EXPECT_EQ(HashForwardAll(*MakeMiniVgg(11), 6, 101),
            8976962304239530748ull);
}

TEST(ForwardGoldenTest, MiniResNet) {
  EXPECT_EQ(HashForwardAll(*MakeMiniResNet(12), 6, 102),
            6031169495759986048ull);
}

TEST(ForwardGoldenTest, TinyMlp) {
  EXPECT_EQ(HashForwardAll(*MakeTinyMlp(8, 13), 32, 103),
            4435083823782368635ull);
}

}  // namespace
}  // namespace nn
}  // namespace deepeverest
