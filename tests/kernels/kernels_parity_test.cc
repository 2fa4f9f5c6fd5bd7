// Seeded scalar-vs-AVX2 parity suite: every KernelTable entry must return
// BIT-IDENTICAL results from both tables for identical inputs. This is the
// contract that lets the §4.6 fresh-scan reference stay bit-equal to the
// service path under either DEEPEVEREST_KERNELS mode. Both tables are
// exercised in one process via GetKernelTable(mode) — no env involved.

#include "kernels/kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace deepeverest {
namespace kernels {
namespace {

/// Bitwise comparison that distinguishes +0.0/-0.0 and NaN payloads.
::testing::AssertionResult BitsEqual(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t ba = 0;
    uint64_t bb = 0;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    if (ba != bb) {
      return ::testing::AssertionFailure()
             << "row " << i << ": " << a[i] << " (0x" << std::hex << ba
             << ") vs " << b[i] << " (0x" << bb << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

class KernelsParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2Supported()) {
      GTEST_SKIP() << "no AVX2 on this machine; nothing to compare";
    }
  }
};

// Odd lengths and row counts on purpose: every combination of SIMD body,
// column epilogue (n % 4) and row tail (num_rows % 8 / % 4) gets hit.
const size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 31, 33, 64, 100};
const size_t kRowCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 40};

TEST_F(KernelsParityTest, AggregationAllKindsOddShapesUnalignedTails) {
  const KernelTable& scalar = GetKernelTable(DispatchMode::kScalar);
  const KernelTable& avx2 = GetKernelTable(DispatchMode::kAvx2);
  Rng rng(2024);
  for (const size_t n : kLengths) {
    for (const size_t num_rows : kRowCounts) {
      // Strided layout (stride > n) in half the cases.
      const size_t stride = (n + num_rows) % 2 == 0 ? n : n + 3;
      std::vector<float> rows(num_rows * stride);
      for (float& v : rows) {
        v = static_cast<float>(rng.NextDouble() * 8.0 - 4.0);
      }
      // Inject signed zeros and exact ties so the max path's tie-breaking
      // is exercised, not just generic values.
      if (rows.size() > 4) {
        rows[1] = -0.0f;
        rows[2] = 0.0f;
        rows[3] = rows[0];
      }
      std::vector<float> target(n);
      for (float& v : target) {
        v = static_cast<float>(rng.NextDouble() * 8.0 - 4.0);
      }
      std::vector<double> weights(n);
      for (double& w : weights) w = rng.NextDouble() * 2.0;

      for (int k = 0; k < kNumAggKinds; ++k) {
        std::vector<double> out_scalar(num_rows, -1.0);
        std::vector<double> out_avx2(num_rows, -2.0);
        scalar.abs_diff_agg[k](rows.data(), stride, num_rows, target.data(),
                               weights.data(), n, out_scalar.data());
        avx2.abs_diff_agg[k](rows.data(), stride, num_rows, target.data(),
                             weights.data(), n, out_avx2.data());
        EXPECT_TRUE(BitsEqual(out_scalar, out_avx2))
            << "abs_diff kind=" << k << " n=" << n << " rows=" << num_rows;

        scalar.value_agg[k](rows.data(), stride, num_rows, weights.data(), n,
                            out_scalar.data());
        avx2.value_agg[k](rows.data(), stride, num_rows, weights.data(), n,
                          out_avx2.data());
        EXPECT_TRUE(BitsEqual(out_scalar, out_avx2))
            << "value kind=" << k << " n=" << n << " rows=" << num_rows;
      }
    }
  }
}

TEST_F(KernelsParityTest, AggregationAllNegativeRows) {
  // The linf value kernel must track the scalar seed-from-first behaviour
  // for all-negative rows (no phantom zero in either table).
  const KernelTable& scalar = GetKernelTable(DispatchMode::kScalar);
  const KernelTable& avx2 = GetKernelTable(DispatchMode::kAvx2);
  Rng rng(5);
  const size_t n = 9;
  const size_t num_rows = 11;
  std::vector<float> rows(num_rows * n);
  for (float& v : rows) {
    v = static_cast<float>(-rng.NextDouble() * 5.0 - 0.25);
  }
  std::vector<double> weights(n, 1.0);
  for (int k = 0; k < kNumAggKinds; ++k) {
    std::vector<double> out_scalar(num_rows);
    std::vector<double> out_avx2(num_rows);
    scalar.value_agg[k](rows.data(), n, num_rows, weights.data(), n,
                        out_scalar.data());
    avx2.value_agg[k](rows.data(), n, num_rows, weights.data(), n,
                      out_avx2.data());
    EXPECT_TRUE(BitsEqual(out_scalar, out_avx2)) << "kind=" << k;
    if (k == static_cast<int>(AggKind::kLInf)) {
      for (const double v : out_scalar) EXPECT_LT(v, 0.0);
    }
  }
}

TEST_F(KernelsParityTest, UnpackAllWidthsAndOffsets) {
  const KernelTable& scalar = GetKernelTable(DispatchMode::kScalar);
  const KernelTable& avx2 = GetKernelTable(DispatchMode::kAvx2);
  Rng rng(77);
  for (const int bits : {1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 64}) {
    const size_t n = 513;
    const size_t num_words =
        (n * static_cast<size_t>(bits) + 63) / 64;
    std::vector<uint64_t> words(num_words);
    for (uint64_t& w : words) w = rng.NextUint64();
    for (const size_t begin :
         {size_t{0}, size_t{1}, size_t{3}, size_t{15}, size_t{16},
          size_t{63}, size_t{64}, size_t{65}, size_t{300}}) {
      for (const size_t count :
           {size_t{0}, size_t{1}, size_t{4}, size_t{16}, size_t{63},
            size_t{64}, size_t{129}, size_t{200}}) {
        if (begin + count > n) continue;
        std::vector<uint64_t> out_scalar(count + 1, 0xAAu);
        std::vector<uint64_t> out_avx2(count + 1, 0xBBu);
        scalar.unpack(words.data(), num_words, bits, begin, count,
                      out_scalar.data());
        avx2.unpack(words.data(), num_words, bits, begin, count,
                    out_avx2.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out_scalar[i], out_avx2[i])
              << "bits=" << bits << " begin=" << begin << " count=" << count
              << " i=" << i;
        }
        // Neither kernel may write past `count`.
        EXPECT_EQ(out_scalar[count], 0xAAu);
        EXPECT_EQ(out_avx2[count], 0xBBu);
      }
    }
  }
}

TEST_F(KernelsParityTest, DequantRowAllLengths) {
  const KernelTable& scalar = GetKernelTable(DispatchMode::kScalar);
  const KernelTable& avx2 = GetKernelTable(DispatchMode::kAvx2);
  Rng rng(31);
  for (const size_t n : kLengths) {
    std::vector<uint8_t> codes(n);
    std::vector<float> minv(n);
    std::vector<float> scale(n);
    for (size_t i = 0; i < n; ++i) {
      codes[i] = static_cast<uint8_t>(rng.NextUint64() & 0xff);
      minv[i] = static_cast<float>(rng.NextDouble() * 4.0 - 2.0);
      scale[i] = static_cast<float>(rng.NextDouble() / 255.0);
    }
    std::vector<float> out_scalar(n);
    std::vector<float> out_avx2(n);
    scalar.dequant_row(codes.data(), minv.data(), scale.data(), n,
                       out_scalar.data());
    avx2.dequant_row(codes.data(), minv.data(), scale.data(), n,
                     out_avx2.data());
    EXPECT_EQ(std::memcmp(out_scalar.data(), out_avx2.data(),
                          n * sizeof(float)),
              0)
        << "n=" << n;
  }
}

/// A float from `rng`: mostly uniform in [-2, 2), with about 1 in 10 each of
/// -0.0 and +0.0 and 1 in 40 each of a denormal and an infinity of either
/// sign.
float SpecialMix(Rng* rng) {
  const uint64_t pick = rng->NextUint64(80);
  if (pick < 8) return -0.0f;
  if (pick < 16) return 0.0f;
  if (pick < 18) return pick % 2 == 0 ? 3e-39f : -7e-40f;
  if (pick < 20) {
    return pick % 2 == 0 ? std::numeric_limits<float>::infinity()
                         : -std::numeric_limits<float>::infinity();
  }
  return static_cast<float>(rng->NextDouble() * 4.0 - 2.0);
}

// Every channel-group shape the AVX2 conv has (8-lane blocks, masked
// tails, groups above 32 channels do not occur in the models but 24 and 32
// fill three and four blocks), every kernel size of the models plus 5, and
// images smaller than, equal to and larger than the kernel, so border-only
// rows, the P-pixel interior blocks and their leftovers all run. Inputs and
// weights carry -0.0 and infinities, and a third of the biases are -0.0: a
// border tap multiplied by a zero pad instead of skipped turns -0.0 into
// +0.0 or an infinite weight into NaN, and shows here.
TEST_F(KernelsParityTest, Conv2DSweepBitIdentical) {
  const KernelTable& scalar = GetKernelTable(DispatchMode::kScalar);
  const KernelTable& avx2 = GetKernelTable(DispatchMode::kAvx2);
  Rng rng(1313);
  constexpr size_t kSlack = 8;  // sentinel floats past the output
  for (const int oc : {4, 8, 12, 16, 24, 32}) {
    for (const int ic : {1, 3, 8, 16}) {
      for (const int k : {1, 3, 5}) {
        for (const int64_t h : {1, 2, 3, 7, 16}) {
          for (const int64_t w : {1, 2, 3, 7, 16}) {
            const ConvShape shape{h, w, ic, oc, k};
            std::vector<float> in(static_cast<size_t>(h * w * ic));
            for (float& v : in) v = SpecialMix(&rng);
            std::vector<float> weights(static_cast<size_t>(k * k * ic * oc));
            for (float& v : weights) v = SpecialMix(&rng);
            std::vector<float> bias(static_cast<size_t>(oc));
            for (size_t c = 0; c < bias.size(); ++c) {
              bias[c] = c % 3 == 0 ? -0.0f
                                   : static_cast<float>(rng.NextDouble() - 0.5);
            }
            const size_t out_size = static_cast<size_t>(h * w * oc);
            std::vector<float> out_scalar(out_size + kSlack, 12345.0f);
            std::vector<float> out_avx2(out_size + kSlack, 12345.0f);
            scalar.conv2d(in.data(), shape, weights.data(), bias.data(),
                          out_scalar.data());
            avx2.conv2d(in.data(), shape, weights.data(), bias.data(),
                        out_avx2.data());
            ASSERT_EQ(std::memcmp(out_scalar.data(), out_avx2.data(),
                                  out_scalar.size() * sizeof(float)),
                      0)
                << "oc=" << oc << " ic=" << ic << " k=" << k << " h=" << h
                << " w=" << w;
            for (size_t i = out_size; i < out_avx2.size(); ++i) {
              ASSERT_EQ(out_avx2[i], 12345.0f) << "wrote past the output";
            }
          }
        }
      }
    }
  }
}

// Max pooling selects, it does not compute, so operand choice is visible:
// NaNs with distinct payloads and both zero signs in every window make
// std::max's "first operand unless the second is greater" rule observable
// lane by lane, and the channel counts cover the 8-lane body and its tail.
TEST_F(KernelsParityTest, MaxPoolNaNAndSignedZeroTies) {
  const KernelTable& scalar = GetKernelTable(DispatchMode::kScalar);
  const KernelTable& avx2 = GetKernelTable(DispatchMode::kAvx2);
  const uint32_t nan_bits[] = {0x7fc00001u, 0xffc00002u};
  float nans[2];
  std::memcpy(&nans[0], &nan_bits[0], sizeof(float));
  std::memcpy(&nans[1], &nan_bits[1], sizeof(float));
  const float pool[] = {nans[0], nans[1], -0.0f, 0.0f, 1.0f, 1.0f, -1.0f,
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  Rng rng(99);
  for (const int64_t oh : {1, 2, 5}) {
    for (const int64_t ow : {1, 3, 4}) {
      for (const int64_t c : {1, 3, 8, 12, 17}) {
        std::vector<float> in(static_cast<size_t>(4 * oh * ow * c));
        for (float& v : in) {
          v = pool[rng.NextUint64(sizeof(pool) / sizeof(pool[0]))];
        }
        const size_t out_size = static_cast<size_t>(oh * ow * c);
        std::vector<float> out_scalar(out_size);
        std::vector<float> out_avx2(out_size);
        scalar.max_pool2x2(in.data(), oh, ow, c, out_scalar.data());
        avx2.max_pool2x2(in.data(), oh, ow, c, out_avx2.data());
        ASSERT_EQ(std::memcmp(out_scalar.data(), out_avx2.data(),
                              out_size * sizeof(float)),
                  0)
            << "oh=" << oh << " ow=" << ow << " c=" << c;
      }
    }
  }
  // One window spelled out: std::max(std::max(a, b), std::max(d, e)).
  const float window[4] = {-0.0f, 0.0f, nans[1], 0.0f};  // a b / d e
  float out = 1.0f;
  avx2.max_pool2x2(window, 1, 1, 1, &out);
  uint32_t bits = 0;
  std::memcpy(&bits, &out, sizeof(bits));
  // max(-0, +0) keeps -0; max(NaN, +0) keeps NaN; max(-0, NaN) keeps -0.
  EXPECT_EQ(bits, 0x80000000u);
}

}  // namespace
}  // namespace kernels
}  // namespace deepeverest
