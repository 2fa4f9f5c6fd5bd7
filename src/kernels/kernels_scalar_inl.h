#ifndef DEEPEVEREST_KERNELS_KERNELS_SCALAR_INL_H_
#define DEEPEVEREST_KERNELS_KERNELS_SCALAR_INL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/logging.h"
#include "kernels/kernels.h"

/// Shared scalar kernel bodies, included by BOTH kernel translation units:
/// kernels.cc builds the scalar table from them, kernels_avx2.cc uses them
/// for row tails and for entries without a profitable SIMD form. Keeping one
/// definition is what makes the bit-parity contract trivial for tails — the
/// AVX2 table's leftover rows literally run the scalar code (both TUs are
/// compiled with -ffp-contract=off, so no FMA contraction can split them).
///
/// Floating-point op order here is the canonical one the AVX2 lanes must
/// reproduce: widen float -> double first, accumulate strictly left to
/// right, weighted terms as (w * v) * v. The convolution accumulates in
/// float, bias first, then one `+= v * w` per in-image tap in (kh, kw, i)
/// order.

namespace deepeverest {
namespace kernels {
namespace internal {

inline double RowAbsDiffL1(const float* row, const float* target, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = std::abs(static_cast<double>(row[i]) -
                              static_cast<double>(target[i]));
    sum += d;
  }
  return sum;
}

inline double RowAbsDiffL2(const float* row, const float* target, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = std::abs(static_cast<double>(row[i]) -
                              static_cast<double>(target[i]));
    sum += d * d;
  }
  return std::sqrt(sum);
}

inline double RowAbsDiffLInf(const float* row, const float* target, size_t n) {
  if (n == 0) return 0.0;
  double best = std::abs(static_cast<double>(row[0]) -
                         static_cast<double>(target[0]));
  for (size_t i = 1; i < n; ++i) {
    const double d = std::abs(static_cast<double>(row[i]) -
                              static_cast<double>(target[i]));
    best = std::max(best, d);
  }
  return best;
}

inline double RowAbsDiffWL2(const float* row, const float* target,
                            const double* weights, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = std::abs(static_cast<double>(row[i]) -
                              static_cast<double>(target[i]));
    sum += weights[i] * d * d;
  }
  return std::sqrt(sum);
}

inline double RowValuesL1(const float* row, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += static_cast<double>(row[i]);
  return sum;
}

inline double RowValuesL2(const float* row, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(row[i]);
    sum += v * v;
  }
  return std::sqrt(sum);
}

inline double RowValuesLInf(const float* row, size_t n) {
  if (n == 0) return 0.0;
  // Seeded from the first element, not 0.0: correct for all-negative rows.
  double best = static_cast<double>(row[0]);
  for (size_t i = 1; i < n; ++i) {
    best = std::max(best, static_cast<double>(row[i]));
  }
  return best;
}

inline double RowValuesWL2(const float* row, const double* weights, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(row[i]);
    sum += weights[i] * v * v;
  }
  return std::sqrt(sum);
}

/// Word-at-a-time bulk unpack: reads each packed word straight out of the
/// array (no per-element bounds checks — PackedIntArray::GetMany validated
/// the range once) and only touches word+1 when a value actually straddles.
inline void UnpackScalar(const uint64_t* words, size_t num_words, int bits,
                         size_t begin, size_t count, uint64_t* out) {
  if (count == 0) return;
  DE_CHECK_GE(bits, 1);
  DE_CHECK_LE(bits, 64);
  const uint64_t mask =
      bits >= 64 ? ~0ull : ((1ull << bits) - 1);
  size_t bit = begin * static_cast<size_t>(bits);
  DE_CHECK_LE(((begin + count) * static_cast<size_t>(bits) + 63) / 64,
              num_words);
  for (size_t i = 0; i < count; ++i, bit += static_cast<size_t>(bits)) {
    const size_t word = bit >> 6;
    const int offset = static_cast<int>(bit & 63);
    uint64_t value = words[word] >> offset;
    if (offset + bits > 64) {
      value |= words[word + 1] << (64 - offset);
    }
    out[i] = value & mask;
  }
}

/// The reference convolution (KernelTable::Conv2DFn): one output pixel at a
/// time, all output channels per tap.
inline void Conv2DScalar(const float* in, const ConvShape& shape,
                         const float* weights, const float* bias, float* out) {
  const int64_t height = shape.height;
  const int64_t width = shape.width;
  const int ic = shape.in_channels;
  const int oc = shape.out_channels;
  const int kernel = shape.kernel;
  const int pad = kernel / 2;
  for (int64_t h = 0; h < height; ++h) {
    for (int64_t w = 0; w < width; ++w) {
      float* out_px = out + (h * width + w) * oc;
      for (int c = 0; c < oc; ++c) out_px[c] = bias[c];
      for (int kh = 0; kh < kernel; ++kh) {
        const int64_t ih = h + kh - pad;
        if (ih < 0 || ih >= height) continue;
        for (int kw = 0; kw < kernel; ++kw) {
          const int64_t iw = w + kw - pad;
          if (iw < 0 || iw >= width) continue;
          const float* in_px = in + (ih * width + iw) * ic;
          const float* wbase =
              weights + (static_cast<size_t>(kh) * kernel + kw) * ic * oc;
          for (int i = 0; i < ic; ++i) {
            const float v = in_px[i];
            const float* wrow = wbase + static_cast<size_t>(i) * oc;
            for (int c = 0; c < oc; ++c) out_px[c] += v * wrow[c];
          }
        }
      }
    }
  }
}

/// One output pixel of 2x2 max pooling, channels [begin, channels).
inline void MaxPool2x2Pixel(const float* top, const float* bottom,
                            int64_t channels, int64_t begin, float* out) {
  for (int64_t ch = begin; ch < channels; ++ch) {
    const float a = top[ch];
    const float b = top[channels + ch];
    const float d = bottom[ch];
    const float e = bottom[channels + ch];
    out[ch] = std::max(std::max(a, b), std::max(d, e));
  }
}

/// The reference 2x2 max pooling (KernelTable::MaxPool2x2Fn).
inline void MaxPool2x2Scalar(const float* in, int64_t out_height,
                             int64_t out_width, int64_t channels, float* out) {
  const int64_t in_row = 2 * out_width * channels;  // floats per input row
  for (int64_t h = 0; h < out_height; ++h) {
    for (int64_t w = 0; w < out_width; ++w) {
      const float* top = in + 2 * h * in_row + 2 * w * channels;
      MaxPool2x2Pixel(top, top + in_row, channels, 0,
                      out + (h * out_width + w) * channels);
    }
  }
}

}  // namespace internal
}  // namespace kernels
}  // namespace deepeverest

#endif  // DEEPEVEREST_KERNELS_KERNELS_SCALAR_INL_H_
