#ifndef DEEPEVEREST_KERNELS_KERNELS_H_
#define DEEPEVEREST_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace deepeverest {
namespace kernels {

/// \brief The hot-loop kernel layer.
///
/// Everything on a per-candidate path — batched distance aggregation over
/// row blocks, bulk bit-unpacking of NPI partition ids, 8-bit dequantisation
/// — and the forward pass's convolution and max pooling run through one
/// KernelTable of plain function pointers. Two tables
/// exist: a portable scalar one and an AVX2 one (compiled in its own
/// translation unit with -mavx2 -ffp-contract=off). Which table serves the
/// process is decided exactly once, on first use, from cpuid plus the
/// DEEPEVEREST_KERNELS environment override; after that the per-block call
/// is one indirect jump, hoisted out of the per-candidate loop entirely.
///
/// Bit-parity contract: for identical inputs, every entry of the AVX2 table
/// returns results bit-identical to the scalar table. The AVX2 aggregation
/// kernels keep one *row per SIMD lane* and walk columns sequentially, so
/// each row's floating-point op order matches the scalar loop exactly; FMA
/// contraction is disabled in both kernel TUs. The AVX2 convolution keeps
/// one output channel per lane and adds the same taps in the same order as
/// the scalar loop, skipping out-of-image taps as it does; max pooling
/// picks the operand std::max picks. The seeded parity suite
/// (tests/kernels/) pins this, which is what lets the §4.6 fresh-scan
/// reference stay bit-equal to the service path under either dispatch mode,
/// and keeps every activation, and so every index and answer, the same.

/// Which kernel table serves a call.
enum class DispatchMode {
  kScalar,
  kAvx2,
};

/// Aggregation kinds mirror core::DistanceKind (kernels is a leaf layer and
/// must not depend on core; core/distance.cc owns the mapping).
enum class AggKind : int {
  kL1 = 0,
  kL2 = 1,
  kLInf = 2,
  kWeightedL2 = 3,
};
inline constexpr int kNumAggKinds = 4;

/// Geometry of one stride-1, "same"-padded 2D convolution over an HWC image:
/// input height x width x in_channels, output height x width x out_channels,
/// weights [kernel][kernel][in_channels][out_channels], kernel odd.
struct ConvShape {
  int64_t height = 0;
  int64_t width = 0;
  int in_channels = 0;
  int out_channels = 0;
  int kernel = 0;
};

/// \brief One dispatchable kernel set. All function pointers are non-null in
/// both tables (entries without a profitable SIMD form point at the scalar
/// implementation).
struct KernelTable {
  /// out[r] = Agg_i |rows[r*row_stride + i] - target[i]|, the most-similar
  /// hot path. `rows` is a block of `num_rows` float rows of `n` values laid
  /// out `row_stride` floats apart (contiguous when row_stride == n).
  /// `weights` is consulted only by kWeightedL2 (must then have n entries).
  using AbsDiffAggFn = void (*)(const float* rows, size_t row_stride,
                                size_t num_rows, const float* target,
                                const double* weights, size_t n, double* out);
  /// out[r] = Agg_i rows[r*row_stride + i], the highest hot path.
  using ValueAggFn = void (*)(const float* rows, size_t row_stride,
                              size_t num_rows, const double* weights, size_t n,
                              double* out);
  /// Unpacks `count` fixed-width values starting at element `begin` from a
  /// bit-packed word array (PackedIntArray layout) into out[0..count).
  /// Bounds are the caller's job (PackedIntArray::GetMany checks once);
  /// `num_words` is asserted against the last touched word.
  using UnpackFn = void (*)(const uint64_t* words, size_t num_words, int bits,
                            size_t begin, size_t count, uint64_t* out);
  /// out[i] = min_value[i] + scale[i] * codes[i]: one quantised row decoded
  /// against the per-neuron ranges (QuantizedActivationMatrix layout).
  using DequantRowFn = void (*)(const uint8_t* codes, const float* min_value,
                                const float* scale, size_t n, float* out);
  /// out[h][w][c] = bias[c], then `+= in[ih][iw][i] * weights[kh][kw][i][c]`
  /// for every tap (kh, kw, i) in that order, with ih = h + kh - kernel / 2
  /// and iw likewise. Taps that fall outside the image are skipped, never
  /// multiplied by a zero pad (0 * inf and -0.0 + 0.0 would change bits).
  using Conv2DFn = void (*)(const float* in, const ConvShape& shape,
                            const float* weights, const float* bias,
                            float* out);
  /// 2x2, stride-2 max pooling of an HWC image of (2 * out_height) x
  /// (2 * out_width) x channels: out = std::max(std::max(a, b),
  /// std::max(d, e)) over the window's top-left, top-right, bottom-left and
  /// bottom-right values, so NaN and signed-zero ties resolve as std::max
  /// does.
  using MaxPool2x2Fn = void (*)(const float* in, int64_t out_height,
                                int64_t out_width, int64_t channels,
                                float* out);

  AbsDiffAggFn abs_diff_agg[kNumAggKinds];
  ValueAggFn value_agg[kNumAggKinds];
  UnpackFn unpack;
  DequantRowFn dequant_row;
  Conv2DFn conv2d;
  MaxPool2x2Fn max_pool2x2;
  const char* name;
};

/// True when this CPU executes AVX2 (runtime cpuid check; false when the
/// AVX2 table was not compiled in, e.g. non-x86 targets).
bool Avx2Supported();

/// The table for an explicit mode. Requesting kAvx2 on a machine where
/// Avx2Supported() is false is a programming error (DE_CHECK); dispatch
/// resolution never does that — tests gate on Avx2Supported().
const KernelTable& GetKernelTable(DispatchMode mode);

/// Pure resolution logic, unit-testable: `env_value` is the raw
/// DEEPEVEREST_KERNELS value (nullptr/empty = auto). "scalar" forces the
/// scalar table; "avx2" requests AVX2 and falls back to scalar (with a
/// warning at startup) when unsupported; anything else warns and autodetects.
DispatchMode ResolveDispatchMode(const char* env_value, bool avx2_supported);

/// The mode serving this process, resolved once on first call from
/// DEEPEVEREST_KERNELS and cpuid. Stable for the process lifetime.
DispatchMode ActiveDispatchMode();

/// The process-wide active table: GetKernelTable(ActiveDispatchMode()).
const KernelTable& Active();

const char* DispatchModeName(DispatchMode mode);

}  // namespace kernels
}  // namespace deepeverest

#endif  // DEEPEVEREST_KERNELS_KERNELS_H_
