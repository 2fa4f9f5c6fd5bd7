// AVX2 kernel table. This translation unit is compiled with
// -mavx2 -ffp-contract=off (see CMakeLists.txt); every other file keeps the
// portable baseline, and runtime cpuid decides whether this table is ever
// used. On non-x86 targets (or compilers without -mavx2) the whole file
// degrades to the nullptr stub at the bottom.
//
// Bit-parity discipline (pinned by tests/kernels/kernels_parity_test.cc):
//  - aggregation kernels keep one ROW per 64-bit lane and walk columns in
//    ascending order, so each row's floating-point op order is exactly the
//    scalar loop's; the 4x4 transpose loads only change HOW a column is
//    gathered, not the per-row op sequence;
//  - float->double widening, subtraction, |x| (sign-bit clear), multiply,
//    add and sqrt are all identical IEEE single/double ops lane-wise;
//  - max uses compare+blend to reproduce std::max's exact operand
//    selection (vmaxpd picks the second operand on ties, which flips the
//    sign bit when -0.0 meets +0.0);
//  - row tails and non-SIMD widths run the shared scalar bodies from
//    kernels_scalar_inl.h;
//  - the convolution keeps one output channel per float lane and adds the
//    scalar loop's taps in its order (vmulps then vaddps, never FMA);
//    max pooling uses vmaxps with std::max's operand order.
#include "kernels/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "kernels/kernels_scalar_inl.h"

namespace deepeverest {
namespace kernels {

namespace {

/// Column i of four consecutive rows, widened to one double per lane
/// (lane 0 = row 0). Used for column tails where a 4-wide load won't fit.
inline __m256d LoadColumn(const float* const* rows4, size_t i) {
  const __m128 f =
      _mm_setr_ps(rows4[0][i], rows4[1][i], rows4[2][i], rows4[3][i]);
  return _mm256_cvtps_pd(f);
}

/// Columns [i, i+4) of four consecutive rows via one 4x4 float transpose:
/// four contiguous loads + eight shuffles instead of sixteen scalar loads.
/// cols[j] holds column i+j with lane 0 = row 0, identical to LoadColumn.
inline void LoadColumns4(const float* const* rows4, size_t i,
                         __m256d cols[4]) {
  __m128 a0 = _mm_loadu_ps(rows4[0] + i);
  __m128 a1 = _mm_loadu_ps(rows4[1] + i);
  __m128 a2 = _mm_loadu_ps(rows4[2] + i);
  __m128 a3 = _mm_loadu_ps(rows4[3] + i);
  _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
  cols[0] = _mm256_cvtps_pd(a0);
  cols[1] = _mm256_cvtps_pd(a1);
  cols[2] = _mm256_cvtps_pd(a2);
  cols[3] = _mm256_cvtps_pd(a3);
}

inline __m256d AbsPd(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

/// best = std::max(best, v) per lane: (best < v) ? v : best, bit-exact with
/// the scalar std::max including the signed-zero tie case.
inline __m256d MaxLikeStd(__m256d best, __m256d v) {
  const __m256d lt = _mm256_cmp_pd(best, v, _CMP_LT_OQ);
  return _mm256_blendv_pd(best, v, lt);
}

inline __m256d AddPd(__m256d a, __m256d b) { return _mm256_add_pd(a, b); }

/// Target widened to doubles once per kernel call: the per-column broadcast
/// then becomes a pure load-port vbroadcastsd instead of a cvtss2sd plus a
/// shuffle-port register broadcast — the transpose+cvt pipeline is
/// shuffle-bound, so this is a measurable win. Same value, same rounding
/// (float->double is exact), so bit-parity is unaffected.
inline std::vector<double> WidenTarget(const float* target, size_t n) {
  std::vector<double> widened(n);
  for (size_t i = 0; i < n; ++i) widened[i] = static_cast<double>(target[i]);
  return widened;
}
inline __m256d IdentityPd(__m256d v) { return v; }
inline __m256d SqrtPd(__m256d v) { return _mm256_sqrt_pd(v); }

// ---------------------------------------------------------------------------
// Batched aggregation driver. Row blocks of 8 run TWO independent
// accumulator chains (the per-row combine is a serial dependency chain, so
// independent chains are what hides its latency), each over 4 rows kept one
// per lane. Columns advance in ascending order in groups of 4 via the
// transpose loads, with a per-column epilogue for n % 4. Row tails
// (num_rows % 4) run the shared scalar bodies via `row_tail`.
//
//   term(col_vals, i) -> the per-column term (e.g. |v - t| squared)
//   combine(acc, t)   -> add or std::max-like blend
//   final(acc)        -> identity or sqrt
//   kSeedFirst        -> seed the chain from column 0's term instead of 0.0
//                        (LInf; required for all-negative value rows)
// ---------------------------------------------------------------------------

template <bool kSeedFirst, typename TermFn, typename CombineFn,
          typename FinalFn, typename RowTailFn>
inline void AggMany(const float* rows, size_t row_stride, size_t num_rows,
                    size_t n, TermFn term, CombineFn combine, FinalFn final,
                    RowTailFn row_tail, double* out) {
  size_t r = 0;
  if (n > 0) {
    const auto run_chain = [&](const float* const* rows4) {
      __m256d acc;
      size_t i;
      if (kSeedFirst) {
        acc = term(LoadColumn(rows4, 0), 0);
        i = 1;
      } else {
        acc = _mm256_setzero_pd();
        i = 0;
      }
      __m256d cols[4];
      for (; i + 4 <= n; i += 4) {
        LoadColumns4(rows4, i, cols);
        for (int j = 0; j < 4; ++j) {
          acc = combine(acc, term(cols[j], i + j));
        }
      }
      for (; i < n; ++i) {
        acc = combine(acc, term(LoadColumn(rows4, i), i));
      }
      return acc;
    };
    for (; r + 8 <= num_rows; r += 8) {
      const float* a[4] = {rows + r * row_stride,
                           rows + (r + 1) * row_stride,
                           rows + (r + 2) * row_stride,
                           rows + (r + 3) * row_stride};
      const float* b[4] = {rows + (r + 4) * row_stride,
                           rows + (r + 5) * row_stride,
                           rows + (r + 6) * row_stride,
                           rows + (r + 7) * row_stride};
      // Two interleaved chains so the combine latency of one hides behind
      // the other.
      __m256d acc_a;
      __m256d acc_b;
      size_t i;
      if (kSeedFirst) {
        acc_a = term(LoadColumn(a, 0), 0);
        acc_b = term(LoadColumn(b, 0), 0);
        i = 1;
      } else {
        acc_a = _mm256_setzero_pd();
        acc_b = _mm256_setzero_pd();
        i = 0;
      }
      __m256d ca[4];
      __m256d cb[4];
      for (; i + 4 <= n; i += 4) {
        LoadColumns4(a, i, ca);
        LoadColumns4(b, i, cb);
        for (int j = 0; j < 4; ++j) {
          acc_a = combine(acc_a, term(ca[j], i + j));
          acc_b = combine(acc_b, term(cb[j], i + j));
        }
      }
      for (; i < n; ++i) {
        acc_a = combine(acc_a, term(LoadColumn(a, i), i));
        acc_b = combine(acc_b, term(LoadColumn(b, i), i));
      }
      _mm256_storeu_pd(out + r, final(acc_a));
      _mm256_storeu_pd(out + r + 4, final(acc_b));
    }
    for (; r + 4 <= num_rows; r += 4) {
      const float* a[4] = {rows + r * row_stride,
                           rows + (r + 1) * row_stride,
                           rows + (r + 2) * row_stride,
                           rows + (r + 3) * row_stride};
      _mm256_storeu_pd(out + r, final(run_chain(a)));
    }
  }
  for (; r < num_rows; ++r) out[r] = row_tail(r);
}

// ---- abs-diff aggregations (most-similar path) ----

void AbsDiffAggL1Avx2(const float* rows, size_t row_stride, size_t num_rows,
                      const float* target, const double* /*weights*/, size_t n,
                      double* out) {
  const std::vector<double> tpd = WidenTarget(target, n);
  const double* t = tpd.data();
  AggMany<false>(
      rows, row_stride, num_rows, n,
      [t](__m256d v, size_t i) {
        return AbsPd(_mm256_sub_pd(v, _mm256_broadcast_sd(t + i)));
      },
      AddPd, IdentityPd,
      [=](size_t r) {
        return internal::RowAbsDiffL1(rows + r * row_stride, target, n);
      },
      out);
}

void AbsDiffAggL2Avx2(const float* rows, size_t row_stride, size_t num_rows,
                      const float* target, const double* /*weights*/, size_t n,
                      double* out) {
  const std::vector<double> tpd = WidenTarget(target, n);
  const double* t = tpd.data();
  AggMany<false>(
      rows, row_stride, num_rows, n,
      [t](__m256d v, size_t i) {
        const __m256d d = AbsPd(_mm256_sub_pd(v, _mm256_broadcast_sd(t + i)));
        return _mm256_mul_pd(d, d);
      },
      AddPd, SqrtPd,
      [=](size_t r) {
        return internal::RowAbsDiffL2(rows + r * row_stride, target, n);
      },
      out);
}

void AbsDiffAggLInfAvx2(const float* rows, size_t row_stride, size_t num_rows,
                        const float* target, const double* /*weights*/,
                        size_t n, double* out) {
  const std::vector<double> tpd = WidenTarget(target, n);
  const double* t = tpd.data();
  AggMany<true>(
      rows, row_stride, num_rows, n,
      [t](__m256d v, size_t i) {
        return AbsPd(_mm256_sub_pd(v, _mm256_broadcast_sd(t + i)));
      },
      MaxLikeStd, IdentityPd,
      [=](size_t r) {
        return internal::RowAbsDiffLInf(rows + r * row_stride, target, n);
      },
      out);
}

void AbsDiffAggWL2Avx2(const float* rows, size_t row_stride, size_t num_rows,
                       const float* target, const double* weights, size_t n,
                       double* out) {
  const std::vector<double> tpd = WidenTarget(target, n);
  const double* t = tpd.data();
  AggMany<false>(
      rows, row_stride, num_rows, n,
      [t, weights](__m256d v, size_t i) {
        const __m256d d = AbsPd(_mm256_sub_pd(v, _mm256_broadcast_sd(t + i)));
        const __m256d w = _mm256_broadcast_sd(weights + i);
        return _mm256_mul_pd(_mm256_mul_pd(w, d), d);
      },
      AddPd, SqrtPd,
      [=](size_t r) {
        return internal::RowAbsDiffWL2(rows + r * row_stride, target, weights,
                                       n);
      },
      out);
}

// ---- raw-value aggregations (highest path) ----

void ValueAggL1Avx2(const float* rows, size_t row_stride, size_t num_rows,
                    const double* /*weights*/, size_t n, double* out) {
  AggMany<false>(
      rows, row_stride, num_rows, n,
      [](__m256d v, size_t) { return v; }, AddPd, IdentityPd,
      [=](size_t r) { return internal::RowValuesL1(rows + r * row_stride, n); },
      out);
}

void ValueAggL2Avx2(const float* rows, size_t row_stride, size_t num_rows,
                    const double* /*weights*/, size_t n, double* out) {
  AggMany<false>(
      rows, row_stride, num_rows, n,
      [](__m256d v, size_t) { return _mm256_mul_pd(v, v); }, AddPd, SqrtPd,
      [=](size_t r) { return internal::RowValuesL2(rows + r * row_stride, n); },
      out);
}

void ValueAggLInfAvx2(const float* rows, size_t row_stride, size_t num_rows,
                      const double* /*weights*/, size_t n, double* out) {
  AggMany<true>(
      rows, row_stride, num_rows, n,
      [](__m256d v, size_t) { return v; }, MaxLikeStd, IdentityPd,
      [=](size_t r) {
        return internal::RowValuesLInf(rows + r * row_stride, n);
      },
      out);
}

void ValueAggWL2Avx2(const float* rows, size_t row_stride, size_t num_rows,
                     const double* weights, size_t n, double* out) {
  AggMany<false>(
      rows, row_stride, num_rows, n,
      [weights](__m256d v, size_t i) {
        const __m256d w = _mm256_broadcast_sd(weights + i);
        return _mm256_mul_pd(_mm256_mul_pd(w, v), v);
      },
      AddPd, SqrtPd,
      [=](size_t r) {
        return internal::RowValuesWL2(rows + r * row_stride, weights, n);
      },
      out);
}

// ---------------------------------------------------------------------------
// Bulk unpack. SIMD path for the widths that divide a 64-bit word and fit
// at least four values per word (1/2/4/8/16 — the NPI default of 16
// partitions packs at 4 bits): values never straddle a word, so each packed
// word is broadcast once and variable-shifted into 4-value groups. Other
// widths fall back to the shared word-at-a-time scalar body.
// ---------------------------------------------------------------------------

void UnpackAvx2(const uint64_t* words, size_t num_words, int bits,
                size_t begin, size_t count, uint64_t* out) {
  if (count == 0) return;
  if (bits > 16 || (64 % bits) != 0) {
    internal::UnpackScalar(words, num_words, bits, begin, count, out);
    return;
  }
  DE_CHECK_LE(((begin + count) * static_cast<size_t>(bits) + 63) / 64,
              num_words);
  const uint64_t mask = (1ull << bits) - 1;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const size_t vals_per_word = 64 / static_cast<size_t>(bits);
  const size_t groups_per_word = vals_per_word / 4;  // >= 1 for bits <= 16

  // Per-group lane shift amounts within one word (constant across words).
  __m256i shifts[16];  // max groups_per_word is 16 (bits == 1)
  for (size_t gidx = 0; gidx < groups_per_word; ++gidx) {
    const long long base = static_cast<long long>(gidx * 4 * bits);
    shifts[gidx] =
        _mm256_setr_epi64x(base, base + bits, base + 2 * bits,
                           base + 3 * bits);
  }

  size_t produced = 0;
  size_t idx = begin;
  // Scalar prologue up to a word boundary.
  while (produced < count && (idx % vals_per_word) != 0) {
    internal::UnpackScalar(words, num_words, bits, idx, 1, out + produced);
    ++produced;
    ++idx;
  }
  // Whole words: broadcast once, shift each 4-value group into lanes.
  while (count - produced >= vals_per_word) {
    const __m256i vw = _mm256_set1_epi64x(
        static_cast<long long>(words[idx / vals_per_word]));
    for (size_t gidx = 0; gidx < groups_per_word; ++gidx) {
      const __m256i vals =
          _mm256_and_si256(_mm256_srlv_epi64(vw, shifts[gidx]), vmask);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + produced + gidx * 4), vals);
    }
    produced += vals_per_word;
    idx += vals_per_word;
  }
  // Scalar tail.
  if (produced < count) {
    internal::UnpackScalar(words, num_words, bits, idx, count - produced,
                           out + produced);
  }
}

// ---------------------------------------------------------------------------
// Conv2D. Output channels live in 8-lane accumulators, in groups of up to
// four blocks (32 channels); the group's last block is masked when its
// channel count is not a multiple of 8. P adjacent output pixels of one row
// share every weight load, with P chosen so the P x NB accumulators, the NB
// weights and a broadcast fit in the 16 ymm registers.
//
// Each accumulator lane is one output element and sees exactly the scalar
// sequence: the bias, then `acc + v * w` per in-image tap in (kh, kw, i)
// order, as a separate vmulps and vaddps. For one output pixel the in-image
// kernel columns form one contiguous range [kw_lo, kw_hi), and over it the
// (kw, i) taps are one contiguous run of both the input row and the
// weights. Border pixels run that shorter run one pixel at a time, so taps
// outside the image are skipped exactly as the scalar loop skips them.
// ---------------------------------------------------------------------------

struct ConvArgs {
  const float* in;
  ConvShape shape;
  const float* weights;
  const float* bias;
  float* out;
  int c0;             // first output channel of the current group
  __m256i tail_mask;  // lanes of the group's last block (when kTail)
};

template <int NB, bool kTail>
inline __m256 LoadChannels(const float* p, int b, __m256i tail_mask) {
  if (kTail && b == NB - 1) return _mm256_maskload_ps(p, tail_mask);
  return _mm256_loadu_ps(p);
}

template <int NB, bool kTail>
inline void StoreChannels(float* p, int b, __m256i tail_mask, __m256 v) {
  if (kTail && b == NB - 1) {
    _mm256_maskstore_ps(p, tail_mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

/// Output pixels (h, w0) .. (h, w0 + P - 1), channels [c0, c0 + 8 * NB),
/// over kernel columns [kw_lo, kw_hi), which must be in-image for all P.
template <int NB, int P, bool kTail>
inline void ConvPixels(const ConvArgs& a, int64_t h, int64_t w0, int kw_lo,
                       int kw_hi) {
  const ConvShape& s = a.shape;
  const int ic = s.in_channels;
  const int oc = s.out_channels;
  const int k = s.kernel;
  const int pad = k / 2;
  __m256 acc[P][NB];
#pragma GCC unroll 4
  for (int b = 0; b < NB; ++b) {
    const __m256 bias =
        LoadChannels<NB, kTail>(a.bias + a.c0 + 8 * b, b, a.tail_mask);
#pragma GCC unroll 8
    for (int p = 0; p < P; ++p) acc[p][b] = bias;
  }
  const int kh_lo = static_cast<int>(std::max<int64_t>(0, pad - h));
  const int kh_hi = static_cast<int>(std::min<int64_t>(k, s.height + pad - h));
  const int run = (kw_hi - kw_lo) * ic;
  for (int kh = kh_lo; kh < kh_hi; ++kh) {
    const float* x = a.in + ((h + kh - pad) * s.width + w0 + kw_lo - pad) * ic;
    const float* wt =
        a.weights + (static_cast<size_t>(kh) * k + kw_lo) * ic * oc + a.c0;
    for (int j = 0; j < run; ++j, wt += oc) {
      __m256 wv[NB];
#pragma GCC unroll 4
      for (int b = 0; b < NB; ++b) {
        wv[b] = LoadChannels<NB, kTail>(wt + 8 * b, b, a.tail_mask);
      }
#pragma GCC unroll 8
      for (int p = 0; p < P; ++p) {
        const __m256 v = _mm256_broadcast_ss(x + p * ic + j);
#pragma GCC unroll 4
        for (int b = 0; b < NB; ++b) {
          acc[p][b] = _mm256_add_ps(acc[p][b], _mm256_mul_ps(v, wv[b]));
        }
      }
    }
  }
#pragma GCC unroll 8
  for (int p = 0; p < P; ++p) {
    float* o = a.out + (h * s.width + w0 + p) * oc + a.c0;
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b) {
      StoreChannels<NB, kTail>(o + 8 * b, b, a.tail_mask, acc[p][b]);
    }
  }
}

/// One channel group over the whole image: the interior in blocks of P
/// pixels, then of P / 2; border columns and what is left one pixel at a
/// time.
template <int NB, int P, bool kTail>
void ConvChannelGroup(const ConvArgs& a) {
  const ConvShape& s = a.shape;
  const int k = s.kernel;
  const int pad = k / 2;
  const auto one_pixel = [&](int64_t h, int64_t w) {
    const int kw_lo = static_cast<int>(std::max<int64_t>(0, pad - w));
    const int kw_hi =
        static_cast<int>(std::min<int64_t>(k, s.width + pad - w));
    ConvPixels<NB, 1, kTail>(a, h, w, kw_lo, kw_hi);
  };
  for (int64_t h = 0; h < s.height; ++h) {
    int64_t w = 0;
    for (; w < pad && w < s.width; ++w) one_pixel(h, w);
    for (; w + P <= s.width - pad; w += P) {
      ConvPixels<NB, P, kTail>(a, h, w, 0, k);
    }
    if (P / 2 > 1 && w + P / 2 <= s.width - pad) {
      ConvPixels<NB, P / 2, kTail>(a, h, w, 0, k);
      w += P / 2;
    }
    for (; w < s.width; ++w) one_pixel(h, w);
  }
}

void Conv2DAvx2(const float* in, const ConvShape& shape, const float* weights,
                const float* bias, float* out) {
  // [8-lane blocks - 1][masked last block]; P by block count as above.
  using GroupFn = void (*)(const ConvArgs&);
  static constexpr GroupFn kGroups[4][2] = {
      {ConvChannelGroup<1, 6, false>, ConvChannelGroup<1, 6, true>},
      {ConvChannelGroup<2, 4, false>, ConvChannelGroup<2, 4, true>},
      {ConvChannelGroup<3, 3, false>, ConvChannelGroup<3, 3, true>},
      {ConvChannelGroup<4, 2, false>, ConvChannelGroup<4, 2, true>},
  };
  ConvArgs a{in, shape, weights, bias, out, 0, _mm256_setzero_si256()};
  const int oc = shape.out_channels;
  for (int c0 = 0; c0 < oc; c0 += 32) {
    const int group = std::min(32, oc - c0);
    const int tail = group % 8;
    a.c0 = c0;
    a.tail_mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(tail),
                                     _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    kGroups[(group + 7) / 8 - 1][tail != 0 ? 1 : 0](a);
  }
}

// ---------------------------------------------------------------------------
// 2x2 max pooling, 8 channels at a time. std::max(a, b) is (a < b) ? b : a;
// vmaxps(x, y) is (x > y) ? x : y, so vmaxps(b, a) returns a on ties and
// when either side is NaN, exactly as std::max does. Channel tails run the
// shared scalar body.
// ---------------------------------------------------------------------------

inline __m256 MaxLikeStdPs(__m256 a, __m256 b) { return _mm256_max_ps(b, a); }

void MaxPool2x2Avx2(const float* in, int64_t out_height, int64_t out_width,
                    int64_t channels, float* out) {
  const int64_t in_row = 2 * out_width * channels;
  for (int64_t h = 0; h < out_height; ++h) {
    for (int64_t w = 0; w < out_width; ++w) {
      const float* top = in + 2 * h * in_row + 2 * w * channels;
      const float* bottom = top + in_row;
      float* o = out + (h * out_width + w) * channels;
      int64_t ch = 0;
      for (; ch + 8 <= channels; ch += 8) {
        const __m256 ab = MaxLikeStdPs(_mm256_loadu_ps(top + ch),
                                       _mm256_loadu_ps(top + channels + ch));
        const __m256 de =
            MaxLikeStdPs(_mm256_loadu_ps(bottom + ch),
                         _mm256_loadu_ps(bottom + channels + ch));
        _mm256_storeu_ps(o + ch, MaxLikeStdPs(ab, de));
      }
      internal::MaxPool2x2Pixel(top, bottom, channels, ch, o);
    }
  }
}

constexpr KernelTable kAvx2Table = {
    {AbsDiffAggL1Avx2, AbsDiffAggL2Avx2, AbsDiffAggLInfAvx2,
     AbsDiffAggWL2Avx2},
    {ValueAggL1Avx2, ValueAggL2Avx2, ValueAggLInfAvx2, ValueAggWL2Avx2},
    UnpackAvx2,
    Conv2DAvx2,
    MaxPool2x2Avx2,
    "avx2",
};

}  // namespace

const KernelTable* GetAvx2KernelTableOrNull() { return &kAvx2Table; }

}  // namespace kernels
}  // namespace deepeverest

#else  // !defined(__AVX2__)

namespace deepeverest {
namespace kernels {

const KernelTable* GetAvx2KernelTableOrNull() { return nullptr; }

}  // namespace kernels
}  // namespace deepeverest

#endif  // defined(__AVX2__)
