#include "kernels/kernels.h"

#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "kernels/kernels_scalar_inl.h"

namespace deepeverest {
namespace kernels {

namespace {

using internal::RowAbsDiffL1;
using internal::RowAbsDiffL2;
using internal::RowAbsDiffLInf;
using internal::RowAbsDiffWL2;
using internal::RowValuesL1;
using internal::RowValuesL2;
using internal::RowValuesLInf;
using internal::RowValuesWL2;

void AbsDiffAggL1Scalar(const float* rows, size_t row_stride, size_t num_rows,
                        const float* target, const double* /*weights*/,
                        size_t n, double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = RowAbsDiffL1(rows + r * row_stride, target, n);
  }
}

void AbsDiffAggL2Scalar(const float* rows, size_t row_stride, size_t num_rows,
                        const float* target, const double* /*weights*/,
                        size_t n, double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = RowAbsDiffL2(rows + r * row_stride, target, n);
  }
}

void AbsDiffAggLInfScalar(const float* rows, size_t row_stride,
                          size_t num_rows, const float* target,
                          const double* /*weights*/, size_t n, double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = RowAbsDiffLInf(rows + r * row_stride, target, n);
  }
}

void AbsDiffAggWL2Scalar(const float* rows, size_t row_stride, size_t num_rows,
                         const float* target, const double* weights, size_t n,
                         double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = RowAbsDiffWL2(rows + r * row_stride, target, weights, n);
  }
}

void ValueAggL1Scalar(const float* rows, size_t row_stride, size_t num_rows,
                      const double* /*weights*/, size_t n, double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = RowValuesL1(rows + r * row_stride, n);
  }
}

void ValueAggL2Scalar(const float* rows, size_t row_stride, size_t num_rows,
                      const double* /*weights*/, size_t n, double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = RowValuesL2(rows + r * row_stride, n);
  }
}

void ValueAggLInfScalar(const float* rows, size_t row_stride, size_t num_rows,
                        const double* /*weights*/, size_t n, double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = RowValuesLInf(rows + r * row_stride, n);
  }
}

void ValueAggWL2Scalar(const float* rows, size_t row_stride, size_t num_rows,
                       const double* weights, size_t n, double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = RowValuesWL2(rows + r * row_stride, weights, n);
  }
}

constexpr KernelTable kScalarTable = {
    {AbsDiffAggL1Scalar, AbsDiffAggL2Scalar, AbsDiffAggLInfScalar,
     AbsDiffAggWL2Scalar},
    {ValueAggL1Scalar, ValueAggL2Scalar, ValueAggLInfScalar,
     ValueAggWL2Scalar},
    internal::UnpackScalar,
    internal::Conv2DScalar,
    internal::MaxPool2x2Scalar,
    "scalar",
};

}  // namespace

// Defined by kernels_avx2.cc: the AVX2 table, or nullptr when that TU was
// compiled without AVX2 support (non-x86 target or a compiler without
// -mavx2). Runtime cpuid is checked separately by Avx2Supported().
const KernelTable* GetAvx2KernelTableOrNull();

bool Avx2Supported() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported =
      GetAvx2KernelTableOrNull() != nullptr && __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

const KernelTable& GetKernelTable(DispatchMode mode) {
  if (mode == DispatchMode::kAvx2) {
    DE_CHECK(Avx2Supported()) << "AVX2 kernel table requested on a machine "
                                 "without AVX2 (gate on Avx2Supported())";
    return *GetAvx2KernelTableOrNull();
  }
  return kScalarTable;
}

DispatchMode ResolveDispatchMode(const char* env_value, bool avx2_supported) {
  const DispatchMode detected =
      avx2_supported ? DispatchMode::kAvx2 : DispatchMode::kScalar;
  if (env_value == nullptr || *env_value == '\0') return detected;
  if (std::strcmp(env_value, "scalar") == 0) return DispatchMode::kScalar;
  if (std::strcmp(env_value, "avx2") == 0) {
    if (avx2_supported) return DispatchMode::kAvx2;
    DE_LOG_WARNING << "DEEPEVEREST_KERNELS=avx2 but this CPU/build has no "
                      "AVX2 kernels; using scalar";
    return DispatchMode::kScalar;
  }
  DE_LOG_WARNING << "unknown DEEPEVEREST_KERNELS value '" << env_value
                 << "' (want scalar|avx2); autodetecting "
                 << DispatchModeName(detected);
  return detected;
}

DispatchMode ActiveDispatchMode() {
  // Resolved exactly once, on first use anywhere in the process; after this
  // every kernel call site pays one predictable indirect jump per *block*.
  static const DispatchMode mode = [] {
    const DispatchMode m = ResolveDispatchMode(
        std::getenv("DEEPEVEREST_KERNELS"), Avx2Supported());
    DE_LOG_INFO << "kernel dispatch: " << DispatchModeName(m)
                << (Avx2Supported() ? "" : " (no AVX2)");
    return m;
  }();
  return mode;
}

const KernelTable& Active() { return GetKernelTable(ActiveDispatchMode()); }

const char* DispatchModeName(DispatchMode mode) {
  switch (mode) {
    case DispatchMode::kScalar:
      return "scalar";
    case DispatchMode::kAvx2:
      return "avx2";
  }
  return "?";
}

}  // namespace kernels
}  // namespace deepeverest
