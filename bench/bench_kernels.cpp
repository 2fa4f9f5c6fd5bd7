// Kernel-level microbench + parity harness (pmembench-style: one binary,
// deterministic workload, machine-readable JSON out).
//
// Unlike the other bench binaries this one is self-contained — no Google
// Benchmark — because CI's kernel-bench smoke and reproduce/run_kernel_bench.sh
// must run everywhere the library builds. It times every KernelTable entry
// under both dispatch modes (when the CPU has AVX2), asserts bitwise
// scalar-vs-AVX2 parity on the measured outputs, and prints one JSON object
// with rows/s (or values/s, or MACs/s), effective GB/s and the per-kernel
// speedup. The conv rows run every Conv2D shape of MiniVgg and MiniResNet
// (stride 1, same padding, one HWC image per call) and also report GMAC/s.
//
// Exit status: 0 on success, 1 on any parity mismatch (CI fails the smoke).
//
// Env knobs (the default block is L2-cache-resident on purpose: NTA rounds
// feed the aggregation kernels blocks bounded by the inference batch size,
// not whole-dataset sweeps, so ~1k rows x 256 neurons is the representative
// shape; crank DE_BENCH_KERNEL_ROWS up to measure the DRAM-bound regime):
//   DE_BENCH_KERNEL_ROWS     rows per aggregation block        (default 1024)
//   DE_BENCH_KERNEL_NEURONS  values per row                    (default 256)
//   DE_BENCH_KERNEL_COUNT    values per bulk-unpack call       (default 1<<22)
//   DE_BENCH_KERNEL_REPS     timed repetitions, best-of        (default 20)

#include <cinttypes>
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/common/bit_pack.h"
#include "src/kernels/kernels.h"

namespace {

using deepeverest::kernels::AggKind;
using deepeverest::kernels::DispatchMode;
using deepeverest::kernels::GetKernelTable;
using deepeverest::kernels::KernelTable;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || parsed == 0) {
    std::fprintf(stderr, "bench_kernels: ignoring bad %s='%s'\n", name, v);
    return fallback;
  }
  return static_cast<size_t>(parsed);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Result {
  std::string kernel;
  std::string mode;
  // rows/s for agg kernels, MACs/s for conv, values/s otherwise
  double items_per_s = 0.0;
  double gb_per_s = 0.0;     // (bytes read + bytes written) / best time
  double best_seconds = 0.0;
};

/// One Conv2D layer of the model zoo (32x32x3 inputs).
struct ConvLayer {
  const char* name;
  deepeverest::kernels::ConvShape shape;
};

const ConvLayer kConvLayers[] = {
    {"minivgg.conv1", {32, 32, 3, 8, 3}},
    {"minivgg.conv2", {16, 16, 8, 12, 3}},
    {"minivgg.conv3", {8, 8, 12, 16, 3}},
    {"minivgg.conv4", {4, 4, 16, 24, 3}},
    {"miniresnet.stem_conv", {32, 32, 3, 8, 3}},
    {"miniresnet.block1.conv", {16, 16, 8, 8, 3}},
    {"miniresnet.block2.conv1", {8, 8, 8, 16, 3}},
    {"miniresnet.block2.conv2", {8, 8, 16, 16, 3}},
    {"miniresnet.block2.proj", {8, 8, 8, 16, 1}},
    {"miniresnet.block3.conv1", {4, 4, 16, 32, 3}},
    {"miniresnet.block3.conv2", {4, 4, 32, 32, 3}},
    {"miniresnet.block3.proj", {4, 4, 16, 32, 1}},
};

/// MACs per timed conv repetition: small layers loop over enough images
/// that one repetition is well above timer resolution.
constexpr double kConvMacsPerRep = 2e7;

/// Best-of-`reps` wall time of `fn()`; `bytes` and `items` describe ONE call.
template <typename Fn>
Result Time(const std::string& kernel, const std::string& mode, size_t reps,
            double items, double bytes, Fn fn) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    const double t0 = NowSeconds();
    fn();
    const double t1 = NowSeconds();
    if (t1 - t0 < best) best = t1 - t0;
  }
  Result res;
  res.kernel = kernel;
  res.mode = mode;
  res.best_seconds = best;
  res.items_per_s = items / best;
  res.gb_per_s = bytes / best / 1e9;
  return res;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitEqualF(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

const char* AggName(AggKind kind) {
  switch (kind) {
    case AggKind::kL1:
      return "l1";
    case AggKind::kL2:
      return "l2";
    case AggKind::kLInf:
      return "linf";
    case AggKind::kWeightedL2:
      return "weighted_l2";
  }
  return "?";
}

}  // namespace

int main() {
  const size_t rows = EnvSize("DE_BENCH_KERNEL_ROWS", 1024);
  const size_t neurons = EnvSize("DE_BENCH_KERNEL_NEURONS", 256);
  const size_t count = EnvSize("DE_BENCH_KERNEL_COUNT", size_t{1} << 22);
  const size_t reps = EnvSize("DE_BENCH_KERNEL_REPS", 20);
  const bool avx2 = deepeverest::kernels::Avx2Supported();

  std::mt19937_64 rng(42);
  std::uniform_real_distribution<float> dist(-4.0f, 4.0f);
  std::uniform_real_distribution<double> wdist(0.0, 2.0);

  // Shared aggregation workload: a contiguous block of `rows` rows.
  std::vector<float> block(rows * neurons);
  for (float& v : block) v = dist(rng);
  std::vector<float> target(neurons);
  for (float& v : target) v = dist(rng);
  std::vector<double> weights(neurons);
  for (double& v : weights) v = wdist(rng);

  // Bulk-unpack workload (4 bits = the NPI default of 16 partitions, plus a
  // straddling width that exercises the scalar fallback inside either table).
  const int unpack_bits[] = {4, 7};
  deepeverest::PackedIntArray packed4(count, /*bits=*/4);
  deepeverest::PackedIntArray packed7(count, /*bits=*/7);
  for (size_t i = 0; i < count; ++i) {
    packed4.Set(i, rng() & 0xf);
    packed7.Set(i, rng() & 0x7f);
  }

  std::vector<Result> results;
  std::map<std::string, std::map<std::string, double>> times;  // kernel->mode
  bool parity_ok = true;
  auto check_parity = [&parity_ok](const char* what, bool ok) {
    if (!ok) {
      parity_ok = false;
      std::fprintf(stderr, "bench_kernels: PARITY MISMATCH in %s\n", what);
    }
  };

  const DispatchMode modes[] = {DispatchMode::kScalar, DispatchMode::kAvx2};
  const size_t num_modes = avx2 ? 2 : 1;

  // ---- batched aggregation (abs-diff and value forms, all kinds) ----
  std::vector<double> out_scalar(rows), out(rows);
  const double agg_bytes =
      static_cast<double>(rows) * neurons * sizeof(float) +
      static_cast<double>(rows) * sizeof(double);
  for (int k = 0; k < deepeverest::kernels::kNumAggKinds; ++k) {
    const AggKind kind = static_cast<AggKind>(k);
    for (size_t m = 0; m < num_modes; ++m) {
      const KernelTable& table = GetKernelTable(modes[m]);
      const std::string name = std::string("abs_diff_") + AggName(kind);
      results.push_back(Time(name, table.name, reps, rows, agg_bytes, [&] {
        table.abs_diff_agg[k](block.data(), neurons, rows, target.data(),
                              weights.data(), neurons, out.data());
      }));
      times[name][table.name] = results.back().best_seconds;
      if (m == 0) {
        out_scalar = out;
      } else {
        check_parity(name.c_str(), BitEqual(out_scalar, out));
      }
    }
    for (size_t m = 0; m < num_modes; ++m) {
      const KernelTable& table = GetKernelTable(modes[m]);
      const std::string name = std::string("value_") + AggName(kind);
      results.push_back(Time(name, table.name, reps, rows, agg_bytes, [&] {
        table.value_agg[k](block.data(), neurons, rows, weights.data(),
                           neurons, out.data());
      }));
      times[name][table.name] = results.back().best_seconds;
      if (m == 0) {
        out_scalar = out;
      } else {
        check_parity(name.c_str(), BitEqual(out_scalar, out));
      }
    }
  }

  // ---- bulk unpack ----
  std::vector<uint64_t> uout(count), uout_scalar(count);
  for (const int bits : unpack_bits) {
    const deepeverest::PackedIntArray& packed =
        bits == 4 ? packed4 : packed7;
    const double unpack_bytes =
        static_cast<double>(count) * bits / 8.0 +
        static_cast<double>(count) * sizeof(uint64_t);
    const std::string name = "unpack_b" + std::to_string(bits);
    for (size_t m = 0; m < num_modes; ++m) {
      const KernelTable& table = GetKernelTable(modes[m]);
      results.push_back(Time(name, table.name, reps, count, unpack_bytes, [&] {
        table.unpack(packed.words().data(), packed.words().size(), bits, 0,
                     count, uout.data());
      }));
      times[name][table.name] = results.back().best_seconds;
      if (m == 0) {
        uout_scalar = uout;
      } else {
        check_parity(name.c_str(),
                     std::memcmp(uout_scalar.data(), uout.data(),
                                 count * sizeof(uint64_t)) == 0);
      }
    }
  }

  // ---- Conv2D, every model-zoo layer shape ----
  for (const ConvLayer& layer : kConvLayers) {
    const deepeverest::kernels::ConvShape& cs = layer.shape;
    const size_t in_size =
        static_cast<size_t>(cs.height * cs.width * cs.in_channels);
    const size_t w_size = static_cast<size_t>(cs.kernel) * cs.kernel *
                          cs.in_channels * cs.out_channels;
    const size_t out_size =
        static_cast<size_t>(cs.height * cs.width * cs.out_channels);
    std::vector<float> image(in_size), cw(w_size), cb(cs.out_channels);
    for (float& v : image) v = dist(rng) * 0.25f;
    for (float& v : cw) v = dist(rng) * 0.1f;
    for (float& v : cb) v = dist(rng) * 0.1f;
    std::vector<float> cout(out_size), cout_scalar(out_size);
    const double macs = static_cast<double>(out_size) * cs.kernel *
                        cs.kernel * cs.in_channels;
    const size_t images =
        static_cast<size_t>(std::max(1.0, kConvMacsPerRep / macs));
    const double conv_bytes =
        static_cast<double>(images) * (in_size + out_size) * sizeof(float) +
        static_cast<double>(w_size + cb.size()) * sizeof(float);
    const std::string name = std::string("conv2d/") + layer.name;
    for (size_t m = 0; m < num_modes; ++m) {
      const KernelTable& table = GetKernelTable(modes[m]);
      results.push_back(
          Time(name, table.name, reps, macs * images, conv_bytes, [&] {
            for (size_t i = 0; i < images; ++i) {
              table.conv2d(image.data(), cs, cw.data(), cb.data(),
                           cout.data());
            }
          }));
      times[name][table.name] = results.back().best_seconds;
      if (m == 0) {
        cout_scalar = cout;
      } else {
        check_parity(name.c_str(), BitEqualF(cout_scalar, cout));
      }
    }
  }

  // ---- 2x2 max pooling, MiniResNet pool1 (32x32x8 -> 16x16x8) ----
  {
    const int64_t oh = 16, ow = 16, ch = 8;
    std::vector<float> image(static_cast<size_t>(4 * oh * ow * ch));
    for (float& v : image) v = dist(rng);
    std::vector<float> pout(static_cast<size_t>(oh * ow * ch));
    std::vector<float> pout_scalar(pout.size());
    const size_t images = 256;
    const double pool_values = static_cast<double>(images) * image.size();
    const double pool_bytes =
        static_cast<double>(images) * (image.size() + pout.size()) *
        sizeof(float);
    const std::string name = "max_pool2x2/miniresnet.pool1";
    for (size_t m = 0; m < num_modes; ++m) {
      const KernelTable& table = GetKernelTable(modes[m]);
      results.push_back(
          Time(name, table.name, reps, pool_values, pool_bytes, [&] {
            for (size_t i = 0; i < images; ++i) {
              table.max_pool2x2(image.data(), oh, ow, ch, pout.data());
            }
          }));
      times[name][table.name] = results.back().best_seconds;
      if (m == 0) {
        pout_scalar = pout;
      } else {
        check_parity(name.c_str(), BitEqualF(pout_scalar, pout));
      }
    }
  }

  // ---- JSON report ----
  char datebuf[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(datebuf, sizeof(datebuf), "%Y-%m-%d", std::gmtime(&now));
  std::printf("{\n");
  std::printf("  \"bench\": \"bench_kernels\",\n");
  std::printf("  \"date\": \"%s\",\n", datebuf);
  std::printf("  \"avx2_supported\": %s,\n", avx2 ? "true" : "false");
  std::printf("  \"workload\": {\"rows\": %zu, \"neurons\": %zu, "
              "\"unpack_count\": %zu, \"reps\": %zu},\n",
              rows, neurons, count, reps);
  std::printf("  \"gb_per_s_definition\": "
              "\"(bytes read + bytes written) / best wall time\",\n");
  std::printf("  \"conv_definition\": \"one HWC image per call, stride 1, "
              "same padding; items are multiply-adds\",\n");
  std::printf("  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    // Conv rows count MACs as items, so their GMAC/s is items_per_s / 1e9.
    char gmac[48] = "";
    if (r.kernel.rfind("conv2d/", 0) == 0) {
      std::snprintf(gmac, sizeof(gmac), ", \"gmac_per_s\": %.4f",
                    r.items_per_s / 1e9);
    }
    std::printf("    {\"kernel\": \"%s\", \"mode\": \"%s\", "
                "\"items_per_s\": %.6g, \"gb_per_s\": %.4f, "
                "\"best_seconds\": %.6g%s}%s\n",
                r.kernel.c_str(), r.mode.c_str(), r.items_per_s, r.gb_per_s,
                r.best_seconds, gmac, i + 1 < results.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"speedup_avx2_vs_scalar\": {");
  if (avx2) {
    bool first = true;
    for (const auto& entry : times) {
      const auto& by_mode = entry.second;
      if (by_mode.count("scalar") == 0 || by_mode.count("avx2") == 0) continue;
      std::printf("%s\n    \"%s\": %.2f", first ? "" : ",",
                  entry.first.c_str(),
                  by_mode.at("scalar") / by_mode.at("avx2"));
      first = false;
    }
    std::printf("\n  ");
  }
  std::printf("},\n");
  std::printf("  \"parity\": \"%s\"\n", parity_ok ? "ok" : "MISMATCH");
  std::printf("}\n");

  return parity_ok ? 0 : 1;
}
