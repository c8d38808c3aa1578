#include "linalg/kernels.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "linalg/kernels_exp.h"
#include "linalg/kernels_smalld.h"

namespace sam::kernels {

#if defined(SAM_SIMD_AVX2)
namespace internal {
// Defined in kernels_avx2.cc (compiled with -mavx2 only in SAM_SIMD builds).
extern const KernelTable kAvx2Table;
}  // namespace internal
#endif

namespace {

namespace scalar {

using internal::FastExp;

// Row-outer / k-mid / j-inner: the row of C stays register/L1-resident across
// the k loop and A is read sequentially. The model matrices this kernel feeds
// (hidden layers <= a few hundred columns) keep B entirely cache-resident, so
// i-outer beats k-outer tiling at these shapes (measured: tiled variants were
// 1.5-2x slower at batch=2048, 64x64 B).
void Matmul(const double* a, size_t ar, size_t ac, size_t a_stride,
            const double* b, size_t bc, double* c) {
  std::fill(c, c + ar * bc, 0.0);
  for (size_t i = 0; i < ar; ++i) {
    const double* ai = a + i * a_stride;
    double* ci = c + i * bc;
    for (size_t k = 0; k < ac; ++k) {
      const double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = b + k * bc;
      for (size_t j = 0; j < bc; ++j) ci[j] += aik * bk[j];
    }
  }
}

void MatmulTa(const double* a, size_t ar, size_t ac, size_t a_stride,
              const double* b, size_t bc, double* c) {
  std::fill(c, c + ac * bc, 0.0);
  for (size_t k = 0; k < ar; ++k) {
    const double* ak = a + k * a_stride;
    const double* bk = b + k * bc;
    for (size_t i = 0; i < ac; ++i) {
      const double aki = ak[i];
      if (aki == 0.0) continue;
      double* ci = c + i * bc;
      for (size_t j = 0; j < bc; ++j) ci[j] += aki * bk[j];
    }
  }
}

double Dot(const double* x, const double* y, size_t n) {
  // Fixed association order shared with the AVX2 backend: four stride-4
  // partial sums combined as ((s0+s1)+(s2+s3)), then a sequential remainder.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    s0 += x[k] * y[k];
    s1 += x[k + 1] * y[k + 1];
    s2 += x[k + 2] * y[k + 2];
    s3 += x[k + 3] * y[k + 3];
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; k < n; ++k) s += x[k] * y[k];
  return s;
}

void MatmulTb(const double* a, size_t ar, size_t ac, const double* b, size_t br,
              double* c) {
  for (size_t i = 0; i < ar; ++i) {
    const double* ai = a + i * ac;
    double* ci = c + i * br;
    for (size_t j = 0; j < br; ++j) ci[j] = Dot(ai, b + j * ac, ac);
  }
}

void BiasReluSkip(double* x, const double* bias, const double* skip,
                  size_t rows, size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    double* row = x + r * cols;
    if (skip != nullptr) {
      const double* sk = skip + r * cols;
      for (size_t j = 0; j < cols; ++j) {
        row[j] = std::max(0.0, row[j] + bias[j]) + sk[j];
      }
    } else {
      for (size_t j = 0; j < cols; ++j) {
        row[j] = std::max(0.0, row[j] + bias[j]);
      }
    }
  }
}

void VecAdd(double* dst, const double* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void OutputSlice(const double* h, size_t rows, size_t hc, const double* w,
                 size_t w_stride, const double* bias, const double* direct,
                 size_t direct_stride, double* out, size_t d) {
  // Narrow columns take the shared register-accumulating path (per-k
  // read-modify-write of the logits row dominates when d <= 4).
  if (internal::TryOutputSliceSmall(h, rows, hc, w, w_stride, bias, direct,
                                    direct_stride, out, d)) {
    return;
  }
  // Row-outer like Matmul: the d-wide logits row stays resident while the
  // strided W slice streams (it is at most a few tens of KiB for model-sized
  // domains, so it stays cached across rows).
  for (size_t r = 0; r < rows; ++r) {
    const double* hr = h + r * hc;
    double* lr = out + r * d;
    for (size_t j = 0; j < d; ++j) lr[j] = bias[j];
    for (size_t k = 0; k < hc; ++k) {
      const double hv = hr[k];
      if (hv == 0.0) continue;
      const double* wrow = w + k * w_stride;
      for (size_t j = 0; j < d; ++j) lr[j] += hv * wrow[j];
    }
    const double* dr = direct + r * direct_stride;
    for (size_t j = 0; j < d; ++j) lr[j] += dr[j];
  }
}

void SoftmaxRows(double* x, size_t rows, size_t d) {
  for (size_t r = 0; r < rows; ++r) {
    double* row = x + r * d;
    double mx = row[0];
    for (size_t j = 1; j < d; ++j) mx = (mx > row[j]) ? mx : row[j];
    // exp + sum with the fixed four-accumulator association order
    // (lane l holds indices j % 4 == l), remainder added sequentially —
    // mirrored exactly by the AVX2 backend.
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    size_t j = 0;
    for (; j + 4 <= d; j += 4) {
      s0 += row[j] = FastExp(row[j] - mx);
      s1 += row[j + 1] = FastExp(row[j + 1] - mx);
      s2 += row[j + 2] = FastExp(row[j + 2] - mx);
      s3 += row[j + 3] = FastExp(row[j + 3] - mx);
    }
    double sum = (s0 + s1) + (s2 + s3);
    for (; j < d; ++j) sum += row[j] = FastExp(row[j] - mx);
    const double inv = 1.0 / sum;
    for (size_t c = 0; c < d; ++c) row[c] *= inv;
  }
}

void RangeMaskAnd(uint64_t* words, const int32_t* codes, size_t n, int32_t lo,
                  int32_t hi) {
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    const int32_t* c = codes + w * 64;
    uint64_t m = 0;
    for (size_t b = 0; b < 64; ++b) {
      m |= static_cast<uint64_t>(c[b] >= lo && c[b] <= hi) << b;
    }
    words[w] &= m;
  }
  const size_t rem = n % 64;
  if (rem != 0) {
    const int32_t* c = codes + full * 64;
    uint64_t m = 0;
    for (size_t b = 0; b < rem; ++b) {
      m |= static_cast<uint64_t>(c[b] >= lo && c[b] <= hi) << b;
    }
    words[full] &= m;  // Bits >= n stay cleared: m has zeros past rem.
  }
}

uint64_t BitmapPopcount(const uint64_t* words, size_t nwords) {
  uint64_t total = 0;
  for (size_t w = 0; w < nwords; ++w) {
    total += static_cast<uint64_t>(std::popcount(words[w]));
  }
  return total;
}

}  // namespace scalar

constexpr KernelTable kScalarTable = {
    scalar::Matmul,         scalar::MatmulTa,     scalar::MatmulTb,
    scalar::BiasReluSkip,   scalar::VecAdd,       scalar::OutputSlice,
    scalar::SoftmaxRows,    scalar::RangeMaskAnd, scalar::BitmapPopcount,
};

bool EnvForcesScalar() {
  const char* env = std::getenv("SAM_SIMD");
  if (env == nullptr) return false;
  const std::string v(env);
  return v == "0" || v == "off" || v == "OFF" || v == "scalar";
}

struct Dispatch {
  Backend backend;
  const KernelTable* table;
};

// Resolved once on first use and then only changed by SetBackend (tests).
// Not synchronised: production code never switches backends mid-run — the
// pin-once rule is what keeps parallel sampling bit-identical.
Dispatch& State() {
  static Dispatch d = [] {
#if defined(SAM_SIMD_AVX2)
    if (!EnvForcesScalar() && __builtin_cpu_supports("avx2")) {
      return Dispatch{Backend::kAvx2, &internal::kAvx2Table};
    }
#endif
    return Dispatch{Backend::kScalar, &kScalarTable};
  }();
  return d;
}

}  // namespace

bool Avx2Available() {
#if defined(SAM_SIMD_AVX2)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Backend ActiveBackend() { return State().backend; }

bool SetBackend(Backend b) {
  if (b == Backend::kAvx2) {
#if defined(SAM_SIMD_AVX2)
    if (!__builtin_cpu_supports("avx2")) return false;
    State() = Dispatch{Backend::kAvx2, &internal::kAvx2Table};
    return true;
#else
    return false;
#endif
  }
  State() = Dispatch{Backend::kScalar, &kScalarTable};
  return true;
}

const KernelTable& Active() { return *State().table; }

const KernelTable& Table(Backend b) {
  if (b == Backend::kScalar) return kScalarTable;
#if defined(SAM_SIMD_AVX2)
  SAM_CHECK(Avx2Available()) << "AVX2 kernels not supported by this CPU";
  return internal::kAvx2Table;
#else
  SAM_CHECK(false) << "AVX2 kernels not compiled in (SAM_SIMD=OFF)";
  return kScalarTable;  // Unreachable.
#endif
}

}  // namespace sam::kernels
