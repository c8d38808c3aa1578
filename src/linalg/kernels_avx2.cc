// AVX2 kernel backend. This translation unit is compiled with `-mavx2` and
// nothing else (no -mfma: explicit mul+add intrinsics keep every rounding
// step identical to the scalar reference, so the two backends are
// bit-identical — see the contract in kernels.h). It is only part of the
// build when the SAM_SIMD CMake option is on and the compiler accepts
// -mavx2; callers reach it exclusively through the runtime-dispatched table.

#if defined(SAM_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <bit>

#include "linalg/kernels.h"
#include "linalg/kernels_exp.h"
#include "linalg/kernels_smalld.h"

namespace sam::kernels::internal {
namespace {

// ci[0..bc) += aik * bk[0..bc), 4/16-wide with a scalar remainder.
inline void AxpyRow(double* ci, const double* bk, double aik, size_t bc) {
  const __m256d va = _mm256_set1_pd(aik);
  size_t j = 0;
  for (; j + 16 <= bc; j += 16) {
    __m256d c0 = _mm256_loadu_pd(ci + j);
    __m256d c1 = _mm256_loadu_pd(ci + j + 4);
    __m256d c2 = _mm256_loadu_pd(ci + j + 8);
    __m256d c3 = _mm256_loadu_pd(ci + j + 12);
    c0 = _mm256_add_pd(c0, _mm256_mul_pd(va, _mm256_loadu_pd(bk + j)));
    c1 = _mm256_add_pd(c1, _mm256_mul_pd(va, _mm256_loadu_pd(bk + j + 4)));
    c2 = _mm256_add_pd(c2, _mm256_mul_pd(va, _mm256_loadu_pd(bk + j + 8)));
    c3 = _mm256_add_pd(c3, _mm256_mul_pd(va, _mm256_loadu_pd(bk + j + 12)));
    _mm256_storeu_pd(ci + j, c0);
    _mm256_storeu_pd(ci + j + 4, c1);
    _mm256_storeu_pd(ci + j + 8, c2);
    _mm256_storeu_pd(ci + j + 12, c3);
  }
  for (; j + 4 <= bc; j += 4) {
    const __m256d cj = _mm256_loadu_pd(ci + j);
    _mm256_storeu_pd(ci + j,
                     _mm256_add_pd(cj, _mm256_mul_pd(va, _mm256_loadu_pd(bk + j))));
  }
  for (; j < bc; ++j) ci[j] += aik * bk[j];
}

// Row-outer like the scalar reference (see the structure note there): B stays
// cache-resident at model shapes, so the C row in flight is the hot line.
void Matmul(const double* a, size_t ar, size_t ac, size_t a_stride,
            const double* b, size_t bc, double* c) {
  std::fill(c, c + ar * bc, 0.0);
  for (size_t i = 0; i < ar; ++i) {
    const double* ai = a + i * a_stride;
    double* ci = c + i * bc;
    for (size_t k = 0; k < ac; ++k) {
      const double aik = ai[k];
      if (aik == 0.0) continue;
      AxpyRow(ci, b + k * bc, aik, bc);
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
      const __m256d va = _mm256_set1_pd(aki);
      size_t j = 0;
      for (; j + 4 <= bc; j += 4) {
        const __m256d cj = _mm256_loadu_pd(ci + j);
        _mm256_storeu_pd(
            ci + j, _mm256_add_pd(cj, _mm256_mul_pd(va, _mm256_loadu_pd(bk + j))));
      }
      for (; j < bc; ++j) ci[j] += aki * bk[j];
    }
  }
}

double Dot(const double* x, const double* y, size_t n) {
  // One vector accumulator == the scalar reference's four stride-4 partial
  // sums (lane l accumulates indices k % 4 == l); combined in the same
  // ((s0+s1)+(s2+s3)) order, remainder added sequentially.
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + k), _mm256_loadu_pd(y + k)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; k < n; ++k) s += x[k] * y[k];
  return s;
}

// Finishes four `Dot`s at once. acc_j holds output j's four stride-4 partial
// sums in its lanes; returns [out_0..out_3] with
// out_j = (acc_j[0] + acc_j[1]) + (acc_j[2] + acc_j[3]), then x[k] * y_j[k]
// added for each remainder k in order — `Dot`'s exact operation sequence.
inline __m256d FinishDot4(__m256d acc0, __m256d acc1, __m256d acc2,
                          __m256d acc3, const double* x, const double* y0,
                          size_t k, size_t n) {
  // hadd(p, q) = [p0+p1, q0+q1, p2+p3, q2+q3].
  const __m256d h01 = _mm256_hadd_pd(acc0, acc1);
  const __m256d h23 = _mm256_hadd_pd(acc2, acc3);
  __m256d s = _mm256_add_pd(_mm256_permute2f128_pd(h01, h23, 0x20),
                            _mm256_permute2f128_pd(h01, h23, 0x31));
  for (; k < n; ++k) {
    const __m256d yk = _mm256_set_pd(y0[3 * n + k], y0[2 * n + k],
                                     y0[n + k], y0[k]);
    s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_set1_pd(x[k]), yk));
  }
  return s;
}

// Register-blocked C = A * B^T: a 2-row x 4-column output block per pass, so
// every A chunk load is shared by four B rows and every B chunk load by two
// A rows, and eight independent add chains hide the add latency. Each output
// keeps `Dot`'s association (one vector accumulator whose lane l sums the
// k = l (mod 4) products), so the result is bit-identical to the scalar
// reference. Leftover rows run a 1 x 4 block, leftover columns `Dot`.
void MatmulTb(const double* a, size_t ar, size_t ac, const double* b, size_t br,
              double* c) {
  const size_t k4 = ac - ac % 4;
  size_t i = 0;
  for (; i + 2 <= ar; i += 2) {
    const double* a0 = a + i * ac;
    const double* a1 = a0 + ac;
    double* c0 = c + i * br;
    double* c1 = c0 + br;
    size_t j = 0;
    for (; j + 4 <= br; j += 4) {
      const double* b0 = b + j * ac;
      __m256d r00 = _mm256_setzero_pd(), r01 = _mm256_setzero_pd();
      __m256d r02 = _mm256_setzero_pd(), r03 = _mm256_setzero_pd();
      __m256d r10 = _mm256_setzero_pd(), r11 = _mm256_setzero_pd();
      __m256d r12 = _mm256_setzero_pd(), r13 = _mm256_setzero_pd();
      for (size_t k = 0; k < k4; k += 4) {
        const __m256d x0 = _mm256_loadu_pd(a0 + k);
        const __m256d x1 = _mm256_loadu_pd(a1 + k);
        const __m256d y0 = _mm256_loadu_pd(b0 + k);
        const __m256d y1 = _mm256_loadu_pd(b0 + ac + k);
        const __m256d y2 = _mm256_loadu_pd(b0 + 2 * ac + k);
        const __m256d y3 = _mm256_loadu_pd(b0 + 3 * ac + k);
        r00 = _mm256_add_pd(r00, _mm256_mul_pd(x0, y0));
        r01 = _mm256_add_pd(r01, _mm256_mul_pd(x0, y1));
        r02 = _mm256_add_pd(r02, _mm256_mul_pd(x0, y2));
        r03 = _mm256_add_pd(r03, _mm256_mul_pd(x0, y3));
        r10 = _mm256_add_pd(r10, _mm256_mul_pd(x1, y0));
        r11 = _mm256_add_pd(r11, _mm256_mul_pd(x1, y1));
        r12 = _mm256_add_pd(r12, _mm256_mul_pd(x1, y2));
        r13 = _mm256_add_pd(r13, _mm256_mul_pd(x1, y3));
      }
      _mm256_storeu_pd(c0 + j, FinishDot4(r00, r01, r02, r03, a0, b0, k4, ac));
      _mm256_storeu_pd(c1 + j, FinishDot4(r10, r11, r12, r13, a1, b0, k4, ac));
    }
    for (; j < br; ++j) {
      c0[j] = Dot(a0, b + j * ac, ac);
      c1[j] = Dot(a1, b + j * ac, ac);
    }
  }
  for (; i < ar; ++i) {
    const double* ai = a + i * ac;
    double* ci = c + i * br;
    size_t j = 0;
    for (; j + 4 <= br; j += 4) {
      const double* b0 = b + j * ac;
      __m256d r0 = _mm256_setzero_pd(), r1 = _mm256_setzero_pd();
      __m256d r2 = _mm256_setzero_pd(), r3 = _mm256_setzero_pd();
      for (size_t k = 0; k < k4; k += 4) {
        const __m256d x = _mm256_loadu_pd(ai + k);
        r0 = _mm256_add_pd(r0, _mm256_mul_pd(x, _mm256_loadu_pd(b0 + k)));
        r1 = _mm256_add_pd(r1, _mm256_mul_pd(x, _mm256_loadu_pd(b0 + ac + k)));
        r2 = _mm256_add_pd(r2,
                           _mm256_mul_pd(x, _mm256_loadu_pd(b0 + 2 * ac + k)));
        r3 = _mm256_add_pd(r3,
                           _mm256_mul_pd(x, _mm256_loadu_pd(b0 + 3 * ac + k)));
      }
      _mm256_storeu_pd(ci + j, FinishDot4(r0, r1, r2, r3, ai, b0, k4, ac));
    }
    for (; j < br; ++j) ci[j] = Dot(ai, b + j * ac, ac);
  }
}

void BiasReluSkip(double* x, const double* bias, const double* skip,
                  size_t rows, size_t cols) {
  const __m256d zero = _mm256_setzero_pd();
  for (size_t r = 0; r < rows; ++r) {
    double* row = x + r * cols;
    if (skip != nullptr) {
      const double* sk = skip + r * cols;
      size_t j = 0;
      for (; j + 4 <= cols; j += 4) {
        __m256d v = _mm256_add_pd(_mm256_loadu_pd(row + j),
                                  _mm256_loadu_pd(bias + j));
        // max_pd(v, 0): NaN -> 0, -0.0 -> +0.0, matching std::max(0.0, v).
        v = _mm256_max_pd(v, zero);
        v = _mm256_add_pd(v, _mm256_loadu_pd(sk + j));
        _mm256_storeu_pd(row + j, v);
      }
      for (; j < cols; ++j) {
        row[j] = std::max(0.0, row[j] + bias[j]) + sk[j];
      }
    } else {
      size_t j = 0;
      for (; j + 4 <= cols; j += 4) {
        __m256d v = _mm256_add_pd(_mm256_loadu_pd(row + j),
                                  _mm256_loadu_pd(bias + j));
        _mm256_storeu_pd(row + j, _mm256_max_pd(v, zero));
      }
      for (; j < cols; ++j) row[j] = std::max(0.0, row[j] + bias[j]);
    }
  }
}

void VecAdd(double* dst, const double* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
    _mm256_storeu_pd(dst + i + 4, _mm256_add_pd(_mm256_loadu_pd(dst + i + 4),
                                                _mm256_loadu_pd(src + i + 4)));
    _mm256_storeu_pd(dst + i + 8, _mm256_add_pd(_mm256_loadu_pd(dst + i + 8),
                                                _mm256_loadu_pd(src + i + 8)));
    _mm256_storeu_pd(dst + i + 12, _mm256_add_pd(_mm256_loadu_pd(dst + i + 12),
                                                 _mm256_loadu_pd(src + i + 12)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void OutputSlice(const double* h, size_t rows, size_t hc, const double* w,
                 size_t w_stride, const double* bias, const double* direct,
                 size_t direct_stride, double* out, size_t d) {
  // Narrow columns take the same shared register-accumulating path as the
  // scalar backend (the 4-wide loops below are all remainder for d <= 4).
  if (TryOutputSliceSmall(h, rows, hc, w, w_stride, bias, direct,
                          direct_stride, out, d)) {
    return;
  }
  // Row-outer traversal, same structure as the scalar backend.
  for (size_t r = 0; r < rows; ++r) {
    const double* hr = h + r * hc;
    double* lr = out + r * d;
    size_t j = 0;
    for (; j + 4 <= d; j += 4) {
      _mm256_storeu_pd(lr + j, _mm256_loadu_pd(bias + j));
    }
    for (; j < d; ++j) lr[j] = bias[j];
    for (size_t k = 0; k < hc; ++k) {
      const double hv = hr[k];
      if (hv == 0.0) continue;
      AxpyRow(lr, w + k * w_stride, hv, d);
    }
    const double* dr = direct + r * direct_stride;
    size_t c = 0;
    for (; c + 4 <= d; c += 4) {
      _mm256_storeu_pd(lr + c, _mm256_add_pd(_mm256_loadu_pd(lr + c),
                                             _mm256_loadu_pd(dr + c)));
    }
    for (; c < d; ++c) lr[c] += dr[c];
  }
}

// 4-wide FastExp mirroring kernels_exp.h operation for operation: same
// clamps (max/min select semantics), same reduction, same Horner sequences,
// same div, same exponent assembly. No FMA anywhere.
inline __m256d FastExpVec(__m256d x) {
  x = _mm256_max_pd(_mm256_set1_pd(kExpClampLo), x);
  x = _mm256_min_pd(_mm256_set1_pd(kExpClampHi), x);
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kExpLog2E)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x, _mm256_mul_pd(n, _mm256_set1_pd(kExpLn2Hi))),
      _mm256_mul_pd(n, _mm256_set1_pd(kExpLn2Lo)));
  const __m256d rr = _mm256_mul_pd(r, r);
  __m256d p = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kExpP0), rr),
                            _mm256_set1_pd(kExpP1));
  p = _mm256_add_pd(_mm256_mul_pd(p, rr), _mm256_set1_pd(kExpP2));
  p = _mm256_mul_pd(r, p);
  __m256d q = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kExpQ0), rr),
                            _mm256_set1_pd(kExpQ1));
  q = _mm256_add_pd(_mm256_mul_pd(q, rr), _mm256_set1_pd(kExpQ2));
  q = _mm256_add_pd(_mm256_mul_pd(q, rr), _mm256_set1_pd(kExpQ3));
  const __m256d e = _mm256_add_pd(
      _mm256_set1_pd(1.0),
      _mm256_mul_pd(_mm256_set1_pd(2.0),
                    _mm256_div_pd(p, _mm256_sub_pd(q, p))));
  // 2^n: |n| <= 1023 fits int32; widen to int64 lanes and shift into the
  // exponent field.
  const __m256i n64 = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
  const __m256i bits =
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(e, _mm256_castsi256_pd(bits));
}

void SoftmaxRows(double* x, size_t rows, size_t d) {
  for (size_t r = 0; r < rows; ++r) {
    double* row = x + r * d;
    double mx = row[0];
    for (size_t j = 1; j < d; ++j) mx = (mx > row[j]) ? mx : row[j];
    const __m256d vmx = _mm256_set1_pd(mx);
    __m256d acc = _mm256_setzero_pd();
    size_t j = 0;
    for (; j + 4 <= d; j += 4) {
      const __m256d v = FastExpVec(_mm256_sub_pd(_mm256_loadu_pd(row + j), vmx));
      _mm256_storeu_pd(row + j, v);
      acc = _mm256_add_pd(acc, v);
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (; j < d; ++j) sum += row[j] = FastExp(row[j] - mx);
    const double inv = 1.0 / sum;
    const __m256d vinv = _mm256_set1_pd(inv);
    size_t c = 0;
    for (; c + 4 <= d; c += 4) {
      _mm256_storeu_pd(row + c, _mm256_mul_pd(_mm256_loadu_pd(row + c), vinv));
    }
    for (; c < d; ++c) row[c] *= inv;
  }
}

void RangeMaskAnd(uint64_t* words, const int32_t* codes, size_t n, int32_t lo,
                  int32_t hi) {
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  const size_t full = n / 64;
  for (size_t wi = 0; wi < full; ++wi) {
    const int32_t* c = codes + wi * 64;
    uint64_t m = 0;
    for (size_t g = 0; g < 8; ++g) {
      const __m256i vc =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + g * 8));
      // In range <=> !(c < lo) && !(c > hi); signed compares, so kNullCode
      // (-1) never matches a canonical lo >= 0 range.
      const __m256i lt = _mm256_cmpgt_epi32(vlo, vc);
      const __m256i gt = _mm256_cmpgt_epi32(vc, vhi);
      const int outside =
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_or_si256(lt, gt)));
      m |= static_cast<uint64_t>(static_cast<uint8_t>(~outside)) << (g * 8);
    }
    words[wi] &= m;
  }
  const size_t rem = n % 64;
  if (rem != 0) {
    const int32_t* c = codes + full * 64;
    uint64_t m = 0;
    for (size_t b = 0; b < rem; ++b) {
      m |= static_cast<uint64_t>(c[b] >= lo && c[b] <= hi) << b;
    }
    words[full] &= m;
  }
}

uint64_t BitmapPopcount(const uint64_t* words, size_t nwords) {
  uint64_t total = 0;
  for (size_t w = 0; w < nwords; ++w) {
    total += static_cast<uint64_t>(std::popcount(words[w]));
  }
  return total;
}

}  // namespace

// `extern` forces external linkage: a namespace-scope const otherwise gets
// internal linkage and the dispatcher's declaration would not resolve.
extern const KernelTable kAvx2Table;
const KernelTable kAvx2Table = {
    Matmul,       MatmulTa,    MatmulTb,     BiasReluSkip, VecAdd,
    OutputSlice,  SoftmaxRows, RangeMaskAnd, BitmapPopcount,
};

}  // namespace sam::kernels::internal

#endif  // SAM_SIMD_AVX2
