#pragma once

#include <cstddef>

// Small-domain specialisation of the output-slice kernel, shared verbatim by
// both backends (included from kernels.cc and kernels_avx2.cc) so the two
// dispatch tables execute the exact same instruction-level code for narrow
// columns — bit-identity for free. For d <= 4 the 4-wide vector loop of the
// general kernel never engages and the per-k read-modify-write of the logits
// row dominates; with a compile-time D the accumulators live in registers
// across the whole k loop. Accumulation order stays k-ascending per element.
//
// Unlike the general path there is NO h==0.0 skip here: at the ~half-dense
// activations the sampler produces, a data-dependent branch mispredicts on
// every other k and costs far more than the 2-4 multiply-adds it would save
// (measured ~350us per 2048x64 pass). Adding hv * w with hv == 0.0 only
// perturbs the result when the W slice holds NaN/Inf (then it propagates,
// documented in kernels.h) or when an accumulator is exactly -0.0.

namespace sam::kernels::internal {

template <int D>
inline void OutputSliceSmall(const double* h, size_t rows, size_t hc,
                             const double* w, size_t w_stride,
                             const double* bias, const double* direct,
                             size_t direct_stride, double* out, size_t d) {
  for (size_t r = 0; r < rows; ++r) {
    const double* hr = h + r * hc;
    double acc[D];
    for (int j = 0; j < D; ++j) acc[j] = bias[j];
    for (size_t k = 0; k < hc; ++k) {
      const double hv = hr[k];
      const double* wrow = w + k * w_stride;
      for (int j = 0; j < D; ++j) acc[j] += hv * wrow[j];
    }
    double* lr = out + r * d;
    const double* dr = direct + r * direct_stride;
    for (int j = 0; j < D; ++j) lr[j] = acc[j] + dr[j];
  }
}

/// Runs the register-accumulating path when `d` is small enough; returns
/// false to fall through to the caller's general loop.
inline bool TryOutputSliceSmall(const double* h, size_t rows, size_t hc,
                                const double* w, size_t w_stride,
                                const double* bias, const double* direct,
                                size_t direct_stride, double* out, size_t d) {
  switch (d) {
    case 1:
      OutputSliceSmall<1>(h, rows, hc, w, w_stride, bias, direct,
                          direct_stride, out, d);
      return true;
    case 2:
      OutputSliceSmall<2>(h, rows, hc, w, w_stride, bias, direct,
                          direct_stride, out, d);
      return true;
    case 3:
      OutputSliceSmall<3>(h, rows, hc, w, w_stride, bias, direct,
                          direct_stride, out, d);
      return true;
    case 4:
      OutputSliceSmall<4>(h, rows, hc, w, w_stride, bias, direct,
                          direct_stride, out, d);
      return true;
    default:
      return false;
  }
}

}  // namespace sam::kernels::internal
