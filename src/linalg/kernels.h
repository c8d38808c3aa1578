#pragma once

#include <cstddef>
#include <cstdint>

namespace sam::kernels {

/// \brief Runtime-dispatched compute kernels for the repo's three hot loops:
/// matmuls (training), fused bias/ReLU and output-slice passes (training and
/// progressive sampling), and word-level bitmap predicate evaluation
/// (compiled query execution).
///
/// Two implementations exist behind one function-pointer table: a portable
/// scalar reference (always compiled) and an AVX2 variant (compiled when the
/// `SAM_SIMD` CMake option is on and the compiler accepts `-mavx2`, selected
/// at runtime only when the CPU reports AVX2). Both paths are **bit-identical
/// by construction**:
///  * accumulation kernels vectorise across output elements only, so every
///    output scalar sees the exact IEEE operation sequence of the reference;
///  * dot-product kernels (`matmul_tb`) fix a four-accumulator association
///    order that both implementations follow;
///  * no FMA contraction: the AVX2 translation unit is built with `-mavx2`
///    alone, and the kernels use explicit mul+add intrinsics.
/// The backend is pinned once per process (first use; overridable for tests),
/// so FOJ sampling and training stay bit-reproducible across machines with
/// and without AVX2.
///
/// All matrix arguments are dense row-major `double` buffers.
enum class Backend {
  kScalar,  ///< Portable reference; always available.
  kAvx2,    ///< 4-wide double / 8-wide int32 AVX2 kernels.
};

struct KernelTable {
  /// C = A * B. A: ar x ac with row stride `a_stride` (>= ac; a column
  /// prefix of a wider matrix is read in place), B: ac x bc, C: ar x bc
  /// (fully overwritten). A entries equal to 0.0 are skipped (same rule in
  /// every backend, so NaN/Inf in B behind zero weights cannot diverge the
  /// paths).
  void (*matmul)(const double* a, size_t ar, size_t ac, size_t a_stride,
                 const double* b, size_t bc, double* c);

  /// C = A^T * B without materialising A^T. A: ar x ac with row stride
  /// `a_stride` (>= ac), B: ar x bc, C: ac x bc (fully overwritten). Zero A
  /// entries are skipped.
  void (*matmul_ta)(const double* a, size_t ar, size_t ac, size_t a_stride,
                    const double* b, size_t bc, double* c);

  /// C = A * B^T without materialising B^T. A: ar x ac, B: br x ac,
  /// C: ar x br (fully overwritten). Each C entry is a dot product over ac,
  /// accumulated as four stride-4 partial sums combined as
  /// ((s0+s1)+(s2+s3)) plus a sequential remainder — the fixed association
  /// order both backends implement. The scalar reference is the
  /// specification: one dot product per entry. The AVX2 kernel is
  /// register-blocked — 2 A rows x 4 B rows per pass, eight vector
  /// accumulators whose lane l sums the k = l (mod 4) products — so each A
  /// load feeds four outputs and each B load two; a horizontal add plus a
  /// 128-bit lane swap then finishes four entries in that same order. Rows
  /// and columns past the last full block fall back to one dot product per
  /// entry. The DPS backward's dA = dC * B^T products run here.
  void (*matmul_tb)(const double* a, size_t ar, size_t ac, const double* b,
                    size_t br, double* c);

  /// x = relu(x + bias) (+ skip), in place, row-major rows x cols. `bias` has
  /// `cols` entries; `skip` is rows x cols or nullptr. relu(v) follows
  /// std::max(0.0, v): NaN maps to 0.0, -0.0 to +0.0.
  void (*bias_relu_skip)(double* x, const double* bias, const double* skip,
                         size_t rows, size_t cols);

  /// dst[i] += src[i].
  void (*vec_add)(double* dst, const double* src, size_t n);

  /// Fused output-slice forward for the MADE logits block:
  ///   out[r] = bias + h[r] * W + direct[r]
  /// h: rows x hc, W: hc x d with row stride `w_stride` (a column slice of a
  /// wider matrix), bias: d entries, direct: rows x d with row stride
  /// `direct_stride` (required: MADE's direct connections are always on),
  /// out: rows x d contiguous.
  /// For d > 4, h entries equal to 0.0 are skipped (per-k work is wide enough
  /// that exploiting ReLU sparsity pays). For d <= 4 a shared
  /// register-accumulating path runs with NO zero-skip — the branch would
  /// mispredict at half-dense activations and costs more than 2-4
  /// multiply-adds — so NaN/Inf in the W slice propagate there. Both backends
  /// run the identical small-d code, so bit-identity is unaffected.
  void (*output_slice)(const double* h, size_t rows, size_t hc,
                       const double* w, size_t w_stride, const double* bias,
                       const double* direct, size_t direct_stride, double* out,
                       size_t d);

  /// Row-wise softmax in place over rows x d. Uses the backends' shared
  /// FastExp (kernels_exp.h) rather than std::exp — libm may pick different
  /// code paths per CPU, FastExp is bit-identical across backends by
  /// construction. Requires finite inputs; the per-row sum uses the same
  /// fixed four-accumulator association order as `matmul_tb`.
  void (*softmax_rows)(double* x, size_t rows, size_t d);

  /// words &= bitmask of (lo <= codes[i] <= hi), over n codes packed 64 per
  /// word (bit i of word w corresponds to row 64*w + i). Signed compares, so
  /// negative sentinel codes (kNullCode) never match a canonical lo >= 0
  /// range. Bits at positions >= n of the last word are cleared.
  void (*range_mask_and)(uint64_t* words, const int32_t* codes, size_t n,
                         int32_t lo, int32_t hi);

  /// Total set bits over `nwords` words.
  uint64_t (*bitmap_popcount)(const uint64_t* words, size_t nwords);
};

/// True when AVX2 kernels are compiled in AND the CPU supports them.
bool Avx2Available();

/// The backend the next `Active()` call resolves to. Defaults to kAvx2 when
/// available unless the SAM_SIMD environment variable is "0"/"off"/"scalar".
Backend ActiveBackend();

/// Pins the backend (tests/benches use this to compare paths in one binary).
/// Returns false — leaving the current backend in place — when `b` is not
/// available in this build/CPU.
bool SetBackend(Backend b);

/// The active kernel table.
const KernelTable& Active();

/// The table of a specific backend. Check availability first: requesting an
/// unavailable backend aborts.
const KernelTable& Table(Backend b);

}  // namespace sam::kernels
