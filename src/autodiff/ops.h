#pragma once

#include "autodiff/tensor.h"
#include "common/random.h"

namespace sam::ad {

/// Elementwise sum of two same-shape tensors.
Tensor Add(const Tensor& a, const Tensor& b);

/// Adds a 1 x D row vector `bias` to every row of the B x D tensor `a`.
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);

/// Elementwise difference a - b.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise (Hadamard) product.
Tensor Mul(const Tensor& a, const Tensor& b);

/// Multiplies every element by scalar `s`.
Tensor Scale(const Tensor& a, double s);

/// Matrix product a (B x K) * b (K x D): `MatmulPrefix(a, b, K)`.
Tensor Matmul(const Tensor& a, const Tensor& b);

/// \brief Matrix product a (B x K) * b (K x D) over the live prefix only:
/// a[:, :live] * b[:live, :], with dA produced for columns [0, live) and dB
/// for rows [0, live).
///
/// Use it when `a` is zero in columns [live, K) and no consumer reads
/// grad(a) there. Under that precondition the result is bit-identical to
/// `Matmul`: the kernels skip zero A entries, so the full product sums the
/// same terms in the same order; each computed dA entry is the same dot
/// product; the skipped dB rows are exactly +0.0, and a gradient buffer that
/// starts at +0.0 never becomes -0.0 through additions, so not adding +0.0
/// changes no bit. The skipped dA entries are simply never accumulated.
Tensor MatmulPrefix(const Tensor& a, const Tensor& b, size_t live);

/// \brief A B x width matrix that one tape fills in place, block by block,
/// with one gradient matrix beside it: the progressive one-hot input and the
/// running hidden activations of the DPS causal sweep.
///
/// `Write` copies a block into its slot and records a view node whose
/// parents are the previous view and the block; the view's backward adds
/// grad[:, slot] into the block's gradient. `MatmulPrefix` reads the filled
/// prefix in place, with the current view as its tape parent. Slots are
/// written in increasing column order and never again, and a product reads
/// only written slots. So every value it reads is final, and every reader
/// of a slot hangs off that slot's view or a later one: the tape's reverse
/// topological order runs all of them before the slot's view hands the
/// gradient on. Copies share the storage.
class ProgressiveBuffer {
 public:
  ProgressiveBuffer() = default;
  /// A buffer of zeros with no slot written.
  ProgressiveBuffer(size_t rows, size_t width);

  size_t rows() const { return storage_->rows(); }
  size_t width() const { return storage_->cols(); }
  /// Columns [0, filled()) hold written slots; the rest is +0.0.
  size_t filled() const { return filled_; }
  const Matrix& value() const { return storage_->value; }

  /// Copies `block` (rows x w) into columns [offset, offset + w), where
  /// offset >= filled(), and records the new view.
  void Write(const Tensor& block, size_t offset);

 private:
  friend Tensor MatmulPrefix(const ProgressiveBuffer& a, const Tensor& b,
                             size_t live);

  /// Value and gradient. Never a tape node itself: it does not require
  /// gradients, so the tape's traversal stops at it, and it stands as the
  /// view before the first write.
  std::shared_ptr<TensorNode> storage_;
  Tensor view_;
  size_t filled_ = 0;
};

/// `MatmulPrefix` over the written prefix of a progressive buffer: a[:, :live]
/// is read in place at the buffer's row stride, and dA is accumulated into
/// the buffer's gradient over columns [0, live) only. `live` must not exceed
/// `a.filled()`, and `b` has `a.width()` rows. Bit-identical to `MatmulPrefix`
/// of a tensor holding the same values.
Tensor MatmulPrefix(const ProgressiveBuffer& a, const Tensor& b, size_t live);

/// Fused relu(a + bias) for a B x D tensor `a` and 1 x D row vector `bias`.
/// One pass over the data instead of the AddRowBroadcast + Relu pair; the
/// forward runs through the SIMD kernel layer.
Tensor BiasRelu(const Tensor& a, const Tensor& bias);

/// Fused relu(a + bias) + skip, the MADE residual-hidden-layer body. `a` and
/// `skip` are B x D, `bias` is 1 x D.
Tensor BiasReluSkip(const Tensor& a, const Tensor& bias, const Tensor& skip);

/// Row-wise softmax over the full width of `a`.
Tensor Softmax(const Tensor& a);

/// Natural log of max(a, eps); the clamp keeps DPS stable when a predicted
/// in-range probability underflows.
Tensor LogEps(const Tensor& a, double eps = 1e-30);

/// Row-wise sum: B x D -> B x 1.
Tensor RowSum(const Tensor& a);

/// Sum of all elements -> 1 x 1.
Tensor SumAll(const Tensor& a);

/// Columns [begin, end) of `a`.
Tensor SliceColumns(const Tensor& a, size_t begin, size_t end);

/// Places the B x D block `a` at column `offset` of a B x `total` tensor of
/// zeros.
Tensor PadColumns(const Tensor& a, size_t offset, size_t total);

/// \brief Counter address of the Gumbel noise of one `GumbelSoftmaxST` call.
///
/// Unit c of logits row r draws its uniform from
/// `CounterUniform(seed, stream, first_row + r, (column << 32) | c)`: a pure
/// function of the coordinates, so a row's noise does not depend on which
/// other rows share the call or on the thread that evaluates it.
struct GumbelNoise {
  uint64_t seed = 0;
  uint64_t stream = 0;
  uint64_t first_row = 0;  ///< Row key of logits row 0 (row r: first_row + r).
  uint64_t column = 0;
};

/// \brief Straight-through Gumbel-Softmax sample (one sample per row).
///
/// `logits` are *masked* log-probabilities (out-of-range entries at a large
/// negative value). Forward emits the hard one-hot of
/// `argmax(logits + Gumbel noise)`; backward routes gradients through the
/// tempered softmax `y_soft = softmax((logits + g) / tau)` — the
/// straight-through estimator used by the paper's Differentiable Progressive
/// Sampling (§4.1).
Tensor GumbelSoftmaxST(const Tensor& logits, double tau,
                       const GumbelNoise& noise);

}  // namespace sam::ad
