#pragma once

#include <vector>

#include "autodiff/tensor.h"
#include "common/result.h"

namespace sam::ad {

/// \brief Adam optimiser over a fixed set of parameter tensors.
///
/// Standard bias-corrected Adam (Kingma & Ba). The DPS trainer performs one
/// `Step()` per query mini-batch.
class AdamOptimizer {
 public:
  struct Options {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    /// Optional global gradient-norm clip (0 disables). DPS losses can spike
    /// on rare queries with tiny true cardinalities.
    double clip_norm = 5.0;
  };

  AdamOptimizer(std::vector<Tensor> params, Options options);

  /// Applies one update from the accumulated gradients: `BeginStep()`, then
  /// `UpdateRange` over every element.
  void Step();

  /// The serial half of a step: advances the step count and computes the
  /// global-norm clip factor, summing the squared gradients in parameter and
  /// element order.
  void BeginStep();

  /// The element-wise half of the step begun by `BeginStep()`: clips and
  /// applies the update to elements [begin, end) of parameter `param`.
  /// Elements are independent, so disjoint ranges may run concurrently and
  /// the result does not depend on how the elements are split.
  void UpdateRange(size_t param, size_t begin, size_t end);

  /// Clears every parameter's gradient buffer.
  void ZeroGrad();

  const Options& options() const { return options_; }
  void set_lr(double lr) { options_.lr = lr; }

  // --- Checkpoint support ----------------------------------------------------

  /// Number of `Step()` calls applied so far (drives bias correction).
  int64_t step_count() const { return t_; }

  /// First/second-moment accumulators, one matrix per parameter.
  const std::vector<Matrix>& moments_m() const { return m_; }
  const std::vector<Matrix>& moments_v() const { return v_; }

  /// Restores optimiser state captured from another instance over the same
  /// parameter set. Fails with `InvalidArgument` on count/shape mismatch
  /// without modifying any state.
  Status RestoreState(int64_t step_count, std::vector<Matrix> m,
                      std::vector<Matrix> v);

 private:
  std::vector<Tensor> params_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  Options options_;
  int64_t t_ = 0;
  /// Of the step in flight: the clip factor (1 when no clipping applies) and
  /// the bias corrections.
  double clip_scale_ = 1.0;
  double bc1_ = 1.0;
  double bc2_ = 1.0;
};

}  // namespace sam::ad
