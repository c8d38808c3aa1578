#include "autodiff/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "linalg/kernels.h"

namespace sam::ad {

namespace {

/// Creates the result node for an op, wiring parents and the backward
/// closure unless a NoGradGuard is active or no parent needs gradients.
Tensor MakeOp(Matrix value, std::vector<Tensor> parents,
              std::function<void(TensorNode&)> backward, const char* name) {
  auto node = std::make_shared<TensorNode>();
  node->value = std::move(value);
  node->op_name = name;
  bool needs = false;
  for (const auto& p : parents) needs = needs || p.requires_grad();
  if (needs && !NoGradGuard::Active()) {
    node->requires_grad = true;
    node->parents.reserve(parents.size());
    for (auto& p : parents) node->parents.push_back(p.node());
    node->backward_fn = std::move(backward);
  }
  return Tensor(std::move(node));
}

void AccumulateInto(TensorNode* parent, const Matrix& g) {
  if (!parent->requires_grad) return;
  parent->EnsureGrad();
  SAM_CHECK_EQ(parent->grad.size(), g.size());
  double* dst = parent->grad.data();
  const double* src = g.data();
  for (size_t i = 0; i < g.size(); ++i) dst[i] += src[i];
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  SAM_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix v = a.value();
  const double* bv = b.value().data();
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] += bv[i];
  return MakeOp(std::move(v), {a, b},
                [](TensorNode& n) {
                  AccumulateInto(n.parents[0].get(), n.grad);
                  AccumulateInto(n.parents[1].get(), n.grad);
                },
                "add");
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  SAM_CHECK_EQ(bias.rows(), 1u);
  SAM_CHECK_EQ(a.cols(), bias.cols());
  Matrix v = a.value();
  const double* bv = bias.value().data();
  for (size_t r = 0; r < v.rows(); ++r) {
    double* row = v.row(r);
    for (size_t c = 0; c < v.cols(); ++c) row[c] += bv[c];
  }
  return MakeOp(std::move(v), {a, bias},
                [](TensorNode& n) {
                  AccumulateInto(n.parents[0].get(), n.grad);
                  TensorNode* bias_node = n.parents[1].get();
                  if (bias_node->requires_grad) {
                    bias_node->EnsureGrad();
                    double* bg = bias_node->grad.data();
                    for (size_t r = 0; r < n.grad.rows(); ++r) {
                      const double* row = n.grad.row(r);
                      for (size_t c = 0; c < n.grad.cols(); ++c) bg[c] += row[c];
                    }
                  }
                },
                "add_row_broadcast");
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  SAM_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix v = a.value();
  const double* bv = b.value().data();
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] -= bv[i];
  return MakeOp(std::move(v), {a, b},
                [](TensorNode& n) {
                  AccumulateInto(n.parents[0].get(), n.grad);
                  TensorNode* b_node = n.parents[1].get();
                  if (b_node->requires_grad) {
                    b_node->EnsureGrad();
                    double* dst = b_node->grad.data();
                    const double* src = n.grad.data();
                    for (size_t i = 0; i < n.grad.size(); ++i) dst[i] -= src[i];
                  }
                },
                "sub");
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  SAM_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix v = a.value();
  const double* bv = b.value().data();
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] *= bv[i];
  return MakeOp(std::move(v), {a, b},
                [](TensorNode& n) {
                  TensorNode* an = n.parents[0].get();
                  TensorNode* bn = n.parents[1].get();
                  if (an->requires_grad) {
                    an->EnsureGrad();
                    double* dst = an->grad.data();
                    const double* g = n.grad.data();
                    const double* bv2 = bn->value.data();
                    for (size_t i = 0; i < n.grad.size(); ++i) dst[i] += g[i] * bv2[i];
                  }
                  if (bn->requires_grad) {
                    bn->EnsureGrad();
                    double* dst = bn->grad.data();
                    const double* g = n.grad.data();
                    const double* av = an->value.data();
                    for (size_t i = 0; i < n.grad.size(); ++i) dst[i] += g[i] * av[i];
                  }
                },
                "mul");
}

Tensor Scale(const Tensor& a, double s) {
  Matrix v = a.value();
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] *= s;
  return MakeOp(std::move(v), {a},
                [s](TensorNode& n) {
                  TensorNode* an = n.parents[0].get();
                  if (!an->requires_grad) return;
                  an->EnsureGrad();
                  double* dst = an->grad.data();
                  const double* g = n.grad.data();
                  for (size_t i = 0; i < n.grad.size(); ++i) dst[i] += g[i] * s;
                },
                "scale");
}

namespace {

/// a[:, :live] * b[:live, :] with `a` read from `storage` at its row stride.
/// `order` is A's tape parent: the tensor itself, or a progressive buffer's
/// current view. dA goes into storage's gradient, columns [0, live) only;
/// dB into b's rows [0, live) only.
Tensor PrefixProduct(const Tensor& order, std::shared_ptr<TensorNode> storage,
                     const Tensor& b, size_t live) {
  SAM_CHECK_LE(live, storage->cols());
  SAM_CHECK_LE(live, b.rows());
  const size_t rows = storage->rows();
  const size_t stride = storage->cols();
  Matrix v(rows, b.cols());
  kernels::Active().matmul(storage->value.data(), rows, live, stride,
                           b.value().data(), b.cols(), v.data());
  return MakeOp(
      std::move(v), {order, b},
      [storage = std::move(storage), live](TensorNode& n) {
        TensorNode* an = n.parents[0].get();
        TensorNode* bn = n.parents[1].get();
        const size_t rows = n.grad.rows();
        const size_t d = n.grad.cols();
        const size_t stride = storage->cols();
        if (an->requires_grad) {
          storage->EnsureGrad();
          // dA[:, :live] = dC * B[:live, :]^T. B's first `live` rows are
          // its first live * d entries.
          Matrix da(rows, live);
          kernels::Active().matmul_tb(n.grad.data(), rows, d, bn->value.data(),
                                      live, da.data());
          for (size_t r = 0; r < rows; ++r) {
            const double* src = da.row(r);
            double* dst = storage->grad.row(r);
            for (size_t c = 0; c < live; ++c) dst[c] += src[c];
          }
        }
        if (bn->requires_grad) {
          bn->EnsureGrad();
          // dB[:live, :] = A[:, :live]^T * dC, A read in place.
          Matrix db(live, d);
          kernels::Active().matmul_ta(storage->value.data(), rows, live,
                                      stride, n.grad.data(), d, db.data());
          double* dst = bn->grad.data();
          const double* src = db.data();
          for (size_t i = 0; i < live * d; ++i) dst[i] += src[i];
        }
      },
      "matmul");
}

}  // namespace

Tensor MatmulPrefix(const Tensor& a, const Tensor& b, size_t live) {
  SAM_CHECK_EQ(a.cols(), b.rows());
  return PrefixProduct(a, a.node(), b, live);
}

Tensor Matmul(const Tensor& a, const Tensor& b) {
  return MatmulPrefix(a, b, a.cols());
}

ProgressiveBuffer::ProgressiveBuffer(size_t rows, size_t width)
    : storage_(std::make_shared<TensorNode>()), view_(storage_) {
  storage_->value = Matrix(rows, width);
  storage_->op_name = "progressive_buffer";
}

void ProgressiveBuffer::Write(const Tensor& block, size_t offset) {
  const size_t w = block.cols();
  SAM_CHECK_EQ(block.rows(), rows());
  SAM_CHECK_GE(offset, filled_) << "progressive buffer slots are final";
  SAM_CHECK_LE(offset + w, width());
  for (size_t r = 0; r < rows(); ++r) {
    const double* src = block.value().row(r);
    std::copy(src, src + w, storage_->value.row(r) + offset);
  }
  filled_ = offset + w;
  view_ = MakeOp(Matrix(), {view_, block},
                 [storage = storage_, offset, w](TensorNode& n) {
                   TensorNode* block_node = n.parents[1].get();
                   if (!block_node->requires_grad) return;
                   block_node->EnsureGrad();
                   storage->EnsureGrad();
                   for (size_t r = 0; r < block_node->grad.rows(); ++r) {
                     const double* g = storage->grad.row(r) + offset;
                     double* dst = block_node->grad.row(r);
                     for (size_t c = 0; c < w; ++c) dst[c] += g[c];
                   }
                 },
                 "progressive_write");
}

Tensor MatmulPrefix(const ProgressiveBuffer& a, const Tensor& b, size_t live) {
  SAM_CHECK_LE(live, a.filled_) << "reading an unwritten slot";
  SAM_CHECK_EQ(a.width(), b.rows());
  return PrefixProduct(a.view_, a.storage_, b, live);
}

Tensor Relu(const Tensor& a) {
  Matrix v = a.value();
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] = std::max(0.0, v.data()[i]);
  return MakeOp(std::move(v), {a},
                [](TensorNode& n) {
                  TensorNode* an = n.parents[0].get();
                  if (!an->requires_grad) return;
                  an->EnsureGrad();
                  double* dst = an->grad.data();
                  const double* g = n.grad.data();
                  const double* out = n.value.data();
                  for (size_t i = 0; i < n.grad.size(); ++i) {
                    if (out[i] > 0.0) dst[i] += g[i];
                  }
                },
                "relu");
}

namespace {

// Shared backward for the fused bias+relu ops. The relu mask is recomputed
// from the parents' stored values as (a + bias) > 0 — exact, because the
// forward applied relu to exactly that sum — so the forward never has to
// stash pre-activations. `skip_node` is null for the skip-less variant.
void BiasReluBackward(TensorNode& n) {
  TensorNode* an = n.parents[0].get();
  TensorNode* bn = n.parents[1].get();
  TensorNode* sn = n.parents.size() > 2 ? n.parents[2].get() : nullptr;
  const size_t rows = n.grad.rows();
  const size_t cols = n.grad.cols();
  if (an->requires_grad) an->EnsureGrad();
  if (bn->requires_grad) bn->EnsureGrad();
  const double* bias = bn->value.data();
  for (size_t r = 0; r < rows; ++r) {
    const double* g = n.grad.row(r);
    const double* av = an->value.row(r);
    double* ag = an->requires_grad ? an->grad.row(r) : nullptr;
    double* bg = bn->requires_grad ? bn->grad.data() : nullptr;
    for (size_t c = 0; c < cols; ++c) {
      if (av[c] + bias[c] > 0.0) {
        if (ag != nullptr) ag[c] += g[c];
        if (bg != nullptr) bg[c] += g[c];
      }
    }
  }
  // The skip branch bypasses the relu, so it sees the full gradient.
  if (sn != nullptr && sn->requires_grad) AccumulateInto(sn, n.grad);
}

}  // namespace

Tensor BiasRelu(const Tensor& a, const Tensor& bias) {
  SAM_CHECK_EQ(bias.rows(), 1u);
  SAM_CHECK_EQ(a.cols(), bias.cols());
  Matrix v = a.value();
  kernels::Active().bias_relu_skip(v.data(), bias.value().data(),
                                   /*skip=*/nullptr, v.rows(), v.cols());
  return MakeOp(std::move(v), {a, bias}, BiasReluBackward, "bias_relu");
}

Tensor BiasReluSkip(const Tensor& a, const Tensor& bias, const Tensor& skip) {
  SAM_CHECK_EQ(bias.rows(), 1u);
  SAM_CHECK_EQ(a.cols(), bias.cols());
  SAM_CHECK(a.rows() == skip.rows() && a.cols() == skip.cols());
  Matrix v = a.value();
  kernels::Active().bias_relu_skip(v.data(), bias.value().data(),
                                   skip.value().data(), v.rows(), v.cols());
  return MakeOp(std::move(v), {a, bias, skip}, BiasReluBackward,
                "bias_relu_skip");
}

Tensor Softmax(const Tensor& a) {
  Matrix v = a.value();
  for (size_t r = 0; r < v.rows(); ++r) {
    double* row = v.row(r);
    double mx = row[0];
    for (size_t c = 1; c < v.cols(); ++c) mx = std::max(mx, row[c]);
    double sum = 0.0;
    for (size_t c = 0; c < v.cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    const double inv = 1.0 / sum;
    for (size_t c = 0; c < v.cols(); ++c) row[c] *= inv;
  }
  return MakeOp(std::move(v), {a},
                [](TensorNode& n) {
                  TensorNode* an = n.parents[0].get();
                  if (!an->requires_grad) return;
                  an->EnsureGrad();
                  // dx = y * (dy - sum(dy * y)) row-wise.
                  for (size_t r = 0; r < n.grad.rows(); ++r) {
                    const double* y = n.value.row(r);
                    const double* dy = n.grad.row(r);
                    double dot = 0.0;
                    for (size_t c = 0; c < n.grad.cols(); ++c) dot += dy[c] * y[c];
                    double* dx = an->grad.row(r);
                    for (size_t c = 0; c < n.grad.cols(); ++c) {
                      dx[c] += y[c] * (dy[c] - dot);
                    }
                  }
                },
                "softmax");
}

Tensor LogEps(const Tensor& a, double eps) {
  Matrix v = a.value();
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] = std::log(std::max(v.data()[i], eps));
  return MakeOp(std::move(v), {a},
                [eps](TensorNode& n) {
                  TensorNode* an = n.parents[0].get();
                  if (!an->requires_grad) return;
                  an->EnsureGrad();
                  double* dst = an->grad.data();
                  const double* g = n.grad.data();
                  const double* x = an->value.data();
                  for (size_t i = 0; i < n.grad.size(); ++i) {
                    dst[i] += g[i] / std::max(x[i], eps);
                  }
                },
                "log_eps");
}

Tensor RowSum(const Tensor& a) {
  Matrix v(a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.value().row(r);
    double acc = 0.0;
    for (size_t c = 0; c < a.cols(); ++c) acc += row[c];
    v(r, 0) = acc;
  }
  return MakeOp(std::move(v), {a},
                [](TensorNode& n) {
                  TensorNode* an = n.parents[0].get();
                  if (!an->requires_grad) return;
                  an->EnsureGrad();
                  for (size_t r = 0; r < an->grad.rows(); ++r) {
                    const double g = n.grad(r, 0);
                    double* dst = an->grad.row(r);
                    for (size_t c = 0; c < an->grad.cols(); ++c) dst[c] += g;
                  }
                },
                "row_sum");
}

Tensor SumAll(const Tensor& a) {
  Matrix v(1, 1);
  double acc = 0.0;
  for (size_t i = 0; i < a.value().size(); ++i) acc += a.value().data()[i];
  v(0, 0) = acc;
  return MakeOp(std::move(v), {a},
                [](TensorNode& n) {
                  TensorNode* an = n.parents[0].get();
                  if (!an->requires_grad) return;
                  an->EnsureGrad();
                  const double g = n.grad(0, 0);
                  double* dst = an->grad.data();
                  for (size_t i = 0; i < an->grad.size(); ++i) dst[i] += g;
                },
                "sum_all");
}

Tensor SliceColumns(const Tensor& a, size_t begin, size_t end) {
  SAM_CHECK(begin <= end && end <= a.cols());
  Matrix v(a.rows(), end - begin);
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* src = a.value().row(r) + begin;
    std::copy(src, src + (end - begin), v.row(r));
  }
  return MakeOp(std::move(v), {a},
                [begin, end](TensorNode& n) {
                  TensorNode* an = n.parents[0].get();
                  if (!an->requires_grad) return;
                  an->EnsureGrad();
                  for (size_t r = 0; r < n.grad.rows(); ++r) {
                    const double* g = n.grad.row(r);
                    double* dst = an->grad.row(r) + begin;
                    for (size_t c = 0; c < end - begin; ++c) dst[c] += g[c];
                  }
                },
                "slice_cols");
}

Tensor SliceRows(const Tensor& a, size_t begin, size_t end) {
  SAM_CHECK(begin <= end && end <= a.rows());
  Matrix v(end - begin, a.cols());
  for (size_t r = begin; r < end; ++r) {
    const double* src = a.value().row(r);
    std::copy(src, src + a.cols(), v.row(r - begin));
  }
  return MakeOp(std::move(v), {a},
                [begin, end](TensorNode& n) {
                  TensorNode* an = n.parents[0].get();
                  if (!an->requires_grad) return;
                  an->EnsureGrad();
                  for (size_t r = begin; r < end; ++r) {
                    const double* g = n.grad.row(r - begin);
                    double* dst = an->grad.row(r);
                    for (size_t c = 0; c < n.grad.cols(); ++c) dst[c] += g[c];
                  }
                },
                "slice_rows");
}

Tensor PadColumns(const Tensor& a, size_t offset, size_t total) {
  SAM_CHECK_LE(offset + a.cols(), total);
  Matrix v(a.rows(), total);
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* src = a.value().row(r);
    std::copy(src, src + a.cols(), v.row(r) + offset);
  }
  const size_t width = a.cols();
  return MakeOp(std::move(v), {a},
                [offset, width](TensorNode& n) {
                  TensorNode* an = n.parents[0].get();
                  if (!an->requires_grad) return;
                  an->EnsureGrad();
                  for (size_t r = 0; r < n.grad.rows(); ++r) {
                    const double* g = n.grad.row(r) + offset;
                    double* dst = an->grad.row(r);
                    for (size_t c = 0; c < width; ++c) dst[c] += g[c];
                  }
                },
                "pad_cols");
}

Tensor GumbelSoftmaxST(const Tensor& logits, double tau,
                       const GumbelNoise& noise) {
  const size_t b = logits.rows();
  const size_t d = logits.cols();
  // Compute perturbed logits once; derive both the soft distribution (kept
  // for the backward pass) and the hard one-hot forward value from it.
  Matrix soft(b, d);
  Matrix hard(b, d);
  for (size_t r = 0; r < b; ++r) {
    const double* lg = logits.value().row(r);
    double* srow = soft.row(r);
    double mx = -std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < d; ++c) {
      const double u = CounterUniform(noise.seed, noise.stream,
                                      noise.first_row + r,
                                      (noise.column << 32) | c);
      srow[c] = (lg[c] + GumbelFromUniform(u)) / tau;
      mx = std::max(mx, srow[c]);
    }
    size_t argmax = 0;
    double best = -std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (size_t c = 0; c < d; ++c) {
      if (srow[c] > best) {
        best = srow[c];
        argmax = c;
      }
      srow[c] = std::exp(srow[c] - mx);
      sum += srow[c];
    }
    const double inv = 1.0 / sum;
    for (size_t c = 0; c < d; ++c) srow[c] *= inv;
    hard(r, argmax) = 1.0;
  }
  const double inv_tau = 1.0 / tau;
  auto soft_holder = std::make_shared<Matrix>(std::move(soft));
  return MakeOp(std::move(hard), {logits},
                [soft_holder, inv_tau](TensorNode& n) {
                  TensorNode* an = n.parents[0].get();
                  if (!an->requires_grad) return;
                  an->EnsureGrad();
                  // Straight-through: treat the output as y_soft for the
                  // backward pass. d y_soft/d logits is the tempered softmax
                  // Jacobian: y/tau * (dy - sum(dy*y)).
                  const Matrix& y = *soft_holder;
                  for (size_t r = 0; r < n.grad.rows(); ++r) {
                    const double* yr = y.row(r);
                    const double* dy = n.grad.row(r);
                    double dot = 0.0;
                    for (size_t c = 0; c < n.grad.cols(); ++c) dot += dy[c] * yr[c];
                    double* dx = an->grad.row(r);
                    for (size_t c = 0; c < n.grad.cols(); ++c) {
                      dx[c] += inv_tau * yr[c] * (dy[c] - dot);
                    }
                  }
                },
                "gumbel_softmax_st");
}

Tensor Reciprocal(const Tensor& a, double eps) {
  Matrix v = a.value();
  for (size_t i = 0; i < v.size(); ++i) {
    v.data()[i] = 1.0 / std::max(v.data()[i], eps);
  }
  return MakeOp(std::move(v), {a},
                [eps](TensorNode& n) {
                  TensorNode* an = n.parents[0].get();
                  if (!an->requires_grad) return;
                  an->EnsureGrad();
                  double* dst = an->grad.data();
                  const double* g = n.grad.data();
                  const double* x = an->value.data();
                  for (size_t i = 0; i < n.grad.size(); ++i) {
                    const double xv = std::max(x[i], eps);
                    dst[i] -= g[i] / (xv * xv);
                  }
                },
                "reciprocal");
}

}  // namespace sam::ad
