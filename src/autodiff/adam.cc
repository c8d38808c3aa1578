#include "autodiff/adam.h"

#include <cmath>

#include "common/logging.h"

namespace sam::ad {

AdamOptimizer::AdamOptimizer(std::vector<Tensor> params, Options options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    SAM_CHECK(p.requires_grad()) << "AdamOptimizer given a non-trainable tensor";
    m_.emplace_back(p.rows(), p.cols());
    v_.emplace_back(p.rows(), p.cols());
  }
}

void AdamOptimizer::Step() {
  BeginStep();
  for (size_t k = 0; k < params_.size(); ++k) {
    UpdateRange(k, 0, params_[k].value().size());
  }
}

void AdamOptimizer::BeginStep() {
  ++t_;
  // Optional global norm clipping across all parameters.
  clip_scale_ = 1.0;
  if (options_.clip_norm > 0.0) {
    double sq = 0.0;
    for (auto& p : params_) {
      if (p.grad().size() != p.value().size()) continue;
      const double* g = p.grad().data();
      for (size_t i = 0; i < p.grad().size(); ++i) sq += g[i] * g[i];
    }
    const double norm = std::sqrt(sq);
    if (norm > options_.clip_norm) clip_scale_ = options_.clip_norm / norm;
  }
  bc1_ = 1.0 - std::pow(options_.beta1, static_cast<double>(t_));
  bc2_ = 1.0 - std::pow(options_.beta2, static_cast<double>(t_));
}

void AdamOptimizer::UpdateRange(size_t param, size_t begin, size_t end) {
  Tensor& p = params_[param];
  if (p.grad().size() != p.value().size()) return;  // Never touched.
  SAM_CHECK_LE(end, p.value().size());
  double* w = p.mutable_value().data();
  double* g = p.node()->grad.data();
  double* m = m_[param].data();
  double* v = v_[param].data();
  const bool clip = clip_scale_ != 1.0;
  for (size_t i = begin; i < end; ++i) {
    if (clip) g[i] *= clip_scale_;
    m[i] = options_.beta1 * m[i] + (1.0 - options_.beta1) * g[i];
    v[i] = options_.beta2 * v[i] + (1.0 - options_.beta2) * g[i] * g[i];
    const double mhat = m[i] / bc1_;
    const double vhat = v[i] / bc2_;
    w[i] -= options_.lr * mhat / (std::sqrt(vhat) + options_.eps);
  }
}

void AdamOptimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

Status AdamOptimizer::RestoreState(int64_t step_count, std::vector<Matrix> m,
                                   std::vector<Matrix> v) {
  if (step_count < 0) {
    return Status::InvalidArgument("Adam step count must be non-negative");
  }
  if (m.size() != params_.size() || v.size() != params_.size()) {
    return Status::InvalidArgument(
        "Adam state has " + std::to_string(m.size()) + "/" +
        std::to_string(v.size()) + " moment matrices, optimiser has " +
        std::to_string(params_.size()) + " parameters");
  }
  for (size_t k = 0; k < params_.size(); ++k) {
    if (m[k].rows() != params_[k].rows() || m[k].cols() != params_[k].cols() ||
        v[k].rows() != params_[k].rows() || v[k].cols() != params_[k].cols()) {
      return Status::InvalidArgument("Adam moment shape mismatch at parameter " +
                                     std::to_string(k));
    }
  }
  t_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::OK();
}

}  // namespace sam::ad
