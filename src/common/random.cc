#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace sam {
namespace {

// Shared subtract-scan so the stateful and counter-driven categorical
// samplers cannot drift: `r` is already scaled by the total mass.
int64_t CategoricalScan(const double* weights, size_t n, double r) {
  for (size_t i = 0; i < n; ++i) {
    r -= weights[i];
    if (r <= 0.0) return static_cast<int64_t>(i);
  }
  return static_cast<int64_t>(n) - 1;
}

}  // namespace

std::string Rng::SaveState() const {
  std::ostringstream out;
  out << engine_;
  return out.str();
}

Status Rng::RestoreState(const std::string& state) {
  std::istringstream in(state);
  std::mt19937_64 restored;
  in >> restored;
  if (in.fail()) {
    return Status::InvalidArgument("unparseable RNG state");
  }
  engine_ = restored;
  return Status::OK();
}

int64_t Rng::Zipf(int64_t n, double s) {
  if (n <= 1) return 0;
  if (s <= 1.0) {
    // Rejection sampler below requires s > 1; fall back to a linear scan over
    // the (unnormalised) CDF, which is fine for the dataset-generator sizes.
    double total = 0.0;
    for (int64_t i = 1; i <= n; ++i) total += std::pow(static_cast<double>(i), -s);
    double r = Uniform() * total;
    for (int64_t i = 1; i <= n; ++i) {
      r -= std::pow(static_cast<double>(i), -s);
      if (r <= 0.0) return i - 1;
    }
    return n - 1;
  }
  // Rejection-free inverse CDF via cumulative weights would be O(n) per call;
  // instead use the standard rejection sampler (Devroye) which is O(1) amortised.
  // For the modest n used by dataset generators a cached CDF would also work,
  // but this keeps the generator stateless w.r.t. n.
  const double b = std::pow(2.0, s - 1.0);
  while (true) {
    const double u = Uniform();
    const double v = Uniform();
    const double x = std::floor(std::pow(u, -1.0 / (s - 1.0)));
    if (x < 1.0 || x > static_cast<double>(n)) continue;
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<int64_t>(x) - 1;
    }
  }
}

int64_t Rng::Categorical(const double* weights, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += weights[i];
  if (total <= 0.0) return -1;
  return CategoricalScan(weights, n, Uniform() * total);
}

int64_t CategoricalFromUniform(const double* weights, size_t n, double u) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += weights[i];
  if (total <= 0.0) return -1;
  return CategoricalScan(weights, n, u * total);
}

double GumbelFromUniform(double u) {
  // -log(-log(U)) with U in (0,1); clamp away from 0 to avoid inf.
  u = std::max(u, 1e-12);
  return -std::log(-std::log(u));
}

}  // namespace sam
