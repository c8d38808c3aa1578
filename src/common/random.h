#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/fnv1a.h"
#include "common/status.h"

namespace sam {

/// \brief Seeded pseudo-random number generator used across the library.
///
/// Wraps a fixed engine so that every experiment in the repo is reproducible
/// from a single seed. All sampling utilities used by the paper's algorithms
/// (uniform, normal, categorical, Zipf) live here.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5a4db00c) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> d(lo, hi);
    return d(engine_);
  }

  /// Uniform real in [0, 1).
  double Uniform() {
    std::uniform_real_distribution<double> d(0.0, 1.0);
    return d(engine_);
  }

  /// Uniform real in [lo, hi).
  double Uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
  }

  /// Standard normal sample.
  double Normal() {
    std::normal_distribution<double> d(0.0, 1.0);
    return d(engine_);
  }

  /// Normal with mean/stddev.
  double Normal(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  /// Zipf-like skewed integer in [0, n) with exponent `s`.
  ///
  /// Uses inverse-CDF over a cached normaliser; intended for synthetic data
  /// with realistic skew (e.g. IMDB-like fanouts).
  int64_t Zipf(int64_t n, double s);

  /// Samples an index from an (unnormalised, non-negative) weight vector.
  /// Returns -1 when every weight is zero.
  int64_t Categorical(const std::vector<double>& weights) {
    return Categorical(weights.data(), weights.size());
  }

  /// Pointer form of Categorical: samples directly from `weights[0..n)`
  /// without requiring the caller to copy into a vector first. Hot-loop
  /// callers (FOJ sampling, progressive estimation) pass model probability
  /// rows straight through.
  int64_t Categorical(const double* weights, size_t n);

  /// Bernoulli trial with probability `p`.
  bool Bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

  /// \brief Exact engine-state capture for checkpoint/restore.
  ///
  /// The state round-trips losslessly through the engine's standard text
  /// serialisation, so a restored `Rng` produces the identical stream. The
  /// per-call distribution objects above are constructed fresh every call
  /// and therefore carry no state of their own.
  std::string SaveState() const;

  /// Restores a state captured with `SaveState`. Fails with
  /// `InvalidArgument` when the string does not parse as an engine state.
  Status RestoreState(const std::string& state);

 private:
  std::mt19937_64 engine_;
};

// --- Counter-based (stateless) streams --------------------------------------
//
// `Rng` above is sequential: what sample k returns depends on how many
// samples were drawn before it, so two callers sharing an engine perturb each
// other. The progressive-sampling estimators instead need random numbers
// addressable by *coordinates* — (seed, stream, path, column) — so that a
// trajectory draws the same uniforms no matter which call, batch, or thread
// evaluates it. These helpers provide exactly that: a bijective 64-bit mix of
// the coordinates, mapped to a uniform in [0, 1).

/// SplitMix64 finalizer step: a bijective 64-bit mixer with full avalanche
/// (each input bit flips every output bit with probability ~1/2).
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a hash of the bytes of `s`: the tag hash of `DeriveSeed`. The
/// generation pipeline's merge-group key hash streams its key text through
/// the same `Fnv1a`.
inline uint64_t HashKey(const std::string& s) {
  Fnv1a f;
  f.Mix(s.data(), s.size());
  return f.hash();
}

/// Seed of the stream named `tag` in a generation run with base seed `base`.
/// No RNG is threaded across steps, so a step replayed from a checkpoint,
/// or decoded by in-RAM `SamModel::Generate`, reproduces its bytes exactly.
inline uint64_t DeriveSeed(uint64_t base, const std::string& tag) {
  return Mix64(base ^ HashKey(tag));
}

/// Uniform double in [0, 1) at coordinates (seed, stream, hi, lo): four
/// chained Mix64 rounds, top 53 bits scaled by 2^-53. Pure function of its
/// arguments — evaluation order and thread schedule cannot change it.
inline double CounterUniform(uint64_t seed, uint64_t stream, uint64_t hi,
                             uint64_t lo) {
  uint64_t h = Mix64(seed);
  h = Mix64(h ^ stream);
  h = Mix64(h ^ hi);
  h = Mix64(h ^ lo);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Samples an index from unnormalised non-negative `weights[0..n)` driven by
/// a caller-supplied uniform `u` in [0, 1). Same subtract-scan and edge
/// semantics as `Rng::Categorical` (returns -1 when the total mass is zero),
/// but stateless — the counter streams' partner for order-independent
/// sampling.
int64_t CategoricalFromUniform(const double* weights, size_t n, double u);

/// Standard Gumbel(0,1) sample -log(-log(u)) from a uniform `u` in [0, 1),
/// clamped away from 0 so the result is finite: the noise of the
/// Gumbel-Softmax trick, drawn from counter-addressed uniforms in DPS
/// training.
double GumbelFromUniform(double u);

}  // namespace sam
