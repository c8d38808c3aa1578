#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "linalg/kernels.h"

namespace sam::engine {

/// \brief Dense row bitmap: 64 rows per word, bit i of word w = row 64*w+i.
///
/// Backs compiled-query predicate evaluation: predicates AND range masks into
/// the words via the SIMD kernel layer, cardinality evaluation popcounts, and
/// join-weight expansion reads whole words at a time. Bits at positions
/// >= size() in the last word are always zero (Count() relies on it).
class Bitmap {
 public:
  Bitmap() = default;

  /// Resizes to `n` bits, all set (the state before any predicate applies).
  void ResetAllSet(size_t n) {
    n_ = n;
    words_.assign(NumWords(n), ~uint64_t{0});
    if ((n & 63) != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << (n & 63)) - 1;
    }
  }

  size_t size() const { return n_; }
  size_t num_words() const { return words_.size(); }
  uint64_t* words() { return words_.data(); }
  const uint64_t* words() const { return words_.data(); }

  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  /// Number of set bits.
  uint64_t Count() const {
    return kernels::Active().bitmap_popcount(words_.data(), words_.size());
  }

  /// Expands to 1.0/0.0 doubles; `out` must hold size() entries. Full and
  /// empty words (the common cases once selective predicates apply) take the
  /// bulk-fill path.
  void ExpandTo(double* out) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      double* dst = out + w * 64;
      const size_t limit = std::min<size_t>(64, n_ - w * 64);
      const uint64_t word = words_[w];
      if (word == 0) {
        std::fill(dst, dst + limit, 0.0);
      } else if (word == ~uint64_t{0} && limit == 64) {
        std::fill(dst, dst + 64, 1.0);
      } else {
        for (size_t b = 0; b < limit; ++b) {
          dst[b] = static_cast<double>((word >> b) & 1);
        }
      }
    }
  }

  static size_t NumWords(size_t n) { return (n + 63) / 64; }

 private:
  size_t n_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace sam::engine
