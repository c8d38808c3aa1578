#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace sam {

/// \brief 64-bit FNV-1a over a byte stream: the one hasher behind the
/// training and generation fingerprints, the generation pipeline's RNG
/// stream tags and the estimator's per-query stream keys.
///
/// Integers and doubles are mixed as their 8 bytes in little-endian order.
/// Checkpoints embed fingerprints built from these exact byte sequences, so
/// changing what a caller mixes (or in which order) breaks resume.
class Fnv1a {
 public:
  void Mix(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= kPrime;
    }
  }
  void MixU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= kPrime;
    }
  }
  void MixI64(int64_t v) { MixU64(static_cast<uint64_t>(v)); }
  void MixDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    MixU64(bits);
  }
  /// Length-prefixed, so ("ab", "c") and ("a", "bc") differ.
  void MixString(const std::string& s) {
    MixU64(s.size());
    Mix(s.data(), s.size());
  }
  uint64_t hash() const { return h_; }

 private:
  static constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h_ = 1469598103934665603ull;
};

}  // namespace sam
