// Hashing for content-addressed keys and bucket maps.
//
// FNV-1a is the byte-at-a-time hash for short or structured inputs: model
// fingerprints, router keys, and the (fingerprint, task, shape) header of a
// result-cache key. Two FNV streams (the standard offset basis and a
// decorrelated alternate) seed the two halves of a 128-bit digest.
//
// StripeDigest128 is the bulk hash for long payloads (the series bytes of a
// result-cache key): one pass, 32 bytes per step, xxHash64-style lanes for
// each of the two seeds, each half finished with the fmix64 avalanche. 128
// bits make an accidental collision between distinct inference requests
// astronomically unlikely without storing the full request bytes.
#ifndef RITA_UTIL_HASH_H_
#define RITA_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace rita {

inline constexpr uint64_t kFnv1a64OffsetBasis = 1469598103934665603ULL;
inline constexpr uint64_t kFnv1a64Prime = 1099511628211ULL;
/// Alternate offset basis (splitmix64 of the standard one): seeds the second,
/// independent hash stream used to extend cache keys to 128 bits.
inline constexpr uint64_t kFnv1a64AltOffsetBasis = 0x9ddfea08eb382d69ULL;

/// Feeds `n` raw bytes into an FNV-1a state and returns the new state.
inline uint64_t Fnv1a64(const void* data, size_t n,
                        uint64_t state = kFnv1a64OffsetBasis) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    state ^= static_cast<uint64_t>(bytes[i]);
    state *= kFnv1a64Prime;
  }
  return state;
}

/// Feeds a trivially-copyable value (ints, enums, floats) into the state.
template <typename T>
inline uint64_t Fnv1a64Value(const T& value, uint64_t state) {
  static_assert(std::is_trivially_copyable<T>::value,
                "hash only raw-representable values");
  return Fnv1a64(&value, sizeof(T), state);
}

inline uint64_t Fnv1a64String(const std::string& s,
                              uint64_t state = kFnv1a64OffsetBasis) {
  // Length first so ("ab","c") never collides with ("a","bc") when chained.
  state = Fnv1a64Value<uint64_t>(s.size(), state);
  return Fnv1a64(s.data(), s.size(), state);
}

/// Two 64-bit digests of one byte string.
struct Digest128 {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

namespace hash_internal {

inline constexpr uint64_t kP1 = 0x9e3779b185ebca87ULL;
inline constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
inline constexpr uint64_t kP3 = 0x165667b19e3779f9ULL;
inline constexpr uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
inline constexpr uint64_t kP5 = 0x27d4eb2f165667c5ULL;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Round(uint64_t acc, uint64_t word) {
  return Rotl(acc + word * kP2, 31) * kP1;
}

inline uint64_t MergeRound(uint64_t h, uint64_t acc) {
  return (h ^ Round(0, acc)) * kP1 + kP4;
}

inline uint64_t Load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// MurmurHash3's 64-bit finalizer: every input bit reaches every output bit.
inline uint64_t Fmix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Four xxHash64 lane accumulators seeded from `seed`.
struct Lanes {
  uint64_t v[4];
  explicit Lanes(uint64_t seed)
      : v{seed + kP1 + kP2, seed + kP2, seed, seed - kP1} {}
  uint64_t Merge() const {
    uint64_t h = Rotl(v[0], 1) + Rotl(v[1], 7) + Rotl(v[2], 12) + Rotl(v[3], 18);
    for (uint64_t acc : v) h = MergeRound(h, acc);
    return h;
  }
};

/// Folds the length and the < 32 tail bytes into `h`, then avalanches.
inline uint64_t Finish(uint64_t h, const unsigned char* tail, size_t rest,
                       size_t n) {
  h += static_cast<uint64_t>(n);
  for (; rest >= 8; tail += 8, rest -= 8) {
    h = Rotl(h ^ Round(0, Load64(tail)), 27) * kP1 + kP4;
  }
  if (rest >= 4) {
    h = Rotl(h ^ (Load32(tail) * kP1), 23) * kP2 + kP3;
    tail += 4;
    rest -= 4;
  }
  for (; rest > 0; ++tail, --rest) {
    h = Rotl(h ^ (static_cast<uint64_t>(*tail) * kP5), 11) * kP1;
  }
  return Fmix64(h);
}

}  // namespace hash_internal

/// One pass over `n` bytes producing two digests, each an xxHash64-style
/// hash of the bytes under its own seed: 32 bytes per step feed 4 lanes per
/// seed (acc = rotl(acc + w*P2, 31)*P1), then the length and the tail fold in
/// and fmix64 finishes each half. Reads each byte once, 8 at a time.
inline Digest128 StripeDigest128(const void* data, size_t n, uint64_t seed_lo,
                                 uint64_t seed_hi) {
  using namespace hash_internal;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  uint64_t lo = seed_lo + kP5;
  uint64_t hi = seed_hi + kP5;
  if (n >= 32) {
    Lanes a(seed_lo), b(seed_hi);
    for (; end - p >= 32; p += 32) {
      for (int lane = 0; lane < 4; ++lane) {
        const uint64_t w = Load64(p + 8 * lane);
        a.v[lane] = Round(a.v[lane], w);
        b.v[lane] = Round(b.v[lane], w);
      }
    }
    lo = a.Merge();
    hi = b.Merge();
  }
  const size_t rest = static_cast<size_t>(end - p);
  return Digest128{Finish(lo, p, rest, n), Finish(hi, p, rest, n)};
}

/// boost-style combiner for composing already-hashed fields into map keys.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace rita

#endif  // RITA_UTIL_HASH_H_
