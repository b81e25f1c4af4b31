#include "util/hash.h"

#include <array>
#include <cstring>

namespace tsfm {

namespace {

inline uint32_t Rotl32(uint32_t x, int8_t r) { return (x << r) | (x >> (32 - r)); }

inline uint32_t Fmix32(uint32_t h) {
  h ^= h >> 16;
  h *= 0x85ebca6b;
  h ^= h >> 13;
  h *= 0xc2b2ae35;
  h ^= h >> 16;
  return h;
}

// MurmurHash3 x86 32-bit under N seeds in one walk over `data`: each
// block's k1 is mixed once and folded into every seed's h1.
template <size_t N>
std::array<uint32_t, N> Murmur3States(std::string_view data,
                                      std::array<uint32_t, N> h) {
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(data.data());
  const size_t len = data.size();
  const size_t nblocks = len / 4;
  const uint32_t c1 = 0xcc9e2d51;
  const uint32_t c2 = 0x1b873593;

  for (size_t i = 0; i < nblocks; ++i) {
    uint32_t k1;
    std::memcpy(&k1, bytes + i * 4, 4);
    k1 *= c1;
    k1 = Rotl32(k1, 15);
    k1 *= c2;
    for (uint32_t& h1 : h) {
      h1 ^= k1;
      h1 = Rotl32(h1, 13);
      h1 = h1 * 5 + 0xe6546b64;
    }
  }

  const uint8_t* tail = bytes + nblocks * 4;
  uint32_t k1 = 0;
  switch (len & 3) {
    case 3:
      k1 ^= static_cast<uint32_t>(tail[2]) << 16;
      [[fallthrough]];
    case 2:
      k1 ^= static_cast<uint32_t>(tail[1]) << 8;
      [[fallthrough]];
    case 1:
      k1 ^= tail[0];
      k1 *= c1;
      k1 = Rotl32(k1, 15);
      k1 *= c2;
      for (uint32_t& h1 : h) h1 ^= k1;
  }

  for (uint32_t& h1 : h) h1 = Fmix32(h1 ^ static_cast<uint32_t>(len));
  return h;
}

}  // namespace

uint32_t Murmur3_32(std::string_view data, uint32_t seed) {
  return Murmur3States<1>(data, {seed})[0];
}

uint64_t Murmur3_32Pair(std::string_view data, uint32_t seed_hi,
                        uint32_t seed_lo) {
  const auto [hi, lo] = Murmur3States<2>(data, {seed_hi, seed_lo});
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

size_t StableShard(std::string_view id, size_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<size_t>(SplitMix64(Fnv1a64(id)) % num_shards);
}

}  // namespace tsfm
