// Non-cryptographic hash functions used by the sketching layer.
//
// MinHash needs a family of independent hash functions over strings; we use
// MurmurHash3 (x86 32-bit finalization) with per-function seeds, plus
// FNV-1a and SplitMix64 for lightweight integer mixing.
#ifndef TSFM_UTIL_HASH_H_
#define TSFM_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace tsfm {

/// MurmurHash3 x86 32-bit of `data` with `seed`.
uint32_t Murmur3_32(std::string_view data, uint32_t seed);

/// Both seeds' Murmur3_32 in one walk over `data`:
/// `(Murmur3_32(data, seed_hi) << 32) | Murmur3_32(data, seed_lo)`.
uint64_t Murmur3_32Pair(std::string_view data, uint32_t seed_hi,
                        uint32_t seed_lo);

/// 64-bit FNV-1a of `data`.
uint64_t Fnv1a64(std::string_view data);

/// SplitMix64 finalizer — turns a 64-bit value into a well-mixed 64-bit hash.
/// Inline: MinHash::Update calls it once per signature slot.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines two hash values (boost::hash_combine style, 64-bit).
uint64_t HashCombine(uint64_t a, uint64_t b);

/// \brief Stable shard assignment for a string id.
///
/// Routes `id` to one of `num_shards` buckets by a well-mixed hash
/// (FNV-1a + SplitMix64). The mapping depends only on the id bytes and the
/// shard count, so it is identical across processes and rebuilds — the
/// property ShardedLakeIndex relies on to keep a table in one shard.
/// `num_shards == 0` maps everything to shard 0.
size_t StableShard(std::string_view id, size_t num_shards);

}  // namespace tsfm

#endif  // TSFM_UTIL_HASH_H_
