#include "sketch/minhash.h"

#include <algorithm>
#include <limits>

#include "util/hash.h"
#include "util/logging.h"

namespace tsfm {

MinHash::MinHash(size_t num_perm)
    : signature_(num_perm, std::numeric_limits<uint32_t>::max()) {}

void MinHash::Update(std::string_view element) {
  // One base hash per element, then cheap per-slot mixing: the classic
  // h_i(x) = mix(base ^ seed_i) family. Murmur gives a well-distributed
  // base; SplitMix64 decorrelates the K slots.
  const uint64_t base = Murmur3_32Pair(element, 0x9747b28c, 0x85ebca6b);
  for (size_t i = 0; i < signature_.size(); ++i) {
    uint64_t h = SplitMix64(base ^ (0x27d4eb2f165667c5ULL * (i + 1)));
    // Branch-free: on a young signature whether a slot moves is a coin flip.
    signature_[i] = std::min(signature_[i], static_cast<uint32_t>(h >> 32));
  }
  empty_ = false;
}

void MinHash::UpdateAll(const std::vector<std::string>& elements) {
  for (const auto& e : elements) Update(e);
}

double MinHash::EstimateJaccard(const MinHash& other) const {
  TSFM_CHECK_EQ(num_perm(), other.num_perm());
  if (empty_ && other.empty_) return 1.0;
  if (empty_ || other.empty_) return 0.0;
  size_t same = 0;
  for (size_t i = 0; i < signature_.size(); ++i) {
    if (signature_[i] == other.signature_[i]) ++same;
  }
  return static_cast<double>(same) / static_cast<double>(signature_.size());
}

size_t MinHash::HammingDistance(const MinHash& other) const {
  TSFM_CHECK_EQ(num_perm(), other.num_perm());
  size_t diff = 0;
  for (size_t i = 0; i < signature_.size(); ++i) {
    if (signature_[i] != other.signature_[i]) ++diff;
  }
  return diff;
}

void MinHash::Merge(const MinHash& other) {
  TSFM_CHECK_EQ(num_perm(), other.num_perm());
  for (size_t i = 0; i < signature_.size(); ++i) {
    if (other.signature_[i] < signature_[i]) signature_[i] = other.signature_[i];
  }
  empty_ = empty_ && other.empty_;
}

std::vector<float> MinHash::ToFloats() const {
  std::vector<float> out(signature_.size());
  const double scale = 1.0 / static_cast<double>(std::numeric_limits<uint32_t>::max());
  for (size_t i = 0; i < signature_.size(); ++i) {
    out[i] = empty_ ? 0.0f : static_cast<float>(signature_[i] * scale);
  }
  return out;
}

MinHash MinHashOfSet(const std::vector<std::string>& elements, size_t num_perm) {
  MinHash mh(num_perm);
  mh.UpdateAll(elements);
  return mh;
}

}  // namespace tsfm
