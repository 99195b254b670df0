#include "chain/merkle.h"

#include <array>
#include <cstring>

#include "common/sha256.h"

namespace txconc::chain {

namespace {

Hash256 hash_pair(const Hash256& left, const Hash256& right) {
  std::array<std::uint8_t, 64> pair;
  std::memcpy(pair.data(), left.bytes.data(), 32);
  std::memcpy(pair.data() + 32, right.bytes.data(), 32);
  Hash256 out;
  out.bytes = Sha256::hash_twice(pair);
  return out;
}

}  // namespace

Hash256 merkle_root(std::vector<Hash256> leaves) {
  if (leaves.empty()) return Hash256{};
  // Each level overwrites the front of the one below it: entry i/2 is
  // written only after entries i and i+1 were read.
  for (std::size_t n = leaves.size(); n > 1; n = (n + 1) / 2) {
    for (std::size_t i = 0; i < n; i += 2) {
      const Hash256& right = (i + 1 < n) ? leaves[i + 1] : leaves[i];
      leaves[i / 2] = hash_pair(leaves[i], right);
    }
  }
  return leaves[0];
}

}  // namespace txconc::chain
