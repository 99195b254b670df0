#include "chain/merkle.h"

#include <vector>

#include "common/bytes.h"
#include "common/sha256.h"

namespace txconc::chain {

namespace {

Hash256 hash_pair(const Hash256& left, const Hash256& right) {
  ByteWriter w(64);
  w.raw(left.bytes);
  w.raw(right.bytes);
  Hash256 out;
  out.bytes = Sha256::hash_twice(w.data());
  return out;
}

std::vector<Hash256> next_level(const std::vector<Hash256>& level) {
  std::vector<Hash256> out;
  out.reserve((level.size() + 1) / 2);
  for (std::size_t i = 0; i < level.size(); i += 2) {
    const Hash256& left = level[i];
    const Hash256& right = (i + 1 < level.size()) ? level[i + 1] : level[i];
    out.push_back(hash_pair(left, right));
  }
  return out;
}

}  // namespace

Hash256 merkle_root(std::span<const Hash256> leaves) {
  if (leaves.empty()) return Hash256{};
  std::vector<Hash256> level(leaves.begin(), leaves.end());
  while (level.size() > 1) {
    level = next_level(level);
  }
  return level[0];
}

}  // namespace txconc::chain
