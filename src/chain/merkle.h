// Merkle roots over transaction hashes (Bitcoin-style, with duplication of
// the odd last element at each level).
#pragma once

#include <span>

#include "common/hash.h"

namespace txconc::chain {

/// Root of the merkle tree over the given leaves. An empty leaf set hashes
/// to the all-zero root.
Hash256 merkle_root(std::span<const Hash256> leaves);

}  // namespace txconc::chain
