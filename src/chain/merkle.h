// Merkle roots over transaction hashes (Bitcoin-style, with duplication of
// the odd last element at each level).
#pragma once

#include <vector>

#include "common/hash.h"

namespace txconc::chain {

/// Root of the merkle tree over the given leaves. An empty leaf set hashes
/// to the all-zero root. The levels are built in place in `leaves`, so a
/// caller that moves its vector in pays no allocation.
Hash256 merkle_root(std::vector<Hash256> leaves);

}  // namespace txconc::chain
