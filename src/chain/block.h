// Blocks, the ledger, and the mempool.
//
// Block<Tx> is generic over the transaction type; tx_hash() adapts a type
// for merkle-root construction (account::AccountTx is the one the node
// runs).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "account/types.h"
#include "chain/merkle.h"
#include "common/error.h"
#include "common/hash.h"

namespace txconc::chain {

/// Hash adapter: account transactions are hashed over a canonical
/// serialization of all signed fields.
Hash256 tx_hash(const account::AccountTx& tx);

/// A block header ("a sequence of blocks linked together via cryptographic
/// hash pointers", paper Section II-A).
struct BlockHeader {
  Hash256 prev_hash;
  Hash256 merkle_root;
  /// Commitment to the post-state (account model; zero when unused).
  Hash256 state_root;
  std::uint64_t height = 0;
  std::uint64_t timestamp = 0;  ///< Seconds since chain genesis.
  std::uint64_t gas_used = 0;   ///< Gas the block's transactions used.

  /// Double SHA-256 over the 120-byte encoding: the three roots, then
  /// height, timestamp and gas_used as little-endian u64.
  Hash256 hash() const;
};

/// A block: header plus the ordered transaction list.
template <typename Tx>
struct Block {
  BlockHeader header;
  std::vector<Tx> transactions;

  std::size_t size() const { return transactions.size(); }
};

/// Compute the merkle root over a transaction list.
template <typename Tx>
Hash256 transactions_root(std::span<const Tx> transactions) {
  std::vector<Hash256> leaves;
  leaves.reserve(transactions.size());
  for (const Tx& tx : transactions) {
    leaves.push_back(tx_hash(tx));
  }
  return merkle_root(std::move(leaves));
}

/// The linkage fields of the header that extends `prev` (nullptr for the
/// genesis block): prev_hash, height and timestamp.
inline BlockHeader next_header(const BlockHeader* prev,
                               std::uint64_t timestamp) {
  BlockHeader header;
  header.prev_hash = prev ? prev->hash() : Hash256{};
  header.height = prev ? prev->height + 1 : 0;
  header.timestamp = timestamp;
  return header;
}

/// Assemble a block on top of `prev` (pass nullptr for the genesis block).
template <typename Tx>
Block<Tx> make_block(const BlockHeader* prev, std::vector<Tx> transactions,
                     std::uint64_t timestamp) {
  Block<Tx> block{next_header(prev, timestamp), std::move(transactions)};
  block.header.merkle_root =
      transactions_root(std::span<const Tx>(block.transactions));
  return block;
}

/// An append-only chain of blocks. It owns the block-structure rules
/// (check_header, check); append trusts its caller to have run them.
template <typename Tx>
class Ledger {
 public:
  /// The linkage rules: the header extends the tip (consecutive height,
  /// prev_hash of the tip) and its timestamp does not go backwards. The
  /// first block must have height 0. Throws ValidationError.
  void check_header(const BlockHeader& header) const {
    if (blocks_.empty()) {
      if (header.height != 0) {
        throw ValidationError("first block must have height 0");
      }
      return;
    }
    const BlockHeader& tip_header = blocks_.back().header;
    if (header.height != tip_header.height + 1) {
      throw ValidationError("non-consecutive block height");
    }
    if (header.prev_hash != tip_header.hash()) {
      throw ValidationError("prev_hash does not match tip");
    }
    if (header.timestamp < tip_header.timestamp) {
      throw ValidationError("timestamp going backwards");
    }
  }

  /// Every block-structure rule: check_header plus the header's merkle
  /// root committing to the transaction list. Throws ValidationError.
  void check(const Block<Tx>& block) const {
    check_header(block.header);
    const Hash256 expected =
        transactions_root(std::span<const Tx>(block.transactions));
    if (block.header.merkle_root != expected) {
      throw ValidationError("merkle root mismatch");
    }
  }

  /// Append a block that passed check() against the current tip; nothing
  /// is re-checked here.
  void append(Block<Tx> block) { blocks_.push_back(std::move(block)); }

  std::size_t height() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }

  const Block<Tx>& at(std::size_t height) const {
    if (height >= blocks_.size()) {
      throw UsageError("Ledger::at: height out of range");
    }
    return blocks_[height];
  }

  const Block<Tx>& tip() const {
    if (blocks_.empty()) throw UsageError("Ledger::tip: empty chain");
    return blocks_.back();
  }

  /// Total number of transactions across all blocks.
  std::size_t total_transactions() const {
    std::size_t n = 0;
    for (const auto& b : blocks_) n += b.transactions.size();
    return n;
  }

 private:
  std::vector<Block<Tx>> blocks_;
};

/// Fee-priority mempool. Pending transactions are drained highest-fee-first
/// when a block is assembled, FIFO among equal fees.
template <typename Tx>
class Mempool {
 public:
  /// @param fee  the fee (or gas price) used for ordering.
  void add(Tx tx, std::uint64_t fee) {
    entries_.push_back({std::move(tx), fee, next_seq_++});
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Remove and return up to `max_count` best-paying transactions.
  std::vector<Tx> take(std::size_t max_count) {
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) {
                       if (a.fee != b.fee) return a.fee > b.fee;
                       return a.seq < b.seq;
                     });
    const std::size_t n = std::min(max_count, entries_.size());
    std::vector<Tx> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(entries_[i].tx));
    }
    entries_.erase(entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(n));
    return out;
  }

 private:
  struct Entry {
    Tx tx;
    std::uint64_t fee;
    std::uint64_t seq;
  };
  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace txconc::chain
