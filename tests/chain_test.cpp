// Tests for the chain substrate: merkle roots, blocks, ledger, mempool.
#include <gtest/gtest.h>

#include "chain/block.h"
#include "chain/merkle.h"
#include "common/error.h"

namespace txconc::chain {
namespace {

std::vector<Hash256> leaves(std::size_t n) {
  std::vector<Hash256> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(Hash256::from_seed(i));
  return out;
}

// -------------------------------------------------------------------- merkle

TEST(Merkle, EmptyRootIsZero) {
  EXPECT_TRUE(merkle_root({}).is_zero());
}

TEST(Merkle, SingleLeafIsItsOwnRoot) {
  const auto l = leaves(1);
  EXPECT_EQ(merkle_root(l), l[0]);
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  auto l = leaves(5);
  const Hash256 root = merkle_root(l);
  for (std::size_t i = 0; i < l.size(); ++i) {
    auto modified = l;
    modified[i] = Hash256::from_seed(1000 + i);
    EXPECT_NE(merkle_root(modified), root) << "leaf " << i;
  }
}

TEST(Merkle, OddLeafCountDuplicatesLast) {
  // Root over 3 leaves equals root over [a, b, c, c] pair-hashing.
  const auto l3 = leaves(3);
  std::vector<Hash256> l4 = l3;
  l4.push_back(l3[2]);
  EXPECT_EQ(merkle_root(l3), merkle_root(l4));
}

TEST(Merkle, OrderMatters) {
  auto l = leaves(4);
  const Hash256 root = merkle_root(l);
  std::swap(l[0], l[1]);
  EXPECT_NE(merkle_root(l), root);
}

// --------------------------------------------------------------------- block

TEST(Block, HeaderHashCommitsToFields) {
  BlockHeader a;
  a.height = 5;
  BlockHeader b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.gas_used = 1;
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  b.merkle_root = Hash256::from_seed(1);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Block, AccountTxHashDistinguishesFields) {
  account::AccountTx tx;
  tx.from = Address::from_seed(1);
  tx.to = Address::from_seed(2);
  const Hash256 h = tx_hash(tx);

  account::AccountTx other = tx;
  other.value = 5;
  EXPECT_NE(tx_hash(other), h);
  other = tx;
  other.nonce = 9;
  EXPECT_NE(tx_hash(other), h);
  other = tx;
  other.to.reset();
  EXPECT_NE(tx_hash(other), h);
  other = tx;
  other.args = {1};
  EXPECT_NE(tx_hash(other), h);
}

TEST(Block, MakeBlockLinksAndCommits) {
  std::vector<account::AccountTx> txs(3);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    txs[i].from = Address::from_seed(i);
    txs[i].to = Address::from_seed(i + 100);
  }
  const auto genesis = make_block<account::AccountTx>(nullptr, txs, 0);
  EXPECT_EQ(genesis.header.height, 0u);
  EXPECT_TRUE(genesis.header.prev_hash.is_zero());

  const auto next = make_block<account::AccountTx>(&genesis.header, txs, 10);
  EXPECT_EQ(next.header.height, 1u);
  EXPECT_EQ(next.header.prev_hash, genesis.header.hash());
}

TEST(Ledger, CheckValidatesLinkage) {
  std::vector<account::AccountTx> txs(1);
  txs[0].from = Address::from_seed(1);
  txs[0].to = Address::from_seed(2);

  Ledger<account::AccountTx> ledger;
  const auto genesis = make_block<account::AccountTx>(nullptr, txs, 0);
  ledger.check(genesis);
  ledger.append(genesis);
  const auto b1 = make_block<account::AccountTx>(&genesis.header, txs, 5);
  ledger.check(b1);
  ledger.append(b1);
  EXPECT_EQ(ledger.height(), 2u);
  EXPECT_EQ(ledger.total_transactions(), 2u);
  EXPECT_EQ(ledger.tip().header.height, 1u);
  EXPECT_EQ(ledger.at(0).header.height, 0u);

  // Extends an older block than the tip.
  const auto stale = make_block<account::AccountTx>(&genesis.header, txs, 6);
  EXPECT_THROW(ledger.check(stale), ValidationError);

  // Right height, wrong prev hash.
  auto bad = make_block<account::AccountTx>(&b1.header, txs, 6);
  bad.header.prev_hash = genesis.header.hash();
  EXPECT_THROW(ledger.check_header(bad.header), ValidationError);

  // Non-consecutive height.
  auto skip = make_block<account::AccountTx>(&b1.header, txs, 6);
  skip.header.height += 1;
  EXPECT_THROW(ledger.check_header(skip.header), ValidationError);

  // Tampered merkle root: the header alone still links.
  auto b2 = make_block<account::AccountTx>(&b1.header, txs, 6);
  b2.transactions[0].value = 777;
  EXPECT_NO_THROW(ledger.check_header(b2.header));
  EXPECT_THROW(ledger.check(b2), ValidationError);

  // Backwards timestamp, on both the header and the block check; an equal
  // timestamp is allowed.
  const auto b3 = make_block<account::AccountTx>(&b1.header, txs, 2);
  EXPECT_THROW(ledger.check_header(b3.header), ValidationError);
  EXPECT_THROW(ledger.check(b3), ValidationError);
  EXPECT_NO_THROW(
      ledger.check(make_block<account::AccountTx>(&b1.header, txs, 5)));

  // Checks never change the ledger.
  EXPECT_EQ(ledger.height(), 2u);
  EXPECT_EQ(ledger.tip().header.hash(), b1.header.hash());
}

TEST(Ledger, FirstBlockMustBeGenesis) {
  std::vector<account::AccountTx> txs(1);
  txs[0].from = Address::from_seed(1);
  txs[0].to = Address::from_seed(2);
  const auto genesis = make_block<account::AccountTx>(nullptr, txs, 0);
  const auto b1 = make_block<account::AccountTx>(&genesis.header, txs, 5);

  Ledger<account::AccountTx> ledger;
  EXPECT_THROW(ledger.check(b1), ValidationError);
  EXPECT_NO_THROW(ledger.check(genesis));
  EXPECT_THROW(ledger.tip(), UsageError);
}

// ------------------------------------------------------------------- mempool

TEST(Mempool, TakesHighestFeeFirst) {
  Mempool<int> pool;
  pool.add(1, 10);
  pool.add(2, 30);
  pool.add(3, 20);
  const auto taken = pool.take(2);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0], 2);
  EXPECT_EQ(taken[1], 3);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, FifoAmongEqualFees) {
  Mempool<int> pool;
  pool.add(1, 10);
  pool.add(2, 10);
  pool.add(3, 10);
  const auto taken = pool.take(3);
  EXPECT_EQ(taken, (std::vector<int>{1, 2, 3}));
}

TEST(Mempool, TakeMoreThanAvailable) {
  Mempool<int> pool;
  pool.add(1, 5);
  const auto taken = pool.take(10);
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_TRUE(pool.empty());
}

}  // namespace
}  // namespace txconc::chain
