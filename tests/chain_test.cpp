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

// ------------------------------------------------------------ golden digests
//
// Pinned hex values of the canonical encodings. The inequality tests above
// cannot see a drift that changes every digest at once (a reordered field,
// a different length prefix, a wrong byte order); these can.

account::AccountTx golden_transfer() {
  account::AccountTx tx;
  tx.from = Address::from_seed(1);
  tx.to = Address::from_seed(2);
  tx.value = 1000;
  tx.gas_limit = 21000;
  tx.gas_price = 3;
  tx.nonce = 7;
  return tx;
}

account::AccountTx golden_call() {
  account::AccountTx tx = golden_transfer();
  tx.to = Address::from_seed(3);
  tx.value = 0;
  tx.args = {1, 2, 0xdeadbeefcafef00dULL};
  tx.address_args = {Address::from_seed(4), Address::from_seed(5)};
  return tx;
}

account::AccountTx golden_creation() {
  account::AccountTx tx = golden_transfer();
  tx.to.reset();
  tx.value = 5;
  for (std::uint8_t b = 0; b < 70; ++b) {
    tx.init_code.code.push_back(static_cast<std::uint8_t>(b * 7 + 1));
  }
  tx.init_code.address_table = {Address::from_seed(6), Address::from_seed(7)};
  return tx;
}

// A deterministic mix of transfers, calls and creations whose encodings
// span several SHA-256 block boundaries.
std::vector<account::AccountTx> generated_txs(std::size_t n) {
  std::vector<account::AccountTx> txs(n);
  for (std::size_t i = 0; i < n; ++i) {
    account::AccountTx& tx = txs[i];
    tx.from = Address::from_seed(i % 17);
    if (i % 5 != 0) tx.to = Address::from_seed(100 + i);
    tx.value = i * 31;
    tx.gas_limit = 21000 + i;
    tx.gas_price = 1 + i % 9;
    tx.nonce = i / 17;
    for (std::size_t k = 0; k < i % 4; ++k) tx.args.push_back(i * 1000 + k);
    for (std::size_t k = 0; k < i % 3; ++k) {
      tx.address_args.push_back(Address::from_seed(500 + i + k));
    }
    if (!tx.to) {
      for (std::size_t k = 0; k < i % 70; ++k) {
        tx.init_code.code.push_back(static_cast<std::uint8_t>(i + k));
      }
      tx.init_code.address_table.push_back(Address::from_seed(900 + i));
    }
  }
  return txs;
}

TEST(Golden, TxHashes) {
  EXPECT_EQ(tx_hash(golden_transfer()).to_hex(),
            "101e6f141d499d38a1d21b1231ec30d7ed67bff1fc4057a4de879b42c96fe9bf");
  EXPECT_EQ(tx_hash(golden_call()).to_hex(),
            "add8d995376ab2b81556cbb9a3367e6798a07d71d5fab240c37d48c007f799c4");
  EXPECT_EQ(tx_hash(golden_creation()).to_hex(),
            "edbea5eb777e5f9696a758d25a3378cbaf0da4263ecd9ebe55c256dae7a5071c");
}

TEST(Golden, TransactionsRoots) {
  const auto root = [](std::size_t n) {
    const auto txs = generated_txs(n);
    return transactions_root(std::span<const account::AccountTx>(txs))
        .to_hex();
  };
  EXPECT_EQ(root(1),
            "c0a4afbc825b8fe21df85d0f7eec7cfc5e3cafff3f86a84936a6d111349a02ac");
  EXPECT_EQ(root(2),
            "7db4303e0badfb60109003e2b9d6fd286d568982b3126b25da9b349eca27da9c");
  EXPECT_EQ(root(3),
            "2a8bd3c2b284b36e4b11903874ea8ecf426837b881d1a5185c27192942637ebc");
  EXPECT_EQ(root(400),
            "d2ce44eaa75e7e02a82c25e354ac433f2668931aec1efc20f9050c9e97243a26");
}

TEST(Golden, HeaderHash) {
  BlockHeader h;
  h.prev_hash = Hash256::from_seed(11);
  h.merkle_root = Hash256::from_seed(12);
  h.state_root = Hash256::from_seed(13);
  h.height = 0x0102030405060708ULL;
  h.timestamp = 1600000000;
  h.gas_used = 12345678;
  EXPECT_EQ(h.hash().to_hex(),
            "5526216932bab71daa6b9bdb15d45d1019c274ede357bec9881c5110bde2aeb6");
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
