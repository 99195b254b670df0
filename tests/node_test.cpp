// Tests for the full-node integration layer.
#include <gtest/gtest.h>

#include "account/contracts.h"
#include "chain/node.h"
#include "common/error.h"
#include "exec/executor.h"

namespace txconc::chain {
namespace {

Address addr(std::uint64_t seed) { return Address::from_seed(seed); }

account::AccountTx make_tx(const Address& from, const Address& to,
                           std::uint64_t value, std::uint64_t nonce,
                           std::uint64_t gas_price = 1) {
  account::AccountTx tx;
  tx.from = from;
  tx.to = to;
  tx.value = value;
  tx.nonce = nonce;
  tx.gas_limit = 30000;
  tx.gas_price = gas_price;
  return tx;
}

class AccountNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_.genesis_fund(addr(1), 10'000'000);
    node_.genesis_fund(addr(2), 10'000'000);
  }

  AccountNode node_;
};

TEST_F(AccountNodeTest, ProduceAppliesTransactions) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1000, 0));
  node_.submit_transaction(make_tx(addr(2), addr(3), 500, 0));
  EXPECT_EQ(node_.mempool_size(), 2u);

  const auto block = node_.produce_block(100);
  EXPECT_EQ(block.transactions.size(), 2u);
  EXPECT_EQ(block.header.height, 0u);
  EXPECT_GT(block.header.gas_used, 0u);
  EXPECT_EQ(node_.state().balance(addr(3)), 1500u);
  EXPECT_EQ(node_.mempool_size(), 0u);
  EXPECT_EQ(node_.ledger().height(), 1u);
}

TEST_F(AccountNodeTest, MempoolOrdersByGasPrice) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0, /*gas_price=*/1));
  node_.submit_transaction(make_tx(addr(2), addr(4), 1, 0, /*gas_price=*/50));
  const auto block = node_.produce_block(1);
  ASSERT_EQ(block.transactions.size(), 2u);
  EXPECT_EQ(block.transactions[0].from, addr(2));  // higher gas price first
}

TEST_F(AccountNodeTest, RejectsInadmissibleTransactions) {
  // Past nonce.
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0));
  node_.produce_block(1);
  EXPECT_THROW(node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0)),
               ValidationError);
  // Unaffordable.
  EXPECT_THROW(node_.submit_transaction(
                   make_tx(addr(9), addr(3), 1'000'000, 0)),
               ValidationError);
  // Gas limit above block gas limit.
  account::AccountTx huge = make_tx(addr(1), addr(3), 1, 1);
  huge.gas_limit = node_.config().block_gas_limit + 1;
  EXPECT_THROW(node_.submit_transaction(std::move(huge)), ValidationError);
  // Gas limit below intrinsic.
  account::AccountTx tiny = make_tx(addr(1), addr(3), 1, 1);
  tiny.gas_limit = 100;
  EXPECT_THROW(node_.submit_transaction(std::move(tiny)), ValidationError);
  // Max fee past uint64: gas_limit * gas_price = 2^64 must not wrap to an
  // affordable 0 (the refund would then mint the sender a fortune).
  account::AccountTx overflow = make_tx(addr(1), addr(3), 1, 1);
  overflow.gas_limit = 65536;
  overflow.gas_price = std::uint64_t{1} << 48;
  EXPECT_THROW(node_.submit_transaction(std::move(overflow)), ValidationError);
  EXPECT_EQ(node_.mempool_size(), 0u);
}

TEST_F(AccountNodeTest, FutureNonceWaitsForPredecessor) {
  // Nonce 1 before nonce 0: the first production round cannot run it.
  node_.submit_transaction(make_tx(addr(1), addr(3), 10, 1));
  const auto b0 = node_.produce_block(1);
  EXPECT_TRUE(b0.transactions.empty());
  EXPECT_EQ(node_.mempool_size(), 1u);  // requeued

  node_.submit_transaction(make_tx(addr(1), addr(3), 10, 0));
  const auto b1 = node_.produce_block(2);
  EXPECT_EQ(b1.transactions.size(), 2u);
  EXPECT_EQ(node_.state().balance(addr(3)), 20u);
}

TEST_F(AccountNodeTest, BlockGasLimitRespected) {
  AccountNodeConfig config;
  // Admission is limit-based (Ethereum-style): each transfer reserves its
  // 30000 gas limit even though it uses only 21000. 71999 admits exactly
  // two (71999 - 2*21000 = 29999 < 30000).
  config.block_gas_limit = 71999;
  AccountNode node(config);
  node.genesis_fund(addr(1), 10'000'000);
  node.genesis_fund(addr(2), 10'000'000);
  node.genesis_fund(addr(3), 10'000'000);
  node.submit_transaction(make_tx(addr(1), addr(9), 1, 0));
  node.submit_transaction(make_tx(addr(2), addr(9), 1, 0));
  node.submit_transaction(make_tx(addr(3), addr(9), 1, 0));

  const auto block = node.produce_block(1);
  EXPECT_EQ(block.transactions.size(), 2u);
  EXPECT_LE(block.header.gas_used, config.block_gas_limit);
  EXPECT_EQ(node.mempool_size(), 1u);  // third tx deferred

  const auto next = node.produce_block(2);
  EXPECT_EQ(next.transactions.size(), 1u);
}

TEST_F(AccountNodeTest, ReceiveBlockValidatesAndApplies) {
  // Producer node creates a block; a fresh validator replays it.
  node_.submit_transaction(make_tx(addr(1), addr(3), 1000, 0));
  const auto block = node_.produce_block(1);

  AccountNode validator;
  validator.genesis_fund(addr(1), 10'000'000);
  validator.genesis_fund(addr(2), 10'000'000);
  validator.receive_block(block);
  EXPECT_EQ(validator.state().digest(), node_.state().digest());
  EXPECT_EQ(validator.ledger().height(), 1u);
}

TEST_F(AccountNodeTest, ReceiveBlockRejectsTampering) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1000, 0));
  const auto block = node_.produce_block(1);

  AccountNode validator;
  validator.genesis_fund(addr(1), 10'000'000);
  validator.genesis_fund(addr(2), 10'000'000);

  // Tampered transaction (merkle mismatch).
  auto tampered = block;
  tampered.transactions[0].value = 999999;
  EXPECT_THROW(validator.receive_block(tampered), ValidationError);

  // Tampered gas commitment.
  auto bad_gas = block;
  bad_gas.header.gas_used += 1;
  // Header change breaks nothing structurally until re-execution compares.
  EXPECT_THROW(validator.receive_block(bad_gas), ValidationError);

  // Tampered state-root commitment.
  auto bad_root = block;
  bad_root.header.state_root = Hash256::from_seed(666);
  EXPECT_THROW(validator.receive_block(bad_root), ValidationError);

  // State must be untouched after rejections.
  EXPECT_EQ(validator.state().balance(addr(3)), 0u);
  EXPECT_EQ(validator.ledger().height(), 0u);

  // The untampered block still applies.
  validator.receive_block(block);
  EXPECT_EQ(validator.ledger().height(), 1u);
}

TEST_F(AccountNodeTest, ReceiveBlockRejectsBadLinkage) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0));
  const auto b0 = node_.produce_block(1);
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 1));
  const auto b1 = node_.produce_block(2);

  AccountNode validator;
  validator.genesis_fund(addr(1), 10'000'000);
  validator.genesis_fund(addr(2), 10'000'000);
  // b1 without b0 does not extend the (empty) tip.
  EXPECT_THROW(validator.receive_block(b1), ValidationError);
  validator.receive_block(b0);
  validator.receive_block(b1);
  EXPECT_EQ(validator.ledger().height(), 2u);
}

// A correctly linked block whose timestamp goes backwards is refused by
// the structural check, before re-execution touches the state.
TEST_F(AccountNodeTest, ReceiveBlockRejectsBackwardTimestampBeforeExecuting) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1000, 0));
  const auto b0 = node_.produce_block(10);
  node_.submit_transaction(make_tx(addr(1), addr(3), 500, 1));
  const auto b1 = node_.produce_block(10);

  AccountNode validator;
  validator.genesis_fund(addr(1), 10'000'000);
  validator.genesis_fund(addr(2), 10'000'000);
  validator.receive_block(b0);
  const Hash256 digest = validator.state().digest();

  // Only the timestamp changes: linkage, merkle root, gas and state-root
  // commitments all still hold.
  auto backwards = b1;
  backwards.header.timestamp = 9;
  EXPECT_THROW(validator.receive_block(backwards), ValidationError);
  EXPECT_EQ(validator.state().digest(), digest);
  EXPECT_EQ(validator.ledger().height(), 1u);

  validator.receive_block(b1);
  EXPECT_EQ(validator.state().digest(), node_.state().digest());
}

// A header whose gas_used exceeds the block gas limit is refused before
// the executor runs: no execution work is spent on a block that cannot
// be appended.
TEST_F(AccountNodeTest, ReceiveBlockRejectsOverLimitHeaderBeforeExecuting) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1000, 0));
  node_.submit_transaction(make_tx(addr(2), addr(3), 500, 0));
  const auto block = node_.produce_block(1);
  ASSERT_EQ(block.header.gas_used, 2u * 21000u);

  AccountNodeConfig config;
  config.block_gas_limit = 30000;
  std::size_t executor_calls = 0;
  AccountNode validator(
      config, [&executor_calls](account::StateDb& state,
                                std::span<const account::AccountTx> txs,
                                const account::RuntimeConfig& runtime) {
        ++executor_calls;
        std::vector<account::Receipt> receipts;
        for (const auto& tx : txs) {
          receipts.push_back(account::apply_transaction(state, tx, runtime));
        }
        return receipts;
      });
  validator.genesis_fund(addr(1), 10'000'000);
  validator.genesis_fund(addr(2), 10'000'000);
  const Hash256 digest = validator.state().digest();

  EXPECT_THROW(validator.receive_block(block), ValidationError);
  EXPECT_EQ(executor_calls, 0u);
  EXPECT_EQ(validator.state().digest(), digest);
  EXPECT_EQ(validator.ledger().height(), 0u);
}

// produce_block refuses a timestamp below the tip's before it takes
// anything from the mempool or executes anything.
TEST_F(AccountNodeTest, ProduceRejectsBackwardTimestampBeforePacking) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1000, 0));
  node_.produce_block(10);
  node_.submit_transaction(make_tx(addr(1), addr(3), 500, 1));
  const Hash256 digest = node_.state().digest();

  EXPECT_THROW(node_.produce_block(9), ValidationError);
  EXPECT_EQ(node_.ledger().height(), 1u);
  EXPECT_EQ(node_.state().digest(), digest);
  EXPECT_EQ(node_.mempool_size(), 1u);

  // The transaction lands in the next well-timed block.
  const auto b1 = node_.produce_block(10);
  EXPECT_EQ(b1.transactions.size(), 1u);
  EXPECT_EQ(node_.ledger().height(), 2u);
}

TEST_F(AccountNodeTest, PluggableParallelExecutorValidates) {
  // A validator that re-executes blocks with the group executor reaches
  // the same state and accepts the producer's gas commitments.
  auto engine = exec::make_group_executor(2);
  AccountNode validator(
      AccountNodeConfig{},
      [&engine](account::StateDb& state,
                std::span<const account::AccountTx> txs,
                const account::RuntimeConfig& config) {
        return engine->execute_block(state, txs, config).receipts;
      });
  validator.genesis_fund(addr(1), 10'000'000);
  validator.genesis_fund(addr(2), 10'000'000);

  for (int round = 0; round < 3; ++round) {
    node_.submit_transaction(
        make_tx(addr(1), addr(3), 10, static_cast<std::uint64_t>(round)));
    node_.submit_transaction(
        make_tx(addr(2), addr(4), 10, static_cast<std::uint64_t>(round)));
    const auto block = node_.produce_block(static_cast<std::uint64_t>(round));
    validator.receive_block(block);
  }
  EXPECT_EQ(validator.state().digest(), node_.state().digest());
}

TEST_F(AccountNodeTest, GenesisAfterStartRejected) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0));
  node_.produce_block(1);
  EXPECT_THROW(node_.genesis_fund(addr(5), 1), UsageError);
  EXPECT_THROW(node_.genesis_deploy(addr(5), {}), UsageError);
}

}  // namespace
}  // namespace txconc::chain
