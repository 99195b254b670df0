// Tests for the synthetic chain generators: structural validity,
// determinism, and calibration against the paper's measured rates.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "analysis/paper_reference.h"
#include "analysis/series.h"
#include "common/error.h"
#include "workload/account_workload.h"
#include "workload/profiles.h"
#include "workload/utxo_workload.h"

namespace txconc::workload {
namespace {

// ------------------------------------------------------------------ profiles

TEST(Profile, InterpolationBetweenEras) {
  ChainProfile p;
  p.name = "test";
  EraParams a;
  a.position = 0.0;
  a.txs_per_block = 10.0;
  EraParams b;
  b.position = 1.0;
  b.txs_per_block = 30.0;
  p.eras = {a, b};

  EXPECT_DOUBLE_EQ(p.at(0.0).txs_per_block, 10.0);
  EXPECT_DOUBLE_EQ(p.at(0.5).txs_per_block, 20.0);
  EXPECT_DOUBLE_EQ(p.at(1.0).txs_per_block, 30.0);
  // Clamped beyond the ends.
  EXPECT_DOUBLE_EQ(p.at(-1.0).txs_per_block, 10.0);
  EXPECT_DOUBLE_EQ(p.at(2.0).txs_per_block, 30.0);
}

TEST(Profile, EmptyErasThrow) {
  ChainProfile p;
  EXPECT_THROW(p.at(0.5), UsageError);
}

TEST(Profile, YearMapping) {
  ChainProfile p;
  p.start_year = 2010.0;
  p.end_year = 2020.0;
  EXPECT_DOUBLE_EQ(p.year_at(0.5), 2015.0);
}

TEST(Profiles, AllSevenInTableOrder) {
  const auto profiles = all_profiles();
  ASSERT_EQ(profiles.size(), 7u);
  EXPECT_EQ(profiles[0].name, "Bitcoin");
  EXPECT_EQ(profiles[4].name, "Ethereum");
  EXPECT_EQ(profiles[6].name, "Zilliqa");
  for (const auto& p : profiles) {
    ASSERT_FALSE(p.eras.empty()) << p.name;
    EXPECT_DOUBLE_EQ(p.eras.front().position, 0.0) << p.name;
    EXPECT_DOUBLE_EQ(p.eras.back().position, 1.0) << p.name;
    EXPECT_GT(p.default_blocks, 0u) << p.name;
  }
  // Table I facts.
  EXPECT_EQ(profiles[6].consensus, "PoW+Sharding");
  EXPECT_EQ(profiles[6].num_shards, 2u);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (i != 6) {
      EXPECT_EQ(profiles[i].num_shards, 0u) << profiles[i].name;
    }
  }
  EXPECT_FALSE(profiles[0].smart_contracts);
  EXPECT_TRUE(profiles[4].smart_contracts);
}

// ------------------------------------------------------------- UTXO generator

TEST(UtxoWorkload, RejectsAccountProfile) {
  EXPECT_THROW(UtxoWorkloadGenerator(ethereum_profile(), 1), UsageError);
}

TEST(UtxoWorkload, DeterministicAcrossRuns) {
  UtxoWorkloadGenerator a(bitcoin_profile(), 42, 20);
  UtxoWorkloadGenerator b(bitcoin_profile(), 42, 20);
  for (int i = 0; i < 20; ++i) {
    const GeneratedBlock ba = a.next_block();
    const GeneratedBlock bb = b.next_block();
    ASSERT_EQ(ba.utxo_txs.size(), bb.utxo_txs.size()) << i;
    for (std::size_t t = 0; t < ba.utxo_txs.size(); ++t) {
      EXPECT_EQ(ba.utxo_txs[t].txid(), bb.utxo_txs[t].txid());
    }
  }
}

TEST(UtxoWorkload, DifferentSeedsDiffer) {
  UtxoWorkloadGenerator a(bitcoin_profile(), 1, 10);
  UtxoWorkloadGenerator b(bitcoin_profile(), 2, 10);
  bool any_difference = false;
  for (int i = 0; i < 10; ++i) {
    if (a.next_block().utxo_txs.size() != b.next_block().utxo_txs.size()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(UtxoWorkload, CoinbaseFirstAndParentsPrecedeChildren) {
  UtxoWorkloadGenerator gen(bitcoin_cash_profile(), 7, 30);
  for (int i = 0; i < 30; ++i) {
    const GeneratedBlock block = gen.next_block();
    ASSERT_FALSE(block.utxo_txs.empty());
    EXPECT_TRUE(block.utxo_txs[0].is_coinbase());

    std::unordered_map<Hash256, std::size_t> position;
    for (std::size_t t = 0; t < block.utxo_txs.size(); ++t) {
      position[block.utxo_txs[t].txid()] = t;
    }
    for (std::size_t t = 1; t < block.utxo_txs.size(); ++t) {
      EXPECT_FALSE(block.utxo_txs[t].is_coinbase());
      for (const auto& in : block.utxo_txs[t].inputs()) {
        const auto it = position.find(in.prevout.txid);
        if (it != position.end()) {
          EXPECT_LT(it->second, t) << "child before parent in block " << i;
        }
      }
    }
  }
}

TEST(UtxoWorkload, ValueConservationFeeFree) {
  UtxoWorkloadGenerator gen(litecoin_profile(), 3, 40);
  std::uint64_t blocks = 0;
  while (blocks < 40) {
    gen.next_block();
    ++blocks;
  }
  // Fee-free generation: total unspent value == sum of coinbase subsidies.
  EXPECT_EQ(gen.utxo_set().total_value(), blocks * 50'0000'0000ULL);
}

TEST(UtxoWorkload, ScriptsModeValidates) {
  UtxoWorkloadOptions options;
  options.with_scripts = true;
  UtxoWorkloadGenerator gen(litecoin_profile(), 3, 10, options);
  // Script validation happens inside apply(); reaching the end without a
  // ValidationError means every P2PKH unlock verified.
  std::size_t txs = 0;
  for (int i = 0; i < 10; ++i) {
    txs += gen.next_block().utxo_txs.size();
  }
  EXPECT_GT(txs, 10u);
}

TEST(UtxoWorkload, ExhaustionThrows) {
  UtxoWorkloadGenerator gen(litecoin_profile(), 3, 2);
  gen.next_block();
  gen.next_block();
  EXPECT_THROW(gen.next_block(), UsageError);
}

TEST(UtxoWorkload, InputTxoCountMatchesInputs) {
  UtxoWorkloadGenerator gen(bitcoin_cash_profile(), 9, 5);
  for (int i = 0; i < 5; ++i) {
    const GeneratedBlock block = gen.next_block();
    std::size_t inputs = 0;
    for (const auto& tx : block.utxo_txs) inputs += tx.inputs().size();
    EXPECT_EQ(block.num_input_txos, inputs);
  }
}

// ---------------------------------------------------------- account generator

TEST(AccountWorkload, RejectsUtxoProfile) {
  EXPECT_THROW(AccountWorkloadGenerator(bitcoin_profile(), 1), UsageError);
}

TEST(AccountWorkload, DeterministicAcrossRuns) {
  AccountWorkloadGenerator a(ethereum_classic_profile(), 42, 10);
  AccountWorkloadGenerator b(ethereum_classic_profile(), 42, 10);
  for (int i = 0; i < 10; ++i) {
    const GeneratedBlock ba = a.next_block();
    const GeneratedBlock bb = b.next_block();
    ASSERT_EQ(ba.account_txs.size(), bb.account_txs.size());
    EXPECT_EQ(ba.gas_used, bb.gas_used);
    for (std::size_t t = 0; t < ba.account_txs.size(); ++t) {
      EXPECT_EQ(ba.account_txs[t].from, bb.account_txs[t].from);
      EXPECT_EQ(ba.receipts[t].gas_used, bb.receipts[t].gas_used);
    }
  }
  EXPECT_EQ(a.state().digest(), b.state().digest());
}

TEST(AccountWorkload, ReceiptsParallelTransactions) {
  AccountWorkloadGenerator gen(ethereum_profile(), 5, 8);
  for (int i = 0; i < 8; ++i) {
    const GeneratedBlock block = gen.next_block();
    EXPECT_EQ(block.receipts.size(), block.account_txs.size());
    std::uint64_t gas = 0;
    for (const auto& r : block.receipts) gas += r.gas_used;
    EXPECT_EQ(block.gas_used, gas);
  }
}

TEST(AccountWorkload, NoncesSequentialPerSender) {
  AccountWorkloadGenerator gen(ethereum_classic_profile(), 5, 15);
  std::unordered_map<Address, std::uint64_t> next_nonce;
  for (int i = 0; i < 15; ++i) {
    const GeneratedBlock block = gen.next_block();
    for (const auto& tx : block.account_txs) {
      const auto it = next_nonce.find(tx.from);
      if (it != next_nonce.end()) {
        EXPECT_EQ(tx.nonce, it->second);
      }
      next_nonce[tx.from] = tx.nonce + 1;
    }
  }
}

TEST(AccountWorkload, ProducesInternalTransactions) {
  AccountWorkloadGenerator gen(ethereum_profile(), 5, 30);
  std::size_t internal = 0;
  std::size_t regular = 0;
  for (int i = 0; i < 30; ++i) {
    const GeneratedBlock block = gen.next_block();
    regular += block.num_regular_txs();
    internal += block.num_total_txs() - block.num_regular_txs();
  }
  EXPECT_GT(regular, 0u);
  // Hot wallets, relays and payouts all trace internal transactions.
  EXPECT_GT(internal, regular / 20);
}

TEST(AccountWorkload, MostExecutionsSucceed) {
  AccountWorkloadGenerator gen(ethereum_profile(), 5, 20);
  std::size_t ok = 0;
  std::size_t failed = 0;
  for (int i = 0; i < 20; ++i) {
    for (const auto& r : gen.next_block().receipts) {
      (r.success ? ok : failed) += 1;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_LT(failed, (ok + failed) / 20 + 5);  // < ~5% failures
}

TEST(AccountWorkload, CreationsDeployCode) {
  AccountWorkloadGenerator gen(ethereum_profile(), 5, 40);
  std::size_t creations = 0;
  for (int i = 0; i < 40; ++i) {
    const GeneratedBlock block = gen.next_block();
    for (std::size_t t = 0; t < block.account_txs.size(); ++t) {
      if (!block.account_txs[t].is_creation()) continue;
      ++creations;
      ASSERT_TRUE(block.receipts[t].created.has_value());
      EXPECT_NE(gen.state().code(*block.receipts[t].created), nullptr);
      // Creations are gas-heavy (the gas-weighted argument of Fig. 4b).
      EXPECT_GT(block.receipts[t].gas_used, 50000u);
    }
  }
  EXPECT_GT(creations, 0u);
}

// ------------------------------------------------------------------ sharding

/// A transaction is cross-shard when sender and receiver map to different
/// committees (creations count as same-shard: the new address is derived
/// but processed at the sender's committee).
bool is_cross_shard(const account::AccountTx& tx, unsigned num_shards) {
  if (!tx.to.has_value()) return false;
  return shard_of(tx.from, num_shards) != shard_of(*tx.to, num_shards);
}

TEST(Sharding, AssignmentDeterministicAndInRange) {
  for (std::uint64_t s = 0; s < 100; ++s) {
    const Address a = Address::from_seed(s);
    const unsigned shard = shard_of(a, 4);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, shard_of(a, 4));
  }
  EXPECT_THROW(shard_of(Address::from_seed(1), 0), UsageError);
}

TEST(Sharding, AssignmentRoughlyBalanced) {
  std::vector<int> counts(4, 0);
  for (std::uint64_t s = 0; s < 4000; ++s) {
    ++counts[shard_of(Address::from_seed(s), 4)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 1000, 150);
  }
}

TEST(Sharding, CrossShardDetection) {
  // Find two addresses in the same shard and two in different shards.
  const Address a = Address::from_seed(1);
  Address same;
  Address different;
  for (std::uint64_t s = 2;; ++s) {
    const Address b = Address::from_seed(s);
    if (shard_of(b, 4) == shard_of(a, 4)) {
      same = b;
      break;
    }
  }
  for (std::uint64_t s = 2;; ++s) {
    const Address b = Address::from_seed(s);
    if (shard_of(b, 4) != shard_of(a, 4)) {
      different = b;
      break;
    }
  }
  account::AccountTx intra;
  intra.from = a;
  intra.to = same;
  EXPECT_FALSE(is_cross_shard(intra, 4));

  account::AccountTx cross;
  cross.from = a;
  cross.to = different;
  EXPECT_TRUE(is_cross_shard(cross, 4));

  account::AccountTx creation;
  creation.from = a;
  EXPECT_FALSE(is_cross_shard(creation, 4));
}

TEST(AccountWorkload, ZilliqaTransactionsAreSameShard) {
  const ChainProfile profile = zilliqa_profile();
  AccountWorkloadGenerator gen(profile, 5, 20);
  std::size_t cross = 0;
  std::size_t total = 0;
  for (int i = 0; i < 20; ++i) {
    for (const auto& tx : gen.next_block().account_txs) {
      ++total;
      if (is_cross_shard(tx, profile.num_shards)) ++cross;
    }
  }
  ASSERT_GT(total, 0u);
  // Contract calls may target other shards' contracts; user payments and
  // deposits stay within the sender's committee.
  EXPECT_LT(static_cast<double>(cross) / total, 0.15);
}

// ----------------------------------------------------------------- calibration

/// Late-history window statistics (last ~15% of blocks, tx-weighted).
struct LateStats {
  double single_rate = 0.0;
  double group_rate = 0.0;
  double txs_per_block = 0.0;
};

LateStats late_stats(const analysis::ChainSeries& series) {
  LateStats out;
  WeightedMean single;
  WeightedMean group;
  RunningStats txs;
  auto tail = [](const std::vector<SeriesPoint>& v, auto&& fn) {
    const std::size_t from = v.size() - std::max<std::size_t>(1, v.size() / 6);
    for (std::size_t i = from; i < v.size(); ++i) fn(v[i]);
  };
  tail(series.single_rate_txw,
       [&](const SeriesPoint& p) { single.add(p.value, p.weight); });
  tail(series.group_rate_txw,
       [&](const SeriesPoint& p) { group.add(p.value, p.weight); });
  tail(series.regular_txs, [&](const SeriesPoint& p) { txs.add(p.value); });
  out.single_rate = single.mean();
  out.group_rate = group.mean();
  out.txs_per_block = txs.mean();
  return out;
}

analysis::ChainSeries collect(const ChainProfile& profile) {
  std::unique_ptr<HistoryGenerator> gen;
  if (profile.model == DataModel::kUtxo) {
    gen = std::make_unique<UtxoWorkloadGenerator>(profile, 20200714);
  } else {
    gen = std::make_unique<AccountWorkloadGenerator>(profile, 20200714);
  }
  return analysis::collect_series(*gen, {.num_buckets = 40});
}

class Calibration : public ::testing::TestWithParam<int> {};

TEST_P(Calibration, LateHistoryMatchesPaperTargets) {
  const auto profiles = all_profiles();
  const auto targets = analysis::chain_targets();
  const int index = GetParam();
  const ChainProfile& profile = profiles[index];
  const analysis::ChainTargets& target = targets[index];
  ASSERT_EQ(profile.name, target.chain);

  const analysis::ChainSeries series = collect(profile);
  const LateStats late = late_stats(series);

  EXPECT_NEAR(late.single_rate, target.single_rate_late,
              target.single_rate_tolerance)
      << profile.name;
  EXPECT_NEAR(late.group_rate, target.group_rate_late,
              target.group_rate_tolerance)
      << profile.name;
  // Transactions per block within a factor ~2 of the paper's magnitude.
  EXPECT_GT(late.txs_per_block, target.txs_per_block_late / 2.0);
  EXPECT_LT(late.txs_per_block, target.txs_per_block_late * 2.0);
  // Universal invariant: group rate cannot exceed single rate.
  EXPECT_LE(series.overall_group_rate, series.overall_single_rate + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllChains, Calibration, ::testing::Range(0, 7));

TEST(Calibration, PaperTrendsHold) {
  const analysis::ChainSeries eth = collect(ethereum_profile());
  const analysis::ChainSeries etc = collect(ethereum_classic_profile());
  const analysis::ChainSeries btc = collect(bitcoin_profile());
  const analysis::ChainSeries bch = collect(bitcoin_cash_profile());

  // Fig. 4: Ethereum conflict rates decline over time.
  EXPECT_GT(eth.single_rate_txw.front().value,
            eth.single_rate_txw.back().value);
  EXPECT_GT(eth.group_rate_txw.front().value,
            eth.group_rate_txw.back().value);

  // Fig. 8: Ethereum Classic has far fewer transactions but higher rates.
  EXPECT_GT(eth.regular_txs.back().value, 5 * etc.regular_txs.back().value);
  EXPECT_GT(etc.single_rate_txw.back().value,
            eth.single_rate_txw.back().value);
  EXPECT_GT(etc.group_rate_txw.back().value,
            eth.group_rate_txw.back().value);

  // Fig. 9: Bitcoin Cash has fewer transactions than Bitcoin but higher
  // conflict rates.
  EXPECT_GT(btc.regular_txs.back().value, 2 * bch.regular_txs.back().value);
  EXPECT_GT(bch.overall_single_rate, btc.overall_single_rate);
  EXPECT_GT(bch.overall_group_rate, btc.overall_group_rate);

  // Fig. 7: UTXO rates below account rates.
  EXPECT_LT(btc.overall_single_rate, eth.overall_single_rate);
  EXPECT_LT(btc.overall_group_rate, eth.overall_group_rate);
}

TEST(Calibration, EthereumGasWeightedSingleRateBelowTxWeightedEarly) {
  // Fig. 4b: the gas-weighted conflict rate sits below the tx-weighted one
  // in the early years (contract creations are gas-heavy & unconflicted).
  const analysis::ChainSeries eth = collect(ethereum_profile());
  ASSERT_FALSE(eth.single_rate_gasw.empty());
  WeightedMean txw_early;
  WeightedMean gasw_early;
  for (std::size_t i = 0; i < eth.single_rate_txw.size() / 3; ++i) {
    txw_early.add(eth.single_rate_txw[i].value, eth.single_rate_txw[i].weight);
  }
  for (std::size_t i = 0; i < eth.single_rate_gasw.size() / 3; ++i) {
    gasw_early.add(eth.single_rate_gasw[i].value,
                   eth.single_rate_gasw[i].weight);
  }
  EXPECT_LT(gasw_early.mean(), txw_early.mean());
}

}  // namespace
}  // namespace txconc::workload
