#include "workload/account_workload.h"

#include <algorithm>
#include <cmath>

#include "account/contracts.h"
#include "common/error.h"

namespace txconc::workload {

namespace {

constexpr std::uint64_t kUserSeedBase = 0x1000'0000ULL;
constexpr std::uint64_t kExchangeSeedBase = 0x2000'0000ULL;
constexpr std::uint64_t kPoolSeedBase = 0x3000'0000ULL;
constexpr std::uint64_t kContractSeedBase = 0x4000'0000ULL;
constexpr std::uint64_t kSinkSeedBase = 0x5000'0000ULL;

constexpr std::uint64_t kRichBalance = 1'000'000'000'000'000ULL;
constexpr std::uint64_t kLowWater = 1'000'000'000'000ULL;

constexpr unsigned kNumPools = 3;
constexpr unsigned kMaxRelayDepth = 12;

}  // namespace

Address AccountWorkloadGenerator::user_address(std::size_t i) {
  return Address::from_seed(kUserSeedBase + i);
}

Address AccountWorkloadGenerator::exchange_address(std::size_t i) {
  return Address::from_seed(kExchangeSeedBase + i);
}

Address AccountWorkloadGenerator::pool_address(std::size_t i) {
  return Address::from_seed(kPoolSeedBase + i);
}

AccountWorkloadGenerator::AccountWorkloadGenerator(ChainProfile profile,
                                                   std::uint64_t seed,
                                                   std::uint64_t num_blocks)
    : profile_(std::move(profile)),
      rng_(seed),
      num_blocks_(num_blocks == 0 ? profile_.default_blocks : num_blocks) {
  if (profile_.model != DataModel::kAccount) {
    throw UsageError("AccountWorkloadGenerator needs an account-model profile");
  }
  deploy_contracts(profile_.at(0.0));
  state_.flush_journal();
}

void AccountWorkloadGenerator::deploy_contracts(const EraParams& genesis_era) {
  using account::contracts::auction;
  using account::contracts::crowdsale;
  using account::contracts::relay;
  using account::contracts::storage_churn;
  using account::contracts::token;

  const unsigned count = std::max(4u, genesis_era.num_contracts);
  contracts_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    const Address addr = Address::from_seed(kContractSeedBase + i);
    DeployedContract deployed{addr, ContractKind::kToken, 0};
    switch (i % 4) {
      case 0: {
        // Relay chain: addr -> hop1 -> ... -> sink. Short chains are
        // common; a few deep ones exist for internal-tx storms.
        // Guarantee a few deep chains for storm eras; most are short.
        const unsigned depth =
            (i < 4)    ? 1 + i % 3
            : (i == 4) ? 8
            : (i == 8) ? kMaxRelayDepth
                       : 1 + static_cast<unsigned>(rng_.uniform(4));
        // Deep chains converge on a shared backend hub (DeFi-style: many
        // frontends, one popular backend) — conflicts that only internal
        // transactions reveal, invisible to the regular-only TDG.
        const Address next_base =
            depth >= 5 ? Address::from_seed(kSinkSeedBase + 0xbb)
                       : Address::from_seed(kSinkSeedBase + i);
        Address next = next_base;
        for (unsigned hop = depth; hop > 1; --hop) {
          const Address hop_addr =
              Address::from_seed(kContractSeedBase + 0x10000ULL + i * 64 + hop);
          account::genesis_deploy(state_, hop_addr, relay(next));
          next = hop_addr;
        }
        account::genesis_deploy(state_, addr, relay(next));
        deployed.kind = ContractKind::kRelayChain;
        deployed.relay_depth = depth;
        break;
      }
      case 1:
        // Owner and beneficiaries are dedicated sink addresses — using an
        // exchange here would spuriously merge contract components with
        // exchange components.
        account::genesis_deploy(
            state_, addr, token(Address::from_seed(kSinkSeedBase + 0x900 + i)));
        deployed.kind = ContractKind::kToken;
        break;
      case 2:
        if (i % 8 == 6) {
          // ICO-style auctions: every bidder conflicts through the hot
          // contract, and losing bids revert on-chain.
          account::genesis_deploy(
              state_, addr,
              auction(Address::from_seed(kSinkSeedBase + 0xc00 + i)));
          deployed.kind = ContractKind::kAuction;
        } else {
          // Crowdsales forward to one of two escrow services — another
          // shared-backend pattern visible only through internal
          // transfers.
          account::genesis_deploy(
              state_, addr,
              crowdsale(Address::from_seed(kSinkSeedBase + 0xa00 + i % 2)));
          deployed.kind = ContractKind::kCrowdsale;
        }
        break;
      default:
        account::genesis_deploy(state_, addr, storage_churn());
        deployed.kind = ContractKind::kChurn;
        break;
    }
    contracts_.push_back(deployed);
  }
}

const ZipfSampler& AccountWorkloadGenerator::user_sampler(
    std::size_t num_users) {
  num_users = std::max<std::size_t>(num_users, 2);
  const double current = static_cast<double>(sampled_users_);
  const double wanted = static_cast<double>(num_users);
  if (!users_ || std::abs(current - wanted) / wanted > 0.05) {
    const double exponent = user_zipf_;
    users_ = std::make_unique<ZipfSampler>(num_users, exponent);
    sampled_users_ = num_users;
  }
  return *users_;
}

Address AccountWorkloadGenerator::pick_user(const EraParams& era,
                                            Category category) {
  user_zipf_ = era.user_zipf;
  const ZipfSampler& sampler =
      user_sampler(static_cast<std::size_t>(era.num_users));
  const std::size_t rank = sampler.sample(rng_);
  // Whales participate in every traffic category and bridge components.
  if (category == Category::kWhale || rng_.bernoulli(era.population_overlap)) {
    return user_address(rank);
  }
  const std::uint64_t offset =
      static_cast<std::uint64_t>(category) * 0x0100'0000ULL;
  return user_address(offset + rank);
}

Address AccountWorkloadGenerator::pick_user_in_shard(const EraParams& era,
                                                     Category category,
                                                     unsigned shard) {
  if (profile_.num_shards == 0) return pick_user(era, category);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const Address candidate = pick_user(era, category);
    if (shard_of(candidate, profile_.num_shards) == shard) {
      return candidate;
    }
  }
  // Population too small to contain the shard; fall back (rare).
  return pick_user(era, category);
}

void AccountWorkloadGenerator::top_up(const Address& addr) {
  if (state_.balance(addr) < kLowWater) {
    state_.set_balance(addr, kRichBalance);
    state_.flush_journal();
  }
}

account::AccountTx AccountWorkloadGenerator::make_p2p(const EraParams& era) {
  account::AccountTx tx;
  tx.from = pick_user(era, Category::kP2p);
  if (profile_.num_shards != 0) {
    tx.to = pick_user_in_shard(era, Category::kP2p,
                               shard_of(tx.from, profile_.num_shards));
  } else {
    tx.to = pick_user(era, Category::kP2p);
  }
  tx.value = 1 + rng_.uniform(1'000'000);
  tx.gas_limit = 22000;
  return tx;
}

account::AccountTx AccountWorkloadGenerator::make_exchange_deposit(
    const EraParams& era) {
  account::AccountTx tx;
  tx.from = pick_user(era, Category::kDepositor);
  // One dominant exchange (Poloniex-style), the rest splitting the tail.
  const unsigned n = std::max(1u, era.num_exchanges);
  unsigned pick = rng_.bernoulli(0.5)
                      ? 0
                      : 1 + static_cast<unsigned>(rng_.uniform(std::max(1u, n - 1)));
  if (pick >= n) pick = 0;
  if (profile_.num_shards != 0) {
    // Zilliqa exchanges operate one deposit address per committee; users
    // deposit at the one within their own shard. Scan past the first n
    // indices to find an address landing in the right committee.
    const unsigned shard = shard_of(tx.from, profile_.num_shards);
    for (unsigned j = pick;; ++j) {
      if (shard_of(exchange_address(j), profile_.num_shards) == shard) {
        pick = j;
        break;
      }
    }
  }
  tx.to = exchange_address(pick);
  tx.value = 1 + rng_.uniform(10'000'000);
  tx.gas_limit = 22000;
  return tx;
}

account::AccountTx AccountWorkloadGenerator::make_pool_payout(
    const EraParams& era) {
  account::AccountTx tx;
  tx.from = pool_address(rng_.uniform(kNumPools));
  tx.to = pick_user(era, Category::kPoolRecipient);
  if (profile_.num_shards != 0) {
    tx.to = pick_user_in_shard(era, Category::kPoolRecipient,
                               shard_of(tx.from, profile_.num_shards));
  }
  tx.value = 1 + rng_.uniform(100'000);
  tx.gas_limit = 22000;
  return tx;
}

account::AccountTx AccountWorkloadGenerator::make_contract_call(
    const EraParams& era) {
  account::AccountTx tx;
  tx.from = pick_user(era, Category::kCaller);

  // Storms route calls to the deepest relay chains available.
  const bool storm = era.storm_factor > 0.0 && rng_.bernoulli(era.storm_factor);
  const DeployedContract* chosen = nullptr;
  if (storm) {
    // Storms spread across all deep relay chains rather than hammering a
    // single contract (the 2017 attacks used many attack contracts).
    std::vector<const DeployedContract*> deep;
    for (const auto& c : contracts_) {
      if (c.kind == ContractKind::kRelayChain && c.relay_depth >= 5) {
        deep.push_back(&c);
      }
    }
    if (!deep.empty()) chosen = deep[rng_.uniform(deep.size())];
  }
  if (!chosen) {
    // Zipf-ish popularity over the contract population.
    const std::size_t limit =
        std::min<std::size_t>(contracts_.size(),
                              std::max<unsigned>(era.num_contracts, 4));
    std::size_t index = rng_.uniform(limit);
    if (rng_.bernoulli(0.5)) index = rng_.uniform(std::max<std::size_t>(limit / 4, 1));
    chosen = &contracts_[index];
  }

  tx.to = chosen->address;
  if (profile_.num_shards != 0) {
    // Contracts live in one committee; their callers come from it.
    tx.from = pick_user_in_shard(
        era, Category::kCaller,
        shard_of(chosen->address, profile_.num_shards));
  }
  switch (chosen->kind) {
    case ContractKind::kRelayChain:
      tx.value = 1 + rng_.uniform(10'000);
      tx.args = {rng_.next_u64() % 1000};
      tx.gas_limit = 25000 + 4000ULL * (chosen->relay_depth + 1);
      break;
    case ContractKind::kToken: {
      const Address recipient = pick_user(era, Category::kCaller);
      // Ensure the sender owns tokens so transfers mostly succeed.
      const account::StorageKey key = tx.from.low64();
      if (state_.storage(chosen->address, key) < 1'000'000) {
        state_.set_storage(chosen->address, key, kRichBalance);
        state_.flush_journal();
      }
      tx.args = {1, 1 + rng_.next_u64() % 10'000};
      tx.address_args = {recipient};
      tx.gas_limit = 80000;
      break;
    }
    case ContractKind::kCrowdsale:
      tx.value = 1 + rng_.uniform(1'000'000);
      tx.gas_limit = 80000;
      break;
    case ContractKind::kChurn: {
      const std::uint64_t slots = 3 + rng_.uniform(8);
      tx.args = {slots, rng_.next_u64() % 100000};
      tx.gas_limit = 30000 + slots * 5200;
      break;
    }
    case ContractKind::kAuction: {
      // Rational bidders read the current price and outbid it; a small
      // fraction race each other and revert on-chain.
      const std::uint64_t highest = state_.storage(chosen->address, 0);
      tx.value = highest + 1 + rng_.uniform(10'000);
      if (rng_.bernoulli(0.15)) tx.value = highest;  // stale-price race
      tx.args = {0};
      tx.gas_limit = 80000;
      break;
    }
  }
  return tx;
}

account::AccountTx AccountWorkloadGenerator::make_creation(
    const EraParams& era) {
  account::AccountTx tx;
  tx.from = pick_user(era, Category::kCaller);
  tx.to.reset();
  // Deploy a fresh churn contract (creations are gas-heavy and usually
  // unconflicted: "it is unusual for a single user to create more than one
  // contract per block due to the high cost", paper Section IV-A).
  tx.init_code = account::contracts::storage_churn();
  tx.gas_limit = 21000 + account::creation_gas(runtime_.gas,
                                               tx.init_code.code.size()) +
                 10000;
  ++creation_counter_;
  return tx;
}

GeneratedBlock AccountWorkloadGenerator::next_block() {
  if (height_ >= num_blocks_) {
    throw UsageError("AccountWorkloadGenerator: history exhausted");
  }
  const double position =
      num_blocks_ <= 1 ? 0.0
                       : static_cast<double>(height_) /
                             static_cast<double>(num_blocks_ - 1);
  const EraParams era = profile_.at(position);

  GeneratedBlock result;
  result.height = height_;
  result.model = DataModel::kAccount;

  const double raw =
      rng_.normal(era.txs_per_block, 0.2 * era.txs_per_block + 0.5);
  const std::size_t target = raw <= 0.0 ? 0 : static_cast<std::size_t>(raw + 0.5);

  for (std::size_t i = 0; i < target; ++i) {
    const double u = rng_.uniform_double();
    account::AccountTx tx;
    if (u < era.creation_share) {
      tx = make_creation(era);
    } else if (u < era.creation_share + era.pool_share) {
      tx = make_pool_payout(era);
    } else if (u < era.creation_share + era.pool_share + era.exchange_share) {
      tx = make_exchange_deposit(era);
    } else if (u < era.creation_share + era.pool_share + era.exchange_share +
                       era.contract_share) {
      tx = make_contract_call(era);
    } else {
      tx = make_p2p(era);
    }

    tx.gas_price = 1 + rng_.uniform(50);
    top_up(tx.from);
    tx.nonce = state_.nonce(tx.from);

    account::Receipt receipt = account::apply_transaction(state_, tx, runtime_);
    result.gas_used += receipt.gas_used;
    result.account_txs.push_back(std::move(tx));
    result.receipts.push_back(std::move(receipt));
  }
  state_.flush_journal();

  ++height_;
  return result;
}

}  // namespace txconc::workload
