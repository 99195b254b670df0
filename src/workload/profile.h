// Chain workload profiles: era-parameterised behavioural knobs.
//
// A profile describes *why* a chain's blocks look the way they do (user
// population, exchange concentration, contract usage, sweep behaviour);
// conflict rates then emerge from generated blocks rather than being set
// directly. Profiles are calibrated against the paper's measured series
// (Figures 4, 5, 7, 8, 9) — see src/workload/profiles.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"

namespace txconc::workload {

/// The two data models of Table I.
enum class DataModel : std::uint8_t { kUtxo, kAccount };

/// Behavioural parameters at one point of a chain's history.
/// UTXO-model knobs and account-model knobs coexist; generators read the
/// ones relevant to their data model.
struct EraParams {
  /// Position along the history in [0, 1]; eras are interpolated linearly.
  double position = 0.0;

  /// Mean regular transactions per block.
  double txs_per_block = 100.0;

  // ---- UTXO-model knobs ----
  /// Mean number of input TXOs per transaction.
  double inputs_per_tx = 2.0;
  /// Probability that a transaction immediately spends an output created
  /// earlier in the same block (wallet change re-spend, batching systems).
  double chain_spend_prob = 0.05;
  /// Expected number of exchange/batching sweep chains per block
  /// (the Figure 6 pattern: a chain of txs each spending the previous).
  double sweeps_per_block = 0.0;
  /// Geometric continue-probability of a sweep chain (mean length
  /// 1/(1-p) transactions).
  double sweep_continue_prob = 0.9;
  /// Probability that a block is a consolidation event in which one
  /// batching system chains through nearly the whole block — the paper's
  /// extreme example is Bitcoin block 358624, where 3217 of 3264
  /// transactions depend on each other.
  double mega_sweep_prob = 0.0;

  // ---- Account-model knobs ----
  /// Number of active user accounts.
  double num_users = 10000.0;
  /// Zipf exponent of user activity (higher = more concentrated senders).
  double user_zipf = 1.0;
  /// Probability that a participant is drawn from the shared "whale"
  /// population instead of their traffic category's own population.
  /// Higher overlap bridges exchange, pool, contract and p2p clusters
  /// into large connected components (small-user-base chains).
  double population_overlap = 0.15;
  /// Fraction of transactions that are deposits to one of the exchange
  /// addresses (Poloniex-style fan-in, Figure 1b).
  double exchange_share = 0.2;
  /// Number of distinct exchange deposit addresses.
  unsigned num_exchanges = 5;
  /// Fraction of transactions that are mining-pool payout batches (one hot
  /// sender paying many users, the DwarfPool pattern of Figure 1a).
  double pool_share = 0.05;
  /// Fraction of transactions that call smart contracts.
  double contract_share = 0.1;
  /// Number of popular contracts (token/crowdsale/relay population).
  unsigned num_contracts = 20;
  /// Mean internal transactions per contract call (relay chain depth).
  double internal_depth = 1.5;
  /// Fraction of transactions that create contracts (gas-heavy,
  /// typically unconflicted).
  double creation_share = 0.01;
  /// Internal-transaction storm multiplier (models the 2017 underpriced-
  /// opcode DoS attacks that spike the "all TXs" curve of Figure 4a).
  double storm_factor = 0.0;
};

/// A complete chain profile.
struct ChainProfile {
  std::string name;
  DataModel model = DataModel::kAccount;
  /// Table I metadata.
  std::string consensus = "PoW";
  std::string data_source = "BigQuery";
  /// Default number of blocks a generated history uses to represent the
  /// chain's lifetime (scaled down from the real chain).
  std::uint64_t default_blocks = 1000;
  /// Display-only: the real chain's covered period.
  double start_year = 2016.0;
  double end_year = 2019.5;
  /// Target seconds between blocks (Table I context).
  double block_interval_seconds = 15.0;
  /// Committees the chain is sharded into (Zilliqa); 0 = not sharded.
  unsigned num_shards = 0;
  /// Whether the chain supports smart contracts (Table I).
  bool smart_contracts = false;

  /// Era points, sorted by position, first at 0.0 and last at 1.0.
  std::vector<EraParams> eras;

  /// Interpolated parameters at a history position in [0, 1].
  EraParams at(double position) const;

  /// Year corresponding to a history position (for axis labelling).
  double year_at(double position) const {
    return start_year + position * (end_year - start_year);
  }
};

/// Committee of a sender on a sharded chain: the low bits of the address,
/// as in Zilliqa ("transactions are processed independently at different
/// committees that are selected based on the senders' addresses", §II-B).
unsigned shard_of(const Address& sender, unsigned num_shards);

}  // namespace txconc::workload
