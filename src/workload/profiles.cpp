// Calibration notes
// -----------------
// Each profile's era knobs are behavioural (user counts, exchange shares,
// sweep frequencies); the conflict rates are *outcomes*. Calibration
// targets, read off the paper's figures:
//
//   Bitcoin   (Fig. 5): tx/block 1 -> ~2000+; single rate ~0.13-0.15 late,
//             group rate ~0.01.
//   Ethereum  (Fig. 4): regular tx/block ~15 -> ~100-160 (internal spikes
//             in 2017); single rate 0.8 -> 0.6 (tx-weighted), gas-weighted
//             ~0.6 flat; group rate 0.5 -> 0.2.
//   Eth.Classic (Fig. 8): order of magnitude fewer txs than Ethereum after
//             2018 but higher rates (single ~0.7-0.9, group ~0.7).
//   Bitcoin Cash (Fig. 9): fewer txs than Bitcoin, higher rates.
//   Litecoin / Dogecoin (Fig. 7): UTXO cluster, single ~0.1-0.2,
//             group 0.01-0.05.
//   Zilliqa   (Fig. 7): small user base, very high rates (single ~0.9,
//             group ~0.8).
//
// tests/workload_test.cpp asserts these targets within tolerances, so a
// knob change that breaks calibration fails the suite.
#include "workload/profiles.h"

namespace txconc::workload {

ChainProfile bitcoin_profile() {
  ChainProfile p;
  p.name = "Bitcoin";
  p.model = DataModel::kUtxo;
  p.consensus = "PoW";
  p.data_source = "BigQuery";
  p.default_blocks = 600;
  p.start_year = 2009.0;
  p.end_year = 2019.5;
  p.block_interval_seconds = 600.0;

  EraParams e;
  e.position = 0.0;          // 2009: near-empty blocks
  e.txs_per_block = 1.0;
  e.inputs_per_tx = 1.3;
  e.chain_spend_prob = 0.01;
  e.sweeps_per_block = 0.0;
  e.sweep_continue_prob = 0.7;
  p.eras.push_back(e);

  e.position = 0.3;          // ~2012
  e.txs_per_block = 60.0;
  e.inputs_per_tx = 1.8;
  e.chain_spend_prob = 0.025;
  e.sweeps_per_block = 0.2;
  e.sweep_continue_prob = 0.85;
  p.eras.push_back(e);

  e.position = 0.6;          // ~2015
  e.txs_per_block = 800.0;
  e.inputs_per_tx = 2.0;
  e.chain_spend_prob = 0.045;
  e.sweeps_per_block = 0.8;
  e.sweep_continue_prob = 0.9;
  e.mega_sweep_prob = 0.004;  // rare whole-block consolidations (358624)
  p.eras.push_back(e);

  e.position = 0.8;          // ~2017 backlog era
  e.txs_per_block = 1900.0;
  e.inputs_per_tx = 2.1;
  e.chain_spend_prob = 0.06;
  e.sweeps_per_block = 1.5;
  e.sweep_continue_prob = 0.92;
  p.eras.push_back(e);

  e.position = 1.0;          // 2019
  e.txs_per_block = 2200.0;
  e.inputs_per_tx = 2.0;
  e.chain_spend_prob = 0.06;
  e.sweeps_per_block = 2.0;
  e.sweep_continue_prob = 0.92;
  p.eras.push_back(e);
  return p;
}

ChainProfile bitcoin_cash_profile() {
  ChainProfile p;
  p.name = "Bitcoin Cash";
  p.model = DataModel::kUtxo;
  p.default_blocks = 300;
  p.start_year = 2017.6;     // fork from Bitcoin
  p.end_year = 2019.5;
  p.block_interval_seconds = 600.0;

  // Small user base, exchange-dominated traffic: fewer transactions than
  // Bitcoin yet *higher* conflict rates (paper Section IV-C).
  EraParams e;
  e.position = 0.0;
  e.txs_per_block = 250.0;
  e.inputs_per_tx = 2.0;
  e.chain_spend_prob = 0.12;
  e.sweeps_per_block = 1.5;
  e.sweep_continue_prob = 0.9;
  p.eras.push_back(e);

  e.position = 0.5;
  e.txs_per_block = 90.0;
  e.chain_spend_prob = 0.15;
  e.sweeps_per_block = 1.2;
  p.eras.push_back(e);

  e.position = 1.0;
  e.txs_per_block = 180.0;
  e.chain_spend_prob = 0.13;
  e.sweeps_per_block = 1.5;
  p.eras.push_back(e);
  return p;
}

ChainProfile litecoin_profile() {
  ChainProfile p;
  p.name = "Litecoin";
  p.model = DataModel::kUtxo;
  p.default_blocks = 400;
  p.start_year = 2011.8;
  p.end_year = 2019.5;
  p.block_interval_seconds = 150.0;

  EraParams e;
  e.position = 0.0;
  e.txs_per_block = 3.0;
  e.inputs_per_tx = 1.5;
  e.chain_spend_prob = 0.02;
  e.sweeps_per_block = 0.05;
  e.sweep_continue_prob = 0.8;
  p.eras.push_back(e);

  e.position = 0.6;
  e.txs_per_block = 20.0;
  e.chain_spend_prob = 0.03;
  e.sweeps_per_block = 0.1;
  p.eras.push_back(e);

  e.position = 1.0;
  e.txs_per_block = 80.0;
  e.inputs_per_tx = 1.9;
  e.chain_spend_prob = 0.04;
  e.sweeps_per_block = 0.3;
  e.sweep_continue_prob = 0.88;
  p.eras.push_back(e);
  return p;
}

ChainProfile dogecoin_profile() {
  ChainProfile p;
  p.name = "Dogecoin";
  p.model = DataModel::kUtxo;
  p.default_blocks = 400;
  p.start_year = 2013.9;
  p.end_year = 2019.5;
  p.block_interval_seconds = 60.0;

  EraParams e;
  e.position = 0.0;          // launch hype: tipping bursts
  e.txs_per_block = 40.0;
  e.inputs_per_tx = 1.6;
  e.chain_spend_prob = 0.06;
  e.sweeps_per_block = 0.5;
  e.sweep_continue_prob = 0.85;
  p.eras.push_back(e);

  e.position = 0.4;
  e.txs_per_block = 10.0;
  e.chain_spend_prob = 0.05;
  e.sweeps_per_block = 0.2;
  p.eras.push_back(e);

  e.position = 1.0;
  e.txs_per_block = 35.0;
  e.chain_spend_prob = 0.04;
  e.sweeps_per_block = 0.15;
  e.sweep_continue_prob = 0.8;
  p.eras.push_back(e);
  return p;
}

ChainProfile ethereum_profile() {
  ChainProfile p;
  p.name = "Ethereum";
  p.model = DataModel::kAccount;
  p.smart_contracts = true;
  p.default_blocks = 400;
  p.start_year = 2015.6;
  p.end_year = 2019.5;
  p.block_interval_seconds = 15.0;

  EraParams e;
  e.position = 0.0;          // 2015/16: tiny user base, exchange heavy
  e.txs_per_block = 15.0;
  e.num_users = 500.0;
  e.user_zipf = 1.3;
  e.population_overlap = 0.48;
  e.exchange_share = 0.46;
  e.num_exchanges = 4;
  e.pool_share = 0.08;
  e.contract_share = 0.10;
  e.num_contracts = 12;
  e.internal_depth = 1.5;
  e.creation_share = 0.03;
  e.storm_factor = 0.0;
  p.eras.push_back(e);

  e.position = 0.25;         // 2016
  e.txs_per_block = 45.0;
  e.num_users = 1800.0;
  e.user_zipf = 1.2;
  e.population_overlap = 0.30;
  e.exchange_share = 0.42;
  e.contract_share = 0.15;
  e.creation_share = 0.02;
  p.eras.push_back(e);

  e.position = 0.45;         // 2017: DoS storms, ICO boom
  e.txs_per_block = 120.0;
  e.num_users = 12000.0;
  e.user_zipf = 1.05;
  e.population_overlap = 0.25;
  e.exchange_share = 0.30;
  e.num_exchanges = 6;
  e.pool_share = 0.06;
  e.contract_share = 0.22;
  e.num_contracts = 24;
  e.internal_depth = 2.0;
  e.creation_share = 0.02;
  e.storm_factor = 0.30;
  p.eras.push_back(e);

  e.position = 0.6;          // 2018
  e.txs_per_block = 160.0;
  e.num_users = 30000.0;
  e.user_zipf = 1.0;
  e.population_overlap = 0.12;
  e.exchange_share = 0.27;
  e.contract_share = 0.26;
  e.internal_depth = 1.8;
  e.storm_factor = 0.04;
  p.eras.push_back(e);

  e.position = 1.0;          // 2019
  e.txs_per_block = 110.0;
  e.num_users = 60000.0;
  e.user_zipf = 0.85;
  e.population_overlap = 0.08;
  e.exchange_share = 0.22;
  e.pool_share = 0.04;
  e.contract_share = 0.30;
  e.num_contracts = 48;
  e.internal_depth = 1.6;
  e.creation_share = 0.01;
  e.storm_factor = 0.0;
  p.eras.push_back(e);
  return p;
}

ChainProfile ethereum_classic_profile() {
  ChainProfile p;
  p.name = "Ethereum Classic";
  p.model = DataModel::kAccount;
  p.smart_contracts = true;
  p.default_blocks = 300;
  p.start_year = 2016.6;     // the DAO fork
  p.end_year = 2019.5;
  p.block_interval_seconds = 14.0;

  // Much smaller user base than Ethereum -> higher conflict rates despite
  // far fewer transactions (paper Section IV-C).
  EraParams e;
  e.position = 0.0;
  e.txs_per_block = 14.0;
  e.num_users = 250.0;
  e.user_zipf = 1.4;
  e.population_overlap = 0.85;
  e.exchange_share = 0.55;
  e.num_exchanges = 2;
  e.pool_share = 0.08;
  e.contract_share = 0.06;
  e.num_contracts = 8;
  e.internal_depth = 1.3;
  e.creation_share = 0.01;
  p.eras.push_back(e);

  e.position = 0.5;          // 2018: activity collapses
  e.txs_per_block = 10.0;
  e.num_users = 220.0;
  e.exchange_share = 0.58;
  p.eras.push_back(e);

  e.position = 1.0;
  e.txs_per_block = 8.0;
  e.num_users = 200.0;
  e.user_zipf = 1.45;
  e.exchange_share = 0.60;
  e.contract_share = 0.08;
  p.eras.push_back(e);
  return p;
}

ChainProfile zilliqa_profile() {
  ChainProfile p;
  p.name = "Zilliqa";
  p.model = DataModel::kAccount;
  p.smart_contracts = true;
  p.consensus = "PoW+Sharding";
  p.data_source = "Python client";
  p.default_blocks = 200;
  p.start_year = 2019.0;
  p.end_year = 2019.5;
  p.block_interval_seconds = 45.0;
  // Zilliqa's early mainnet epochs; conflict-wise the final blocks behave
  // as if a couple of committees carry nearly all traffic.
  p.num_shards = 2;

  // Young chain: a handful of heavy users and exchanges dominate, which is
  // what the paper attributes Zilliqa's very high conflict rates to ("we
  // attribute the high conflict rates in Zilliqa to its workload
  // characteristics").
  EraParams e;
  e.position = 0.0;
  e.txs_per_block = 8.0;
  e.num_users = 30.0;
  e.user_zipf = 1.6;
  e.population_overlap = 0.95;
  e.exchange_share = 0.55;
  e.num_exchanges = 2;
  e.pool_share = 0.0;
  e.contract_share = 0.05;
  e.num_contracts = 4;
  e.internal_depth = 1.2;
  e.creation_share = 0.005;
  p.eras.push_back(e);

  e.position = 1.0;
  e.txs_per_block = 25.0;
  e.num_users = 60.0;
  e.user_zipf = 1.5;
  e.exchange_share = 0.5;
  p.eras.push_back(e);
  return p;
}

std::vector<ChainProfile> all_profiles() {
  return {bitcoin_profile(),  bitcoin_cash_profile(),
          litecoin_profile(), dogecoin_profile(),
          ethereum_profile(), ethereum_classic_profile(),
          zilliqa_profile()};
}

}  // namespace txconc::workload
