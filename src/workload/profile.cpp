#include "workload/profile.h"

#include "common/error.h"

namespace txconc::workload {

namespace {

double lerp(double a, double b, double t) { return a + (b - a) * t; }

EraParams interpolate(const EraParams& lo, const EraParams& hi, double t) {
  EraParams out = lo;
  out.position = lerp(lo.position, hi.position, t);
  out.txs_per_block = lerp(lo.txs_per_block, hi.txs_per_block, t);
  out.inputs_per_tx = lerp(lo.inputs_per_tx, hi.inputs_per_tx, t);
  out.chain_spend_prob = lerp(lo.chain_spend_prob, hi.chain_spend_prob, t);
  out.sweeps_per_block = lerp(lo.sweeps_per_block, hi.sweeps_per_block, t);
  out.sweep_continue_prob =
      lerp(lo.sweep_continue_prob, hi.sweep_continue_prob, t);
  out.mega_sweep_prob = lerp(lo.mega_sweep_prob, hi.mega_sweep_prob, t);
  out.num_users = lerp(lo.num_users, hi.num_users, t);
  out.user_zipf = lerp(lo.user_zipf, hi.user_zipf, t);
  out.population_overlap =
      lerp(lo.population_overlap, hi.population_overlap, t);
  out.exchange_share = lerp(lo.exchange_share, hi.exchange_share, t);
  out.num_exchanges = t < 0.5 ? lo.num_exchanges : hi.num_exchanges;
  out.pool_share = lerp(lo.pool_share, hi.pool_share, t);
  out.contract_share = lerp(lo.contract_share, hi.contract_share, t);
  out.num_contracts = t < 0.5 ? lo.num_contracts : hi.num_contracts;
  out.internal_depth = lerp(lo.internal_depth, hi.internal_depth, t);
  out.creation_share = lerp(lo.creation_share, hi.creation_share, t);
  out.storm_factor = lerp(lo.storm_factor, hi.storm_factor, t);
  return out;
}

}  // namespace

EraParams ChainProfile::at(double position) const {
  if (eras.empty()) throw UsageError("ChainProfile '" + name + "' has no eras");
  if (position <= eras.front().position) return eras.front();
  if (position >= eras.back().position) return eras.back();
  for (std::size_t i = 1; i < eras.size(); ++i) {
    if (position <= eras[i].position) {
      const EraParams& lo = eras[i - 1];
      const EraParams& hi = eras[i];
      const double span = hi.position - lo.position;
      const double t = span > 0.0 ? (position - lo.position) / span : 0.0;
      return interpolate(lo, hi, t);
    }
  }
  return eras.back();
}

unsigned shard_of(const Address& sender, unsigned num_shards) {
  if (num_shards == 0) throw UsageError("shard_of: no shards");
  return static_cast<unsigned>(sender.low64() % num_shards);
}

}  // namespace txconc::workload
