// A-priori conflict prediction for account blocks.
//
// Builds the approximate TDG the paper describes in Section V-C ("an
// approximate TDG can be constructed by only using information about the
// regular transactions") — extended with two pieces of information that
// ARE available before execution: the transaction's dynamic address
// arguments, and the call targets statically reachable through contract
// address tables. For the contract library shipped in src/account this
// prediction is sound: every address an execution can touch is covered.
#pragma once

#include <span>
#include <vector>

#include "account/state.h"
#include "account/types.h"
#include "core/components.h"

namespace txconc::obs {
class Tracer;
}

namespace txconc::exec {

/// Per-transaction predicted conflict groups.
struct PredictedGroups {
  /// Component id for each transaction (indexed by block position).
  std::vector<core::ComponentId> component_of_tx;
  /// Number of transactions per component.
  std::vector<std::size_t> component_sizes;

  std::size_t num_components() const { return component_sizes.size(); }
};

/// Predict which transactions may touch overlapping state, at address
/// granularity, without executing anything. A non-null `tracer` gets the
/// predict.closure (per-tx reachability walk + TDG edges) and
/// predict.components (DSU + group fill) sub-spans, so the critical-path
/// profiler can split the graph-build phase.
PredictedGroups predict_groups(
    std::span<const account::AccountTx> transactions,
    const account::State& state, obs::Tracer* tracer = nullptr);

/// Every address one transaction can possibly touch, as seen by the
/// a-priori predictor: the sender, the target (or derived creation
/// address), the dynamic address arguments, and every contract statically
/// reachable from the target or the arguments through address tables.
/// predict_groups connects exactly this closure, so the audit layer can
/// check recorded accesses against the same sets the scheduler used.
std::vector<Address> predicted_addresses(const account::AccountTx& tx,
                                         const account::State& state);

}  // namespace txconc::exec
