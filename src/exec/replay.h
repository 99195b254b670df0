// History replay: re-execute a generated account history against any
// BlockExecutor, reproducing the generator's out-of-band top-ups so the
// same transactions stay valid. Shared by the model-validation and
// engine-figure benches and the executor equivalence tests.
#pragma once

#include <memory>

#include "exec/executor.h"
#include "workload/account_workload.h"

namespace txconc::obs {
struct Scope;  // tracer + contention bundle, see obs/scope.h
}

namespace txconc::exec {

/// Render a replay spec as the environment assignment a human pastes to
/// reproduce a failure: "TXCONC_REPRO='<spec_text>'". Single quotes in
/// the spec are shell-escaped. Shared by the conformance divergence
/// reports and the audit violation details so the two harnesses cannot
/// drift apart on the repro syntax.
std::string format_repro_env(const std::string& spec_text);

/// Observes each replayed block around its execution. before_block fires
/// after the out-of-band top-ups (so the state it sees is exactly the
/// pre-execution state), after_block right after the executor returns.
/// The audit harness uses this to scope one AccessAuditor block per
/// replayed block without the replayer depending on the audit layer.
class BlockObserver {
 public:
  virtual ~BlockObserver() = default;
  virtual void before_block(std::span<const account::AccountTx> txs,
                            const account::StateDb& state) = 0;
  virtual void after_block(const ExecutionReport& report) = 0;
};

/// Replays an account-model history block-by-block through an executor.
///
/// The replayer clones the generator's genesis (contracts + state) by
/// re-running a twin generator with the same seed, then feeds each block's
/// transactions to the executor after applying the generator's out-of-band
/// funding rules (balance top-ups, token seeding). Fees are disabled: the
/// generator manages balances outside the fee flow.
class HistoryReplayer {
 public:
  /// @param skip_blocks  fast-forward this many blocks before replay
  ///                     starts (their effects come from the twin
  ///                     generator, not the executor under test).
  HistoryReplayer(workload::ChainProfile profile, std::uint64_t seed,
                  std::uint64_t skip_blocks = 0);

  /// Execute the next block through the executor; returns its report.
  ExecutionReport replay_next(BlockExecutor& executor);

  /// Blocks remaining in the history.
  std::uint64_t remaining() const;

  const account::StateDb& state() const { return state_; }
  const account::RuntimeConfig& config() const { return config_; }

  /// Route a fault injector into the replay config. The conformance
  /// harness points every engine of one differential pair at the same
  /// seeded injector so they trap identical transactions.
  void set_fault_injector(const account::FaultInjector* injector) {
    config_.fault_injector = injector;
  }

  /// Route an access recorder into the replay config (the audit harness
  /// installs its AccessAuditor here; see src/audit).
  void set_access_recorder(const account::AccessRecorder* recorder) {
    config_.recorder = recorder;
  }

  /// Observe each block around its execution (nullptr disables).
  void set_block_observer(BlockObserver* observer) { observer_ = observer; }

  /// Route an observability scope (tracer + contention) into the replay
  /// config; executors emit their spans through it.
  void set_obs(const obs::Scope* scope) { config_.obs = scope; }

 private:
  void apply_out_of_band(std::span<const account::AccountTx> txs);

  workload::AccountWorkloadGenerator generator_;
  account::StateDb state_;
  account::RuntimeConfig config_;
  BlockObserver* observer_ = nullptr;
  std::uint64_t replayed_ = 0;
  std::uint64_t limit_ = 0;
};

}  // namespace txconc::exec
