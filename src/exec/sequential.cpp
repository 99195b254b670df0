#include <chrono>

#include "exec/executor.h"
#include "exec/sched_trace.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace txconc::exec {

namespace {

class SequentialExecutor final : public BlockExecutor {
 public:
  ExecutionReport execute_block(
      account::StateDb& state,
      std::span<const account::AccountTx> transactions,
      const account::RuntimeConfig& config) override {
    BlockFrame frame("sequential", transactions.size(), config,
                     /*pool=*/nullptr, /*participants=*/1);
    obs::Tracer* const tracer = frame.tracer();
    {
      // The apply loop is the serial phase; there is no concurrent phase,
      // so phase1 stays zero instead of absorbing setup/reporting time
      // (the pre-obs code reported the whole wall as phase2, which made
      // sequential-vs-parallel phase breakdowns incomparable).
      const obs::CausalSpan span = frame.phase(obs::names::kSpanExecute);
      ExecutionReport& report = frame.open_report();
      const auto apply_start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < transactions.size(); ++i) {
        const TXCONC_SPAN_T(tracer, obs::names::kSpanTx,
                            obs::names::kCatExec,
                            static_cast<long long>(i));
        // The into-variant reuses the executor's tracker and the receipt
        // slot's capacity: the baseline benefits from the same
        // runtime-level allocation wins as the parallel engines.
        account::apply_transaction_into(state, transactions[i], config,
                                        report.receipts[i], tracker_);
      }
      frame.sched().add_phase2(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        apply_start)
              .count());
    }
    const obs::CausalSpan span = frame.phase(obs::names::kSpanCommit);
    state.flush_journal();
    frame.report().sequential_txs = transactions.size();
    frame.report().executions = transactions.size();
    return frame.finish(static_cast<double>(transactions.size()));
  }

  std::string name() const override { return "sequential"; }

 private:
  account::AccessTracker tracker_;  // reused across transactions
};

}  // namespace

std::unique_ptr<BlockExecutor> make_sequential_executor() {
  return std::make_unique<SequentialExecutor>();
}

}  // namespace txconc::exec
