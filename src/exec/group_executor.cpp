// Group-concurrency executor and the shared a-priori conflict prediction.
#include <unordered_map>
#include <unordered_set>

#include "account/state.h"
#include "common/error.h"
#include "core/components.h"
#include "core/scheduling.h"
#include "core/tdg.h"
#include "exec/executor.h"
#include "exec/predict.h"
#include "exec/sched_trace.h"
#include "exec/scratch.h"
#include "exec/thread_pool.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace txconc::exec {

namespace {

/// All addresses a call to `addr` can statically reach through contract
/// address tables (including `addr` itself).
void reachable_addresses(const account::State& state, const Address& addr,
                         std::vector<Address>& out,
                         std::unordered_set<Address>& seen) {
  if (!seen.insert(addr).second) return;
  out.push_back(addr);
  const account::ContractCode* code = state.code(addr);
  if (code == nullptr) return;
  for (const Address& next : code->address_table) {
    reachable_addresses(state, next, out, seen);
  }
}

/// The full predicted closure of one transaction (see predict.h). Shared
/// by predict_groups and predicted_addresses so the scheduler and the
/// auditor agree byte-for-byte on what was predicted.
void collect_predicted(const account::State& state,
                       const account::AccountTx& tx,
                       std::vector<Address>& out,
                       std::unordered_set<Address>& seen) {
  if (seen.insert(tx.from).second) out.push_back(tx.from);
  const Address to = tx.to.has_value()
                         ? *tx.to
                         : Address::derive_contract(tx.from, tx.nonce);
  reachable_addresses(state, to, out, seen);
  // Dynamic address arguments replace the top frame's address table, so
  // anything statically reachable from them is callable too.
  for (const Address& arg : tx.address_args) {
    reachable_addresses(state, arg, out, seen);
  }
}

}  // namespace

std::vector<Address> predicted_addresses(const account::AccountTx& tx,
                                         const account::State& state) {
  std::vector<Address> out;
  std::unordered_set<Address> seen;
  collect_predicted(state, tx, out, seen);
  return out;
}

PredictedGroups predict_groups(
    std::span<const account::AccountTx> transactions,
    const account::State& state, obs::Tracer* tracer) {
  core::KeyedTdg<Address> tdg;
  std::vector<core::NodeId> sender_node(transactions.size());

  {
    const TXCONC_SPAN_T(tracer, obs::names::kSpanPredictClosure,
                        obs::names::kCatExec,
                        static_cast<std::int64_t>(transactions.size()));
    std::vector<Address> scratch;
    std::unordered_set<Address> seen;
    for (std::size_t i = 0; i < transactions.size(); ++i) {
      const account::AccountTx& tx = transactions[i];
      sender_node[i] = tdg.node(tx.from);

      scratch.clear();
      seen.clear();
      collect_predicted(state, transactions[i], scratch, seen);
      for (const Address& addr : scratch) {
        if (addr != tx.from) tdg.add_edge(tx.from, addr);
      }
    }
  }

  const TXCONC_SPAN_T(tracer, obs::names::kSpanPredictComponents,
                      obs::names::kCatExec, -1);
  const core::ComponentSet components =
      core::connected_components_dsu(tdg.graph());

  PredictedGroups out;
  out.component_of_tx.resize(transactions.size());
  // Component ids over addresses are dense; reuse them for transactions
  // and count how many transactions land in each.
  out.component_sizes.assign(components.num_components(), 0);
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    const core::ComponentId cc = components.component_of(sender_node[i]);
    out.component_of_tx[i] = cc;
    ++out.component_sizes[cc];
  }
  return out;
}

namespace {

class GroupExecutor final : public BlockExecutor {
 public:
  GroupExecutor(unsigned num_threads, bool use_lpt)
      : label_(use_lpt ? "group-lpt" : "group-list"),
        pool_(num_threads, label_),
        use_lpt_(use_lpt) {}

  ExecutionReport execute_block(
      account::StateDb& state,
      std::span<const account::AccountTx> transactions,
      const account::RuntimeConfig& config) override {
    BlockFrame frame(label_, transactions.size(), config, &pool_,
                     pool_.size() + 1);
    obs::Tracer* const tracer = frame.tracer();

    // Partition transactions into predicted components (block order is
    // preserved inside each component). The partition and the schedule
    // are members, so the previous block's copies are released inside
    // these phase spans rather than after the last one closes.
    {
      const obs::CausalSpan span = frame.phase(obs::names::kSpanPredict);
      frame.open_report();
      const PredictedGroups groups =
          predict_groups(transactions, state, tracer);
      std::vector<std::vector<std::size_t>> members(groups.num_components());
      for (std::size_t i = 0; i < transactions.size(); ++i) {
        members[groups.component_of_tx[i]].push_back(i);
      }
      // Drop empty components (address components with no transaction).
      jobs_.clear();
      jobs_.reserve(members.size());
      for (auto& m : members) {
        if (!m.empty()) jobs_.push_back(std::move(m));
      }
    }

    {
      const obs::CausalSpan span = frame.phase(
          obs::names::kSpanSchedule, static_cast<std::int64_t>(jobs_.size()));
      std::vector<double> costs;
      costs.reserve(jobs_.size());
      for (const auto& job : jobs_) {
        costs.push_back(static_cast<double>(job.size()));
      }
      schedule_ = use_lpt_ ? core::schedule_lpt(costs, pool_.size())
                           : core::schedule_list(costs, pool_.size());
    }

    // Execute: each worker runs its assigned components sequentially on a
    // private overlay; disjoint components touch disjoint addresses, so
    // overlays commute and merge cleanly afterwards. The overlays and
    // trackers live in cross-block scratch — rebased per block, never
    // reallocated (the parallel_for index IS the core id, so no slot
    // indirection is needed here).
    {
      const obs::CausalSpan span = frame.phase(
          obs::names::kSpanExecute,
          static_cast<std::int64_t>(transactions.size()));
      if (scratch_.size() < schedule_.assignment.size()) {
        scratch_.resize(schedule_.assignment.size());
      }
      ExecutionReport& report = frame.report();
      pool_.parallel_for(schedule_.assignment.size(), [&](std::size_t core_id) {
        if (schedule_.assignment[core_id].empty()) return;
        WorkerScratch& ws = scratch_[core_id];
        ws.overlay.reset(state);
        for (std::size_t job_index : schedule_.assignment[core_id]) {
          for (std::size_t tx_index : jobs_[job_index]) {
            const TXCONC_SPAN_T(tracer, obs::names::kSpanAttempt,
                                obs::names::kCatExec,
                                static_cast<std::int64_t>(tx_index));
            account::apply_transaction_into(ws.overlay,
                                            transactions[tx_index], config,
                                            report.receipts[tx_index],
                                            ws.tracker);
          }
        }
      });
    }
    frame.sched().phase_boundary();
    const obs::CausalSpan span = frame.phase(obs::names::kSpanCommit);
    {
      // Merged values are final; skip the undo journal.
      const account::JournalPause pause(state);
      for (std::size_t core_id = 0; core_id < schedule_.assignment.size();
           ++core_id) {
        if (schedule_.assignment[core_id].empty()) continue;
        scratch_[core_id].overlay.apply_to(state);
      }
      state.flush_journal();
    }
    // The largest component is the serial dwell inside phase 1: cores
    // idle behind it (exec.seq_bin_txs).
    std::size_t lcc = 0;
    for (const auto& job : jobs_) lcc = std::max(lcc, job.size());
    frame.report().sequential_txs = lcc;
    frame.report().executions = transactions.size();
    return frame.finish(schedule_.makespan);
  }

  std::string name() const override { return label_; }

 private:
  const char* label_;  // string literal; doubles as the trace process
  ThreadPool pool_;
  bool use_lpt_;
  std::vector<WorkerScratch> scratch_;  // per core, reused across blocks
  std::vector<std::vector<std::size_t>> jobs_;  // this block's components
  core::Schedule schedule_;                     // this block's assignment
};

}  // namespace

std::unique_ptr<BlockExecutor> make_group_executor(unsigned num_threads,
                                                   bool use_lpt) {
  return std::make_unique<GroupExecutor>(num_threads, use_lpt);
}

}  // namespace txconc::exec
