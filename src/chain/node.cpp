#include "chain/node.h"

#include <optional>

#include "obs/scope.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace txconc::chain {

namespace {

/// The node's tracer: the scope threaded through RuntimeConfig when set,
/// the process tracer otherwise (matching the pre-context TXCONC_SPAN
/// behavior of the chain layer).
obs::Tracer* node_tracer(const AccountNodeConfig& config) {
  obs::Tracer* scoped = obs::tracer(config.runtime.obs);
  return scoped != nullptr ? scoped : &obs::Tracer::global();
}

}  // namespace

AccountNode::AccountNode(AccountNodeConfig config, BlockExecutionFn executor)
    : config_(std::move(config)),
      executor_(std::move(executor)),
      trace_process_(obs::intern_label(config_.trace_label.c_str())) {}

void AccountNode::genesis_fund(const Address& addr, std::uint64_t amount) {
  const MutexLock lock(mu_);
  if (!ledger_.empty()) {
    throw UsageError("genesis_fund after the chain has started");
  }
  state_.set_balance(addr, amount);
  state_.flush_journal();
}

void AccountNode::genesis_deploy(const Address& addr,
                                 account::ContractCode code) {
  const MutexLock lock(mu_);
  if (!ledger_.empty()) {
    throw UsageError("genesis_deploy after the chain has started");
  }
  account::genesis_deploy(state_, addr, std::move(code));
  state_.flush_journal();
}

void AccountNode::submit_transaction(account::AccountTx tx) {
  const MutexLock lock(mu_);
  // Admission checks against the current state. Nonces may be in the
  // future (a sender queueing several transactions) but not in the past.
  if (config_.runtime.enforce_nonce && tx.nonce < state_.nonce(tx.from)) {
    throw ValidationError("nonce already used");
  }
  const std::optional<std::uint64_t> cost =
      account::upfront_cost(tx, config_.runtime);
  if (!cost || state_.balance(tx.from) < *cost) {
    throw ValidationError("sender cannot cover value plus max fee");
  }
  const std::uint64_t intrinsic =
      config_.runtime.gas.tx_base +
      (tx.is_creation()
           ? account::creation_gas(config_.runtime.gas, tx.init_code.code.size())
           : 0);
  if (tx.gas_limit < intrinsic) {
    throw ValidationError("gas limit below intrinsic cost");
  }
  if (tx.gas_limit > config_.block_gas_limit) {
    throw ValidationError("gas limit exceeds the block gas limit");
  }
  const std::uint64_t priority = tx.gas_price;
  mempool_.add(std::move(tx), priority);
}

std::vector<account::Receipt> AccountNode::execute(
    account::StateDb& state, std::span<const account::AccountTx> txs,
    const obs::TraceContext& trace) {
  account::RuntimeConfig runtime = config_.runtime;
  runtime.trace = trace;
  if (executor_) return executor_(state, txs, runtime);
  std::vector<account::Receipt> receipts;
  receipts.reserve(txs.size());
  for (const auto& tx : txs) {
    receipts.push_back(account::apply_transaction(state, tx, runtime));
  }
  return receipts;
}

Block<account::AccountTx> AccountNode::produce_block(
    std::uint64_t timestamp, obs::TraceContext* trace_out) {
  const MutexLock lock(mu_);
  obs::Tracer* const tracer = node_tracer(config_);
  const obs::ThreadProcessScope proc(trace_process_);
  // Root of the block's causal story: everything downstream — the relay
  // and the remote re-execution — links back here.
  const obs::CausalSpan block_span(tracer, obs::names::kSpanProduceBlock,
                                   obs::names::kCatChain);
  // The block's place in the chain is known before packing: a header the
  // ledger would refuse fails here, before the mempool or the state move.
  const BlockHeader* prev = ledger_.empty() ? nullptr : &ledger_.tip().header;
  ledger_.check_header(next_header(prev, timestamp));
  // Pull candidates by fee priority, then order runnable ones. A candidate
  // whose nonce is not yet current goes back to the pool.
  std::vector<account::AccountTx> candidates =
      mempool_.take(config_.max_block_txs * 2);

  std::vector<account::AccountTx> included;
  std::uint64_t gas_budget = config_.block_gas_limit;
  std::vector<account::Receipt> receipts;

  {
    const obs::CausalSpan span(tracer, obs::names::kSpanPack, obs::names::kCatChain,
                               block_span.context(),
                               static_cast<std::int64_t>(candidates.size()));
    // Multi-pass packing: a transaction with a future nonce becomes
    // runnable once its same-sender predecessor lands, so retry deferrals
    // while any pass makes progress.
    bool progress = true;
    while (progress && !candidates.empty()) {
      progress = false;
      std::vector<account::AccountTx> deferred;
      for (auto& tx : candidates) {
        if (included.size() >= config_.max_block_txs ||
            tx.gas_limit > gas_budget) {
          // Does not fit this block; back to the pool for the next one.
          const std::uint64_t priority = tx.gas_price;
          mempool_.add(std::move(tx), priority);
          continue;
        }
        try {
          receipts.push_back(
              account::apply_transaction(state_, tx, config_.runtime));
          gas_budget -= receipts.back().gas_used;
          included.push_back(std::move(tx));
          progress = true;
        } catch (const ValidationError&) {
          if (config_.runtime.enforce_nonce &&
              tx.nonce > state_.nonce(tx.from)) {
            deferred.push_back(std::move(tx));  // predecessor may still land
          }
          // Otherwise: drop (stale nonce or drained balance).
        }
      }
      candidates = std::move(deferred);
    }
    // Unresolved future nonces return to the pool.
    for (auto& tx : candidates) {
      const std::uint64_t priority = tx.gas_price;
      mempool_.add(std::move(tx), priority);
    }
  }

  Block<account::AccountTx> block;
  {
    const obs::CausalSpan span(tracer, obs::names::kSpanTxRoot,
                               obs::names::kCatChain, block_span.context());
    block = make_block<account::AccountTx>(prev, std::move(included),
                                           timestamp);
  }
  for (const auto& r : receipts) {
    block.header.gas_used += r.gas_used;
  }
  if (config_.commit_state_root) {
    const obs::CausalSpan span(tracer, obs::names::kSpanStateRoot, obs::names::kCatChain,
                               block_span.context());
    block.header.state_root = account::build_state_trie(state_).root();
  }
  state_.flush_journal();
  ledger_.append(block);
  // Fork the context inside the producing span so the flow arrow starts
  // here and the relay sites just forward it.
  if (trace_out != nullptr) *trace_out = block_span.fork();
  return block;
}

void AccountNode::receive_block(const Block<account::AccountTx>& block,
                                const obs::TraceContext& trace) {
  const MutexLock lock(mu_);
  obs::Tracer* const tracer = node_tracer(config_);
  const obs::ThreadProcessScope proc(trace_process_);
  const obs::CausalSpan block_span(
      tracer, obs::names::kSpanReceiveBlock, obs::names::kCatChain, trace,
      static_cast<std::int64_t>(block.header.height));
  // Structural rules and the gas limit before anything mutates; the append
  // below trusts them, and the gas commitment checked after execution
  // equals the header's gas_used.
  {
    const obs::CausalSpan span(tracer, obs::names::kSpanTxRoot,
                               obs::names::kCatChain, block_span.context());
    ledger_.check(block);
  }
  if (block.header.gas_used > config_.block_gas_limit) {
    throw ValidationError("block exceeds the gas limit");
  }

  // Re-execute and verify the gas commitment; roll back on any failure.
  const account::Snapshot pre_block = state_.snapshot();
  try {
    std::vector<account::Receipt> receipts;
    {
      const obs::CausalSpan span(
          tracer, obs::names::kSpanExecute, obs::names::kCatChain, block_span.context(),
          static_cast<std::int64_t>(block.transactions.size()));
      // The executor joins the block's trace through RuntimeConfig::trace
      // (its execute_block span becomes a child of this one).
      receipts = execute(state_, block.transactions, span.context());
    }
    std::uint64_t gas_used = 0;
    for (const auto& r : receipts) gas_used += r.gas_used;
    if (gas_used != block.header.gas_used) {
      throw ValidationError("gas_used commitment mismatch");
    }
    if (config_.commit_state_root) {
      const obs::CausalSpan span(tracer, obs::names::kSpanStateRoot,
                                 obs::names::kCatChain, block_span.context());
      if (account::build_state_trie(state_).root() !=
          block.header.state_root) {
        throw ValidationError("state root commitment mismatch");
      }
    }
  } catch (...) {
    state_.revert(pre_block);
    throw;
  }
  {
    const obs::CausalSpan span(tracer, obs::names::kSpanCommit, obs::names::kCatChain,
                               block_span.context());
    state_.flush_journal();
    ledger_.append(block);
  }
}

}  // namespace txconc::chain
