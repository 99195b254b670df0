#include "account/runtime.h"

#include "common/error.h"

namespace txconc::account {

std::uint64_t creation_gas(const GasSchedule& gas, std::size_t code_size) {
  return gas.create_base + gas.create_per_byte * code_size;
}

namespace {

std::uint64_t intrinsic_gas(const AccountTx& tx, const RuntimeConfig& config) {
  return config.gas.tx_base +
         (tx.is_creation() ? creation_gas(config.gas, tx.init_code.code.size())
                           : 0);
}

}  // namespace

std::optional<std::uint64_t> upfront_cost(const AccountTx& tx,
                                          const RuntimeConfig& config) {
  std::uint64_t max_fee = 0;
  std::uint64_t total = 0;
  if ((config.charge_fees &&
       __builtin_mul_overflow(tx.gas_limit, tx.gas_price, &max_fee)) ||
      __builtin_add_overflow(tx.value, max_fee, &total)) {
    return std::nullopt;
  }
  return total;
}

const char* precheck_transaction(const State& state, const AccountTx& tx,
                                 const RuntimeConfig& config) {
  // Mirrors apply_transaction's validity checks, in order, without
  // building the throw-path error strings.
  if (config.enforce_nonce && state.nonce(tx.from) != tx.nonce) {
    return "bad nonce";
  }
  const std::optional<std::uint64_t> cost = upfront_cost(tx, config);
  if (!cost || state.balance(tx.from) < *cost) {
    return "sender cannot cover value plus max fee";
  }
  if (tx.gas_limit < intrinsic_gas(tx, config)) {
    return "gas limit below intrinsic cost";
  }
  return nullptr;
}

void apply_transaction_into(State& state, const AccountTx& tx,
                            const RuntimeConfig& config, Receipt& receipt,
                            AccessTracker& tracker) {
  // ---- Validity checks: failures here mean the transaction could never
  // have been included in a block, so the state must remain untouched.
  if (config.enforce_nonce && state.nonce(tx.from) != tx.nonce) {
    throw ValidationError(
        "bad nonce for " + tx.from.short_hex() + ": expected " +
        std::to_string(state.nonce(tx.from)) + ", got " +
        std::to_string(tx.nonce));
  }
  const std::optional<std::uint64_t> cost = upfront_cost(tx, config);
  if (!cost || state.balance(tx.from) < *cost) {
    throw ValidationError("sender cannot cover value plus max fee");
  }
  const std::uint64_t intrinsic = intrinsic_gas(tx, config);
  if (tx.gas_limit < intrinsic) {
    throw ValidationError("gas limit below intrinsic cost");
  }

  // on_begin fires only now — after the validity checks — so rejected
  // transactions never appear in the audit record.
  if (config.recorder != nullptr) config.recorder->on_begin(tx);

  // Synthetic compute: a deterministic hash-mix burn (same count for every
  // transaction and engine) standing in for heavier contract execution.
  // The volatile sink keeps the loop from being optimized away.
  if (config.synthetic_work > 0) {
    std::uint64_t mix = tx.nonce + 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = 0; i < config.synthetic_work; ++i) {
      mix ^= mix >> 33;
      mix *= 0xff51afd7ed558ccdULL;
      mix ^= mix >> 29;
    }
    volatile std::uint64_t sink = mix;
    (void)sink;
  }

  receipt.reset();
  tracker.clear();

  state.set_nonce(tx.from, state.nonce(tx.from) + 1);
  // Charge the full fee upfront; refund after execution.
  if (config.charge_fees) state.debit(tx.from, *cost - tx.value);

  // Changes beyond this snapshot are rolled back on execution failure,
  // while the nonce bump and fee survive.
  const Snapshot exec_snapshot = state.snapshot();
  std::uint64_t gas_used = intrinsic;
  bool success = true;

  tracker.read_balance(tx.from);
  tracker.write_balance(tx.from);

  // Injected traps fire after the value transfer, so the rollback path is
  // exercised exactly as for a genuine mid-execution VM fault.
  const auto maybe_trap = [&] {
    if (config.fault_injector != nullptr &&
        config.fault_injector->should_trap(tx)) {
      throw VmError("injected fault");
    }
  };

  try {
    if (tx.is_creation()) {
      const Address contract_addr =
          Address::derive_contract(tx.from, tx.nonce);
      state.transfer(tx.from, contract_addr, tx.value);
      maybe_trap();
      state.set_code(contract_addr, tx.init_code);
      receipt.created = contract_addr;
      receipt.internal_txs.push_back(
          {tx.from, contract_addr, tx.value, TraceKind::kCreate, 1});
      tracker.write_balance(contract_addr);
    } else {
      const Address to = *tx.to;
      if (tx.value > 0) tracker.write_balance(to);
      state.transfer(tx.from, to, tx.value);
      maybe_trap();
      const ContractCode* code = state.code(to);
      if (code != nullptr) {
        Vm vm(state, config.gas, config.limits);
        CallContext context;
        context.self = to;
        context.caller = tx.from;
        context.value = tx.value;
        context.args = tx.args;
        // The top frame sees the transaction's dynamic address arguments
        // when provided, otherwise the contract's static table.
        context.address_table = tx.address_args.empty()
                                    ? std::span<const Address>(
                                          code->address_table)
                                    : std::span<const Address>(
                                          tx.address_args);
        context.depth = 0;

        ExecutionHooks hooks;
        hooks.traces = &receipt.internal_txs;
        hooks.tracker = &tracker;
        hooks.logs = &receipt.logs;

        const VmResult vm_result =
            vm.execute(*code, context, tx.gas_limit - intrinsic, hooks);
        gas_used += vm_result.gas_used;
        if (!vm_result.success) {
          success = false;
          receipt.error = vm_result.error;
        } else {
          receipt.return_value = vm_result.return_value;
        }
      }
    }
  } catch (const ValidationError& e) {
    // e.g. value transfer underflow after fee accounting races; treat as
    // execution failure, consistent with EVM call semantics.
    success = false;
    receipt.error = e.what();
  } catch (const VmError& e) {
    // Injected fault: fails the transaction like any other VM trap.
    success = false;
    receipt.error = e.what();
  }

  if (!success) {
    state.revert(exec_snapshot);
    receipt.created.reset();
  }

  // Refund the unused portion of the fee.
  if (config.charge_fees) {
    state.credit(tx.from, (tx.gas_limit - gas_used) * tx.gas_price);
  }

  receipt.success = success;
  receipt.gas_used = gas_used;
  // Copy-assign into the receipt's existing vectors: no allocation once
  // the receipt slot has seen comparable access counts.
  receipt.reads = tracker.finalize_reads();
  receipt.writes = tracker.finalize_writes();
  if (config.recorder != nullptr) config.recorder->on_complete(tx, receipt);
}

Receipt apply_transaction(State& state, const AccountTx& tx,
                          const RuntimeConfig& config) {
  Receipt receipt;
  AccessTracker tracker;
  apply_transaction_into(state, tx, config, receipt, tracker);
  return receipt;
}

void genesis_deploy(State& state, const Address& addr, ContractCode code) {
  state.set_code(addr, std::move(code));
}

}  // namespace txconc::account
