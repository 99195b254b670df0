// Central registry of span / instant name literals.
//
// The trace-driven profiler (obs/critpath.h) reconstructs engine behavior
// from span NAMES: a renamed emitter would silently fall into the
// "untracked" attribution bucket and a renamed analyzer constant would
// stop matching every emitter at once. Keeping both sides on these
// constants makes that drift a compile error instead of a quiet report
// regression. New spans: add the constant here, emit it, and (if the
// profiler should bucket it) extend the taxonomy in obs/critpath.cpp —
// see DESIGN.md §16 for the add-a-bucket recipe.
#pragma once

namespace txconc::obs::names {

// ----------------------------------------------------------- categories
inline constexpr const char* kCatExec = "exec";
inline constexpr const char* kCatPool = "pool";
inline constexpr const char* kCatChain = "chain";

// ----------------------------------------------- executor phase spans
// Every registry engine emits the same top-level contract under its
// execute_block root: predict / schedule / execute / commit (+ seq_bin
// for engines with a sequential tail). bench/ablation_engines validates
// the set per engine and obs/critpath.cpp anchors its analysis on it.
inline constexpr const char* kSpanExecuteBlock = "execute_block";
inline constexpr const char* kSpanPredict = "predict";
/// predict sub-phase: building the approximate TDG (per-tx closure walk).
inline constexpr const char* kSpanPredictClosure = "predict.closure";
/// predict sub-phase: connected components over the TDG + group fill.
inline constexpr const char* kSpanPredictComponents = "predict.components";
inline constexpr const char* kSpanSchedule = "schedule";
inline constexpr const char* kSpanExecute = "execute";
inline constexpr const char* kSpanCommit = "commit";
inline constexpr const char* kSpanSeqBin = "seq_bin";
/// One speculative execution attempt; arg = tx index. A tx's LAST attempt
/// is its committed execution, earlier ones are abort/retry rework.
inline constexpr const char* kSpanAttempt = "attempt";
/// One final (sequential / seq_bin) tx execution; arg = tx index.
inline constexpr const char* kSpanTx = "tx";
/// Block-STM read-set validation; arg = tx index.
inline constexpr const char* kSpanValidate = "validate";
/// A scheduler participant waiting for claimable work (dependency wait);
/// arg = participant slot.
inline constexpr const char* kSpanWait = "wait";
/// One dequeued pool task (covers a worker's whole batch participation).
inline constexpr const char* kSpanPoolTask = "pool_task";

// ------------------------------------------------------ instant events
/// Thread budget of one block execution; arg = participants (pool
/// workers + the caller). Emitted inside execute_block so the profiler
/// knows the denominator of the threads x wall attribution budget.
inline constexpr const char* kEvThreads = "threads";
/// Block-STM reader suspended on an ESTIMATE marker; arg = blocking tx.
inline constexpr const char* kEvSuspend = "suspend";
/// One discarded execution attempt at an engine abort site; arg = tx
/// index. The abort reason lands in the report's abort_reasons tally and
/// the contention sink's key attribution (obs/contention.h).
inline constexpr const char* kEvAbort = "abort";

// ----------------------------------------------------------- chain spans
inline constexpr const char* kSpanProduceBlock = "produce_block";
inline constexpr const char* kSpanPack = "pack";
/// The block's tx merkle root: built by make_block when producing,
/// checked by Ledger::check when receiving.
inline constexpr const char* kSpanTxRoot = "tx_root";
inline constexpr const char* kSpanStateRoot = "state_root";
inline constexpr const char* kSpanReceiveBlock = "receive_block";

}  // namespace txconc::obs::names
