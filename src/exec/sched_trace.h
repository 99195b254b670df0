// The frame every executor's execute_block runs inside: the
// scheduling-overhead recorder (diffs ThreadPool counters around one
// block execution and splits the wall time into a concurrent and a serial
// phase), and BlockFrame, which bundles it with the root span and the
// report. The sequential baseline passes a null pool so its phase
// attribution flows through the exact same path as the parallel engines
// (comparable breakdowns).
#pragma once

#include <chrono>
#include <cstdint>
#include <utility>

#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "obs/names.h"
#include "obs/scope.h"
#include "obs/trace.h"

namespace txconc::exec {

class SchedTrace {
 public:
  /// Pool-less executors (sequential) pass nullptr: the task/grain
  /// counters stay zero but the phase timers still work.
  explicit SchedTrace(const ThreadPool* pool)
      : pool_(pool),
        before_(pool ? pool->stats() : ThreadPoolStats{}),
        start_(std::chrono::steady_clock::now()),
        boundary_(start_) {}

  /// Two-phase executors: everything before this call is phase 1,
  /// everything after is phase 2.
  void phase_boundary() {
    boundary_ = std::chrono::steady_clock::now();
    boundary_set_ = true;
  }

  /// Executors with their own segment timers (block-stm's execute and
  /// commit, sequential's apply loop) attribute explicit durations instead.
  void add_phase1(double seconds) { extra_phase1_ += seconds; }
  void add_phase2(double seconds) { extra_phase2_ += seconds; }

  /// Fill the breakdown; returns total wall seconds since construction.
  double finish(SchedulingBreakdown& out) const {
    const auto now = std::chrono::steady_clock::now();
    if (pool_ != nullptr) {
      const ThreadPoolStats after = pool_->stats();
      out.pool_tasks = after.tasks_run - before_.tasks_run;
      out.grains = after.grains_total - before_.grains_total;
      out.grains_caller_run =
          after.grains_caller_run - before_.grains_caller_run;
    }
    out.phase1_seconds = extra_phase1_;
    out.phase2_seconds = extra_phase2_;
    if (boundary_set_) {
      out.phase1_seconds +=
          std::chrono::duration<double>(boundary_ - start_).count();
      out.phase2_seconds +=
          std::chrono::duration<double>(now - boundary_).count();
    }
    return std::chrono::duration<double>(now - start_).count();
  }

 private:
  const ThreadPool* pool_;
  ThreadPoolStats before_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point boundary_;
  bool boundary_set_ = false;
  double extra_phase1_ = 0.0;
  double extra_phase2_ = 0.0;
};

/// The shared frame of one execute_block call, built first thing by every
/// engine. Construction resolves the tracer from
/// `config.obs`, relabels the calling thread as the engine's trace
/// process, opens the `execute_block` root span, starts the SchedTrace
/// over `pool` (null for pool-less engines) and emits the `threads`
/// instant the critical-path profiler keys on: `participants` (pool
/// workers + caller, or whatever the engine really runs on) is the
/// denominator of its threads x wall budget (obs/critpath.h).
///
/// The engine then opens its phases as children of the root via phase(),
/// calls open_report() inside its first phase span and finish() inside a
/// `commit` span, so the receipts allocation and the report tail
/// are attributed to a phase instead of the profiler's `uncovered`.
class BlockFrame {
 public:
  BlockFrame(const char* executor, std::size_t num_txs,
             const account::RuntimeConfig& config, const ThreadPool* pool,
             std::size_t participants)
      : executor_(executor),
        num_txs_(num_txs),
        tracer_(obs::tracer(config.obs)),
        process_(executor),
        root_(tracer_, obs::names::kSpanExecuteBlock, obs::names::kCatExec,
              config.trace, static_cast<std::int64_t>(num_txs)),
        sched_(pool) {
    TXCONC_INSTANT_T(tracer_, obs::names::kEvThreads, obs::names::kCatExec,
                     static_cast<std::int64_t>(participants));
  }

  obs::Tracer* tracer() const { return tracer_; }
  SchedTrace& sched() { return sched_; }
  ExecutionReport& report() { return report_; }

  /// A phase span (predict, schedule, execute, commit, seq_bin) as a
  /// child of the root; `arg` is the span's integer payload.
  obs::CausalSpan phase(const char* name, std::int64_t arg = -1) const {
    return obs::CausalSpan(tracer_, name, obs::names::kCatExec,
                           root_.context(), arg);
  }

  /// Fill the report header: executor name, num_txs and one receipt slot
  /// per transaction (engines write receipts in place by block index).
  ExecutionReport& open_report() {
    report_.executor = executor_;
    report_.num_txs = num_txs_;
    report_.receipts.resize(num_txs_);
    return report_;
  }

  /// Close the report: the unit-cost time and the speedup it implies
  /// (num_txs / simulated_units, 1.0 for an empty block), the wall time
  /// and phase split. The engine has filled
  /// sequential_txs, executions and its abort tallies by now.
  ExecutionReport finish(double simulated_units) {
    report_.simulated_units = simulated_units;
    report_.simulated_speedup =
        simulated_units > 0.0
            ? static_cast<double>(num_txs_) / simulated_units
            : 1.0;
    report_.wall_seconds = sched_.finish(report_.sched);
    return std::move(report_);
  }

 private:
  const char* executor_;  // string literal; doubles as the trace process
  std::size_t num_txs_;
  obs::Tracer* tracer_;
  obs::ThreadProcessScope process_;
  obs::CausalSpan root_;
  SchedTrace sched_;
  ExecutionReport report_;
};

}  // namespace txconc::exec
