// The engine grid that writes BENCH.json: every registry executor x
// threads x block size, with the critpath attribution and the contention
// explainer on the explained cells (see the emitter section below).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "analysis/block_analyzer.h"
#include "analysis/report.h"
#include "account/runtime.h"
#include "bench_util.h"
#include "core/speedup_model.h"
#include "exec/contention_probe.h"
#include "exec/executor.h"
#include "obs/contention.h"
#include "obs/critpath.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "workload/account_workload.h"
#include "workload/profiles.h"

namespace {

using namespace txconc;

// ------------------------------------------------------------ harness knobs

// Synthetic per-transaction work (account::RuntimeConfig::synthetic_work),
// settable via --tx-work=N or TXCONC_TX_WORK. The fixture's transactions
// are light enough that thread-pool dispatch costs rival the transactions
// themselves, which kept every parallel engine at wall_speedup <= 1; the
// default burn makes each transaction as heavy as a modest contract call
// so the engine ablation measures scheduling quality, not dispatch floor.
// (On a multi-core host this lets parallel engines clear wall_speedup 1;
// on a single-core host ~1.0 is the physical ceiling and the gate works
// off ratios against a baseline recorded on the same host.)
unsigned g_tx_work = 10000;

// TXCONC_BENCH_FAST=1: fewer reps for CI lanes. The JSON records the
// actual rep count, and the gate compares hardware-portable ratios, so
// fast runs remain comparable against full-depth baselines.
bool bench_fast() {
  const char* fast = std::getenv("TXCONC_BENCH_FAST");
  return fast != nullptr && std::string(fast) != "0";
}
int bench_reps() { return bench_fast() ? 5 : 9; }
int bench_warmup() { return bench_fast() ? 1 : 2; }

bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && std::string(value) != "0";
}

// Block-size grid for the engine ablation. The per-block fixed costs
// (pool dispatch, conflict-table setup, report assembly) amortize with
// block size, so the large cells are where parallel engines must beat
// sequential on wall clock. Fast mode measures {base, 1000};
// TXCONC_BENCH_LARGE adds the 10k cell to fast runs (the ci.sh
// bench-large lane), full mode always includes it, and TXCONC_BENCH_HUGE
// opts into the 100k cell (expensive: ~1M generated transactions).
std::vector<std::size_t> large_block_sizes() {
  std::vector<std::size_t> sizes = {1000};
  if (!bench_fast() || env_flag("TXCONC_BENCH_LARGE")) {
    sizes.push_back(10'000);
  }
  if (env_flag("TXCONC_BENCH_HUGE")) sizes.push_back(100'000);
  return sizes;
}

// TXCONC_BENCH_INJECT_SLOWDOWN_PCT=<pct>: negative-control hook for
// scripts/bench_gate — inflates the measured wall times by this factor so
// CI can assert the gate actually fires. Applied only to non-sequential
// rows: sequential is the speedup denominator, so slowing every row
// equally would cancel out of the gated ratios. Parsed in main; a
// malformed value is a usage error (exit 2), never a silent 0 %.
double g_slowdown_factor = 1.0;

// ------------------------------------------------------------ real executors

struct ExecFixture {
  workload::ChainProfile profile = workload::ethereum_profile();
  std::vector<account::AccountTx> block;
  account::StateDb genesis;

  ExecFixture() {
    workload::AccountWorkloadGenerator gen(profile, 42, 400);
    // Skip to a busy late-era block: the early-era blocks carry a handful
    // of transactions, far too few for engine scheduling costs or
    // speedups to register.
    for (int i = 0; i < 350; ++i) gen.next_block();
    genesis = gen.state();
    block = gen.next_block().account_txs;
    // Replay needs fee-free config and rich balances.
    for (const auto& tx : block) {
      genesis.set_balance(tx.from, 1'000'000'000'000'000ULL);
    }
    genesis.flush_journal();
  }
};

// Large-block fixture: consecutive late-era generator blocks concatenated
// into one pool, measured via prefixes. The generator's era position is
// height/horizon, so the horizon scales with the pool size to keep every
// measured window in the same busy late-era band (position >= 7/8) as
// ExecFixture's single block; prefixes of the pool are then valid blocks
// under the replay config (enforce_nonce=false keeps per-sender nonce
// sequences from consecutive source blocks composable).
struct PoolFixture {
  workload::ChainProfile profile = workload::ethereum_profile();
  std::vector<account::AccountTx> pool;
  account::StateDb genesis;

  explicit PoolFixture(std::size_t min_txs) {
    // Late-era Ethereum blocks carry ~110-130 transactions; headroom on
    // the block count keeps the while-loop from exhausting the horizon.
    const std::uint64_t needed = min_txs / 100 + 16;
    const std::uint64_t horizon = 8 * needed;
    workload::AccountWorkloadGenerator gen(profile, 42, horizon);
    for (std::uint64_t i = 0; i < 7 * needed; ++i) gen.next_block();
    genesis = gen.state();
    while (pool.size() < min_txs) {
      const auto block = gen.next_block().account_txs;
      pool.insert(pool.end(), block.begin(), block.end());
    }
    for (const auto& tx : pool) {
      genesis.set_balance(tx.from, 1'000'000'000'000'000ULL);
    }
    genesis.flush_journal();
  }

  std::span<const account::AccountTx> prefix(std::size_t n) const {
    return {pool.data(), std::min(n, pool.size())};
  }
};

// One pool sized for the standard grid: built once, so the 1k cell's
// transactions are byte-identical whether or not the 10k cell runs.
const PoolFixture& standard_pool() {
  static const PoolFixture fixture(10'000);
  return fixture;
}

// The 100k pool generates ~1M transactions; only built when the huge
// cell was requested.
const PoolFixture& huge_pool() {
  static const PoolFixture fixture(100'000);
  return fixture;
}

/// The replay configuration every engine cell runs under: no fees, no
/// nonce checks (the same block replays repeatedly against a copy of its
/// genesis), and the harness's synthetic per-transaction work.
account::RuntimeConfig replay_config() {
  account::RuntimeConfig config;
  config.charge_fees = false;
  config.enforce_nonce = false;
  config.synthetic_work = g_tx_work;
  return config;
}

// ------------------------------------------------------ BENCH.json emitter

// One cell loop answers the paper's two questions about a block -- how
// fast each engine runs it (§V) and how conflicted it is (§III c/l) --
// and writes BENCH.json into the CWD with one row per (executor,
// threads, block_txs):
//  * every row: warmed-up median-of-N wall time (with IQR dispersion),
//    wall speedup vs sequential AT THE SAME BLOCK SIZE, and the unit-cost
//    simulated speedup next to it (the wall/simulated gap is the engine's
//    real-world overhead);
//  * the explained rows ({1,4} threads x {base, 1000} txs) add the
//    critpath profiler's wall-clock attribution (`profile`, or
//    `profile_error` when the cell could not be profiled) and the
//    contention explainer's measured conflict picture (`contention`);
// plus a top-level `obs` object holding the tracer-overhead ladder. The
// header records hw_cores so scripts/bench_gate can decide whether
// wall_speedup > 1 is physically attainable on the recording host; the
// gate compares the rows against bench/baselines/BENCH.json.

struct Cell {
  std::size_t block_txs = 0;
  std::span<const account::AccountTx> block;
  const account::StateDb* genesis = nullptr;
  /// The base block and the 1k block bracket the amortization curve
  /// (DESIGN.md §13), so those two are profiled and explained.
  bool explained = false;
};

struct Row {
  std::string executor;
  unsigned threads = 1;
  std::size_t block_txs = 0;
  int reps = 0;
  bench::RepetitionStats wall;
  double wall_speedup = 0.0;
  double simulated_speedup = 1.0;
  /// Mean execution attempts per transaction (1.0 = no re-execution);
  /// the retry-cost axis for engines with targeted re-execution.
  double attempts_per_tx = 1.0;
  /// The last measured rep's phase split and unit-cost figures, read by
  /// the §V phase table.
  exec::SchedulingBreakdown sched;
  double simulated_units = 0.0;
  std::size_t sequential_txs = 0;

  bool explained = false;
  obs::BlockProfile profile;
  std::string profile_error;  ///< non-empty when the cell could not be profiled
  obs::BlockContention contention;
  double intent_c = 0.0;
  double intent_l = 0.0;
  double contention_wall = 0.0;  ///< median wall, sink + recorder installed
  double sketch_overhead = 0.0;  ///< contention_wall / wall.median_seconds
};

// Generator intent for an explained block: the analysis pipeline's
// address-TDG conflict rates over the receipts of one sequential
// execution. analysis::analyze_account_block is an implementation
// independent of the contention layer, so agreement with
// measured_c_address is a real cross-check.
core::ConflictStats generator_intent(const Cell& cell) {
  const auto sequential = exec::make_executor("sequential", 1);
  account::StateDb db = *cell.genesis;
  const exec::ExecutionReport report =
      sequential->execute_block(db, cell.block, replay_config());
  return analysis::analyze_account_block(cell.block, report.receipts);
}

// The contention half of an explained row: the contention layer
// (obs/contention.h) explains the engine's own observed access sets --
// measured c/l at slot and address granularity, prediction quality of the
// a-priori closures, the per-reason abort taxonomy and the top hot keys.
// The instrumented wall follows the row's warm-rep protocol, so the
// sketch's overhead is its median over the row's un-instrumented median.
void explain_contention(Row& row, exec::BlockExecutor& executor,
                        const Cell& cell, int warmup) {
  exec::ContentionProbe probe;
  obs::Scope scope;
  scope.contention = probe.sink();
  account::RuntimeConfig instrumented = replay_config();
  instrumented.recorder = probe.recorder();
  instrumented.obs = &scope;
  row.contention_wall =
      bench::measure_reps(row.reps, warmup, [&] {
        account::StateDb db = *cell.genesis;
        probe.clear();
        probe.before_block(cell.block, db);
        const exec::ExecutionReport report =
            executor.execute_block(db, cell.block, instrumented);
        probe.after_block(report);
        // wall_seconds covers execute_block only: the closure walk and
        // the cold post-block analysis stay untimed, so the overhead
        // isolates the in-execution sketch feeding.
        return report.wall_seconds;
      }).median_seconds;
  row.contention = probe.blocks().back();
  row.sketch_overhead = row.wall.median_seconds > 0.0
                            ? row.contention_wall / row.wall.median_seconds
                            : 0.0;
}

// The attribution half of an explained row: the critpath profiler buckets
// threads x wall into graph build / schedule / tx execute / rework /
// dependency wait / commit / pool idle / untracked, plus the
// critical-path chains. Warm protocol (DESIGN.md §16): the first traced
// block absorbs tracer buffer registration and chunk allocation as
// uncovered caller self time, so the cell traces a warmup run plus
// kProfileRuns measured runs into one buffer and profiles the measured
// execute_block with the median wall time; a single scheduling hiccup
// then cannot decide the cell's dominant segment.
// Returns false, after dumping the raw trace into the CWD, when the cell
// cannot be profiled or breaks the attribution sum invariant.
constexpr std::size_t kProfileRuns = 3;

bool profile_cell(Row& row, const exec::ExecutorSpec& spec, const Cell& cell) {
  account::RuntimeConfig config = replay_config();
  config.obs = &obs::global_scope();
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  {
    const auto executor = spec.make(row.threads);
    for (std::size_t run = 0; run < 1 + kProfileRuns; ++run) {
      account::StateDb db = *cell.genesis;
      executor->execute_block(db, cell.block, config);
    }
    // Destroying the executor joins its pool: the workers' final
    // pool_task ends land in the buffers before we serialize.
  }
  tracer.disable();
  std::ostringstream trace;
  tracer.write_chrome_trace(trace);
  obs::ProfileResult result = obs::profile_chrome_trace(trace.str());
  std::string violation;
  if (tracer.dropped() > 0) {
    row.profile_error = "ring wrapped: " + std::to_string(tracer.dropped()) +
                        " events dropped";
  } else if (!result.ok) {
    row.profile_error = result.error;
  } else if (result.blocks.size() != 1 + kProfileRuns) {
    row.profile_error = "profiled " + std::to_string(result.blocks.size()) +
                        " execute_block(s), expected " +
                        std::to_string(1 + kProfileRuns);
  } else {
    // The blocks are in execution order; [0] is the warmup.
    const auto measured = result.blocks.begin() + 1;
    const auto median = measured + kProfileRuns / 2;
    std::nth_element(measured, median, result.blocks.end(),
                     [](const obs::BlockProfile& a,
                        const obs::BlockProfile& b) {
                       return a.wall_us < b.wall_us;
                     });
    row.profile = std::move(*median);
    violation = obs::check_attribution(row.profile);
  }
  tracer.clear();  // keep the profile cells out of any exported trace
  if (row.profile_error.empty() && violation.empty()) return true;
  // Leave the evidence behind: the raw trace of a failing cell, ready for
  // `txconc_explain <file>` / Perfetto.
  const std::string dump = "profile_" + row.executor + "_t" +
                           std::to_string(row.threads) + "_x" +
                           std::to_string(cell.block_txs) + ".trace.json";
  std::ofstream(dump) << trace.str();
  std::cout << "profile cell " << row.executor << "/t" << row.threads << "/x"
            << cell.block_txs << ": "
            << (row.profile_error.empty() ? violation : row.profile_error)
            << " (trace dumped to " << dump << ")\n";
  return false;
}

// Measures one (executor, threads) row of a cell; explained rows also get
// their contention picture from the same executor.
Row measure_row(const exec::ExecutorSpec& spec, unsigned threads,
                const Cell& cell, int reps, int warmup) {
  const auto executor = spec.make(threads);
  const account::RuntimeConfig config = replay_config();
  Row row;
  row.executor = spec.name;
  row.threads = threads;
  row.block_txs = cell.block_txs;
  row.reps = reps;
  row.wall = bench::measure_reps(reps, warmup, [&] {
    account::StateDb db = *cell.genesis;
    const exec::ExecutionReport report =
        executor->execute_block(db, cell.block, config);
    row.simulated_speedup = report.simulated_speedup;
    row.attempts_per_tx =
        report.num_txs > 0
            ? static_cast<double>(report.executions) / report.num_txs
            : 1.0;
    row.sched = report.sched;
    row.simulated_units = report.simulated_units;
    row.sequential_txs = report.sequential_txs;
    return report.wall_seconds;
  });
  row.explained = cell.explained && (threads == 1 || threads == 4);
  if (row.explained) explain_contention(row, *executor, cell, warmup);
  return row;
}

// The engine x threads x block grid. Wall speedups divide by the
// sequential row of the same block, which the registry lists first.
std::vector<Row> run_cells(const std::vector<Cell>& cells) {
  std::vector<Row> rows;
  std::size_t violations = 0;
  for (const Cell& cell : cells) {
    // The 10k+ cells cost ~100x a base-block rep; 3 reps keep the CI
    // bench-large lane inside its budget while the gate's ratios stay
    // median-based.
    const int reps =
        cell.block_txs >= 10'000 ? std::min(bench_reps(), 3) : bench_reps();
    const int warmup = cell.block_txs >= 10'000 ? 1 : bench_warmup();
    core::ConflictStats intent;
    if (cell.explained) intent = generator_intent(cell);
    double sequential_wall = 0.0;
    for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
      const std::vector<unsigned> thread_grid =
          spec.parallel ? std::vector<unsigned>{1, 2, 4, 8}
                        : std::vector<unsigned>{1};
      for (const unsigned threads : thread_grid) {
        Row row = measure_row(spec, threads, cell, reps, warmup);
        if (row.explained) {
          row.intent_c = intent.single_rate();
          row.intent_l = intent.group_rate();
          if (!profile_cell(row, spec, cell)) ++violations;
        }
        // The injection lands after the sketch overhead was taken, so it
        // moves the exec ratios and nothing else.
        if (spec.name == "sequential") {
          sequential_wall = row.wall.median_seconds;
        } else if (g_slowdown_factor != 1.0) {
          row.wall.median_seconds *= g_slowdown_factor;
        }
        row.wall_speedup = row.wall.median_seconds > 0.0
                               ? sequential_wall / row.wall.median_seconds
                               : 0.0;
        rows.push_back(std::move(row));
      }
    }
  }
  std::cout << "profile: " << violations << " violation(s) over the "
            << "explained cells\n";
  return rows;
}

// Measured per-phase wall times next to the closed-form model of Section
// V, read from the rows of one block size at n = 4 threads: the unit cost
// u comes from the sequential baseline (wall/x), the conflict rate c from
// the speculative engine's own bin, and the model's serial tail c*x*u is
// printed beside the measured phase-2 wall so the two are directly
// diffable.
void print_phase_breakdown(const std::vector<Row>& rows, std::size_t x) {
  const unsigned n = 4;
  std::vector<const Row*> picked;
  for (const Row& r : rows) {
    if (r.block_txs == x && (r.threads == n || r.executor == "sequential")) {
      picked.push_back(&r);
    }
  }
  double sequential_wall = 0.0;
  double c_hat = 0.0;
  for (const Row* r : picked) {
    if (r->executor == "sequential") sequential_wall = r->wall.median_seconds;
    if (r->executor == "speculative") {
      c_hat = static_cast<double>(r->sequential_txs) / static_cast<double>(x);
    }
  }
  const double unit_us = sequential_wall / static_cast<double>(x) * 1e6;
  const double model_tail_us = c_hat * static_cast<double>(x) * unit_us;

  analysis::TextTable table({"executor", "phase1_us", "phase2_us", "wall_us",
                             "model_wall_us", "model_tail_us"});
  for (const Row* r : picked) {
    double model_wall_us = 0.0;
    if (r->executor == "sequential") {
      model_wall_us = static_cast<double>(x) * unit_us;
    } else if (r->executor == "speculative" ||
               r->executor == "speculative-fww") {
      model_wall_us =
          core::SpeculativeModel::execution_time_exact(x, c_hat, n) * unit_us;
    } else if (r->executor == "oracle-speculative") {
      model_wall_us =
          core::SpeculativeModel::oracle_execution_time(x, c_hat, n, 1.0) *
          unit_us;
    } else {
      // Group and block-stm engines: the model currency is the engine's
      // own unit-cost time (simulated_units).
      model_wall_us = r->simulated_units * unit_us;
    }
    const bool two_phase = r->executor == "speculative" ||
                           r->executor == "speculative-fww" ||
                           r->executor == "oracle-speculative";
    table.row({r->executor,
               analysis::fmt_double(r->sched.phase1_seconds * 1e6, 1),
               analysis::fmt_double(r->sched.phase2_seconds * 1e6, 1),
               analysis::fmt_double(r->wall.median_seconds * 1e6, 1),
               analysis::fmt_double(model_wall_us, 1),
               two_phase ? analysis::fmt_double(model_tail_us, 1) : "-"});
  }
  std::cout << "\nphase breakdown vs Section V model (x=" << x << ", n=" << n
            << ", c=" << analysis::fmt_double(c_hat, 3)
            << ", unit=" << analysis::fmt_double(unit_us, 2) << "us):\n"
            << table.render()
            << "model_tail_us is the closed-form c*x serial tail; compare "
               "it against the measured phase2_us of the two-phase "
               "engines.\n";
}

// Tracer overhead ladder: the same speculative run on the base block with
// (a) no obs scope at all, (b) the scope installed but the tracer disabled
// (the production default -- must stay within noise of (a)), and (c) the
// tracer enabled. The modes run interleaved, one rep of each per round in
// a rotating order, and each overhead is the median of the per-round
// ratios mode/off. Host drift then lands on all three modes alike; timed
// as separate per-mode batches, drift between the batches reads as
// overhead.
struct TracerLadder {
  static constexpr unsigned kThreads = 4;
  static constexpr int kRounds = 31;
  bench::RepetitionStats off;
  bench::RepetitionStats disabled;
  bench::RepetitionStats enabled;
  double disabled_pct = 0.0;
  double enabled_pct = 0.0;
  /// Standard error of the noisier overhead estimate, in percent:
  /// overhead deltas below this are indistinguishable from scheduler
  /// noise on this host. Shrinks with sqrt(kRounds).
  double noise_floor_pct = 0.0;
};

TracerLadder measure_tracer_overhead(const Cell& base) {
  enum Mode { kOff, kDisabled, kEnabled, kModes };
  obs::Tracer& tracer = obs::Tracer::global();
  const auto executor =
      exec::make_speculative_executor(TracerLadder::kThreads);
  account::RuntimeConfig configs[kModes] = {replay_config(), replay_config(),
                                            replay_config()};
  configs[kDisabled].obs = &obs::global_scope();
  configs[kEnabled].obs = &obs::global_scope();
  const auto run = [&](int mode) {
    if (mode == kEnabled) tracer.enable();
    account::StateDb db = *base.genesis;
    const double wall =
        executor->execute_block(db, base.block, configs[mode]).wall_seconds;
    tracer.disable();
    return wall;
  };

  std::vector<double> samples[kModes];
  std::vector<double> disabled_ratios;  // same-round wall / off wall
  std::vector<double> enabled_ratios;
  const int warmup = bench_warmup();
  for (int round = 0; round < warmup + TracerLadder::kRounds; ++round) {
    double wall[kModes];
    for (int k = 0; k < kModes; ++k) {
      const int mode = (round + k) % kModes;
      wall[mode] = run(mode);
    }
    if (round < warmup || wall[kOff] <= 0.0) continue;
    for (int mode = 0; mode < kModes; ++mode) {
      samples[mode].push_back(wall[mode]);
    }
    disabled_ratios.push_back(wall[kDisabled] / wall[kOff]);
    enabled_ratios.push_back(wall[kEnabled] / wall[kOff]);
  }
  tracer.clear();  // keep the overhead runs out of any exported trace

  TracerLadder ladder;
  ladder.off = bench::summarize(samples[kOff]);
  ladder.disabled = bench::summarize(samples[kDisabled]);
  ladder.enabled = bench::summarize(samples[kEnabled]);
  ladder.disabled.median_seconds *= g_slowdown_factor;
  ladder.enabled.median_seconds *= g_slowdown_factor;
  const auto overhead_pct = [&](std::vector<double>& r) {
    if (r.empty()) return 0.0;
    std::sort(r.begin(), r.end());
    const double iqr =
        bench::quantile_sorted(r, 0.75) - bench::quantile_sorted(r, 0.25);
    // Standard error of a sample median: 1.2533 * sigma / sqrt(n), with
    // sigma estimated robustly as IQR / 1.349.
    const double stderr_pct =
        0.929 * iqr / std::sqrt(static_cast<double>(r.size())) * 100.0;
    ladder.noise_floor_pct = std::max(ladder.noise_floor_pct, stderr_pct);
    return (bench::quantile_sorted(r, 0.5) * g_slowdown_factor - 1.0) * 100.0;
  };
  ladder.disabled_pct = overhead_pct(disabled_ratios);
  ladder.enabled_pct = overhead_pct(enabled_ratios);
  return ladder;
}

void write_bench_json(const std::string& profile_name,
                      const std::vector<Cell>& cells,
                      const std::vector<Row>& rows,
                      const TracerLadder& ladder) {
  const char* out_path = "BENCH.json";
  std::ofstream out(out_path);
  out << "{\n  \"profile\": \"" << profile_name << "\",\n"
      << "  \"block_txs\": " << cells.front().block_txs << ",\n"
      << "  \"block_sizes\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out << (i > 0 ? ", " : "") << cells[i].block_txs;
  }
  out << "],\n"
      << "  \"hw_cores\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"tx_work\": " << g_tx_work << ",\n"
      << "  \"reps\": " << bench_reps() << ",\n"
      << "  \"warmup\": " << bench_warmup() << ",\n"
      << "  \"sketch_k\": " << obs::SpaceSavingSketch::kDefaultK << ",\n"
      << "  \"obs\": {\"executor\": \"speculative\", \"threads\": "
      << TracerLadder::kThreads << ", \"block_txs\": "
      << cells.front().block_txs
      << ",\n    \"tracer_off_seconds\": " << ladder.off.median_seconds
      << ", \"tracer_off_iqr_seconds\": " << ladder.off.iqr_seconds
      << ",\n    \"tracer_disabled_seconds\": "
      << ladder.disabled.median_seconds
      << ", \"tracer_disabled_iqr_seconds\": " << ladder.disabled.iqr_seconds
      << ",\n    \"tracer_enabled_seconds\": " << ladder.enabled.median_seconds
      << ", \"tracer_enabled_iqr_seconds\": " << ladder.enabled.iqr_seconds
      << ",\n    \"disabled_overhead_pct\": " << ladder.disabled_pct
      << ", \"enabled_overhead_pct\": " << ladder.enabled_pct
      << ", \"noise_floor_pct\": " << ladder.noise_floor_pct << "},\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "    {\"executor\": \"" << row.executor << "\", \"threads\": "
        << row.threads << ", \"block_txs\": " << row.block_txs
        << ", \"reps\": " << row.reps
        << ", \"wall_seconds\": " << row.wall.median_seconds
        << ", \"wall_iqr_seconds\": " << row.wall.iqr_seconds
        << ", \"wall_speedup\": " << row.wall_speedup
        << ", \"simulated_speedup\": " << row.simulated_speedup
        << ", \"attempts_per_tx\": " << row.attempts_per_tx;
    if (row.explained) {
      if (!row.profile_error.empty()) {
        out << ",\n     \"profile_error\": \"" << row.profile_error << "\"";
      } else {
        out << ",\n     \"profile\": ";
        obs::write_profile_json(out, row.profile);
      }
      out << ",\n     \"intent_c\": " << row.intent_c
          << ", \"intent_l\": " << row.intent_l
          << ", \"contention_wall_seconds\": " << row.contention_wall
          << ", \"sketch_overhead\": " << row.sketch_overhead
          << ",\n     \"contention\": ";
      obs::write_json(out, row.contention, 5);
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << " (" << rows.size() << " cells over "
            << cells.size() << " block sizes, tx_work=" << g_tx_work
            << "; tracer overhead disabled "
            << analysis::fmt_double(ladder.disabled_pct, 2) << "%, enabled "
            << analysis::fmt_double(ladder.enabled_pct, 2)
            << "%, noise floor "
            << analysis::fmt_double(ladder.noise_floor_pct, 2) << "%)\n";
}

void write_bench() {
  static const ExecFixture fixture;
  std::vector<Cell> cells;
  cells.push_back({fixture.block.size(),
                   {fixture.block.data(), fixture.block.size()},
                   &fixture.genesis,
                   /*explained=*/true});
  for (const std::size_t size : large_block_sizes()) {
    const PoolFixture& pool = size > 10'000 ? huge_pool() : standard_pool();
    cells.push_back({size, pool.prefix(size), &pool.genesis,
                     /*explained=*/size == 1000});
  }
  const std::vector<Row> rows = run_cells(cells);
  // Phase attribution at both ends of the amortization curve: the base
  // block shows the per-block fixed costs, the 1k block shows the
  // steady state the large-block cells gate (DESIGN.md §13).
  print_phase_breakdown(rows, fixture.block.size());
  print_phase_breakdown(rows, 1000);
  write_bench_json(fixture.profile.name, cells, rows,
                   measure_tracer_overhead(cells.front()));
}

}  // namespace

int main(int argc, char** argv) {
  // TXCONC_TX_WORK seeds the knob; an explicit --tx-work=N wins. Any
  // other argument, and a malformed number in either knob or in
  // TXCONC_BENCH_INJECT_SLOWDOWN_PCT, is a usage error (exit 2).
  const auto usage = [](std::string_view what) {
    std::cerr << "ablation_engines: " << what
              << " (usage: ablation_engines [--tx-work=N]; env "
                 "TXCONC_TX_WORK=N, TXCONC_BENCH_INJECT_SLOWDOWN_PCT=P)\n";
    return 2;
  };
  const auto parse_tx_work = [](std::string_view text) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, g_tx_work);
    return ec == std::errc() && ptr == end;
  };
  if (const char* env_work = std::getenv("TXCONC_TX_WORK")) {
    if (!parse_tx_work(env_work)) {
      return usage("malformed tx work '" + std::string(env_work) + "'");
    }
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const std::string_view prefix = "--tx-work=";
    if (arg.substr(0, prefix.size()) != prefix) {
      return usage("unknown argument '" + std::string(arg) + "'");
    }
    if (!parse_tx_work(arg.substr(prefix.size()))) {
      return usage("malformed tx work '" + std::string(arg) + "'");
    }
  }
  if (const char* pct = std::getenv("TXCONC_BENCH_INJECT_SLOWDOWN_PCT")) {
    const std::string_view text(pct);
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
      return usage("malformed slowdown percentage '" + std::string(text) +
                   "'");
    }
    g_slowdown_factor = 1.0 + value / 100.0;
  }
  write_bench();
  return 0;
}
