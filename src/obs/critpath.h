// Trace-driven critical-path profiler with wall-clock stall attribution.
//
// Consumes a Chrome trace produced by obs::Tracer (validate it first with
// validate_chrome_trace) and, for every `execute_block` span found,
// answers the two questions the wall-clock ROADMAP item needs:
//
//  1. Where does the block's wall time go? The caller's phase chain and
//     the busiest worker chains are reported as critical paths with
//     per-segment durations (top-k, aggregated by span name).
//
//  2. Where do ALL the microseconds go? Every span's self time (duration
//     minus direct children) is bucketed by name into a fixed taxonomy —
//     graph build, schedule, tx execute, rework, dependency wait, commit,
//     pool idle, untracked — over the full budget of threads x wall
//     (participants come from the `threads` instant every engine emits).
//     Worker time not covered by a pool task is measured pool idle;
//     participants that never emitted an event contribute a full wall of
//     pool idle. The one deliberate hole is the caller's execute_block
//     self time (inter-phase gaps, reported as `uncovered`): healthy
//     traces keep it at a few microseconds, so "buckets must sum to the
//     budget within eps" is a falsifiable invariant — drop a phase span
//     from the trace and check_attribution fails.
//
// Span and bucket names are pinned in obs/names.h; DESIGN.md §16 has the
// span-DAG model and the add-a-bucket recipe.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace txconc::obs {

/// Attribution buckets of the threads x wall budget, in report order.
enum class Bucket : unsigned {
  kGraphBuild = 0,  ///< predict + TDG closure/components sub-phases
  kSchedule,        ///< schedule span + pool-task dispatch/claim overhead
  kTxExecute,       ///< final (committed) transaction executions
  kRework,          ///< aborted/duplicate attempts + validation sweeps
  kDependencyWait,  ///< join/barrier residuals + scheduler wait spans
  kCommit,          ///< commit walks + sequential-tail orchestration
  kPoolIdle,        ///< participant time with no task in the block window
  kUntracked,       ///< spans the taxonomy does not recognize
  kCount,
};

/// Stable snake_case identifier ("graph_build", ...), shared by the text
/// and JSON reports and by scripts/bench_gate.
const char* bucket_name(Bucket bucket);

/// One segment of a critical-path chain (spans aggregated by name, in
/// order of first appearance on the chain).
struct PathSegment {
  std::string name;
  double us = 0.0;
  std::size_t count = 0;  ///< spans folded into this segment
};

/// One chain: the caller's top-level phase chain, or one worker's busy
/// chain inside the block window (ranked by busy time).
struct CritPath {
  std::string label;  ///< "caller" or the worker's thread name
  double us = 0.0;    ///< total time on the chain
  std::vector<PathSegment> segments;
};

/// Profile of one execute_block span.
struct BlockProfile {
  std::string process;      ///< engine label (trace process name)
  std::size_t num_txs = 0;  ///< execute_block arg
  double wall_us = 0.0;     ///< execute_block duration
  unsigned threads = 0;     ///< participants (the `threads` instant arg)
  double budget_us = 0.0;   ///< threads x wall
  double buckets_us[static_cast<std::size_t>(Bucket::kCount)] = {};
  double bucket_sum_us = 0.0;
  /// budget - bucket sum: the caller's inter-phase gaps (plus clipping /
  /// float residue). The sum invariant bounds this, see check_attribution.
  double uncovered_us = 0.0;
  std::vector<CritPath> paths;  ///< [0] = caller chain, then top workers
  std::string dominant_segment;  ///< largest segment of paths[0]
  double dominant_us = 0.0;
  /// Largest caller-chain segment that is engine overhead rather than
  /// execution work (execute / seq_bin / tx excluded): the measurable
  /// form of the DESIGN.md §13.3 finding — for speculative at 1 thread
  /// this names predict (graph build).
  std::string dominant_overhead_segment;
  double dominant_overhead_us = 0.0;
  /// Block-STM suspended-reader instants inside the window.
  std::size_t suspend_count = 0;
  /// blocker tx index -> number of suspensions it caused.
  std::map<std::int64_t, std::size_t> suspend_blockers;
};

struct ProfileResult {
  bool ok = false;
  std::string error;
  std::vector<BlockProfile> blocks;  ///< one per execute_block, file order
};

/// Analyze a Chrome trace. Returns ok=false with an error when the trace
/// cannot be interpreted (malformed JSON, unbalanced spans, an
/// execute_block without a `threads` instant). `top_k` bounds the chains
/// reported per block (1 caller chain + up to top_k-1 worker chains).
ProfileResult profile_chrome_trace(const std::string& json,
                                   std::size_t top_k = 4);

/// Attribution sanity gates for one block profile: the buckets must sum
/// to the threads x wall budget within eps_fraction, and the untracked
/// bucket must stay below untracked_max of the budget. Without an
/// explicit eps_fraction the tolerance follows the block size: 2 % at
/// >= 1000 txs, 5 % below, where per-block fixed costs do not amortize
/// (DESIGN.md §13.2; scripts/bench_gate check 11 applies the same rule).
/// Returns the empty string when both hold, else a human-readable
/// violation.
std::string check_attribution(const BlockProfile& profile,
                              std::optional<double> eps_fraction = {},
                              double untracked_max = 0.10);

/// Text report for one block profile (txconc_explain's text output).
void write_profile_text(std::ostream& out, const BlockProfile& profile);
/// JSON object for one block profile: the `profile` object of
/// txconc_explain --format=json and of BENCH.json's explained rows.
void write_profile_json(std::ostream& out, const BlockProfile& profile);

}  // namespace txconc::obs
