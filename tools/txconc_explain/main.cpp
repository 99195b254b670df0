// txconc-explain CLI: one report per block answering the paper's two
// questions about it -- where the engine's wall clock went (critical path
// and threads x wall attribution, obs/critpath.h) and how conflicted the
// block was (measured c / l, component histogram, prediction quality, hot
// keys and per-reason abort attribution, obs/contention.h).
//
//   txconc_explain [--engine=<name>] [--threads=N] [--blocks=N] [--seed=S]
//                  [--format=text|json] [--eps=F] [--untracked-max=F]
//                  [<trace.json>...]
//
// Engine mode (no positional arguments): every registry engine (or just
// --engine) replays the last --blocks history blocks. Each block runs
// twice (DESIGN.md §16.2 warm protocol); the second run is traced with
// the contention probe installed and reported. --format=json emits one
// {executor, threads, block, profile, contention} object per block.
//
// Trace mode: each input is a Chrome trace written by obs::Tracer
// (parallel_executor --trace, Tracer::write_chrome_trace_file). It is
// validated, then every execute_block span is profiled (--engine keeps
// one trace process); --format=json emits one profile object per block.
//
// --eps overrides the attribution sum tolerance, which otherwise follows
// the block size (obs::check_attribution). Exit codes:
//   0  every block passes the attribution and contention gates
//   1  a gate failed (sum off budget, untracked share too high, rate out
//      of range, histogram does not cover the block, sink/engine abort
//      tallies disagree, sound closure missed an observed address)
//   2  usage, unknown engine, I/O, or malformed/unanalyzable trace
#include <charconv>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/report.h"
#include "exec/contention_probe.h"
#include "exec/executor.h"
#include "exec/replay.h"
#include "obs/contention.h"
#include "obs/critpath.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "workload/profiles.h"

namespace {

using namespace txconc;

// Critical-path chains per block profile, and hot / abort keys per
// contention report.
constexpr std::size_t kTopChains = 4;
constexpr std::size_t kTopKeys = 10;

std::string registry_names() {
  std::string names;
  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

/// Parse all of `text` as a number; false on empty input, a stray sign,
/// trailing characters or overflow (a usage error, not an exception).
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

int usage() {
  std::cerr << "usage: txconc_explain [--engine=<name>] [--threads=N] "
               "[--blocks=N] [--seed=S]\n"
               "                      [--format=text|json] [--eps=F] "
               "[--untracked-max=F] [<trace.json>...]\n"
               "  registered engines: "
            << registry_names() << "\n";
  return 2;
}

/// Self-consistency gates over one explained block; returns the first
/// violation ("" = pass). These are invariants of the measurement layer
/// itself, independent of the workload.
std::string check_contention(const obs::BlockContention& b) {
  const auto bad_rate = [](double v) { return !(v >= 0.0 && v <= 1.0); };
  if (bad_rate(b.measured_c) || bad_rate(b.measured_l)) {
    return "measured c/l out of [0,1]";
  }
  if (b.measured_l > b.measured_c + 1e-12) return "measured l > measured c";
  if (bad_rate(b.measured_c_address) || bad_rate(b.measured_l_address)) {
    return "address-granularity c/l out of [0,1]";
  }
  if (b.measured_l_address > b.measured_c_address + 1e-12) {
    return "address-granularity l > c";
  }
  std::size_t covered = 0;
  for (const obs::ComponentBucket& bucket : b.component_histogram) {
    covered += bucket.size * bucket.count;
  }
  if (covered != b.num_txs) {
    return "component histogram does not cover the block";
  }
  if (bad_rate(b.precision) || bad_rate(b.recall)) {
    return "precision/recall out of [0,1]";
  }
  if (b.has_prediction && b.recall < 1.0 - 1e-12) {
    // The a-priori closure is sound for the shipped contract library
    // (exec/predict.h), so every observed address must be predicted.
    return "sound closure missed an observed address (recall < 1)";
  }
  if (b.has_prediction && b.over_approx + 1e-12 < 1.0) {
    return "over-approximation ratio below 1 despite recall 1";
  }
  for (std::size_t r = 0; r < obs::kNumAbortReasons; ++r) {
    if (b.sink_abort_totals[r] != b.engine_abort_totals[r]) {
      std::ostringstream msg;
      msg << "sink/engine abort tallies disagree for "
          << obs::abort_reason_name(static_cast<obs::AbortReason>(r)) << " ("
          << b.sink_abort_totals[r] << " vs " << b.engine_abort_totals[r]
          << ")";
      return msg.str();
    }
  }
  if (b.num_txs > 0 && b.total_touches == 0) {
    return "no touches recorded for a non-empty block";
  }
  return "";
}

struct Options {
  bool json = false;
  std::string engine;
  std::optional<double> eps;  ///< unset: obs::check_attribution's default
  double untracked_max = 0.10;
  unsigned threads = 4;
  std::uint64_t blocks = 1;
  std::uint64_t seed = 42;
};

/// Opens the next element of the --format=json array (main writes the
/// brackets).
void open_json_element() {
  static bool first = true;
  std::cout << (first ? "\n" : ",\n");
  first = false;
}

/// Trace mode: profile every execute_block of the given Chrome traces.
int explain_traces(const Options& options,
                   const std::vector<std::string>& inputs) {
  bool gate_failed = false;
  std::size_t matched = 0;
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "txconc_explain: cannot read '" << path << "'\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string trace = buffer.str();

    const obs::TraceValidation validation = obs::validate_chrome_trace(trace);
    if (!validation.ok) {
      std::cerr << "txconc_explain: '" << path
                << "' failed validation: " << validation.error << "\n";
      return 2;
    }
    const obs::ProfileResult result =
        obs::profile_chrome_trace(trace, kTopChains);
    if (!result.ok) {
      std::cerr << "txconc_explain: '" << path << "': " << result.error
                << "\n";
      return 2;
    }
    for (const obs::BlockProfile& block : result.blocks) {
      // Multi-engine traces like parallel_executor's carry every engine
      // side by side, one trace process each.
      if (!options.engine.empty() && block.process != options.engine) {
        continue;
      }
      ++matched;
      if (options.json) {
        open_json_element();
        obs::write_profile_json(std::cout, block);
      } else {
        obs::write_profile_text(std::cout, block);
      }
      const std::string violation =
          obs::check_attribution(block, options.eps, options.untracked_max);
      if (!violation.empty()) {
        gate_failed = true;
        std::cerr << "txconc_explain: " << violation << "\n";
      }
    }
  }
  if (!options.engine.empty() && matched == 0) {
    std::cerr << "txconc_explain: no blocks from engine '" << options.engine
              << "' in the given traces\n";
    return 2;
  }
  return gate_failed ? 1 : 0;
}

/// Engine mode: replay, trace and explain each selected registry engine.
int explain_engines(const Options& options) {
  std::vector<const exec::ExecutorSpec*> specs;
  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    if (options.engine.empty() || spec.name == options.engine) {
      specs.push_back(&spec);
    }
  }
  if (specs.empty()) {
    std::cerr << "txconc_explain: unknown engine \"" << options.engine
              << "\"; registered engines: " << registry_names() << "\n";
    return 2;
  }

  const workload::ChainProfile profile = workload::ethereum_profile();
  const std::uint64_t skip = options.blocks < profile.default_blocks
                                 ? profile.default_blocks - options.blocks
                                 : 0;
  obs::Tracer& tracer = obs::Tracer::global();
  bool gate_failed = false;
  for (const exec::ExecutorSpec* spec : specs) {
    const unsigned threads = spec->parallel ? options.threads : 1;
    exec::ContentionProbe probe;
    std::vector<exec::ExecutionReport> reports;
    tracer.clear();
    tracer.enable();
    {
      const auto executor = spec->make(threads);
      // Two replayers in lockstep: `warm` runs each block first, so the
      // reported run sees warm tracer buffers and scratch (the profiler
      // books one-time allocation inside execute_block as `uncovered`).
      exec::HistoryReplayer warm(profile, options.seed, skip);
      warm.set_obs(&obs::global_scope());
      exec::HistoryReplayer measured(profile, options.seed, skip);
      obs::Scope scope = obs::global_scope();
      scope.contention = probe.sink();
      measured.set_obs(&scope);
      measured.set_block_observer(&probe);
      measured.set_access_recorder(probe.recorder());
      for (std::uint64_t b = 0;
           b < options.blocks && measured.remaining() > 0; ++b) {
        warm.replay_next(*executor);
        reports.push_back(measured.replay_next(*executor));
      }
      // Destroying the executor joins its pool: the workers' final
      // pool_task ends land in the buffers before we serialize.
    }
    tracer.disable();
    std::ostringstream trace;
    tracer.write_chrome_trace(trace);
    const obs::ProfileResult profiled =
        obs::profile_chrome_trace(trace.str(), kTopChains);
    std::string error;
    if (tracer.dropped() > 0) {
      error = std::to_string(tracer.dropped()) +
              " trace events dropped (ring wrapped); replay fewer --blocks";
    } else if (!profiled.ok) {
      error = profiled.error;
    } else if (profiled.blocks.size() != 2 * reports.size()) {
      error = "expected " + std::to_string(2 * reports.size()) +
              " execute_block spans, profiled " +
              std::to_string(profiled.blocks.size());
    }
    tracer.clear();
    if (!error.empty()) {
      std::cerr << "txconc_explain: " << spec->name << ": " << error << "\n";
      return 2;
    }

    for (std::size_t b = 0; b < reports.size(); ++b) {
      const exec::ExecutionReport& report = reports[b];
      const obs::BlockProfile& block = profiled.blocks[2 * b + 1];
      const obs::BlockContention& contention = probe.blocks()[b];
      if (options.json) {
        open_json_element();
        std::cout << "{\"executor\": \"" << spec->name
                  << "\", \"threads\": " << threads << ", \"block\": " << b
                  << ", \"profile\": ";
        obs::write_profile_json(std::cout, block);
        std::cout << ", \"contention\": ";
        obs::write_json(std::cout, contention, kTopKeys);
        std::cout << "}";
      } else {
        std::cout << "== engine " << spec->name << ", threads " << threads
                  << ", block " << b << " ==\n"
                  << "exec: " << report.num_txs << " txs, "
                  << report.executions << " executions, "
                  << report.sequential_txs << " sequential, unit-cost speed-up "
                  << analysis::fmt_double(report.simulated_speedup, 2)
                  << "x, wall "
                  << analysis::fmt_double(report.wall_seconds * 1e6, 1)
                  << " us\n";
        obs::write_profile_text(std::cout, block);
        obs::write_text(std::cout, contention, kTopKeys);
        std::cout << "\n";
      }
      for (const std::string& violation :
           {obs::check_attribution(block, options.eps, options.untracked_max),
            check_contention(contention)}) {
        if (violation.empty()) continue;
        gate_failed = true;
        std::cerr << "txconc_explain: " << spec->name << " block " << b
                  << ": " << violation << "\n";
      }
    }
  }
  return gate_failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool engine_mode_flag = false;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--engine=", 0) == 0) {
      options.engine = arg.substr(9);
      if (options.engine.empty()) return usage();
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!parse_number(arg.substr(10), options.threads) ||
          options.threads == 0) {
        return usage();
      }
      engine_mode_flag = true;
    } else if (arg.rfind("--blocks=", 0) == 0) {
      if (!parse_number(arg.substr(9), options.blocks) ||
          options.blocks == 0) {
        return usage();
      }
      engine_mode_flag = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_number(arg.substr(7), options.seed)) return usage();
      engine_mode_flag = true;
    } else if (arg == "--format=text" || arg == "--format=json") {
      options.json = arg == "--format=json";
    } else if (arg.rfind("--eps=", 0) == 0) {
      double eps = 0.0;
      if (!parse_number(arg.substr(6), eps) || !(eps >= 0.0)) return usage();
      options.eps = eps;
    } else if (arg.rfind("--untracked-max=", 0) == 0) {
      if (!parse_number(arg.substr(16), options.untracked_max) ||
          !(options.untracked_max >= 0.0)) {
        return usage();
      }
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  // --threads / --blocks / --seed shape the replay; a trace is already
  // recorded.
  if (!inputs.empty() && engine_mode_flag) return usage();
  if (options.json) std::cout << "[";
  const int code = inputs.empty() ? explain_engines(options)
                                  : explain_traces(options, inputs);
  if (options.json) std::cout << "\n]\n";
  return code;
}
