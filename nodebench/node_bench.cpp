// Node benchmark: produce -> validate a generated Ethereum-like chain.
//
// For one workload and seed the program generates a transaction stream,
// seeds identical genesis state into a producer AccountNode and into one
// validator AccountNode per engine, produces the chain with produce_block
// and validates every block with receive_block on every validator. The
// validators advance in lockstep, one block at a time, and the engine that
// goes first rotates with the block height. One pass over the stream is a
// round; rounds repeat on fresh nodes (same stream, same chain) until
// --seconds of chain time is measured. The last stdout line is the JSON
// result; README.md describes the workloads and the metrics.
//
//   node_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics with no spans recorded.
// --trace 1 alternates untraced and traced rounds and reports the
// per-layer metrics: spans recorded here, around the calls into the
// chain, exec and account layers, plus standalone timings of single
// layers taken between those calls. Nothing is recorded inside src/.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "account/state_trie.h"
#include "analysis/block_analyzer.h"
#include "chain/block.h"
#include "chain/node.h"
#include "common/error.h"
#include "exec/executor.h"
#include "exec/predict.h"
#include "workload/account_workload.h"
#include "workload/profiles.h"

namespace {

using namespace txconc;
using Clock = std::chrono::steady_clock;
using AccountBlock = chain::Block<account::AccountTx>;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------- workloads

/// Genesis balance of every address the stream names: covers any sender's
/// value plus fees over a whole round, and 10^5 such balances still fit in
/// 64 bits.
constexpr std::uint64_t kGenesisBalance = 100'000'000'000'000ULL;
/// Users per traffic category on eth-root; with five categories and the
/// contract population this gives about 180 accounts.
constexpr double kRootUsers = 15.0;
/// Transactions per round: blocks close at the gas limit with about 400
/// transactions, so a round's chain is 105 to 120 blocks.
constexpr std::size_t kRoundTxs = 46'000;
/// Mempool fill before each produce_block: one maximal block
/// (max_block_txs), so every block fills to the gas limit.
constexpr std::size_t kMempoolTarget = 500;
/// A run's p90 needs at least this many blocks (>= 10 beyond it); every
/// workload's round chain is longer.
constexpr std::size_t kMinBlocks = 100;
/// Set-ups timed per untraced run (setup_s is their median).
constexpr std::size_t kMinSetups = 3;
/// Rounds run unmeasured until this much wall time has passed: thread
/// pools, allocators and caches settle, and on a virtual machine the idle
/// vCPUs are back in service (their wake-up takes about two seconds).
constexpr double kWarmupSeconds = 3.0;
/// No round starts after this much wall time (the run must end in 180 s).
constexpr double kWallCapSeconds = 120.0;

struct Workload {
  std::string name;
  workload::EraParams era;       // held flat over the whole stream
  std::uint32_t synthetic_work;  // RuntimeConfig::synthetic_work
  bool commit_state_root;        // AccountNodeConfig::commit_state_root
};

std::optional<Workload> find_workload(const std::string& name) {
  const workload::ChainProfile eth = workload::ethereum_profile();
  const workload::EraParams final_era = eth.at(1.0);  // 2019
  const workload::EraParams early_era = eth.at(0.0);  // 2015/16
  // eth-root: the final-era mix over a capped population, without contract
  // creations (each would add an account), so the account set stays fixed.
  workload::EraParams small_era = final_era;
  small_era.num_users = kRootUsers;
  small_era.creation_share = 0.0;
  const std::vector<Workload> all = {
      {"eth-light", final_era, 0, false},
      {"eth-heavy", final_era, 10'000, false},
      {"eth-hot", early_era, 10'000, false},
      {"eth-root", small_era, 0, true},
  };
  for (const Workload& w : all) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

/// The generated inputs of one round: what genesis must hold and the
/// transactions to submit, in generation order.
struct Stream {
  std::vector<std::pair<Address, account::ContractCode>> contracts;
  std::vector<Address> funded;
  std::vector<account::AccountTx> txs;
};

Stream generate(const Workload& w, std::uint64_t seed, std::size_t num_txs) {
  workload::ChainProfile profile = workload::ethereum_profile();
  workload::EraParams era = w.era;
  // Generator blocks only chunk the stream; the producer packs node blocks.
  era.txs_per_block = 300.0;
  profile.eras = {era};
  workload::AccountWorkloadGenerator gen(profile, seed, /*num_blocks=*/1u << 20);

  Stream s;
  gen.state().for_each_account([&](const Address& addr) {
    if (const account::ContractCode* code = gen.state().code(addr)) {
      s.contracts.emplace_back(addr, *code);
    }
  });
  std::sort(s.contracts.begin(), s.contracts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  s.txs.reserve(num_txs);
  while (s.txs.size() < num_txs) {
    workload::GeneratedBlock block = gen.next_block();
    for (account::AccountTx& tx : block.account_txs) {
      if (s.txs.size() == num_txs) break;
      s.txs.push_back(std::move(tx));
    }
  }

  // The node's genesis can fund accounts and deploy code, nothing else:
  // the generator's out-of-band top-ups and token grants are replaced by
  // funding every named address once.
  for (const account::AccountTx& tx : s.txs) {
    s.funded.push_back(tx.from);
    if (tx.to) s.funded.push_back(*tx.to);
    s.funded.insert(s.funded.end(), tx.address_args.begin(),
                    tx.address_args.end());
  }
  std::sort(s.funded.begin(), s.funded.end());
  s.funded.erase(std::unique(s.funded.begin(), s.funded.end()), s.funded.end());
  std::erase_if(s.funded, [&](const Address& a) {
    return gen.state().code(a) != nullptr;
  });
  return s;
}

void seed_genesis(chain::AccountNode& node, const Stream& s) {
  for (const auto& [addr, code] : s.contracts) node.genesis_deploy(addr, code);
  for (const Address& addr : s.funded) node.genesis_fund(addr, kGenesisBalance);
}

void seed_genesis(account::StateDb& state, const Stream& s) {
  for (const auto& [addr, code] : s.contracts) {
    account::genesis_deploy(state, addr, code);
  }
  for (const Address& addr : s.funded) state.set_balance(addr, kGenesisBalance);
  state.flush_journal();
}

// ---------------------------------------------------------------- spans

/// In-memory span log, written out when the run ends. A span's parent is
/// the index of the span that caused it (-1 for a round).
class SpanLog {
 public:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    std::int64_t arg;
  };

  int open(const char* name, int parent, std::int64_t arg = 0,
           Clock::time_point start = Clock::now()) {
    spans_.push_back({name, start, start, parent, arg});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, Clock::time_point end = Clock::now()) {
    spans_[static_cast<std::size_t>(id)].end = end;
  }

  struct Totals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // total minus the children's durations
  };
  /// Per span name: count, summed duration and summed self time.
  std::map<std::string, Totals> totals() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ms[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
      }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const double ms = ms_between(spans_[i].start, spans_[i].end);
      ++t.count;
      t.total_ms += ms;
      t.self_ms += ms - child_ms[i];
    }
    return out;
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto); `id` and
  /// `parent` args keep the causal tree explicit.
  void write_chrome_trace(std::ostream& out) const {
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[320];
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"arg\":%lld}}",
                    i == 0 ? "" : ",", s.name, us(s.start),
                    us(s.end) - us(s.start), i, s.parent,
                    static_cast<long long>(s.arg));
      out << line;
    }
    out << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ measurement

/// Nearest-rank percentile: with n >= 100 samples the p90 leaves at least
/// ten samples above it.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// One closed-loop call series (produce_block, or receive_block on one
/// engine) over a run's rounds. Every round builds the same chain, so
/// call i of every round handles block i. A block's latency is the fastest
/// of its calls over the rounds: on a shared host, stalls of a few seconds
/// slow a parallel engine's calls at random, and the fastest call is the
/// one they spared.
class CallSeries {
 public:
  void begin_round() { round_ms_.emplace_back(); }
  void add(double ms, std::size_t txs) {
    if (round_ms_.size() == 1) block_txs_.push_back(static_cast<double>(txs));
    round_ms_.back().push_back(ms);
  }
  std::size_t rounds() const { return round_ms_.size(); }
  std::size_t blocks() const { return block_txs_.size(); }

  /// Per-block latency: the fastest call over the rounds.
  std::vector<double> block_ms() const {
    std::vector<double> out(block_txs_.size(), std::numeric_limits<double>::infinity());
    for (const std::vector<double>& r : round_ms_) {
      for (std::size_t b = 0; b < r.size() && b < out.size(); ++b) {
        out[b] = std::min(out[b], r[b]);
      }
    }
    return out;
  }
  /// Transactions per second of the chain at its per-block latencies.
  double tps() const {
    const double ms = sum(block_ms());
    return ms > 0.0 ? sum(block_txs_) / (ms / 1e3) : 0.0;
  }
  /// Transactions per second of each round alone.
  std::vector<double> round_tps() const {
    std::vector<double> out;
    for (const std::vector<double>& r : round_ms_) {
      if (sum(r) > 0.0) out.push_back(sum(block_txs_) / (sum(r) / 1e3));
    }
    return out;
  }

 private:
  std::vector<std::vector<double>> round_ms_;  // [round][block]
  std::vector<double> block_txs_;              // [block]
};

/// ExecutionReport counters summed over the traced blocks of one engine.
struct ReportTotals {
  std::size_t blocks = 0;
  std::size_t txs = 0;
  std::size_t executions = 0;
  std::size_t sequential_txs = 0;
  std::uint64_t aborts = 0;
  std::uint64_t pool_tasks = 0;
  std::uint64_t grains = 0;
  std::uint64_t caller_grains = 0;
  double phase1_ms = 0.0;
  double phase2_ms = 0.0;
  double simulated_units = 0.0;

  void add(const exec::ExecutionReport& r) {
    ++blocks;
    txs += r.num_txs;
    executions += r.executions;
    sequential_txs += r.sequential_txs;
    for (const std::uint64_t n : r.abort_reasons) aborts += n;
    pool_tasks += r.sched.pool_tasks;
    grains += r.sched.grains;
    caller_grains += r.sched.grains_caller_run;
    phase1_ms += r.sched.phase1_seconds * 1e3;
    phase2_ms += r.sched.phase2_seconds * 1e3;
    simulated_units += r.simulated_units;
  }
};

/// What a round is for. Warm-up rounds (at least the first) are not
/// measured; traced rounds record spans and standalone layer timings.
enum Mode : std::size_t { kWarmup = 0, kUntraced = 1, kTraced = 2 };

struct Validator {
  std::string engine;
  std::string receive_span;  // "receive_block.<engine>"
  std::string execute_span;  // "execute.<engine>"
  std::unique_ptr<exec::BlockExecutor> executor;
  std::unique_ptr<chain::AccountNode> node;
  CallSeries series[3];  // indexed by Mode
  ReportTotals reports;
  // Set around a traced receive_block: the executor callback's span log
  // and parent span.
  SpanLog* log = nullptr;
  int receive_span_id = -1;
};

/// Everything measured or learned in traced rounds, outside the spans.
struct LayerTotals {
  std::size_t blocks = 0;
  std::size_t txs = 0;
  std::size_t reverts = 0;
  std::size_t reads = 0;
  double read_ns = 0.0;
  double c_sum = 0.0;
  double l_sum = 0.0;
  double accounts_sum = 0.0;
  std::size_t root_calls = 0;
  double root_ms = 0.0;
  double root_us_per_account_sum = 0.0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

class NodeBench {
 public:
  NodeBench(Workload w, Options opt) : w_(std::move(w)), opt_(std::move(opt)) {
    cpu_set_t set;
    CPU_ZERO(&set);
    const int cpus =
        sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
    // participants = the calling thread plus the pool's workers.
    workers_ = static_cast<unsigned>(std::max(cpus - 1, 1));
    for (const char* engine : {"sequential", "speculative", "group-lpt", "block-stm"}) {
      Validator& v = validators_.emplace_back();
      v.engine = engine;
      v.receive_span = "receive_block." + v.engine;
      v.execute_span = "execute." + v.engine;
      v.executor = exec::make_executor(v.engine, workers_);
    }
    shadow_runtime_.synthetic_work = 0;  // the burn does not change results
  }

  /// Run rounds until the time budget is spent; returns the exit code.
  int run() {
    const Clock::time_point run_start = Clock::now();
    std::size_t measured_rounds = 0;
    for (std::size_t round = 0;; ++round) {
      const double warm = ms_between(run_start, Clock::now()) / 1e3;
      const Mode mode = round == 0 || warm < kWarmupSeconds ? kWarmup
                        : opt_.trace && measured_rounds++ % 2 == 1 ? kTraced
                                                                   : kUntraced;
      run_round(round, mode);
      if (!errors_.empty()) break;
      // A traced run ends on a traced round.
      const bool enough =
          measured_s_ >= opt_.seconds &&
          (!opt_.trace || mode == kTraced);
      const double wall = ms_between(run_start, Clock::now()) / 1e3;
      if (enough || wall > kWallCapSeconds) break;
    }
    // setup_s is a median: long rounds leave too few set-ups to take one
    // from, so time extra ones.
    while (!opt_.trace && errors_.empty() && setup_s_.size() < kMinSetups) {
      const Clock::time_point start = Clock::now();
      set_up(kRoundTxs, false);
      setup_s_.push_back(ms_between(start, Clock::now()) / 1e3);
    }
    return report();
  }

 private:
  chain::AccountNodeConfig node_config(const std::string& label) const {
    chain::AccountNodeConfig config;
    config.runtime.synthetic_work = w_.synthetic_work;
    config.commit_state_root = w_.commit_state_root;
    config.trace_label = label;
    return config;
  }

  chain::BlockExecutionFn executor_callback(Validator& v) {
    return [&v](account::StateDb& state, std::span<const account::AccountTx> txs,
                const account::RuntimeConfig& runtime) {
      if (v.log == nullptr) {
        return v.executor->execute_block(state, txs, runtime).receipts;
      }
      const int span = v.log->open(v.execute_span.c_str(), v.receive_span_id,
                                   static_cast<std::int64_t>(txs.size()));
      exec::ExecutionReport report = v.executor->execute_block(state, txs, runtime);
      v.log->close(span);
      v.reports.add(report);
      return std::move(report.receipts);
    };
  }

  void fail(const std::string& what) {
    if (errors_.size() < 20) errors_.push_back(what);
  }

  /// A round's inputs and fresh nodes (the validators' nodes live in
  /// validators_).
  struct RoundSetup {
    Stream stream;
    std::unique_ptr<chain::AccountNode> producer;
    std::optional<account::StateDb> shadow;
  };

  /// Set-up: generation and genesis seeding on fresh nodes.
  RoundSetup set_up(std::size_t num_txs, bool with_shadow) {
    RoundSetup r{generate(w_, opt_.seed, num_txs),
                 std::make_unique<chain::AccountNode>(node_config("producer")),
                 std::nullopt};
    seed_genesis(*r.producer, r.stream);
    for (Validator& v : validators_) {
      v.node = std::make_unique<chain::AccountNode>(node_config(v.engine),
                                                    executor_callback(v));
      seed_genesis(*v.node, r.stream);
    }
    if (with_shadow) seed_genesis(r.shadow.emplace(), r.stream);
    return r;
  }

  void run_round(std::size_t round, Mode mode) {
    const bool traced = mode == kTraced;
    // Warm-up rounds build an eighth of the chain.
    const Clock::time_point setup_start = Clock::now();
    RoundSetup setup =
        set_up(mode == kWarmup ? kRoundTxs / 8 : kRoundTxs, traced);
    if (mode == kWarmup) {
      warmup_rounds_++;
    } else {
      setup_s_.push_back(ms_between(setup_start, Clock::now()) / 1e3);
    }
    Stream& stream = setup.stream;
    chain::AccountNode& producer = *setup.producer;
    std::optional<account::StateDb>& shadow = setup.shadow;
    if (setup_s_.size() == 1 && mode != kWarmup) {
      std::printf("genesis: %zu funded accounts, %zu contracts, %zu txs per round\n",
                  stream.funded.size(), stream.contracts.size(), stream.txs.size());
    }

    // ---- the chain, in lockstep.
    SpanLog* const log = traced ? &log_ : nullptr;
    const int round_span = log ? log->open("round", -1, static_cast<std::int64_t>(round)) : -1;
    const Clock::time_point chain_start = Clock::now();
    const std::size_t submitted = stream.txs.size();
    produce_[mode].begin_round();
    for (Validator& v : validators_) v.series[mode].begin_round();
    std::size_t next = 0;
    std::size_t blocks = 0;
    for (std::uint64_t height = 0;; ++height) {
      while (next < stream.txs.size() && producer.mempool_size() < kMempoolTarget) {
        try {
          producer.submit_transaction(std::move(stream.txs[next]));
        } catch (const ValidationError& e) {
          fail(std::string("submit rejected: ") + e.what());
        }
        ++next;
      }
      if (producer.mempool_size() == 0) break;

      const int block_span =
          log ? log->open("block", round_span, static_cast<std::int64_t>(height)) : -1;
      const Clock::time_point p0 = Clock::now();
      const int produce_span = log ? log->open("produce_block", block_span, 0, p0) : -1;
      const AccountBlock block = producer.produce_block(height + 1);
      const Clock::time_point p1 = Clock::now();
      if (log) log->close(produce_span, p1);
      if (block.transactions.empty()) {
        if (log) log->close(block_span);
        fail("the producer packed an empty block with a non-empty mempool");
        break;
      }
      produce_[mode].add(ms_between(p0, p1), block.size());
      ++blocks;

      if (traced) measure_layers(block, *shadow, block_span);

      for (std::size_t k = 0; k < validators_.size(); ++k) {
        Validator& v = validators_[(height + k) % validators_.size()];
        const Clock::time_point r0 = Clock::now();
        if (log) {
          v.log = log;
          v.receive_span_id = log->open(v.receive_span.c_str(), block_span,
                                        static_cast<std::int64_t>(height), r0);
        }
        try {
          v.node->receive_block(block);
        } catch (const ValidationError& e) {
          ++rejected_;
          fail(v.engine + " rejected block " + std::to_string(height) + ": " + e.what());
        }
        const Clock::time_point r1 = Clock::now();
        if (log) {
          log->close(v.receive_span_id, r1);
          v.log = nullptr;
        }
        v.series[mode].add(ms_between(r0, r1), block.size());
      }
      if (log) log->close(block_span);
    }
    if (mode != kWarmup) measured_s_ += ms_between(chain_start, Clock::now()) / 1e3;

    // Root-off workloads still get one standalone state-root timing per
    // run, on the final state of the first traced round.
    if (traced && !w_.commit_state_root && layers_.root_calls == 0) {
      time_state_root(*shadow, round_span);
    }
    if (log) log->close(round_span);
    check_round(producer, shadow ? &*shadow : nullptr, submitted, blocks,
                mode == kWarmup);
  }

  /// Standalone single-layer timings for one block, taken between the
  /// end-to-end calls. The shadow state mirrors the validators' state: it
  /// executes each block sequentially (without the synthetic burn) to get
  /// the receipts the analysis and the read timing need.
  void measure_layers(const AccountBlock& block, account::StateDb& shadow,
                      int parent) {
    const std::span<const account::AccountTx> txs(block.transactions);
    int span = log_.open("chain.tx_root", parent);
    const Hash256 tx_root = chain::transactions_root(txs);
    log_.close(span);
    if (tx_root != block.header.merkle_root) fail("standalone tx root differs");

    span = log_.open("exec.predict", parent);
    const exec::PredictedGroups groups = exec::predict_groups(txs, shadow);
    log_.close(span);
    sink_ += groups.num_components();

    exec::ExecutionReport report =
        shadow_executor_->execute_block(shadow, txs, shadow_runtime_);
    shadow.flush_journal();
    const core::ConflictStats conflicts =
        analysis::analyze_account_block(txs, report.receipts);
    ++layers_.blocks;
    layers_.txs += txs.size();
    layers_.c_sum += conflicts.single_rate();
    layers_.l_sum += conflicts.group_rate();
    layers_.accounts_sum += static_cast<double>(shadow.num_accounts());
    std::uint64_t gas = 0;
    for (const account::Receipt& r : report.receipts) {
      layers_.reverts += r.success ? 0 : 1;
      gas += r.gas_used;
    }
    if (gas != block.header.gas_used) fail("shadow execution gas differs");

    // Point reads over the block's read sets, against the post-block state.
    const Clock::time_point t0 = Clock::now();
    span = log_.open("account.state_read", parent, 0, t0);
    std::size_t reads = 0;
    for (const account::Receipt& r : report.receipts) {
      for (const account::SlotAccess& a : r.reads) {
        sink_ += a.key == account::AccessTracker::kBalanceKey
                     ? shadow.balance(a.address)
                     : shadow.storage(a.address, a.key);
      }
      reads += r.reads.size();
    }
    const Clock::time_point t1 = Clock::now();
    log_.close(span, t1);
    layers_.reads += reads;
    layers_.read_ns += ms_between(t0, t1) * 1e6;

    if (w_.commit_state_root) {
      if (time_state_root(shadow, parent) != block.header.state_root) {
        fail("standalone state root differs from the header");
      }
    }
  }

  Hash256 time_state_root(const account::StateDb& state, int parent) {
    const Clock::time_point t0 = Clock::now();
    const int span = log_.open("account.state_root", parent, 0, t0);
    const Hash256 root = account::build_state_trie(state).root();
    const Clock::time_point t1 = Clock::now();
    log_.close(span, t1);
    ++layers_.root_calls;
    layers_.root_ms += ms_between(t0, t1);
    layers_.root_us_per_account_sum +=
        ms_between(t0, t1) * 1e3 / static_cast<double>(std::max<std::size_t>(state.num_accounts(), 1));
    return root;
  }

  /// Correctness gate of one round.
  void check_round(const chain::AccountNode& producer,
                   const account::StateDb* shadow, std::size_t submitted,
                   std::size_t blocks, bool warmup) {
    const std::size_t included = producer.ledger().total_transactions();
    attempted_ += submitted + blocks * validators_.size();
    if (included != submitted || producer.mempool_size() != 0) {
      failed_txs_ += submitted - std::min(included, submitted);
      fail(std::to_string(submitted - std::min(included, submitted)) +
           " submitted txs never included");
    }
    const Hash256 digest = producer.state().digest();
    for (const Validator& v : validators_) {
      if (v.node->ledger().height() != producer.ledger().height()) {
        fail(v.engine + " ledger height differs from the producer's");
      } else if (v.node->state().digest() != digest) {
        fail(v.engine + " final state digest differs from the producer's");
      }
    }
    if (shadow != nullptr && shadow->digest() != digest) {
      fail("shadow state digest differs from the producer's");
    }
    if (warmup) return;
    const Hash256 tip = producer.ledger().tip().header.hash();
    if (!tip_) {
      tip_ = tip;
    } else if (*tip_ != tip) {
      fail("a round produced a different chain than the first full round");
    }
  }

  // ---------------------------------------------------------- reporting

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::vector<Metric> end_to_end() const {
    const CallSeries& produce = produce_[kUntraced];
    std::vector<Metric> m;
    m.push_back({"setup_s", median(setup_s_), "s"});
    m.push_back({"produce_tps", produce.tps(), "tx/s"});
    m.push_back({"produce_block_ms.p50", percentile(produce.block_ms(), 0.5), "ms"});
    m.push_back({"produce_block_ms.p90", percentile(produce.block_ms(), 0.9), "ms"});
    for (const Validator& v : validators_) {
      m.push_back({"validate_tps." + v.engine, v.series[kUntraced].tps(), "tx/s"});
    }
    for (const Validator& v : validators_) {
      m.push_back({"validate_block_ms.p50." + v.engine,
                   percentile(v.series[kUntraced].block_ms(), 0.5), "ms"});
    }
    for (const Validator& v : validators_) {
      m.push_back({"validate_block_ms.p90." + v.engine,
                   percentile(v.series[kUntraced].block_ms(), 0.9), "ms"});
    }
    return m;
  }

  std::vector<Metric> per_layer() const {
    const auto spans = log_.totals();
    const auto total = [&](const std::string& name) {
      const auto it = spans.find(name);
      return it == spans.end() ? SpanLog::Totals{} : it->second;
    };
    const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    const SpanLog::Totals produce = total("produce_block");
    const SpanLog::Totals tx_root = total("chain.tx_root");
    const double tx_root_ms = per(tx_root.total_ms, tx_root.count);

    std::vector<Metric> m;
    for (const Validator& v : validators_) {
      const SpanLog::Totals r = total(v.receive_span);
      m.push_back({"chain.receive_self_ms." + v.engine, per(r.self_ms, r.count), "ms"});
    }
    m.push_back({"chain.tx_root_ms", tx_root_ms, "ms"});
    m.push_back({"chain.produce_self_ms",
                 per(produce.total_ms, produce.count) - tx_root_ms, "ms"});
    m.push_back({"account.state_root_ms", per(layers_.root_ms, layers_.root_calls), "ms"});
    m.push_back({"account.state_root_us_per_account",
                 per(layers_.root_us_per_account_sum, layers_.root_calls), "us"});
    m.push_back({"account.state_read_ns", per(layers_.read_ns, layers_.reads), "ns"});

    const SpanLog::Totals seq_exec = total("execute.sequential");
    for (const Validator& v : validators_) {
      const SpanLog::Totals e = total(v.execute_span);
      const SpanLog::Totals r = total(v.receive_span);
      m.push_back({"exec.execute_ms." + v.engine, per(e.total_ms, e.count), "ms"});
      m.push_back({"exec.execute_share." + v.engine, per(e.total_ms, r.total_ms), "ratio"});
      if (v.engine == "sequential") continue;
      const ReportTotals& t = v.reports;
      m.push_back({"exec.attempts_per_tx." + v.engine, per(t.executions, t.txs), "1/tx"});
      m.push_back({"exec.aborts_per_tx." + v.engine, per(t.aborts, t.txs), "1/tx"});
      m.push_back({"exec.sequential_share." + v.engine, per(t.sequential_txs, t.txs), "ratio"});
      m.push_back({"exec.phase1_ms." + v.engine, per(t.phase1_ms, t.blocks), "ms"});
      m.push_back({"exec.phase2_ms." + v.engine, per(t.phase2_ms, t.blocks), "ms"});
      m.push_back({"exec.grains_per_block." + v.engine, per(t.grains, t.blocks), "count"});
      m.push_back({"exec.caller_grain_share." + v.engine, per(t.caller_grains, t.grains), "ratio"});
      m.push_back({"exec.pool_tasks_per_block." + v.engine, per(t.pool_tasks, t.blocks), "count"});
      m.push_back({"exec.speedup." + v.engine, per(seq_exec.total_ms, e.total_ms), "x"});
      m.push_back({"exec.simulated_speedup." + v.engine, per(t.txs, t.simulated_units), "x"});
    }
    const SpanLog::Totals predict = total("exec.predict");
    m.push_back({"exec.predict_ms", per(predict.total_ms, predict.count), "ms"});

    m.push_back({"workload.txs_per_block", per(layers_.txs, layers_.blocks), "tx"});
    m.push_back({"workload.accounts", per(layers_.accounts_sum, layers_.blocks), "count"});
    m.push_back({"workload.c", per(layers_.c_sum, layers_.blocks), "ratio"});
    m.push_back({"workload.l", per(layers_.l_sum, layers_.blocks), "ratio"});
    m.push_back({"workload.revert_share", per(layers_.reverts, layers_.txs), "ratio"});

    double traced_ms = 0.0, untraced_ms = 0.0;
    for (const Validator& v : validators_) {
      traced_ms += sum(v.series[kTraced].block_ms());
      untraced_ms += sum(v.series[kUntraced].block_ms());
    }
    m.push_back({"obs.trace_overhead", per(traced_ms, untraced_ms), "ratio"});
    return m;
  }

  int report() {
    const CallSeries& produce = produce_[kUntraced];
    std::printf("workload %s seed %llu: participants %u (caller + %u pool workers), "
                "%zu warm-up rounds, setup %.3f s (median of %zu)\n",
                w_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
                workers_ + 1, workers_, warmup_rounds_, median(setup_s_),
                setup_s_.size());
    if (tip_) std::printf("tip_hash %s\n", tip_->to_hex().c_str());
    std::printf("samples: %zu blocks per chain, each block's latency the fastest of "
                "its calls in %zu untraced rounds\n",
                produce.blocks(), produce.rounds());
    if (!opt_.trace && produce.blocks() < kMinBlocks) {
      std::printf("note: fewer than %zu blocks, so the p90 has fewer than ten "
                  "samples beyond it\n", kMinBlocks);
    }
    // Within-run spread: each round's tx/s, and their range over the median.
    std::printf("per-round tx/s ((max - min) / median):\n");
    const auto print_rounds = [](const char* name, const CallSeries& s) {
      const std::vector<double> tps = s.round_tps();
      std::printf("  %-12s", name);
      for (const double t : tps) std::printf(" %8.0f", t);
      if (!tps.empty()) {
        const auto [lo, hi] = std::minmax_element(tps.begin(), tps.end());
        std::printf("  (%.3f)", (*hi - *lo) / median(tps));
      }
      std::printf("\n");
    };
    print_rounds("produce", produce);
    for (const Validator& v : validators_) {
      print_rounds(v.engine.c_str(), v.series[kUntraced]);
    }

    const std::vector<Metric> metrics = opt_.trace ? per_layer() : end_to_end();
    for (const Metric& m : metrics) {
      std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (opt_.trace) print_trace_summary();
    for (const std::string& e : errors_) std::printf("FAIL: %s\n", e.c_str());

    const bool correct = errors_.empty();
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_txs_ + rejected_) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
      json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

  void print_trace_summary() {
    std::printf("self time per block by span (traced rounds):\n");
    const auto spans = log_.totals();
    const double blocks = static_cast<double>(std::max<std::size_t>(layers_.blocks, 1));
    for (const auto& [name, t] : spans) {
      if (name == "round") continue;
      std::printf("  %-32s %6zu spans %10.4f ms/block total %10.4f ms/block self\n",
                  name.c_str(), t.count, t.total_ms / blocks, t.self_ms / blocks);
    }
    if (!opt_.trace_out.empty()) {
      std::ofstream out(opt_.trace_out);
      log_.write_chrome_trace(out);
      std::printf("trace written to %s (sink %llu)\n", opt_.trace_out.c_str(),
                  static_cast<unsigned long long>(sink_));
    }
  }

  Workload w_;
  Options opt_;
  unsigned workers_ = 1;
  std::vector<Validator> validators_;  // never resized: callbacks hold references
  std::unique_ptr<exec::BlockExecutor> shadow_executor_ = exec::make_sequential_executor();
  account::RuntimeConfig shadow_runtime_;

  CallSeries produce_[3];  // indexed by Mode
  std::vector<double> setup_s_;
  double measured_s_ = 0.0;
  SpanLog log_;
  LayerTotals layers_;
  std::uint64_t sink_ = 0;  // keeps standalone reads observable

  std::optional<Hash256> tip_;
  std::size_t attempted_ = 0;
  std::size_t failed_txs_ = 0;
  std::size_t rejected_ = 0;
  std::size_t warmup_rounds_ = 0;
  std::vector<std::string> errors_;
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || opt.workload.empty() || !have_seed || opt.seconds <= 0.0) {
    return std::nullopt;
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::optional<Options> opt = parse_args(argc, argv);
    if (!opt) {
      std::fprintf(stderr,
                   "usage: node_bench --workload NAME --seed N --seconds S "
                   "--trace 0|1 [--trace-out FILE]\n");
      return 2;
    }
    std::optional<Workload> w = find_workload(opt->workload);
    if (!w) {
      std::fprintf(stderr, "unknown workload '%s'\n", opt->workload.c_str());
      return 2;
    }
    NodeBench bench(std::move(*w), *opt);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "node_bench: %s\n", e.what());
    return 3;
  }
}
