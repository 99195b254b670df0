// Full-node walkthrough: a producer assembles blocks from its mempool, the
// blocks are relayed to an independent validator, and the validator
// re-executes them with a parallel engine and checks every commitment
// (linkage, merkle root, gas used, state root).
#include <iostream>

#include "analysis/report.h"
#include "chain/node.h"
#include "exec/executor.h"

using namespace txconc;
using namespace txconc::chain;

namespace {

Address addr(std::uint64_t seed) { return Address::from_seed(seed); }

account::AccountTx pay(const AccountNode& node, std::uint64_t from,
                       std::uint64_t to, std::uint64_t value) {
  account::AccountTx tx;
  tx.from = addr(from);
  tx.to = addr(to);
  tx.value = value;
  tx.gas_limit = 30000;
  tx.nonce = node.state().nonce(addr(from));
  return tx;
}

}  // namespace

int main() {
  // ---- A producer and an independent validator with the same genesis.
  AccountNode producer;
  // The validator re-executes blocks with the parallel group engine.
  auto engine = exec::make_group_executor(2);
  AccountNode validator(
      AccountNodeConfig{}, [&engine](account::StateDb& state,
                                     std::span<const account::AccountTx> txs,
                                     const account::RuntimeConfig& runtime) {
        return engine->execute_block(state, txs, runtime).receipts;
      });
  for (auto* node : {&producer, &validator}) {
    for (std::uint64_t u = 1; u <= 4; ++u) {
      node->genesis_fund(addr(u), 100'000'000);
    }
  }

  std::cout << "producing three blocks and relaying each to the validator\n";
  analysis::TextTable table({"height", "txs", "gas", "hash"});
  for (int round = 0; round < 3; ++round) {
    producer.submit_transaction(pay(producer, 1, 10, 100 + round));
    producer.submit_transaction(pay(producer, 2, 11, 200 + round));
    const auto block = producer.produce_block(10 * (round + 1));
    validator.receive_block(block);  // structure, then re-execution checks
    table.row({std::to_string(block.header.height),
               std::to_string(block.transactions.size()),
               std::to_string(block.header.gas_used),
               block.header.hash().short_hex() + "..."});
  }
  std::cout << table.render() << "\n";
  std::cout << "validator state digest matches producer: "
            << (validator.state().digest() == producer.state().digest()
                    ? "yes"
                    : "NO (bug!)")
            << "\n";
  return 0;
}
