// Observability layer tests: Chrome-trace JSON round-trips through the
// minimal validator, the zero-allocation guarantee of the disabled tracer
// path, and concurrent span emission from pool workers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <thread>

#include "exec/thread_pool.h"
#include "obs/context.h"
#include "obs/scope.h"
#include "obs/trace.h"

// ------------------------------------------------- allocation counting
// Global operator new/delete overrides so the disabled-tracer test can
// assert the hot path performs zero heap allocations. Counting is a
// single relaxed atomic; all other tests are oblivious to it.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The replacement operator new allocates with malloc, so freeing in the
// replacement operator delete is correct; silence the compiler's
// new/free mismatch heuristic which cannot see the pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace txconc::obs {
namespace {

// ---------------------------------------------------------------- tracer

TEST(Tracer, ChromeTraceRoundTrip) {
  Tracer tracer;
  tracer.enable();
  {
    const ThreadProcessScope proc("obs-proc");
    TXCONC_SPAN_T(&tracer, "block", "test");
    for (std::int64_t i = 0; i < 3; ++i) {
      TXCONC_SPAN_T(&tracer, "tx", "test", i);
    }
    TXCONC_INSTANT_T(&tracer, "tick", "test");
  }
  // A second thread gets its own buffer (tid) and process label.
  std::thread worker([&] {
    set_thread_label(intern_label("obs-worker"), 0);
    TXCONC_SPAN_T(&tracer, "task", "test");
  });
  worker.join();
  tracer.disable();

  EXPECT_EQ(tracer.event_count(), 11u);  // 5 B/E pairs + 1 instant
  EXPECT_EQ(tracer.event_count("tx"), 6u);
  EXPECT_EQ(tracer.dropped(), 0u);

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const TraceValidation v = validate_chrome_trace(out.str());
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.events, 11u);
  EXPECT_EQ(v.complete_spans, 5u);
  ASSERT_TRUE(v.spans_by_process.contains("obs-proc"));
  EXPECT_TRUE(v.spans_by_process.at("obs-proc").contains("block"));
  EXPECT_TRUE(v.spans_by_process.at("obs-proc").contains("tx"));
  ASSERT_TRUE(v.spans_by_process.contains("obs-worker"));
  EXPECT_TRUE(v.spans_by_process.at("obs-worker").contains("task"));

  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
}

// ts is exported in us with exactly three ns digits at any tracer age: a
// tracer older than 1 s must not fall back to 6-significant-digit
// exponent form (10 us steps).
TEST(Tracer, TimestampsKeepNanosecondDigitsPastOneSecond) {
  Tracer tracer;
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  tracer.enable();
  { TXCONC_SPAN_T(&tracer, "late", "test"); }
  tracer.disable();

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string json = out.str();
  std::size_t checked = 0;
  for (std::size_t pos = json.find("\"ts\":"); pos != std::string::npos;
       pos = json.find("\"ts\":", pos + 1)) {
    const std::size_t begin = pos + 5;
    const std::string ts =
        json.substr(begin, json.find_first_of(",}", begin) - begin);
    const std::size_t dot = ts.find('.');
    ASSERT_NE(dot, std::string::npos) << ts;
    EXPECT_EQ(ts.size() - dot - 1, 3u) << ts;
    EXPECT_EQ(ts.find_first_not_of("0123456789."), std::string::npos) << ts;
    EXPECT_GE(std::stod(ts), 1e6) << ts;  // past the 1 s mark
    ++checked;
  }
  EXPECT_EQ(checked, 2u);  // the span's B and E
  EXPECT_TRUE(validate_chrome_trace(json).ok);
}

TEST(Tracer, SpanStaysBalancedAcrossProcessRelabel) {
  // The end event must use the process captured at begin, or a scope
  // ending mid-span would split the B and E across pids.
  Tracer tracer;
  tracer.enable();
  {
    auto scope = std::make_unique<ThreadProcessScope>("relabel-a");
    TXCONC_SPAN_T(&tracer, "outer", "test");
    scope.reset();  // restores the previous label while the span is open
  }
  tracer.disable();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const TraceValidation v = validate_chrome_trace(out.str());
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.complete_spans, 1u);
}

TEST(Tracer, ValidatorRejectsMalformedTraces) {
  // Unclosed span.
  TraceValidation v = validate_chrome_trace(
      R"({"traceEvents":[{"name":"a","ph":"B","pid":0,"tid":0,"ts":1}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("never closed"), std::string::npos) << v.error;

  // Mismatched end name.
  v = validate_chrome_trace(
      R"({"traceEvents":[)"
      R"({"name":"a","ph":"B","pid":0,"tid":0,"ts":1},)"
      R"({"name":"b","ph":"E","pid":0,"tid":0,"ts":2}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("unbalanced"), std::string::npos) << v.error;

  // Non-monotone timestamps on one (pid, tid).
  v = validate_chrome_trace(
      R"({"traceEvents":[)"
      R"({"name":"a","ph":"B","pid":0,"tid":0,"ts":5},)"
      R"({"name":"a","ph":"E","pid":0,"tid":0,"ts":3}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("monotone"), std::string::npos) << v.error;

  // Not JSON at all.
  EXPECT_FALSE(validate_chrome_trace("hello").ok);
  // Missing traceEvents.
  EXPECT_FALSE(validate_chrome_trace(R"({"other":[]})").ok);
}

TEST(Tracer, DisabledPathAllocatesNothing) {
  Tracer tracer;  // disabled by default
  // Warm up the macros once so one-time setup (if any) is excluded.
  { TXCONC_SPAN_T(&tracer, "warm", "test"); }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TXCONC_SPAN_T(&tracer, "span", "test");
    TXCONC_SPAN_T(nullptr, "null-span", "test");
    TXCONC_INSTANT_T(&tracer, "tick", "test");
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, RingWrapCountsDropped) {
  Tracer tracer(/*max_events_per_thread=*/64);  // clamped up to one chunk
  tracer.enable();
  for (int i = 0; i < 1500; ++i) tracer.instant("evt", "test");
  tracer.disable();
  EXPECT_EQ(tracer.event_count(), 1024u);  // one chunk retained
  EXPECT_EQ(tracer.dropped(), 476u);
  // A wrapped buffer may cut a span pair; the validator must still parse
  // instants-only output fine.
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  EXPECT_TRUE(validate_chrome_trace(out.str()).ok);
}

TEST(Tracer, ConcurrentEmissionFromPoolWorkersIsComplete) {
  Tracer tracer;
  tracer.enable();
  constexpr std::size_t kEvents = 10000;
  {
    exec::ThreadPool pool(4, "obs-test-pool");
    pool.parallel_for(kEvents, [&](std::size_t i) {
      tracer.instant("evt", "test", static_cast<std::int64_t>(i));
    });
  }
  tracer.disable();
  EXPECT_EQ(tracer.event_count("evt"), kEvents);
  EXPECT_EQ(tracer.dropped(), 0u);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const TraceValidation v = validate_chrome_trace(out.str());
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.events, kEvents);
}

// ---------------------------------------------------------- causal spans

TEST(CausalSpan, RootChildAndCrossThreadForkLink) {
  Tracer tracer;
  tracer.enable();
  std::uint64_t root_trace = 0;
  {
    const ThreadProcessScope proc("node-A");
    const CausalSpan root(&tracer, "produce_block", "chain");
    root_trace = root.trace_id();
    EXPECT_NE(root_trace, 0u);
    EXPECT_EQ(root.context().trace_id, root_trace);
    EXPECT_EQ(root.context().parent_span, root.span_id());
    { const CausalSpan child(&tracer, "pack", "chain", root.context()); }
    // fork() crosses a thread boundary: the flow start lands in this
    // slice, the bind in the consumer's.
    const TraceContext relayed = root.fork();
    EXPECT_EQ(relayed.trace_id, root_trace);
    EXPECT_NE(relayed.flow_id, 0u);
    std::thread consumer([&] {
      set_thread_label(intern_label("node-B"), 0);
      const CausalSpan remote(&tracer, "receive_block", "chain", relayed);
      EXPECT_EQ(remote.trace_id(), root_trace);  // joined, not minted
    });
    consumer.join();
  }
  tracer.disable();

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const TraceValidation v = validate_chrome_trace(out.str());
  ASSERT_TRUE(v.ok) << v.error;
  ASSERT_EQ(v.causal.size(), 3u);
  EXPECT_EQ(v.causal_roots, 1u);
  EXPECT_EQ(v.causal_linked, 3u);  // every causal span reaches the root
  EXPECT_EQ(v.flow_binds, 1u);
  for (const CausalSpanInfo& span : v.causal) {
    EXPECT_EQ(span.trace_id, root_trace) << span.name;
    EXPECT_TRUE(span.linked) << span.name;
  }
  ASSERT_TRUE(v.spans_by_process.contains("node-B"));
  EXPECT_TRUE(v.spans_by_process.at("node-B").contains("receive_block"));
}

TEST(CausalSpan, ValidatorRejectsDanglingParent) {
  const TraceValidation v = validate_chrome_trace(
      R"({"traceEvents":[)"
      R"({"name":"a","ph":"B","pid":0,"tid":0,"ts":1,)"
      R"("args":{"trace_id":7,"span_id":2,"parent_span":99}},)"
      R"({"name":"a","ph":"E","pid":0,"tid":0,"ts":2}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("unknown parent_span"), std::string::npos) << v.error;
}

TEST(CausalSpan, ValidatorRejectsCrossTraceParent) {
  const TraceValidation v = validate_chrome_trace(
      R"({"traceEvents":[)"
      R"({"name":"a","ph":"B","pid":0,"tid":0,"ts":1,)"
      R"("args":{"trace_id":7,"span_id":1,"parent_span":0}},)"
      R"({"name":"a","ph":"E","pid":0,"tid":0,"ts":2},)"
      R"({"name":"b","ph":"B","pid":0,"tid":0,"ts":3,)"
      R"("args":{"trace_id":8,"span_id":2,"parent_span":1}},)"
      R"({"name":"b","ph":"E","pid":0,"tid":0,"ts":4}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("different trace"), std::string::npos) << v.error;
}

TEST(CausalSpan, ValidatorRejectsDuplicateSpanIds) {
  const TraceValidation v = validate_chrome_trace(
      R"({"traceEvents":[)"
      R"({"name":"a","ph":"B","pid":0,"tid":0,"ts":1,)"
      R"("args":{"trace_id":7,"span_id":3,"parent_span":0}},)"
      R"({"name":"a","ph":"E","pid":0,"tid":0,"ts":2},)"
      R"({"name":"b","ph":"B","pid":0,"tid":0,"ts":3,)"
      R"("args":{"trace_id":7,"span_id":3,"parent_span":0}},)"
      R"({"name":"b","ph":"E","pid":0,"tid":0,"ts":4}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("duplicate span_id"), std::string::npos) << v.error;
}

TEST(CausalSpan, ValidatorRejectsFlowBindWithoutStart) {
  const TraceValidation v = validate_chrome_trace(
      R"({"traceEvents":[)"
      R"({"name":"flow","ph":"f","bp":"e","pid":0,"tid":0,"ts":1,"id":5}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("flow"), std::string::npos) << v.error;
}

TEST(CausalSpan, DisabledPathAllocatesNothingWhileForwardingContext) {
  // The satellite guarantee: a disabled tracer must stay allocation-free
  // even when code stamps, forks and forwards TraceContexts through the
  // whole propagation fast path (the production default for every node).
  Tracer tracer;  // disabled by default
  { const CausalSpan warm(&tracer, "warm", "test"); }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  TraceContext carried;
  for (int i = 0; i < 1000; ++i) {
    const CausalSpan root(&tracer, "produce_block", "chain");
    const CausalSpan child(&tracer, "pack", "chain", root.context());
    const CausalSpan null_span(nullptr, "null", "chain", carried);
    carried = root.fork();              // zero context, no flow event
    const TraceContext ctx = child.context();
    const CausalSpan remote(&tracer, "receive_block", "chain", ctx);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_FALSE(carried.valid());  // disabled spans hand out the zero context
}

// ----------------------------------------------------------------- scope

TEST(Scope, NullScopeYieldsNullSinks) {
  EXPECT_EQ(obs::tracer(nullptr), nullptr);
  EXPECT_EQ(obs::contention(nullptr), nullptr);
  const Scope& global = global_scope();
  EXPECT_EQ(obs::tracer(&global), &Tracer::global());
  EXPECT_EQ(obs::contention(&global), nullptr);
}

}  // namespace
}  // namespace txconc::obs
