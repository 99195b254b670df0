// The observability hook threaded through account::RuntimeConfig next to
// the fault-injector and access-recorder hooks: a nullable bundle of the
// tracer and contention sink a block execution should report into.
//
// A null Scope pointer (the default) is the null sink: the helpers below
// return nullptr and every TXCONC_*_T macro site degrades to a relaxed
// atomic load at most.
#pragma once

#include "obs/trace.h"

namespace txconc::obs {

class ContentionSink;  // hot-key / abort attribution, see obs/contention.h

struct Scope {
  Tracer* tracer = nullptr;
  /// Contention explainer sink (null = disabled): engines feed abort
  /// attribution into it and the access-recorder hook feeds touches.
  ContentionSink* contention = nullptr;
};

/// Null-safe accessors for the pointer carried in RuntimeConfig.
inline Tracer* tracer(const Scope* scope) {
  return scope != nullptr ? scope->tracer : nullptr;
}
inline ContentionSink* contention(const Scope* scope) {
  return scope != nullptr ? scope->contention : nullptr;
}

/// The default scope: the global tracer. Benches and examples install
/// this into RuntimeConfig when TXCONC_TRACE is set.
inline const Scope& global_scope() {
  static const Scope scope{&Tracer::global()};
  return scope;
}

}  // namespace txconc::obs
