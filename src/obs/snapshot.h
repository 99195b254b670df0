// Periodic metrics snapshots: a ring of timestamped counter/gauge
// captures taken off a Registry, plus delta rates across the window.
//
// chain::Node calls tick() on its per-block paths; the writer rate-limits
// on the steady clock so a hot loop costs one mutex + clock read per block
// and a full capture only every min_interval_ms. Export the ring with
// write_json for offline rate plots, or ask rates_per_second() for the
// roll-up a dashboard shows.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>

#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace txconc::obs {

class SnapshotWriter {
 public:
  struct Options {
    /// Snapshots kept; the ring drops the oldest beyond this.
    std::size_t capacity = 128;
    /// tick() captures at most once per this many wall milliseconds
    /// (0 = capture on every tick). snapshot() ignores the limit.
    std::uint64_t min_interval_ms = 0;
  };

  /// One capture. Timestamps are caller-defined for snapshot() (the
  /// simulators pass logical time) and steady-clock ms for tick().
  struct Snapshot {
    std::uint64_t ts_ms = 0;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
  };

  /// `registry` must outlive the writer (not owned).
  explicit SnapshotWriter(const Registry* registry)
      : SnapshotWriter(registry, Options()) {}
  SnapshotWriter(const Registry* registry, Options options);

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Capture now, stamped `ts_ms` (no rate limit).
  void snapshot(std::uint64_t ts_ms);

  /// Rate-limited capture on the steady clock; cheap no-op when the
  /// newest snapshot is younger than min_interval_ms.
  void tick();

  std::size_t size() const;
  /// Newest snapshot; default-constructed when empty.
  Snapshot latest() const;

  /// Counter deltas per second from the oldest to the newest snapshot in
  /// the ring; empty with fewer than two snapshots or a zero-length
  /// window. Counters absent from the oldest snapshot count from 0.
  std::map<std::string, double> rates_per_second() const;

  /// JSON array: [{"ts_ms":..,"counters":{..},"gauges":{..}},...].
  void write_json(std::ostream& out) const;

 private:
  void capture(std::uint64_t ts_ms) REQUIRES(mu_);

  const Registry* const registry_;
  const Options options_;

  mutable Mutex mu_;
  std::deque<Snapshot> ring_ GUARDED_BY(mu_);
  bool ticked_ GUARDED_BY(mu_) = false;
  std::uint64_t last_tick_ms_ GUARDED_BY(mu_) = 0;
};

}  // namespace txconc::obs
