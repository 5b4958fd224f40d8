// Real-clock runtime backend (DESIGN.md, "Realtime backend").
//
// The same `hades::runtime` contract the discrete-event backends implement,
// driven by `std::chrono::steady_clock`: virtual time t maps to the real
// instant `epoch + t * time_scale`. The engine is a wall-clock driver
// around one `sim::engine` — the pooled event core every backend schedules
// through: the run loop peeks the core's next date, waits on a condvar
// until that date's real deadline, and steps the core. Dispatchers,
// services, the scenario injector — everything programmed against
// `hades::runtime` — run unmodified; what was simulated latency becomes
// actual elapsed time.
//
// Contract notes specific to this backend:
//   * `now()` derives from the wall clock (monotone via a watermark, so it
//     never regresses even across threads); during a callback it reads the
//     actual firing instant, which is >= the scheduled date, never exactly
//     equal. Time starts at ~0: construction (or the configured shared
//     epoch) is virtual zero, and pre-epoch reads clamp to 0.
//   * a date the wall clock has already passed keeps its nominal date as
//     its ordering key and fires as soon as possible — so `run_until(t)`
//     still drains every event dated <= t however late the host runs.
//     Only dates behind the last fired date are raised to it (the core's
//     clock never runs backwards); FIFO order among equal keys holds.
//   * every scheduling call (`at`, `at_node`, `cancel`) is thread-safe: a
//     socket transport's receiver thread injects deliveries while the run
//     loop executes. The loop holds the engine's mutex, callbacks
//     included, so a scheduling call from another thread waits for at most
//     the running callback. Callbacks execute on the thread inside
//     `run`/`run_until`/`step`, one at a time, and schedule re-entrantly.
//   * multi-process placement: with `process_count > 1`, `node_shard` maps
//     each node to an owning process (empty = `sim::contiguous_blocks`;
//     a node past the map's end belongs to process 0).
//     `shard_of` reports the owner, `at_node` on a foreign node is dropped
//     (returns `invalid_event`) — the owner runs the equivalent chain; what
//     must cross processes rides the socket transport, not the scheduler.
#pragma once

#include <memory>

#include "sim/runtime.hpp"

namespace hades::rt {

/// Construct the realtime backend from the realtime fields of `o`
/// (epoch_ns, time_scale, process_index/count, node_count, node_shard).
std::unique_ptr<hades::runtime> make_realtime_engine(
    const hades::runtime::options& o);

}  // namespace hades::rt
