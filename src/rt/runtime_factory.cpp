// The runtime factory (`runtime::make`): a fixed switch over the three
// built-in backends. Lives in src/rt — the one layer allowed to name every
// concrete backend — so composition layers (core::system, the scenario
// deployment, tools) select backends by name only.
#include <memory>

#include "rt/realtime_engine.hpp"
#include "sim/runtime.hpp"
#include "util/error.hpp"

namespace hades {

std::unique_ptr<runtime> runtime::make(const options& o) {
  if (o.backend == "sim") return sim::make_engine();
  if (o.backend == "sharded") return sim::make_sharded_engine(o);
  if (o.backend == "realtime") return rt::make_realtime_engine(o);
  throw error("runtime::make: unknown backend \"" + o.backend + "\"");
}

}  // namespace hades
