// The HADES generic task model (paper section 3).
//
// Every activity in HADES — application task, service, scheduler — is a task
// defined as a directed acyclic graph of Elementary Units (a HEUG, "Hades
// Elementary Unit Graph"). An elementary unit is either a sequence of code
// with a known worst-case execution time (Code_EU) or a request to execute
// another task (Inv_EU). Precedence constraints connect EUs; a constraint is
// *local* when both ends are assigned to the same processor and *remote*
// otherwise — remote constraints are realized by the network-management task
// (paper section 3.1). EUs synchronize through statically declared resources
// (granted for the whole unit: actions may not synchronize internally, which
// is what makes their WCETs characterizable — section 3.3) and through
// system-wide condition variables. Timing attributes (priority, preemption
// threshold, earliest/latest start, deadline) drive the dispatcher and its
// monitoring.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "util/error.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace hades::core {

/// Resource access modes (paper 3.1.1): shared readers or one exclusive owner.
enum class access_mode { shared, exclusive };

struct resource_claim {
  resource_id res = 0;
  access_mode mode = access_mode::exclusive;
  friend bool operator==(const resource_claim&, const resource_claim&) = default;
};

/// Task arrival laws (paper 3.1.2).
enum class arrival_kind { periodic, sporadic, aperiodic };

struct arrival_law {
  arrival_kind kind = arrival_kind::aperiodic;
  duration period = duration::infinity();  // period or pseudo-period
  duration offset = duration::zero();      // date of first periodic activation

  static arrival_law periodic(duration t, duration offset = duration::zero()) {
    validate(t > duration::zero() && !t.is_infinite(),
             "periodic law requires a positive finite period");
    return {arrival_kind::periodic, t, offset};
  }
  static arrival_law sporadic(duration pseudo_period) {
    validate(pseudo_period > duration::zero(),
             "sporadic law requires a positive pseudo-period");
    return {arrival_kind::sporadic, pseudo_period, duration::zero()};
  }
  static arrival_law aperiodic() { return {}; }
};

/// Timing attributes of a Code_EU (paper 3.1.2). Offsets are relative to the
/// activation date of the task instance.
struct timing_attrs {
  priority prio = prio::min_app;
  priority preemption_threshold = prio::min_app;  // normalized to >= prio
  duration earliest_offset = duration::zero();
  duration latest_offset = duration::infinity();    // monitoring only
  duration deadline_offset = duration::infinity();  // monitoring only
};

class execution_context;  // defined in dispatcher.hpp
using action_fn = std::function<void(execution_context&)>;

/// Models how much of the WCET an instance actually consumes (early
/// termination, paper 3.2.1 event iii). Returns the actual execution time for
/// the given instance number; results are clamped to [0, wcet].
using actual_time_fn = std::function<duration(instance_number)>;

/// A sequence of code with known WCET, statically assigned to a processor.
struct code_eu {
  std::string name;
  node_id processor = 0;
  duration wcet = duration::zero();  // w
  std::vector<resource_claim> resources;
  std::vector<condition_id> waits_all;  // must all be set before start
  std::vector<condition_id> sets;       // set when the unit completes
  std::vector<condition_id> clears;     // cleared when the unit completes
  timing_attrs attrs;
  action_fn body;            // optional application code, runs at completion
  actual_time_fn actual;     // optional early-termination model
};

enum class invocation_kind { synchronous, asynchronous };

/// A request to execute another task (paper 3.1). Synchronous invocations
/// complete when the invoked task instance completes; asynchronous ones
/// complete immediately after triggering the activation.
struct inv_eu {
  std::string name;
  task_id target = invalid_task;
  invocation_kind kind = invocation_kind::asynchronous;
};

using elementary_unit = std::variant<code_eu, inv_eu>;

/// Precedence constraint between two EUs, optionally carrying data.
struct precedence {
  eu_index from = 0;
  eu_index to = 0;
  std::size_t payload_bytes = 0;
};

/// Immutable, validated HEUG. Build with `task_builder`.
class task_graph {
 public:
  [[nodiscard]] task_id id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] duration deadline() const { return deadline_; }
  [[nodiscard]] const arrival_law& law() const { return law_; }
  [[nodiscard]] bool abort_on_deadline_miss() const { return abort_on_miss_; }

  [[nodiscard]] const std::vector<elementary_unit>& eus() const { return eus_; }
  [[nodiscard]] const std::vector<precedence>& precedences() const {
    return precs_;
  }
  [[nodiscard]] std::size_t eu_count() const { return eus_.size(); }

  [[nodiscard]] const std::vector<eu_index>& preds(eu_index i) const {
    return preds_.at(i);
  }
  [[nodiscard]] const std::vector<eu_index>& succs(eu_index i) const {
    return succs_.at(i);
  }
  [[nodiscard]] bool is_source(eu_index i) const { return preds_.at(i).empty(); }
  [[nodiscard]] bool is_sink(eu_index i) const { return succs_.at(i).empty(); }

  [[nodiscard]] const code_eu* as_code(eu_index i) const {
    return std::get_if<code_eu>(&eus_.at(i));
  }
  [[nodiscard]] const inv_eu* as_inv(eu_index i) const {
    return std::get_if<inv_eu>(&eus_.at(i));
  }
  [[nodiscard]] std::string eu_name(eu_index i) const;

  /// Processor of the "home node": the node hosting the first Code_EU.
  /// Instance bookkeeping (activation, deadline monitoring) lives there.
  [[nodiscard]] node_id home_node() const { return home_; }

  /// Distinct processors referenced by this task's Code_EUs, ascending.
  /// Computed once by `task_builder::build`; every activation reads it.
  [[nodiscard]] const std::vector<node_id>& processors() const {
    return procs_;
  }

  /// True when the precedence crosses processors (remote constraint).
  [[nodiscard]] bool is_remote(const precedence& p) const;

  /// Sum of Code_EU WCETs (the C_i of a single-node task).
  [[nodiscard]] duration total_wcet() const;

  /// EU indices in a (stable) topological order.
  [[nodiscard]] const std::vector<eu_index>& topological_order() const {
    return topo_;
  }

  /// True if any Code_EU claims at least one resource.
  [[nodiscard]] bool uses_resources() const;

  /// Number of local precedence constraints (both ends on the same node).
  [[nodiscard]] std::size_t local_precedence_count() const;

 private:
  friend class task_builder;
  friend class system;  // assigns the id at registration
  task_graph() = default;

  task_id id_ = invalid_task;
  std::string name_;
  duration deadline_ = duration::infinity();
  arrival_law law_;
  bool abort_on_miss_ = false;
  std::vector<elementary_unit> eus_;
  std::vector<precedence> precs_;
  std::vector<std::vector<eu_index>> preds_;
  std::vector<std::vector<eu_index>> succs_;
  std::vector<eu_index> topo_;
  std::vector<node_id> procs_;
  node_id home_ = 0;
};

/// Fluent builder for HEUGs; `build()` validates the full graph.
class task_builder {
 public:
  explicit task_builder(std::string name) { graph_.name_ = std::move(name); }

  task_builder& deadline(duration d) {
    graph_.deadline_ = d;
    return *this;
  }
  task_builder& law(arrival_law l) {
    graph_.law_ = l;
    return *this;
  }
  task_builder& abort_on_deadline_miss(bool on = true) {
    graph_.abort_on_miss_ = on;
    return *this;
  }

  /// Add a Code_EU; returns its index for precedence wiring.
  eu_index add_code_eu(code_eu eu);

  /// Convenience: minimal Code_EU.
  eu_index add_code_eu(std::string name, node_id processor, duration wcet,
                       timing_attrs attrs = {});

  /// Add an Inv_EU; returns its index.
  eu_index add_inv_eu(std::string name, task_id target,
                      invocation_kind kind = invocation_kind::asynchronous);

  /// Add a precedence constraint from -> to.
  task_builder& precede(eu_index from, eu_index to,
                        std::size_t payload_bytes = 0);

  /// Validate and produce the immutable graph.
  [[nodiscard]] task_graph build();

 private:
  task_graph graph_;
};

/// Spuri's task model (paper section 5.1): a sporadic task with a critical
/// section on one resource, translated to a 3-unit HEUG (Figure 3).
struct spuri_task {
  std::string name;
  node_id processor = 0;
  duration c_before = duration::zero();
  duration cs = duration::zero();        // time inside the critical section
  duration c_after = duration::zero();
  std::optional<resource_id> resource;   // S; nullopt => no critical section
  duration deadline = duration::infinity();      // D_i
  duration pseudo_period = duration::infinity(); // T_i
  duration blocking_latest = duration::infinity();  // B'_i: latest start of cs unit
};

/// Figure 3 translation: Spuri model -> HEUG.
[[nodiscard]] task_graph translate_spuri(const spuri_task& t);

}  // namespace hades::core
