#include "core/task_model.hpp"

#include <algorithm>
#include <set>

namespace hades::core {

std::string task_graph::eu_name(eu_index i) const {
  if (const auto* c = as_code(i)) return c->name;
  return std::get<inv_eu>(eus_.at(i)).name;
}

bool task_graph::is_remote(const precedence& p) const {
  const auto* a = as_code(p.from);
  const auto* b = as_code(p.to);
  if (a == nullptr || b == nullptr) return false;  // invocation edges are local
  return a->processor != b->processor;
}

duration task_graph::total_wcet() const {
  duration sum = duration::zero();
  for (const auto& eu : eus_)
    if (const auto* c = std::get_if<code_eu>(&eu)) sum += c->wcet;
  return sum;
}

bool task_graph::uses_resources() const {
  for (const auto& eu : eus_)
    if (const auto* c = std::get_if<code_eu>(&eu); c && !c->resources.empty())
      return true;
  return false;
}

std::size_t task_graph::local_precedence_count() const {
  std::size_t n = 0;
  for (const auto& p : precs_)
    if (!is_remote(p)) ++n;
  return n;
}

eu_index task_builder::add_code_eu(code_eu eu) {
  validate(!eu.name.empty(), "Code_EU needs a name");
  validate(eu.wcet > duration::zero() && !eu.wcet.is_infinite(),
           "Code_EU '" + eu.name + "': WCET must be positive and finite " +
               "(actions must have a characterizable worst case, paper 3.1)");
  // Normalize: the preemption threshold is never below the priority.
  eu.attrs.preemption_threshold =
      std::max(eu.attrs.preemption_threshold, eu.attrs.prio);
  validate(eu.attrs.prio >= prio::min_app && eu.attrs.prio <= prio::max_app,
           "Code_EU '" + eu.name + "': priority outside application band");
  std::set<resource_id> seen;
  for (const auto& claim : eu.resources)
    validate(seen.insert(claim.res).second,
             "Code_EU '" + eu.name + "': duplicate resource claim");
  graph_.eus_.emplace_back(std::move(eu));
  return static_cast<eu_index>(graph_.eus_.size() - 1);
}

eu_index task_builder::add_code_eu(std::string name, node_id processor,
                                   duration wcet, timing_attrs attrs) {
  code_eu eu;
  eu.name = std::move(name);
  eu.processor = processor;
  eu.wcet = wcet;
  eu.attrs = attrs;
  return add_code_eu(std::move(eu));
}

eu_index task_builder::add_inv_eu(std::string name, task_id target,
                                  invocation_kind kind) {
  validate(!name.empty(), "Inv_EU needs a name");
  validate(target != invalid_task, "Inv_EU '" + name + "': invalid target");
  graph_.eus_.emplace_back(inv_eu{std::move(name), target, kind});
  return static_cast<eu_index>(graph_.eus_.size() - 1);
}

task_builder& task_builder::precede(eu_index from, eu_index to,
                                    std::size_t payload_bytes) {
  validate(from < graph_.eus_.size() && to < graph_.eus_.size(),
           "precedence references an unknown EU");
  validate(from != to, "precedence cannot be a self-loop");
  graph_.precs_.push_back({from, to, payload_bytes});
  return *this;
}

task_graph task_builder::build() {
  validate(!graph_.eus_.empty(), "task '" + graph_.name_ + "' has no EU");

  const auto n = graph_.eus_.size();
  graph_.preds_.assign(n, {});
  graph_.succs_.assign(n, {});
  for (const auto& p : graph_.precs_) {
    graph_.succs_[p.from].push_back(p.to);
    graph_.preds_[p.to].push_back(p.from);
  }

  // Kahn's algorithm: topological order + cycle detection. Stable: ready
  // units are taken in index order, so the order is deterministic.
  std::vector<std::size_t> indegree(n);
  for (std::size_t i = 0; i < n; ++i) indegree[i] = graph_.preds_[i].size();
  std::vector<eu_index> order;
  order.reserve(n);
  std::set<eu_index> ready;
  for (std::size_t i = 0; i < n; ++i)
    if (indegree[i] == 0) ready.insert(static_cast<eu_index>(i));
  while (!ready.empty()) {
    const eu_index i = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(i);
    for (eu_index s : graph_.succs_[i])
      if (--indegree[s] == 0) ready.insert(s);
  }
  validate(order.size() == n,
           "task '" + graph_.name_ + "' has a precedence cycle (HEUGs are DAGs)");
  graph_.topo_ = std::move(order);

  std::set<node_id> procs;
  for (const auto& eu : graph_.eus_)
    if (const auto* c = std::get_if<code_eu>(&eu)) procs.insert(c->processor);
  graph_.procs_.assign(procs.begin(), procs.end());

  // Home node: processor of the first Code_EU in topological order.
  graph_.home_ = 0;
  for (eu_index i : graph_.topo_)
    if (const auto* c = graph_.as_code(i)) {
      graph_.home_ = c->processor;
      break;
    }

  // Duplicate names would make traces ambiguous.
  std::set<std::string> names;
  for (std::size_t i = 0; i < n; ++i)
    validate(names.insert(graph_.eu_name(static_cast<eu_index>(i))).second,
             "task '" + graph_.name_ + "': duplicate EU name");

  return std::move(graph_);
}

task_graph translate_spuri(const spuri_task& t) {
  validate(t.cs.is_zero() == !t.resource.has_value(),
           "spuri_task: cs and resource must be given together");

  task_builder b(t.name);
  b.deadline(t.deadline);
  if (!t.pseudo_period.is_infinite()) b.law(arrival_law::sporadic(t.pseudo_period));

  std::vector<eu_index> chain;
  if (t.c_before > duration::zero()) {
    code_eu eu;
    eu.name = t.name + ".before";
    eu.processor = t.processor;
    eu.wcet = t.c_before;
    chain.push_back(b.add_code_eu(std::move(eu)));
  }
  if (t.resource.has_value()) {
    code_eu eu;
    eu.name = t.name + ".cs";
    eu.processor = t.processor;
    eu.wcet = t.cs;
    eu.resources.push_back({*t.resource, access_mode::exclusive});
    eu.attrs.latest_offset = t.blocking_latest;  // Figure 3: latest = B'_i
    chain.push_back(b.add_code_eu(std::move(eu)));
  }
  if (t.c_after > duration::zero()) {
    code_eu eu;
    eu.name = t.name + ".after";
    eu.processor = t.processor;
    eu.wcet = t.c_after;
    eu.attrs.deadline_offset = t.deadline;  // Figure 3: D = D_i on the last unit
    chain.push_back(b.add_code_eu(std::move(eu)));
  }
  validate(!chain.empty(), "spuri_task: all phases are empty");
  for (std::size_t i = 1; i < chain.size(); ++i)
    b.precede(chain[i - 1], chain[i]);
  return b.build();
}

}  // namespace hades::core
