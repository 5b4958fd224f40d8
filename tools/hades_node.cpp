// hades_node — realtime node-group launcher + multi-process loopback
// harness (DESIGN.md, "Runtime factory & injector API").
//
// Worker mode runs one OS process owning a contiguous block of a
// scenario's nodes on the realtime backend: the same scenario::deployment
// the simulation campaign builds, driven by steady_clock timers, with
// cross-process frames riding UDP datagrams on 127.0.0.1 through the
// socket transport's netem-style fault shim. After the horizon the worker
// writes its partial observation (owned nodes only) for the parent to
// merge.
//
// Harness mode is the sim-vs-real gate CI runs: for each (scenario, seed)
// it runs an in-process simulation reference with identical
// real-clock-friendly timing, then forks N worker processes against a
// shared future epoch, merges their partials, grades the same property
// checkers, and diffs the verdicts check-by-check. Any verdict diff, any
// worker failure, or any Δ-bound violation measured on the real wire
// exits non-zero. A case that diffs is rerun once at double the time
// scale; its verdict then reads e.g. `MATCH (retried at scale 4)`, and a
// closing `retried: N of M cases` line (also in summary.txt) counts them.
// Beside summary.txt the harness writes summary.json: the case and retry
// counts, and per case and attempt its Δ violations and each worker
// process's wire-latency p99.
//
// Usage:
//   hades_node --harness [--procs N] [--scenarios CSV] [--seeds CSV]
//              [--base-port P] [--time-scale X] [--out DIR]
//   hades_node --worker --scenario NAME --seed S --proc I --procs N
//              --base-port P --epoch-ns E [--time-scale X] --out FILE
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "rt/codecs.hpp"
#include "rt/socket_transport.hpp"
#include "scenario/deployment.hpp"
#include "scenario/observation_io.hpp"
#include "scenario/plan.hpp"

using namespace hades;
using namespace hades::literals;

namespace {

// Real-clock-friendly wire timing shared by the sim reference and the real
// run: the verdicts can only be compared when both runs were graded
// against bounds the wall clock can honor (loopback UDP plus scheduling
// jitter fits comfortably under 5ms; the simulated 60us LAN does not).
constexpr duration rt_delta_min = duration::microseconds(100);
constexpr duration rt_delta_max = duration::milliseconds(5);
constexpr duration rt_switch_latency = duration::milliseconds(25);
constexpr duration rt_bound_margin = duration::milliseconds(2);

scenario::deployment_options harness_options(std::uint64_t seed) {
  scenario::deployment_options o;
  o.seed = seed;
  o.net.delta_min = rt_delta_min;
  o.net.delta_max = rt_delta_max;
  o.net.per_byte = duration::zero();
  o.bound_margin = rt_bound_margin;
  o.switch_latency = rt_switch_latency;
  return o;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

struct verdict {
  std::map<std::string, bool> by_check;  // name -> passed
};

verdict to_verdict(const std::vector<scenario::check_result>& checks) {
  verdict v;
  for (const auto& c : checks) v.by_check[c.name] = c.passed;
  return v;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------- worker --

int run_worker(const std::string& scenario_name, std::uint64_t seed,
               std::uint32_t proc, std::size_t procs, std::uint16_t base_port,
               std::int64_t epoch_ns, double time_scale,
               const std::string& out_path) {
  const scenario::scenario_spec spec = scenario::find_scenario(scenario_name);
  rt::register_hades_codecs();

  scenario::deployment_options dopt = harness_options(seed);
  dopt.backend.backend = "realtime";
  dopt.backend.process_index = proc;
  dopt.backend.process_count = procs;
  dopt.backend.epoch_ns = epoch_ns;
  dopt.backend.time_scale = time_scale;
  scenario::deployment d(spec, dopt);

  rt::socket_transport_params tp;
  tp.process_index = proc;
  tp.process_count = procs;
  tp.node_count = spec.nodes;
  tp.base_port = base_port;
  tp.seed = seed;
  tp.delta_max = rt_delta_max;
  tp.time_scale = time_scale;
  rt::socket_transport tx(d.sys().engine(), d.sys().network(), d.sys().mon(),
                          tp);
  // The shim consumes the same declarative plan the networks do.
  scenario::preregister(tx, spec.p);
  tx.start();

  d.start();
  d.run();
  tx.stop();

  const scenario::observation obs = d.collect();
  std::vector<bool> owned(spec.nodes, false);
  for (node_id n = 0; n < spec.nodes; ++n)
    owned[n] = tx.owner(n) == proc;
  const bool has_mode = tx.owner(d.modes().home()) == proc;

  const auto st = tx.stats();
  std::vector<std::string> extra;
  {
    std::ostringstream os;
    os << "transport proc=" << proc << " sent=" << st.sent
       << " received=" << st.received << " dropped_fault=" << st.dropped_fault
       << " delayed=" << st.delayed << " dup=" << st.dup_dropped
       << " gaps=" << st.gaps_declared << " late=" << st.late_delivered
       << " delta_violations=" << st.delta_violations
       << " latency_p50_ns=" << st.latency_p50_ns
       << " latency_p99_ns=" << st.latency_p99_ns
       << " max_latency_ns=" << st.max_latency_ns;
    extra.push_back(os.str());
  }
  {
    std::ostringstream os;
    os << "delta_violations " << st.delta_violations;
    extra.push_back(os.str());
  }
  scenario::write_partial_observation(out_path, obs, owned, has_mode, extra);
  return 0;
}

// ------------------------------------------------------------ harness --

/// What one real run of a case measured on the wire.
struct attempt_stats {
  double time_scale = 0.0;
  std::uint64_t delta_violations = 0;
  std::map<std::uint32_t, std::int64_t> wire_p99_ns;  // by worker process
};

struct case_result {
  std::string name;
  bool passed = true;
  double retried_at = 0.0;  // time scale of the retry; 0 = not retried
  std::vector<std::string> notes;
  std::vector<attempt_stats> attempts;  // the worker runs that got merged
};

/// The integer after `key=` in a `transport ...` line, or -1.
std::int64_t field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + key.size() + 2, nullptr, 10);
}

case_result run_case_once(const std::string& scenario_name, std::uint64_t seed,
                          std::size_t procs, std::uint16_t base_port,
                          double time_scale, const std::string& exe,
                          const std::filesystem::path& work_dir) {
  case_result res;
  res.name = scenario_name + "/seed" + std::to_string(seed);
  const scenario::scenario_spec spec = scenario::find_scenario(scenario_name);

  // In-process simulation reference, identical timing.
  verdict sim_v;
  {
    scenario::deployment d(spec, harness_options(seed));
    d.start();
    d.run();
    sim_v = to_verdict(d.grade(d.collect()));
  }

  // Real run: N worker processes against a shared epoch far enough out
  // that every child finishes fork/exec/construction before virtual time
  // starts — a late starter sees virtual time already advanced and fires
  // its early timers clamped in a burst, producing spurious diffs. The
  // headroom scales with the fork fan-out and scenario size rather than
  // assuming a fixed cost on an otherwise-idle box.
  const std::int64_t epoch_headroom_ns =
      400'000'000 +
      200'000'000 * static_cast<std::int64_t>(procs) +
      1'000'000 * static_cast<std::int64_t>(spec.nodes);
  const std::int64_t epoch_ns = steady_now_ns() + epoch_headroom_ns;
  std::vector<pid_t> pids;
  std::vector<std::string> partials;
  for (std::uint32_t p = 0; p < procs; ++p) {
    const std::string out =
        (work_dir / (res.name + "_proc" + std::to_string(p) + ".obs"))
            .string();
    std::filesystem::create_directories(
        std::filesystem::path(out).parent_path());
    partials.push_back(out);
    const pid_t pid = ::fork();
    if (pid == 0) {
      std::vector<std::string> args = {
          exe,          "--worker",
          "--scenario", scenario_name,
          "--seed",     std::to_string(seed),
          "--proc",     std::to_string(p),
          "--procs",    std::to_string(procs),
          "--base-port", std::to_string(base_port),
          "--epoch-ns", std::to_string(epoch_ns),
          "--time-scale", std::to_string(time_scale),
          "--out",      out};
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(exe.c_str(), argv.data());
      std::perror("execv");
      std::_Exit(127);
    }
    pids.push_back(pid);
  }
  for (std::size_t p = 0; p < pids.size(); ++p) {
    int status = 0;
    ::waitpid(pids[p], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      res.passed = false;
      res.notes.push_back("worker " + std::to_string(p) +
                          " failed (status " + std::to_string(status) + ")");
    }
  }
  if (!res.passed) return res;

  scenario::merged_observation merged;
  try {
    merged = scenario::merge_partial_observations(partials);
  } catch (const std::exception& e) {
    res.passed = false;
    res.notes.push_back(std::string("merge failed: ") + e.what());
    return res;
  }

  // The real run must have honored the Δ bound the checkers assume — a
  // violated bound means the verdicts below grade a run outside the model.
  attempt_stats& at = res.attempts.emplace_back();
  at.time_scale = time_scale;
  for (const auto& line : merged.extra) {
    std::istringstream is(line);
    std::string key;
    is >> key;
    if (key == "delta_violations") {
      std::uint64_t v = 0;
      is >> v;
      at.delta_violations += v;
    } else if (key == "transport") {
      res.notes.push_back(line);
      at.wire_p99_ns[static_cast<std::uint32_t>(field(line, "proc"))] =
          field(line, "latency_p99_ns");
    }
  }
  if (at.delta_violations > 0) {
    res.passed = false;
    res.notes.push_back("real run violated delta_max " +
                        std::to_string(at.delta_violations) + " time(s)");
  }

  std::vector<scenario::check_result> real_checks;
  for (auto& c : scenario::check_detector(spec.p, merged.obs))
    real_checks.push_back(c);
  for (auto& c : scenario::check_broadcast(spec.p, merged.obs,
                                           spec.expect_order_faults))
    real_checks.push_back(c);
  for (auto& c : scenario::check_modes(spec.p, merged.obs,
                                       spec.modes.final_mode,
                                       rt_switch_latency))
    real_checks.push_back(c);
  for (auto& c : scenario::check_clocks(merged.obs)) real_checks.push_back(c);
  const verdict real_v = to_verdict(real_checks);

  // The gate: identical checker verdicts, check by check.
  for (const auto& [name, sim_pass] : sim_v.by_check) {
    auto it = real_v.by_check.find(name);
    if (it == real_v.by_check.end()) {
      res.passed = false;
      res.notes.push_back("check \"" + name + "\" missing from real run");
    } else if (it->second != sim_pass) {
      res.passed = false;
      res.notes.push_back("verdict diff on \"" + name + "\": sim " +
                          (sim_pass ? "PASS" : "FAIL") + " vs real " +
                          (it->second ? "PASS" : "FAIL"));
      for (const auto& c : real_checks)
        if (c.name == name && !c.detail.empty())
          res.notes.push_back("  real detail: " + c.detail);
    }
  }
  for (const auto& [name, real_pass] : real_v.by_check)
    if (sim_v.by_check.find(name) == sim_v.by_check.end()) {
      res.passed = false;
      res.notes.push_back("check \"" + name + "\" missing from sim run");
    }
  return res;
}

case_result run_case(const std::string& scenario_name, std::uint64_t seed,
                     std::size_t procs, std::uint16_t base_port,
                     double time_scale, const std::string& exe,
                     const std::filesystem::path& work_dir) {
  case_result res = run_case_once(scenario_name, seed, procs, base_port,
                                  time_scale, exe, work_dir);
  if (res.passed) return res;
  // A shared CI box can stall a worker for tens of real milliseconds — long
  // enough to breach the virtual Delta even though nothing is wrong with the
  // stack. One retry at doubled slow-motion doubles the real-time headroom
  // behind every virtual bound; a genuine divergence diffs again.
  case_result retry = run_case_once(scenario_name, seed, procs, base_port,
                                    time_scale * 2.0, exe, work_dir);
  // Keep the first attempt's full diagnostics: a divergence that reproduces
  // at the doubled scale still needs the original verdict diffs and
  // transport stats in the CI log.
  std::vector<std::string> notes;
  notes.push_back("first attempt at time scale " + std::to_string(time_scale) +
                  " diffed; retried at " + std::to_string(time_scale * 2.0));
  for (const auto& n : res.notes) notes.push_back("attempt 1: " + n);
  notes.insert(notes.end(), retry.notes.begin(), retry.notes.end());
  retry.notes = std::move(notes);
  retry.attempts.insert(retry.attempts.begin(), res.attempts.begin(),
                        res.attempts.end());
  retry.retried_at = time_scale * 2.0;
  return retry;
}

/// summary.json: the harness tally in machine-readable form.
std::string summary_json(const std::vector<case_result>& results,
                         std::size_t retried, bool all_passed) {
  std::ostringstream os;
  os << "{\n  \"cases\": " << results.size() << ",\n  \"retried\": " << retried
     << ",\n  \"passed\": " << (all_passed ? "true" : "false")
     << ",\n  \"results\": [";
  for (std::size_t c = 0; c < results.size(); ++c) {
    const case_result& r = results[c];
    os << (c == 0 ? "" : ",") << "\n    {\"case\": \"" << r.name
       << "\", \"passed\": " << (r.passed ? "true" : "false")
       << ", \"retried_at\": " << r.retried_at << ", \"attempts\": [";
    for (std::size_t a = 0; a < r.attempts.size(); ++a) {
      const attempt_stats& at = r.attempts[a];
      os << (a == 0 ? "" : ", ") << "{\"time_scale\": " << at.time_scale
         << ", \"delta_violations\": " << at.delta_violations
         << ", \"wire_p99_ns\": [";
      bool first = true;
      for (const auto& [proc, p99] : at.wire_p99_ns) {
        os << (first ? "" : ", ") << p99;
        first = false;
      }
      os << "]}";
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

int run_harness(std::size_t procs, const std::vector<std::string>& scenarios,
                const std::vector<std::uint64_t>& seeds,
                std::uint16_t base_port, double time_scale,
                const std::string& out_dir, const std::string& exe) {
  const std::filesystem::path work =
      out_dir.empty() ? std::filesystem::temp_directory_path() /
                            ("hades_rt_" + std::to_string(::getpid()))
                      : std::filesystem::path(out_dir);
  std::filesystem::create_directories(work);

  bool all_passed = true;
  std::size_t retried = 0;
  std::vector<case_result> results;
  std::ostringstream summary;
  for (const auto& name : scenarios) {
    for (std::uint64_t seed : seeds) {
      const case_result& r = results.emplace_back(
          run_case(name, seed, procs, base_port, time_scale, exe, work));
      all_passed = all_passed && r.passed;
      // A verdict reached only in slow motion is marked, so a regression
      // cannot hide inside the retry.
      std::ostringstream verdict;
      verdict << (r.passed ? "MATCH" : "DIFF");
      if (r.retried_at > 0.0) {
        ++retried;
        verdict << " (retried at scale " << r.retried_at << ')';
      }
      std::printf("%-28s %s\n", r.name.c_str(), verdict.str().c_str());
      summary << r.name << ' ' << verdict.str() << '\n';
      for (const auto& n : r.notes) {
        std::printf("    %s\n", n.c_str());
        summary << "    " << n << '\n';
      }
    }
  }
  std::ostringstream tally;
  tally << "retried: " << retried << " of " << results.size() << " cases";
  std::ofstream(work / "summary.txt") << summary.str() << tally.str() << '\n'
                                      << (all_passed ? "PASS\n" : "FAIL\n");
  std::ofstream(work / "summary.json")
      << summary_json(results, retried, all_passed);
  std::printf("%s\n", tally.str().c_str());
  std::printf("realtime harness: %s\n", all_passed ? "PASS" : "FAIL");
  return all_passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool worker = false, harness = false;
  std::string scenario_name, out;
  std::uint64_t seed = 1;
  std::uint32_t proc = 0;
  std::size_t procs = 4;
  std::uint16_t base_port = 0;
  std::int64_t epoch_ns = 0;
  double time_scale = 0.0;  // 0 = auto (harness) / 1.0 (worker)
  std::vector<std::string> scenarios = {"clean", "single_crash",
                                        "crash_recover", "partition_heal"};
  std::vector<std::uint64_t> seeds = {1, 2};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--worker") {
      worker = true;
    } else if (arg == "--harness") {
      harness = true;
    } else if (arg == "--scenario") {
      scenario_name = next();
    } else if (arg == "--scenarios") {
      scenarios = split_csv(next());
    } else if (arg == "--seed") {
      seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seeds") {
      seeds.clear();
      for (const auto& s : split_csv(next()))
        seeds.push_back(std::strtoull(s.c_str(), nullptr, 10));
    } else if (arg == "--proc") {
      proc = static_cast<std::uint32_t>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--procs") {
      procs = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--base-port") {
      base_port = static_cast<std::uint16_t>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--epoch-ns") {
      epoch_ns = std::strtoll(next().c_str(), nullptr, 10);
    } else if (arg == "--time-scale") {
      time_scale = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--out") {
      out = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  if (base_port == 0)
    base_port = static_cast<std::uint16_t>(
        40000 + (::getpid() * 131) % 20000);  // avoid collisions between runs

  if (time_scale <= 0.0) {
    // Harness auto scale: on a box with fewer cores than worker processes
    // the run-loop threads time-share one CPU, so real wake-up jitter must
    // shrink by the oversubscription factor to stay inside the virtual
    // Delta. Plain runs on many-core hosts still get 2x headroom.
    const double cores = std::max(1u, std::thread::hardware_concurrency());
    time_scale =
        std::clamp(2.0 * static_cast<double>(procs) / cores, 2.0, 8.0);
    if (worker) time_scale = 1.0;  // workers always receive it explicitly
  }

  try {
    if (worker) {
      if (scenario_name.empty() || out.empty()) {
        std::fprintf(stderr,
                     "--worker needs --scenario, --out (plus --proc/--procs/"
                     "--base-port/--epoch-ns)\n");
        return 2;
      }
      return run_worker(scenario_name, seed, proc, procs, base_port, epoch_ns,
                        time_scale, out);
    }
    if (harness)
      return run_harness(procs, scenarios, seeds, base_port, time_scale, out,
                         "/proc/self/exe");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hades_node: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "pick a mode: --harness or --worker\n");
  return 2;
}
