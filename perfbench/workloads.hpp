// The benchmark's three workloads (README.md): each one builds a scenario
// spec and plan from the seed, runs it through the public API as many
// times as the measuring window allows, checks every output, and returns
// its per-repetition samples.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_math.hpp"

namespace perfbench {

struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  // trace JSON and scratch files
};

struct run_report {
  /// metric name -> one sample per repetition that measured it. End-to-end
  /// metrics come from untraced repetitions only, per-layer metrics from
  /// traced ones (counts) or from both kinds (the tracing overhead).
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> failures;  // every failed correctness check
  std::uint64_t attempted = 0;        // repetitions run
  std::uint64_t failed = 0;           // repetitions with a failed check
  std::vector<span> spans;            // traced run only
  /// Per-layer counters at every slice boundary of the last traced
  /// repetition: `snapshot_columns` names the columns of each row.
  std::vector<std::string> snapshot_columns;
  std::vector<std::vector<double>> snapshots;
};

/// Run one workload for about `o.seconds` of measurement. Throws on an
/// unknown workload name.
[[nodiscard]] run_report run_workload(const run_options& o);

}  // namespace perfbench
