// hades_perfbench — the benchmark of record (README.md).
//
//   hades_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR]
//
// Runs one workload for about S seconds. It prints every failed check, then,
// as the last line, one JSON object: {"correct", "attempted", "failed",
// "samples": {name: {"median", "n"}}} with the median and sample count of
// every metric it measured. run.py turns that into the benchmark's result
// line, with the names and units of BENCHMARK.json. --trace 0 measures the
// end-to-end metrics (tracing off); --trace 1 the per-layer ones, and writes
// the spans and counter snapshots to DIR/trace_<workload>_<seed>.json.
// Exits 1 when a correctness check failed, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool write_trace(const std::string& path, const perfbench::run_options& o,
                 const perfbench::run_report& r,
                 const std::vector<std::pair<std::string, double>>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": %s, \"seed\": %llu,\n\"metrics\": {",
               json_string(o.workload).c_str(),
               static_cast<unsigned long long>(o.seed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::fprintf(f, "%s%s: %s", i ? ", " : "", json_string(metrics[i].first).c_str(),
                 json_number(metrics[i].second).c_str());
  std::fprintf(f, "},\n\"spans\": [\n");
  const auto self = perfbench::self_times(r.spans);
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const auto& s = r.spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"self_ns\": %lld}",
                 i ? ",\n" : "", s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(self[i]));
  }
  std::fprintf(f, "],\n\"snapshot_columns\": [");
  for (std::size_t i = 0; i < r.snapshot_columns.size(); ++i)
    std::fprintf(f, "%s%s", i ? ", " : "", json_string(r.snapshot_columns[i]).c_str());
  std::fprintf(f, "],\n\"snapshots\": [\n");
  for (std::size_t i = 0; i < r.snapshots.size(); ++i) {
    std::fprintf(f, "%s[", i ? ",\n" : "");
    for (std::size_t j = 0; j < r.snapshots[i].size(); ++j)
      std::fprintf(f, "%s%s", j ? ", " : "", json_number(r.snapshots[i][j]).c_str());
    std::fprintf(f, "]");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: hades_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload")
      o.workload = val;
    else if (arg == "--seed")
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (arg == "--seconds")
      o.seconds = std::strtod(val.c_str(), nullptr);
    else if (arg == "--trace")
      o.trace = val == "1";
    else if (arg == "--out-dir")
      o.out_dir = val;
    else
      return usage();
  }
  if (o.workload.empty() || !(o.seconds > 0)) return usage();

  perfbench::run_report r;
  try {
    std::filesystem::create_directories(o.out_dir);
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hades_perfbench: %s\n", e.what());
    return 1;
  }

  std::vector<std::pair<std::string, double>> values;
  std::string samples;
  for (const auto& [name, v] : r.samples) {
    const perfbench::quantile_t q = perfbench::median(v);
    values.emplace_back(name, q.value);
    samples += (samples.empty() ? "" : ", ") + json_string(name) + ": {\"median\": " +
               json_number(q.value) + ", \"n\": " + std::to_string(q.n) + "}";
  }
  for (const auto& f : r.failures) std::printf("FAILED: %s\n", f.c_str());
  const bool correct = r.failures.empty();

  if (o.trace) {
    const std::string path = o.out_dir + "/trace_" + o.workload + "_" +
                             std::to_string(o.seed) + ".json";
    if (write_trace(path, o, r, values))
      std::printf("trace: %zu spans, %zu counter snapshots -> %s\n", r.spans.size(),
                  r.snapshots.size(), path.c_str());
    else
      std::fprintf(stderr, "hades_perfbench: cannot write %s\n", path.c_str());
  }

  const std::uint64_t failed = correct ? r.failed : std::max<std::uint64_t>(r.failed, 1);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"samples\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(failed), samples.c_str());
  return correct ? 0 : 1;
}
