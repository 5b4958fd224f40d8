// Unit test of the benchmark's metric math (bench_math.hpp). Plain checks
// that stay on in every build; exits non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_math.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void quantiles_carry_their_sample_count() {
  using perfbench::quantile;
  const std::vector<double> v = {5, 1, 4, 2, 3};
  check(quantile(v, 0.5).n == 5, "median reports n = 5");
  check(near(quantile(v, 0.5).value, 3.0), "median of 1..5 is 3");
  check(near(quantile(v, 0.0).value, 1.0), "q0 is the minimum");
  check(near(quantile(v, 1.0).value, 5.0), "q1 is the maximum");
  check(near(quantile(v, 0.25).value, 2.0), "q.25 of 1..5 is 2");
  check(near(quantile({1, 2, 3, 4}, 0.5).value, 2.5), "even count interpolates");
  check(near(quantile({10, 20}, 0.99).value, 19.9), "p99 interpolates");
  check(quantile({}, 0.5).n == 0 && quantile({}, 0.5).value == 0.0,
        "empty sample gives {0, 0}");
  check(perfbench::median({7}).n == 1 && near(perfbench::median({7}).value, 7),
        "single sample");
}

void lateness_is_measured_against_the_delivery_bound() {
  using perfbench::lateness_ns;
  // Sent at 1 ms, bound 10 ms, delivered at 11.05 ms: 50 us late.
  check(lateness_ns(11'050'000, 1'000'000, 10'000'000) == 50'000,
        "delivery 50 us past the bound");
  check(lateness_ns(11'000'000, 1'000'000, 10'000'000) == 0,
        "delivery exactly at the release date");
  check(lateness_ns(10'900'000, 1'000'000, 10'000'000) == -100'000,
        "early delivery is negative");
}

void span_self_time_subtracts_covered_children() {
  using perfbench::span;
  const std::vector<span> s = {
      {"rep", 0, 100, -1},
      {"run", 10, 60, 0},       // child of rep
      {"slice", 10, 30, 1},     // children of run, overlapping
      {"slice", 20, 40, 1},
      {"collect", 70, 120, 0},  // overruns rep: clipped to 70..100
  };
  const auto self = perfbench::self_times(s);
  check(self[0] == 100 - 50 - 30, "rep self = 100 - run 50 - clipped collect 30");
  check(self[1] == 50 - 30, "run self = 50 - union of slices (10..40)");
  check(self[2] == 20 && self[3] == 20, "leaves keep their whole duration");
  check(self[4] == 50, "collect has no children");
}

void goodput_counts_refused_and_shed_as_misses() {
  perfbench::edge_outcome e;
  e.offered = 100;
  e.admitted = 70;
  e.rejected = 30;
  e.shed = 10;
  e.missed = 5;
  e.completed = 55;
  check(near(perfbench::goodput_ratio(e), 0.55),
        "goodput = completed / offered, not / admitted");
  check(perfbench::goodput_ratio(perfbench::edge_outcome{}) == 0.0,
        "nothing offered gives 0");
  check(near(perfbench::ratio(3, 4), 0.75) && perfbench::ratio(1, 0) == 0.0,
        "ratio with an empty base is 0");
}

}  // namespace

int main() {
  quantiles_carry_their_sample_count();
  lateness_is_measured_against_the_delivery_bound();
  span_self_time_subtracts_covered_children();
  goodput_counts_refused_and_shed_as_misses();
  if (failures != 0) return EXIT_FAILURE;
  std::printf("perfbench_math_test: all checks passed\n");
  return EXIT_SUCCESS;
}
