// The benchmark's workloads: each is an endless, seed-determined stream of
// units, and every unit is one ExperimentSpec with a single density point
// and a single run — exactly what `qolsr_eval` would execute for that
// sweep point, so the untraced run goes through run_experiment unchanged.
// Rationale for each workload lives in perfbench/README.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eval/experiment.hpp"

namespace perfbench {

/// One sweep point a workload cycles through: metric, density and the
/// selectors evaluated on each sampled deployment of that point.
struct Point {
  qolsr::MetricId metric;
  double density;
  std::vector<std::string> selectors;
};

struct Workload {
  std::string_view name;
  qolsr::BackendId backend;
  /// Units whose modelled output forms the run's modelled metrics and the
  /// pinned digest. Always executed in full, whatever --seconds says, so
  /// the modelled figures never depend on host speed.
  std::size_t pinned_units;
  std::vector<Point> points;
  /// Scenario settings shared by every unit (field, pairs, traffic).
  qolsr::Scenario base;
};

/// The workload named `name`, or nullptr.
const Workload* find_workload(std::string_view name);

/// Names of every workload, in BENCHMARK.json order.
std::vector<std::string_view> workload_names();

/// The spec of unit `index` of `workload`'s stream at `seed`: point
/// `index % points`, one run, and a scenario seed mixed from both, so
/// the same (seed, index) always gives the same deployment.
qolsr::ExperimentSpec unit_spec(const Workload& workload, std::uint64_t seed,
                                std::size_t index);

/// The seed the sweep harness derives for the single run of a unit spec
/// (run 0 of density point 0), i.e. the stream sample_run draws from.
std::uint64_t unit_run_seed(const qolsr::ExperimentSpec& spec);

}  // namespace perfbench
