#include "workloads.hpp"

namespace perfbench {

namespace {

using qolsr::BackendId;
using qolsr::MetricId;

const std::vector<std::string> kContenders = {"qolsr_mpr2",
                                              "topology_filtering", "fnbp"};

qolsr::Scenario square_field(double side) {
  qolsr::Scenario scenario;
  scenario.field.width = side;
  scenario.field.height = side;
  scenario.runs = 1;
  return scenario;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> workloads;

  // Figs. 6 and 7 axes: every deployment evaluates the three contenders,
  // sharing one local view per node as run_sweep does.
  Workload oracle{"oracle_sweep", BackendId::kOracle, 24, {},
                  square_field(500.0)};
  for (const double d : {10.0, 15.0, 20.0, 25.0, 30.0, 35.0})
    oracle.points.push_back({MetricId::kBandwidth, d, kContenders});
  for (const double d : {5.0, 10.0, 15.0, 20.0, 25.0, 30.0})
    oracle.points.push_back({MetricId::kDelay, d, kContenders});
  workloads.push_back(std::move(oracle));

  // One simulator per (run, protocol): a unit is one evaluation, so a run
  // samples five times as many deployments as whole-run units would.
  Workload converge{"packet_converge", BackendId::kPacket, 20, {},
                    square_field(400.0)};
  for (const double d : {10.0, 20.0})
    for (const char* name : {"olsr_mpr", "qolsr_mpr1", "qolsr_mpr2",
                             "topology_filtering", "fnbp"})
      converge.points.push_back({MetricId::kBandwidth, d, {name}});
  workloads.push_back(std::move(converge));

  Workload load{"packet_load", BackendId::kPacket, 12, {},
                square_field(400.0)};
  load.base.pair_mode = qolsr::Scenario::PairMode::kAnyConnected;
  load.base.traffic.arrival = qolsr::TrafficSpec::Arrival::kPoisson;
  load.base.traffic.pattern = qolsr::TrafficSpec::Pattern::kUniform;
  load.base.traffic.flows = 32;
  load.base.traffic.load = 4.0;
  load.base.traffic.duration = 10.0;
  for (const std::string& name : kContenders)
    load.points.push_back({MetricId::kBandwidth, 10.0, {name}});
  workloads.push_back(std::move(load));

  return workloads;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<std::string_view> workload_names() {
  std::vector<std::string_view> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

qolsr::ExperimentSpec unit_spec(const Workload& workload, std::uint64_t seed,
                                std::size_t index) {
  const Point& point = workload.points[index % workload.points.size()];
  qolsr::ExperimentSpec spec;
  spec.name = std::string(workload.name);
  spec.backend = workload.backend;
  spec.metric = point.metric;
  spec.selectors = point.selectors;
  spec.threads = 1;
  spec.scenario = workload.base;
  spec.scenario.densities = {point.density};
  // Keep the top bit clear so the harness's per-run offset cannot wrap.
  spec.scenario.seed =
      splitmix64(splitmix64(seed) ^ static_cast<std::uint64_t>(index)) >> 1;
  return spec;
}

std::uint64_t unit_run_seed(const qolsr::ExperimentSpec& spec) {
  // eval_detail::sweep_harness: seed + 0x1000003 * (point + 1) + run.
  return spec.scenario.seed + 0x1000003;
}

}  // namespace perfbench
