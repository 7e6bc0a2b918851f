// perfbench — the repository benchmark's measuring program. Normally
// driven by perfbench/run.py, which builds it, times set-up and checks the
// pinned digests; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--setup-only] [--spans PATH]
//
// Untraced (--trace 0): runs the workload's unit stream through
// run_experiment for S seconds and prints the end-to-end metrics. Traced
// (--trace 1): runs units through run_experiment for 0.4·S seconds as the
// base, re-runs the same units through the span-instrumented pipeline,
// checks both give identical per-run records, replays the converged frame
// corpus, and prints the per-layer metrics and the tracing overhead.
// Prints "PERFBENCH_READY" when set-up ends (before the first
// evaluation); the last stdout line is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/result_sink.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "traced.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using qolsr::BackendId;
using qolsr::DensityStats;
using qolsr::ExperimentResult;
using qolsr::ExperimentSpec;
using qolsr::ProtocolStats;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool setup_only = false;
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One unit's outcome in the untraced stream.
struct UnitOutcome {
  ExperimentSpec spec;
  ExperimentResult result;
  std::size_t evaluations = 0;
  std::size_t failed = 0;
  double host_s = 0.0;
};

std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string csv_of(const ExperimentResult& result) {
  std::ostringstream os;
  qolsr::CsvSink().write(result, os);
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return qolsr::util::quantile_sorted(values, q);
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Runs one unit through run_experiment; a thrown error fails every
/// evaluation of the unit.
UnitOutcome run_unit(const Workload& workload, std::uint64_t seed,
                     std::size_t index, bool record_runs) {
  UnitOutcome out;
  out.spec = unit_spec(workload, seed, index);
  out.spec.scenario.record_runs = record_runs;
  out.evaluations = out.spec.selectors.size();
  const std::int64_t t0 = now_ns();
  try {
    out.result = qolsr::run_experiment(out.spec);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: unit " << index << " failed: " << e.what()
              << "\n";
    out.failed = out.evaluations;
  }
  out.host_s = seconds_since(t0);
  return out;
}

/// Invariants that hold at any seed; returns the evaluations violating
/// them. Packet workloads: converged set sizes equal the oracle's on the
/// same deployment, and traffic fates sum to the packets offered.
std::size_t check_invariants(const Workload& workload, const UnitOutcome& u,
                             std::size_t index) {
  if (u.failed > 0 || workload.backend != BackendId::kPacket) return 0;
  ExperimentSpec oracle_spec = u.spec;
  oracle_spec.backend = BackendId::kOracle;
  oracle_spec.scenario.traffic = {};
  oracle_spec.scenario.record_runs = false;
  const ExperimentResult oracle = qolsr::run_experiment(oracle_spec);
  std::size_t bad = 0;
  const auto& packet_ps = u.result.sweep[0].protocols;
  const auto& oracle_ps = oracle.sweep[0].protocols;
  for (std::size_t si = 0; si < packet_ps.size(); ++si) {
    const ProtocolStats& p = packet_ps[si];
    bool ok = p.set_size.mean() == oracle_ps[si].set_size.mean();
    const auto& t = p.traffic;
    if (t.offered != t.delivered + t.queue_drops + t.no_route_drops +
                         t.loop_drops + t.medium_drops)
      ok = false;
    if (!ok) {
      std::cerr << "perfbench: unit " << index << " protocol " << p.name
                << " violates an invariant (set size " << p.set_size.mean()
                << " vs oracle " << oracle_ps[si].set_size.mean()
                << ", offered " << t.offered << ")\n";
      ++bad;
    }
  }
  return bad;
}

/// Modelled (simulated or paper) metrics of the pinned prefix; at a fixed
/// seed they repeat exactly.
std::vector<Metric> modelled_metrics(const Workload& workload,
                                     const std::vector<UnitOutcome>& units) {
  std::vector<double> ans, overhead, converge, control_kb;
  std::size_t offered = 0, delivered = 0, unconverged = 0;
  qolsr::util::DistributionAccumulator latency;
  for (std::size_t i = 0; i < workload.pinned_units && i < units.size(); ++i) {
    if (units[i].failed > 0) continue;
    for (const ProtocolStats& p : units[i].result.sweep[0].protocols) {
      ans.push_back(p.set_size.mean());
      if (p.overhead.count() > 0) overhead.push_back(p.overhead.mean());
      if (p.control.measured()) {
        converge.push_back(p.control.convergence_time.mean());
        control_kb.push_back(p.control.control_bytes.mean() / 1000.0);
        unconverged += p.control.unconverged;
      }
      offered += p.traffic.offered;
      delivered += p.traffic.delivered;
      latency.merge(p.traffic.latency);
    }
  }
  std::vector<Metric> out;
  out.push_back({"ans_size_mean", mean_of(ans), "nodes"});
  if (workload.backend == BackendId::kOracle)
    out.push_back({"qos_overhead_mean", mean_of(overhead), "ratio"});
  if (!converge.empty()) {
    out.push_back({"sim_converge_s", mean_of(converge), "s"});
    out.push_back({"control_kb_per_run", mean_of(control_kb), "kB"});
    out.push_back({"unconverged_runs", static_cast<double>(unconverged),
                   "count"});
  }
  if (offered > 0) {
    out.push_back({"delivery_ratio",
                   static_cast<double>(delivered) /
                       static_cast<double>(offered),
                   "ratio"});
    const std::vector<double> sorted = latency.sorted();
    out.push_back({"latency_ms_p50",
                   1e3 * qolsr::util::quantile_sorted(sorted, 0.50), "ms"});
    out.push_back({"latency_ms_p95",
                   1e3 * qolsr::util::quantile_sorted(sorted, 0.95), "ms"});
  }
  return out;
}

struct RunTotals {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t pinned_evaluations = 0;
  std::string digest;
  std::vector<Metric> metrics;
};

RunTotals run_untraced(const Workload& workload, const Args& args) {
  RunTotals totals;
  // Warm-up: unit 0 once, untimed, so lazy set-up and first-touch page
  // faults stay out of the measured window. Its output must repeat.
  const UnitOutcome warm = run_unit(workload, args.seed, 0, false);

  // Stop only at the end of a whole cycle of the workload's points, so
  // every run weighs each (metric, density, selector) point equally.
  std::vector<UnitOutcome> units;
  std::size_t evaluations = 0;
  const std::size_t cycle = workload.points.size();
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0;; ++i) {
    if (i >= workload.pinned_units && i % cycle == 0 &&
        seconds_since(t0) >= args.seconds)
      break;
    units.push_back(run_unit(workload, args.seed, i, false));
    evaluations += units.back().evaluations;
  }
  const double elapsed = seconds_since(t0);

  std::vector<std::string> csv(units.size());
  for (std::size_t i = 0; i < units.size(); ++i)
    if (units[i].failed == 0) csv[i] = csv_of(units[i].result);
  if (warm.failed > 0 || (units[0].failed == 0 &&
                          csv_of(warm.result) != csv[0])) {
    std::cerr << "perfbench: unit 0 did not repeat its warm-up output\n";
    units[0].failed = units[0].evaluations;
  }

  // Correctness checks, outside the measured window.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < units.size(); ++i) {
    UnitOutcome& u = units[i];
    totals.attempted += u.evaluations;
    std::size_t bad = u.failed;
    if (bad == 0) {
      try {
        bad = check_invariants(workload, u, i);
      } catch (const std::exception& e) {
        std::cerr << "perfbench: unit " << i << " check failed: " << e.what()
                  << "\n";
        bad = u.evaluations;
      }
    }
    if (i < workload.pinned_units) {
      digest = fnv1a(digest, u.failed ? "failed" : csv[i]);
      totals.pinned_evaluations += u.evaluations;
    }
    totals.failed += std::min(bad, u.evaluations);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  totals.digest = hex;

  totals.metrics.push_back(
      {"runs_per_s", static_cast<double>(evaluations) / elapsed, "1/s"});
  for (Metric& m : modelled_metrics(workload, units))
    totals.metrics.push_back(std::move(m));
  totals.metrics.push_back(
      {"fail_ratio",
       totals.attempted > 0 ? static_cast<double>(totals.failed) /
                                  static_cast<double>(totals.attempted)
                            : 0.0,
       "ratio"});
  totals.metrics.push_back({"measured_s", elapsed, "s"});
  totals.metrics.push_back(
      {"units", static_cast<double>(units.size()), "count"});
  return totals;
}

RunTotals run_traced(const Workload& workload, const Args& args) {
  RunTotals totals;
  // Base: the unit stream through run_experiment, recording per-run
  // records, for 40% of the budget.
  std::vector<UnitOutcome> base;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0;; ++i) {
    if (i >= 1 && seconds_since(t0) >= 0.4 * args.seconds) break;
    base.push_back(run_unit(workload, args.seed, i, true));
  }

  TracedContext ctx;
  ctx.spans.reserve(1 << 20);
  for (std::size_t i = 0; i < base.size(); ++i) {
    const UnitOutcome& u = base[i];
    totals.attempted += u.evaluations;
    if (u.failed > 0) {
      totals.failed += u.evaluations;
      continue;
    }
    ctx.spans.set_op(static_cast<std::uint32_t>(i));
    const std::uint64_t mismatches_before = ctx.counts.set_size_mismatches;
    std::string diff;
    try {
      const qolsr::RunRecord traced = run_traced_unit(workload, u.spec, ctx);
      diff = compare_records(u.result.sweep[0].run_records.at(0), traced);
    } catch (const std::exception& e) {
      diff = std::string("traced pipeline threw: ") + e.what();
    }
    if (!diff.empty())
      std::cerr << "perfbench: unit " << i
                << " traced record differs from run_experiment: " << diff
                << "\n";
    if (!diff.empty() ||
        ctx.counts.set_size_mismatches != mismatches_before)
      totals.failed += u.evaluations;
  }

  double base_s = 0.0;
  for (const UnitOutcome& u : base) base_s += u.host_s;
  const SpanRecorder& spans = ctx.spans;
  const double traced_s = (spans.total_ns("eval.unit") -
                           spans.total_ns("check.oracle_sets") -
                           spans.total_ns("check.capture")) *
                          1e-9;

  const ReplayTimings replayed = replay(ctx.corpora);

  // eval.sink_ms: the CSV sink over every base unit's aggregates.
  ExperimentResult merged;
  merged.spec = base.front().spec;
  for (const UnitOutcome& u : base)
    for (const DensityStats& d : u.result.sweep) merged.sweep.push_back(d);
  double sink_ms = 0.0;
  {
    std::size_t writes = 0;
    const std::int64_t s0 = now_ns();
    std::size_t bytes = 0;
    while (writes < 5 || seconds_since(s0) < 0.02) {
      bytes += csv_of(merged).size();
      ++writes;
    }
    sink_ms = seconds_since(s0) * 1e3 / static_cast<double>(writes);
    if (bytes == 0) sink_ms = 0.0;
  }

  const LayerCounts& c = ctx.counts;
  const auto mean_ns = [&](const char* name) {
    return mean_of(spans.durations(name));
  };
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::vector<double> select_ns = spans.durations("select");
  const std::vector<double> converge_ns = spans.durations("sim.converge");
  const double control_tx = d(c.hello_sent + c.tc_originated + c.tc_forwarded);
  std::vector<Metric>& m = totals.metrics;
  m.push_back({"graph.sample_ms", mean_ns("graph.sample_run") * 1e-6, "ms"});
  m.push_back({"graph.local_view_us", mean_ns("graph.local_view") * 1e-3,
               "us"});
  m.push_back({"graph.nodes", per(d(c.nodes), d(c.runs)), "count"});
  m.push_back({"graph.edges", per(d(c.edges), d(c.runs)), "count"});
  m.push_back({"select.calls", d(c.select_calls), "count"});
  m.push_back({"select.us_p50",
               select_ns.empty() ? 0.0 : quantile(select_ns, 0.5) * 1e-3,
               "us"});
  m.push_back({"select.us_p90",
               select_ns.empty() ? 0.0 : quantile(select_ns, 0.9) * 1e-3,
               "us"});
  m.push_back({"select.self_s", spans.self_ns("select") * 1e-9, "s"});
  m.push_back({"select.ans_members", per(d(c.ans_members), d(c.select_calls)),
               "nodes"});
  m.push_back({"routing.advertised_ms",
               mean_ns("routing.advertised") * 1e-6, "ms"});
  m.push_back({"routing.forward_us", mean_ns("routing.forward") * 1e-3, "us"});
  m.push_back({"sim.reset_ms", mean_ns("sim.reset") * 1e-6, "ms"});
  m.push_back({"sim.converge_ms_p50",
               converge_ns.empty() ? 0.0 : quantile(converge_ns, 0.5) * 1e-6,
               "ms"});
  m.push_back({"sim.converge_ms_p90",
               converge_ns.empty() ? 0.0 : quantile(converge_ns, 0.9) * 1e-6,
               "ms"});
  m.push_back({"sim.events", d(c.converge_events), "count"});
  m.push_back({"sim.ns_per_event",
               per(spans.total_ns("sim.converge"), d(c.converge_events)),
               "ns"});
  m.push_back({"sim.mutations", d(c.mutations), "count"});
  m.push_back({"sim.unconverged", d(c.unconverged), "count"});
  m.push_back({"sim.probe_ms", mean_ns("sim.probe") * 1e-6, "ms"});
  m.push_back({"sim.traffic_s", spans.total_ns("sim.traffic") * 1e-9, "s"});
  m.push_back({"sim.ns_per_data_hop",
               per(spans.total_ns("sim.traffic"), d(c.traffic_hops)), "ns"});
  m.push_back({"proto.hello_sent", d(c.hello_sent), "count"});
  m.push_back({"proto.tc_originated", d(c.tc_originated), "count"});
  m.push_back({"proto.tc_forwarded", d(c.tc_forwarded), "count"});
  m.push_back({"proto.tc_duplicates", d(c.tc_duplicates), "count"});
  m.push_back({"proto.dup_per_tc_tx",
               per(d(c.tc_duplicates), d(c.tc_originated + c.tc_forwarded)),
               "ratio"});
  m.push_back({"codec.serialize_ns", replayed.serialize_ns, "ns"});
  m.push_back({"codec.serialize_calls", control_tx, "count"});
  m.push_back({"codec.parse_ns", replayed.parse_ns, "ns"});
  m.push_back({"codec.parse_calls", c.hello_rx_est + c.tc_rx_est, "count"});
  m.push_back({"proto.on_hello_ns", replayed.on_hello_ns, "ns"});
  m.push_back({"proto.on_hello_calls", c.hello_rx_est, "count"});
  m.push_back({"proto.is_symmetric_ns", replayed.is_symmetric_ns, "ns"});
  m.push_back({"proto.is_symmetric_calls", c.tc_rx_est, "count"});
  m.push_back({"proto.apply_tc_ns", replayed.apply_tc_ns, "ns"});
  m.push_back({"proto.apply_tc_calls", c.tc_fresh_est, "count"});
  m.push_back({"proto.dupset_ns", replayed.dupset_ns, "ns"});
  m.push_back({"proto.dupset_calls", c.tc_rx_est, "count"});
  m.push_back({"medium.queue_drops", d(c.queue_drops), "count"});
  m.push_back({"medium.hops_per_packet",
               per(d(c.traffic_hops), d(c.traffic_sent)), "hops"});
  m.push_back({"net.encode_ns", replayed.encode_ns, "ns"});
  m.push_back({"net.decode_ns", replayed.decode_ns, "ns"});
  m.push_back({"net.switch_route_ns", replayed.switch_route_ns, "ns"});
  m.push_back({"eval.sink_ms", sink_ms, "ms"});
  m.push_back({"trace.base_s", base_s, "s"});
  m.push_back({"trace.traced_s", traced_s, "s"});
  m.push_back({"trace.overhead_pct", per(traced_s - base_s, base_s) * 100.0,
               "%"});
  m.push_back({"trace.units", static_cast<double>(base.size()), "count"});
  m.push_back({"trace.spans", static_cast<double>(spans.spans().size()),
               "count"});

  if (!args.spans_path.empty()) {
    std::ofstream out(args.spans_path);
    spans.write_jsonl(out);
  }
  return totals;
}

void print_json(const RunTotals& totals, bool traced) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (totals.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << totals.attempted
     << ", \"failed\": " << totals.failed
     << ", \"pinned_evaluations\": " << totals.pinned_evaluations
     << ", \"traced\": "
     << (traced ? "true" : "false") << ", \"digest\": \"" << totals.digest
     << "\", \"metrics\": {";
  for (std::size_t i = 0; i < totals.metrics.size(); ++i) {
    const Metric& m = totals.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": ";
    if (std::isfinite(m.value))
      os << m.value;
    else
      os << "null";
    os << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--setup-only] [--spans PATH]\nworkloads:";
  for (const std::string_view name : workload_names())
    std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--workload") args.workload = value();
      else if (flag == "--seed") args.seed = std::stoull(value());
      else if (flag == "--seconds") args.seconds = std::stod(value());
      else if (flag == "--trace") args.trace = std::stoi(value());
      else if (flag == "--spans") args.spans_path = value();
      else if (flag == "--setup-only") args.setup_only = true;
      else throw std::invalid_argument("unknown flag " + flag);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return usage();
  }
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr || args.seconds <= 0.0 ||
      (args.trace != 0 && args.trace != 1))
    return usage();
  // Set-up ends once the registry every unit resolves from is built.
  (void)qolsr::SelectorRegistry::builtin();
  std::cout << "PERFBENCH_READY" << std::endl;
  if (args.setup_only) return 0;

  RunTotals totals = args.trace ? run_traced(*workload, args)
                                : run_untraced(*workload, args);
  totals.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  print_json(totals, args.trace != 0);
  return 0;
}
