// The traced pipeline: each unit of a workload re-executed step by step
// through the library's public calls (sample_run, LocalViewBuilder,
// AnsSelector::select_into, AdvertisedTopologyBuilder, forwarding,
// Simulator reset / run_to_convergence / run_until, TrafficMatrix), with a
// span around each call. It mirrors eval/runner.hpp and
// eval/packet_runner.hpp for the settings the workloads use, and returns
// the same RunRecord run_experiment records, so fidelity is checked by
// comparing the two field by field.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/runner.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Counts gathered at the same boundaries as the spans.
struct LayerCounts {
  std::uint64_t runs = 0;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t select_calls = 0;
  std::uint64_t ans_members = 0;
  std::uint64_t converge_events = 0;
  std::uint64_t mutations = 0;
  std::uint64_t unconverged = 0;
  std::uint64_t hello_sent = 0;
  std::uint64_t tc_originated = 0;
  std::uint64_t tc_forwarded = 0;
  std::uint64_t tc_duplicates = 0;
  /// Receptions estimated as transmissions × the run's mean degree.
  double hello_rx_est = 0.0;
  double tc_rx_est = 0.0;
  double tc_fresh_est = 0.0;  ///< tc_originated × (nodes − 1) per run
  std::uint64_t traffic_sent = 0;
  std::uint64_t traffic_hops = 0;  ///< data forwarded + delivered in traffic
  std::uint64_t queue_drops = 0;
  std::uint64_t set_size_mismatches = 0;  ///< packet vs oracle, same graph
};

struct TracedContext {
  SpanRecorder spans;
  LayerCounts counts;
  /// Converged states of the first few packet evaluations, replayed.
  std::vector<FrameCorpus> corpora;
};

/// Runs one unit through the traced pipeline and returns its record.
/// Spans named "check.*" wrap the oracle cross-check and corpus capture,
/// which run_experiment does not do; they are excluded from the traced
/// time when the tracing overhead is computed.
qolsr::RunRecord run_traced_unit(const Workload& workload,
                                 const qolsr::ExperimentSpec& spec,
                                 TracedContext& ctx);

/// Empty when `a` and `b` hold identical modelled values; otherwise a
/// description of the first difference.
std::string compare_records(const qolsr::RunRecord& a,
                            const qolsr::RunRecord& b);

}  // namespace perfbench
