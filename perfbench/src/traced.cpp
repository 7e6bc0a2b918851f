#include "traced.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "eval/backend.hpp"
#include "eval/packet_runner.hpp"
#include "path/path.hpp"
#include "routing/routing_table.hpp"
#include "sim/traffic.hpp"

namespace perfbench {

using namespace qolsr;
using Scope = SpanRecorder::Scope;

namespace {

/// Packet evaluations whose converged frames the replay uses: enough for
/// a few thousand frames, few enough that capture stays a small cost.
constexpr std::size_t kReplayedEvaluations = 4;

/// Every node's oracle ANS on its exact local view, one selector at a time
/// in `selectors` order (eval_detail::execute_run's first half).
void select_all(const Graph& graph,
                const std::vector<const AnsSelector*>& selectors,
                EvalWorkspace& ws, TracedContext& ctx) {
  ws.ans.resize(selectors.size());
  for (auto& per_node : ws.ans) per_node.resize(graph.node_count());
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    {
      Scope span(ctx.spans, "graph.local_view");
      ws.view_builder.build(graph, u, ws.view);
    }
    for (std::size_t si = 0; si < selectors.size(); ++si) {
      Scope span(ctx.spans, "select");
      selectors[si]->select_into(ws.view, ws.selection, ws.ans[si][u]);
    }
    for (std::size_t si = 0; si < selectors.size(); ++si)
      ctx.counts.ans_members += ws.ans[si][u].size();
    ctx.counts.select_calls += selectors.size();
  }
}

template <Metric M>
SampledRun traced_sample(const ExperimentSpec& spec, util::Rng& rng,
                         EvalWorkspace& ws, TracedContext& ctx) {
  SampledRun run;
  {
    Scope span(ctx.spans, "graph.sample_run");
    run = sample_run<M>(spec.scenario, spec.scenario.densities[0], rng, ws);
  }
  ctx.counts.runs += 1;
  ctx.counts.nodes += run.graph.node_count();
  ctx.counts.edges += run.graph.edge_count();
  return run;
}

template <Metric M>
RunRecord traced_oracle(const ExperimentSpec& spec,
                        const ResolvedProtocols& protocols,
                        TracedContext& ctx) {
  const Scenario& sc = spec.scenario;
  EvalWorkspace ws;
  util::Rng rng(unit_run_seed(spec));
  const SampledRun run = traced_sample<M>(spec, rng, ws, ctx);
  select_all(run.graph, protocols.ans, ws, ctx);

  RunRecord record;
  record.nodes = run.graph.node_count();
  record.protocols.resize(protocols.ans.size());
  for (std::size_t si = 0; si < protocols.ans.size(); ++si) {
    ForwardingOptions options;
    options.use_local_views = sc.use_local_views;
    options.min_hop_routing = !protocols.ans[si]->qos_first_routing();
    {
      Scope span(ctx.spans, "routing.advertised");
      ws.advertised_builder.build_advertised(run.graph, ws.ans[si],
                                             ws.advertised);
    }
    ForwardingResult routed;
    {
      Scope span(ctx.spans, "routing.forward");
      routed = sc.hop_by_hop
                   ? forward_packet<M>(run.graph, ws.advertised, run.source,
                                       run.destination, options,
                                       ws.forwarding)
                   : source_route_packet<M>(run.graph, ws.advertised,
                                            run.source, run.destination,
                                            options, ws.forwarding);
    }
    RunRecord::Protocol& rp = record.protocols[si];
    rp.set_size = average_set_size(ws.ans[si]);
    rp.delivered = routed.delivered();
    if (routed.delivered()) {
      rp.value = routed.value;
      rp.overhead = qos_overhead<M>(routed.value, run.optimal_value);
      rp.hops = routed.path.size() - 1;
    }
  }
  return record;
}

template <Metric M>
RunRecord traced_packet(const ExperimentSpec& spec,
                        const ResolvedProtocols& protocols,
                        TracedContext& ctx) {
  const Scenario& sc = spec.scenario;
  const std::uint64_t run_seed = unit_run_seed(spec);
  PacketEvalWorkspace ws;
  util::Rng rng(run_seed);
  const SampledRun run = traced_sample<M>(spec, rng, ws.eval, ctx);
  const std::size_t n = run.graph.node_count();
  const double mean_degree =
      n > 0 ? 2.0 * static_cast<double>(run.graph.edge_count()) /
                  static_cast<double>(n)
            : 0.0;
  const TrafficSpec traffic = sc.traffic;
  const TrafficSpec* traffic_spec = traffic.active() ? &traffic : nullptr;

  RunRecord record;
  record.nodes = n;
  record.protocols.resize(protocols.ans.size());
  std::vector<double> packet_set_sizes;
  for (std::size_t si = 0; si < protocols.ans.size(); ++si) {
    const AnsSelector& ans = *protocols.ans[si];
    DijkstraWorkspace* const dws = &ws.route_dijkstra;
    NextHopScratch* const bfs = &ws.route_bfs;
    OlsrNode::RouteFn route =
        ans.qos_first_routing()
            ? OlsrNode::RouteFn(
                  [dws, bfs](const Graph& g, NodeId self, NodeId dest) {
                    return compute_next_hop<M>(g, self, dest, *dws, *bfs);
                  })
            : OlsrNode::RouteFn(
                  [dws](const Graph& g, NodeId self, NodeId dest) {
                    return compute_min_hop_next_hop<M>(g, self, dest, *dws);
                  });
    {
      Scope span(ctx.spans, "sim.reset");
      ws.sim.reset(run.graph, *protocols.flooding[si], ans, std::move(route),
                   run_seed, nullptr, traffic_spec, nullptr);
    }
    ConvergenceReport report;
    {
      Scope span(ctx.spans, "sim.converge");
      report = ws.sim.run_to_convergence();
    }
    ctx.counts.converge_events += ws.sim.queue().processed();
    ctx.counts.mutations += ws.sim.mutations().count();
    if (!report.converged) ctx.counts.unconverged += 1;

    double total_ans = 0.0;
    for (NodeId u = 0; u < n; ++u)
      total_ans += static_cast<double>(ws.sim.node(u).ans().size());
    const double set_size = n > 0 ? total_ans / static_cast<double>(n) : 0.0;
    packet_set_sizes.push_back(set_size);

    TraceStats converged;
    copy_counters(converged, ws.sim.trace_at_convergence());
    ctx.counts.hello_sent += converged.hello_sent;
    ctx.counts.tc_originated += converged.tc_originated;
    ctx.counts.tc_forwarded += converged.tc_forwarded;
    ctx.counts.tc_duplicates += converged.tc_dropped_duplicate;
    const double tc_tx =
        static_cast<double>(converged.tc_originated + converged.tc_forwarded);
    ctx.counts.hello_rx_est +=
        static_cast<double>(converged.hello_sent) * mean_degree;
    ctx.counts.tc_rx_est += tc_tx * mean_degree;
    ctx.counts.tc_fresh_est += static_cast<double>(converged.tc_originated) *
                               static_cast<double>(n > 0 ? n - 1 : 0);
    if (ctx.corpora.size() < kReplayedEvaluations) {
      Scope span(ctx.spans, "check.capture");
      ctx.corpora.push_back(capture_corpus(ws.sim));
    }

    // One probe between the shared pair (Scenario::probe_packets == 1).
    const TraceStats& trace = ws.sim.trace();
    {
      Scope span(ctx.spans, "sim.probe");
      ws.sim.node(run.source).send_data(run.destination, 1);
      ws.sim.run_until(ws.sim.now() + 1.0);
    }
    RunRecord::Protocol& rp = record.protocols[si];
    rp.set_size = set_size;
    rp.convergence_time = report.converged_at;
    rp.converged = report.converged;
    rp.control_bytes = static_cast<double>(converged.control_bytes);
    const auto probe = trace.journeys.find(1);
    if (probe != trace.journeys.end() && probe->second.delivered) {
      rp.delivered = true;
      rp.probes_delivered = 1;
      rp.value = evaluate_path<M>(ws.sim.network(), probe->second.path);
      rp.overhead = qos_overhead<M>(rp.value, run.optimal_value);
      rp.hops = probe->second.path.size() - 1;
    } else {
      rp.probes_failed = 1;
    }

    if (traffic_spec != nullptr) {
      const std::uint64_t hops_before =
          trace.data_forwarded + trace.data_delivered;
      const std::uint64_t sent_before = trace.data_sent;
      const std::uint64_t drops_before = trace.frames_queue_dropped;
      TrafficMatrix matrix;
      {
        Scope span(ctx.spans, "sim.traffic");
        matrix = TrafficMatrix::generate(traffic, run.graph, run_seed);
        const double t0 = ws.sim.now();
        for (const TrafficMatrix::Packet& packet : matrix.packets()) {
          const TrafficMatrix::Flow& flow = matrix.flows()[packet.flow];
          ws.sim.queue().schedule_at(t0 + packet.offset, [&ws, flow, packet] {
            ws.sim.node(flow.source).send_data(flow.destination,
                                               packet.payload_id);
          });
        }
        const double drain =
            2.0 + static_cast<double>(traffic.queue_bytes) /
                      traffic.link_capacity * 10.0;
        ws.sim.run_until(t0 + traffic.duration + drain);
      }
      ctx.counts.traffic_sent += trace.data_sent - sent_before;
      ctx.counts.traffic_hops +=
          trace.data_forwarded + trace.data_delivered - hops_before;
      ctx.counts.queue_drops += trace.frames_queue_dropped - drops_before;

      util::DistributionAccumulator latency;
      std::size_t delivered = 0;
      for (const TrafficMatrix::Packet& packet : matrix.packets()) {
        const auto journey = trace.journeys.find(packet.payload_id);
        if (journey != trace.journeys.end() && journey->second.delivered) {
          ++delivered;
          latency.add(journey->second.delivered_at - journey->second.sent_at);
        }
      }
      rp.traffic_offered = matrix.packets().size();
      rp.traffic_delivered = delivered;
      rp.traffic_latency_p95 = util::quantile_sorted(latency.sorted(), 0.95);
    }
  }

  // Cross-check: the converged set sizes equal the oracle's selection on
  // the same deployment.
  {
    Scope span(ctx.spans, "check.oracle_sets");
    EvalWorkspace ows;
    select_all(run.graph, protocols.ans, ows, ctx);
    for (std::size_t si = 0; si < protocols.ans.size(); ++si)
      if (average_set_size(ows.ans[si]) != packet_set_sizes[si])
        ctx.counts.set_size_mismatches += 1;
  }
  return record;
}

}  // namespace

RunRecord run_traced_unit(const Workload& workload, const ExperimentSpec& spec,
                          TracedContext& ctx) {
  const ResolvedProtocols protocols =
      resolve_protocols(spec, SelectorRegistry::builtin());
  Scope span(ctx.spans, "eval.unit");
  return dispatch_metric(spec.metric, [&](auto tag) {
    using M = typename decltype(tag)::type;
    return workload.backend == BackendId::kOracle
               ? traced_oracle<M>(spec, protocols, ctx)
               : traced_packet<M>(spec, protocols, ctx);
  });
}

std::string compare_records(const RunRecord& a, const RunRecord& b) {
  std::ostringstream diff;
  diff.precision(17);
  if (a.nodes != b.nodes) {
    diff << "nodes " << a.nodes << " vs " << b.nodes;
    return diff.str();
  }
  if (a.protocols.size() != b.protocols.size()) return "protocol count";
  for (std::size_t i = 0; i < a.protocols.size(); ++i) {
    const RunRecord::Protocol& x = a.protocols[i];
    const RunRecord::Protocol& y = b.protocols[i];
    const auto field = [&](const char* name, double u, double v) {
      if (diff.tellp() == 0 && !(u == v || (std::isnan(u) && std::isnan(v))))
        diff << "protocol " << i << " " << name << ": " << u << " vs " << v;
    };
    field("set_size", x.set_size, y.set_size);
    field("delivered", x.delivered, y.delivered);
    field("value", x.value, y.value);
    field("overhead", x.overhead, y.overhead);
    field("hops", static_cast<double>(x.hops), static_cast<double>(y.hops));
    field("convergence_time", x.convergence_time, y.convergence_time);
    field("converged", x.converged, y.converged);
    field("control_bytes", x.control_bytes, y.control_bytes);
    field("probes_delivered", static_cast<double>(x.probes_delivered),
          static_cast<double>(y.probes_delivered));
    field("probes_failed", static_cast<double>(x.probes_failed),
          static_cast<double>(y.probes_failed));
    field("traffic_offered", static_cast<double>(x.traffic_offered),
          static_cast<double>(y.traffic_offered));
    field("traffic_delivered", static_cast<double>(x.traffic_delivered),
          static_cast<double>(y.traffic_delivered));
    field("traffic_latency_p95", x.traffic_latency_p95,
          y.traffic_latency_p95);
  }
  return diff.str();
}

}  // namespace perfbench
