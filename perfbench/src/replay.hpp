// Frame-corpus replay: the control frames of a converged network, rebuilt
// from each node's public protocol state, fed back through the public
// codec, protocol-table and wire calls one call type at a time, so each
// call's cost per invocation is measured in isolation (after a warm-up
// pass) and can be set against how often a run makes it.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "proto/messages.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

struct FrameCorpus {
  qolsr::Graph graph;
  std::vector<qolsr::PacketHeader> hello_headers;
  std::vector<qolsr::HelloMessage> hellos;  ///< one per node
  std::vector<qolsr::PacketHeader> tc_headers;
  std::vector<qolsr::TcMessage> tcs;  ///< one per node advertising
  qolsr::TraceStats converged;        ///< counters at convergence
};

/// The HELLO each node would send and the TC each node would originate in
/// the simulator's current (converged) state.
FrameCorpus capture_corpus(const qolsr::Simulator& sim);

/// Nanoseconds per call of each replayed public call.
struct ReplayTimings {
  double serialize_ns = 0.0;     ///< serialize (HELLO and TC)
  double parse_ns = 0.0;         ///< parse_packet
  double on_hello_ns = 0.0;      ///< NeighborTables::on_hello, refresh
  double is_symmetric_ns = 0.0;  ///< NeighborTables::is_symmetric
  double apply_tc_ns = 0.0;      ///< TopologyBase::apply_tc, refresh
  double dupset_ns = 0.0;        ///< DuplicateSet::check_and_insert
  double encode_ns = 0.0;        ///< net::encode_frame
  double decode_ns = 0.0;        ///< net::decode_frame
  double switch_route_ns = 0.0;  ///< net::SwitchCore::route, broadcast
};

ReplayTimings replay(const std::vector<FrameCorpus>& corpora);

}  // namespace perfbench
