#include "replay.hpp"

#include <algorithm>
#include <cstdint>

#include "net/switch_core.hpp"
#include "net/wire_format.hpp"
#include "proto/duplicate_set.hpp"
#include "proto/neighbor_tables.hpp"
#include "proto/protocol_timing.hpp"
#include "proto/topology_base.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace qolsr;

namespace {

// Results of replayed calls are folded in here so none is optimized away.
volatile std::uint64_t g_sink = 0;

/// Runs `pass` (one pass over the corpus making `calls` calls) once as a
/// warm-up, then repeatedly until at least `min_ns` have elapsed; returns
/// nanoseconds per call. `between` runs untimed before each pass.
template <typename Pass, typename Between>
double ns_per_call(std::size_t calls, Pass&& pass, Between&& between,
                   std::int64_t min_ns = 20'000'000) {
  if (calls == 0) return 0.0;
  between();
  pass();
  std::int64_t timed = 0;
  std::size_t passes = 0;
  while (timed < min_ns || passes < 3) {
    between();
    const std::int64_t t0 = now_ns();
    pass();
    timed += now_ns() - t0;
    ++passes;
  }
  return static_cast<double>(timed) /
         static_cast<double>(passes * calls);
}

template <typename Pass>
double ns_per_call(std::size_t calls, Pass&& pass) {
  return ns_per_call(calls, pass, [] {});
}

}  // namespace

FrameCorpus capture_corpus(const Simulator& sim) {
  FrameCorpus corpus;
  corpus.graph = sim.network();
  copy_counters(corpus.converged, sim.trace_at_convergence());
  const auto n = static_cast<NodeId>(sim.network().node_count());
  for (NodeId u = 0; u < n; ++u) {
    const OlsrNode& node = sim.node(u);
    // As OlsrNode builds them: every heard neighbor, MPR status for the
    // flooding relays, the measured link QoS.
    HelloMessage hello;
    hello.originator = u;
    for (const NodeId v : node.tables().heard_neighbors()) {
      const LinkQos* qos = node.tables().link_qos(v);
      if (qos == nullptr) continue;
      LinkStatus status = LinkStatus::kAsymmetric;
      if (node.tables().is_symmetric(v))
        status = std::binary_search(node.flooding_mpr().begin(),
                                    node.flooding_mpr().end(), v)
                     ? LinkStatus::kMpr
                     : LinkStatus::kSymmetric;
      hello.links.push_back({v, status, *qos});
    }
    PacketHeader hh;
    hh.type = MessageType::kHello;
    hh.originator = u;
    hh.sequence = static_cast<std::uint16_t>(2 * u);
    hh.ttl = 1;
    corpus.hello_headers.push_back(hh);
    corpus.hellos.push_back(std::move(hello));

    if (node.ans().empty()) continue;
    TcMessage tc;
    tc.originator = u;
    tc.ansn = node.topology().ansn_of(u).value_or(0);
    for (const NodeId v : node.ans())
      if (const LinkQos* qos = node.tables().link_qos(v))
        tc.advertised.push_back({v, LinkStatus::kSymmetric, *qos});
    PacketHeader th;
    th.type = MessageType::kTc;
    th.originator = u;
    th.sequence = static_cast<std::uint16_t>(2 * u + 1);
    th.ttl = 64;
    corpus.tc_headers.push_back(th);
    corpus.tcs.push_back(std::move(tc));
  }
  return corpus;
}

ReplayTimings replay(const std::vector<FrameCorpus>& corpora) {
  ReplayTimings out;
  if (corpora.empty()) return out;

  // Flatten: serialized frames and their senders across every corpus.
  std::vector<std::vector<std::byte>> frames;
  std::size_t hello_rx = 0;
  for (const FrameCorpus& c : corpora) {
    for (std::size_t i = 0; i < c.hellos.size(); ++i)
      frames.push_back(serialize(c.hello_headers[i], c.hellos[i]));
    for (std::size_t i = 0; i < c.tcs.size(); ++i)
      frames.push_back(serialize(c.tc_headers[i], c.tcs[i]));
    hello_rx += 2 * c.graph.edge_count();
  }

  out.serialize_ns = ns_per_call(frames.size(), [&] {
    for (const FrameCorpus& c : corpora) {
      for (std::size_t i = 0; i < c.hellos.size(); ++i)
        g_sink = g_sink + serialize(c.hello_headers[i], c.hellos[i]).size();
      for (std::size_t i = 0; i < c.tcs.size(); ++i)
        g_sink = g_sink + serialize(c.tc_headers[i], c.tcs[i]).size();
    }
  });
  out.parse_ns = ns_per_call(frames.size(), [&] {
    for (const auto& bytes : frames)
      g_sink = g_sink + parse_packet(bytes).has_value();
  });

  // Neighbor tables: every node hears each neighbor's HELLO. Two untimed
  // rounds complete the handshake; timed rounds are the steady-state
  // refreshes a converged network keeps making.
  const ProtocolTiming timing;
  double now = 0.0;
  std::vector<std::vector<NeighborTables>> tables(corpora.size());
  const auto hello_round = [&] {
    for (std::size_t ci = 0; ci < corpora.size(); ++ci) {
      const FrameCorpus& c = corpora[ci];
      for (NodeId v = 0; v < c.graph.node_count(); ++v)
        for (const Edge& e : c.graph.neighbors(v))
          g_sink = g_sink +
                   tables[ci][v].on_hello(c.hellos[e.to], e.qos, now)
                       .digest_changed;
    }
  };
  for (std::size_t ci = 0; ci < corpora.size(); ++ci)
    for (NodeId v = 0; v < corpora[ci].graph.node_count(); ++v)
      tables[ci].emplace_back(v, timing.neighbor_hold);
  hello_round();
  hello_round();
  out.on_hello_ns = ns_per_call(hello_rx, hello_round,
                                [&] { now += 1e-3; });
  out.is_symmetric_ns = ns_per_call(hello_rx, [&] {
    for (std::size_t ci = 0; ci < corpora.size(); ++ci) {
      const FrameCorpus& c = corpora[ci];
      for (NodeId v = 0; v < c.graph.node_count(); ++v)
        for (const Edge& e : c.graph.neighbors(v))
          g_sink = g_sink + tables[ci][v].is_symmetric(e.to);
    }
  });

  // Topology base: one node's view of every advertisement, primed, then
  // refreshed with the same ANSN as periodic TCs do.
  std::size_t tc_count = 0;
  std::vector<TopologyBase> bases(corpora.size(),
                                  TopologyBase(timing.topology_hold));
  const auto tc_round = [&] {
    for (std::size_t ci = 0; ci < corpora.size(); ++ci)
      for (const TcMessage& tc : corpora[ci].tcs)
        g_sink = g_sink + bases[ci].apply_tc(tc, now).fresh;
  };
  for (const FrameCorpus& c : corpora) tc_count += c.tcs.size();
  tc_round();
  out.apply_tc_ns = ns_per_call(tc_count, tc_round, [&] { now += 1e-3; });

  // Duplicate set at the runs' duplicate share: each flood is checked
  // once fresh and then as many times again as the runs dropped
  // duplicates per fresh reception (fresh receptions estimated as every
  // originated TC reaching every other node). Time advances one TC
  // interval per pass and expiry runs untimed between passes, so the set
  // holds the same window of floods a node's set does.
  double dups = 0.0;
  double fresh = 0.0;
  for (const FrameCorpus& c : corpora) {
    dups += static_cast<double>(c.converged.tc_dropped_duplicate);
    fresh += static_cast<double>(c.converged.tc_originated) *
             static_cast<double>(c.graph.node_count() - 1);
  }
  const double dup_per_fresh = fresh > 0.0 ? dups / fresh : 0.0;
  std::vector<DuplicateSet> dupsets(corpora.size(), DuplicateSet());
  std::uint16_t seq = 0;
  std::size_t dup_calls = 0;
  {
    double owed = 0.0;
    for (const FrameCorpus& c : corpora)
      for (std::size_t i = 0; i < c.tcs.size(); ++i) {
        owed += dup_per_fresh;
        dup_calls += 1 + static_cast<std::size_t>(owed);
        owed -= static_cast<double>(static_cast<std::size_t>(owed));
      }
  }
  out.dupset_ns = ns_per_call(
      dup_calls,
      [&] {
        double owed = 0.0;
        for (std::size_t ci = 0; ci < corpora.size(); ++ci)
          for (const TcMessage& tc : corpora[ci].tcs) {
            g_sink = g_sink +
                     dupsets[ci].check_and_insert(tc.originator, seq, now);
            owed += dup_per_fresh;
            for (; owed >= 1.0; owed -= 1.0)
              g_sink = g_sink +
                       dupsets[ci].check_and_insert(tc.originator, seq, now);
          }
      },
      [&] {
        ++seq;
        now += timing.tc_interval;
        for (DuplicateSet& d : dupsets) d.expire(now);
      });

  // Wire layer: every control frame wrapped as a broadcast packet frame,
  // then routed by a switch holding the deployment's adjacency.
  std::vector<net::Frame> wire_frames;
  std::vector<std::vector<std::byte>> encoded;
  std::vector<std::size_t> corpus_of;
  {
    std::size_t k = 0;
    for (std::size_t ci = 0; ci < corpora.size(); ++ci) {
      const FrameCorpus& c = corpora[ci];
      const std::size_t count = c.hellos.size() + c.tcs.size();
      for (std::size_t i = 0; i < count; ++i, ++k) {
        net::Frame f;
        f.kind = net::kKindPacket;
        f.sender = i < c.hellos.size() ? c.hellos[i].originator
                                       : c.tcs[i - c.hellos.size()].originator;
        f.dest = net::kBroadcastDest;
        f.payload = frames[k];
        encoded.push_back(net::encode_frame(f));
        wire_frames.push_back(std::move(f));
        corpus_of.push_back(ci);
      }
    }
  }
  out.encode_ns = ns_per_call(wire_frames.size(), [&] {
    for (const net::Frame& f : wire_frames)
      g_sink = g_sink + net::encode_frame(f).size();
  });
  out.decode_ns = ns_per_call(encoded.size(), [&] {
    for (const auto& bytes : encoded)
      g_sink = g_sink + net::decode_frame(bytes).has_value();
  });

  std::vector<net::SwitchCore> switches(corpora.size());
  std::vector<std::vector<std::size_t>> ports(corpora.size());
  std::vector<net::SwitchCore::Delivery> deliveries;
  for (std::size_t ci = 0; ci < corpora.size(); ++ci) {
    const FrameCorpus& c = corpora[ci];
    for (NodeId u = 0; u < c.graph.node_count(); ++u) {
      const std::size_t port = switches[ci].add_port();
      net::Frame reg;
      reg.kind = net::kKindRegister;
      reg.sender = u;
      switches[ci].route(port, reg, deliveries);
      ports[ci].push_back(port);
      for (const Edge& e : c.graph.neighbors(u))
        if (u < e.to) switches[ci].set_link(u, e.to);
    }
  }
  out.switch_route_ns = ns_per_call(wire_frames.size(), [&] {
    for (std::size_t k = 0; k < wire_frames.size(); ++k) {
      deliveries.clear();
      const std::size_t ci = corpus_of[k];
      switches[ci].route(ports[ci][wire_frames[k].sender], wire_frames[k],
                         deliveries);
      g_sink = g_sink + deliveries.size();
    }
  });
  return out;
}

}  // namespace perfbench
