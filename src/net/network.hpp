// Simulated network fabric (the paper's Narses network model, §6.2).
//
// The evaluation deliberately uses the simplest Narses model: per-message
// delivery time = propagation latency + transfer time, with no queueing or
// congestion, "except for the side-effects of artificial congestion used by
// a pipe stoppage adversary". We reproduce that:
//
//   * every node gets an access-link bandwidth drawn uniformly from
//     {1.5, 10, 100} Mbps (§6.2);
//   * every ordered pair gets a fixed latency drawn uniformly from
//     [1, 30] ms (§6.2);
//   * transfer time uses the bottleneck of the two access links;
//   * `LinkFilter`s model pipe stoppage: any installed filter may veto
//     delivery (the message is silently dropped, as a flooded link would).
//
// A network belongs to one simulator: sends, deliveries and the counters
// all run on that simulator's thread, in event order, so NetworkStats needs
// no synchronization.
#ifndef LOCKSS_NET_NETWORK_HPP_
#define LOCKSS_NET_NETWORK_HPP_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "net/node_id.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace lockss::obs {
class EventSink;
}  // namespace lockss::obs

namespace lockss::net {

class FaultModel;

// Veto-based delivery filter; pipe-stoppage adversaries install one.
class LinkFilter {
 public:
  virtual ~LinkFilter() = default;
  // Return false to drop traffic from `from` to `to`.
  virtual bool allow(NodeId from, NodeId to) const = 0;
};

struct NetworkConfig {
  // §6.2: "link bandwidths ... are uniformly distributed among three
  // choices: 1.5, 10, and 100 Mbps."
  std::vector<double> bandwidth_choices_bps = {1.5e6, 10e6, 100e6};
  // §6.2: "Link latencies are uniformly distributed between 1 and 30 ms."
  sim::SimTime min_latency = sim::SimTime::milliseconds(1);
  sim::SimTime max_latency = sim::SimTime::milliseconds(30);
};

struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_filtered = 0;
  uint64_t messages_no_handler = 0;
  uint64_t bytes_delivered = 0;
  // Fault-layer accounting (net::FaultModel; all zero on ideal networks).
  uint64_t messages_lost = 0;           // i.i.d. loss drops
  uint64_t messages_burst_dropped = 0;  // burst-episode drops
  uint64_t messages_duplicated = 0;     // extra copies scheduled
  uint64_t messages_jittered = 0;       // deliveries with nonzero extra delay

  uint64_t faults_injected() const {
    return messages_lost + messages_burst_dropped + messages_duplicated + messages_jittered;
  }
};

class Network {
 public:
  Network(sim::Simulator& simulator, sim::Rng rng, NetworkConfig config = {});

  // Registers `handler` as the endpoint for `id`. Re-registering an id
  // replaces the handler (used when a peer restarts); link characteristics
  // are a pure function of the id, so they stay stable.
  void register_node(NodeId id, MessageHandler* handler);
  void unregister_node(NodeId id);

  // Sends `message` (whose from/to must be set). Delivery is scheduled at
  // now + latency(from,to) + size / bottleneck_bandwidth unless a filter
  // vetoes the pair at *send* time.
  void send(MessagePtr message);

  // Filters are not owned; callers keep them alive while installed.
  void add_filter(const LinkFilter* filter);
  void remove_filter(const LinkFilter* filter);

  // Installs (or clears, with nullptr) the unreliable-link fault model
  // (docs/faults.md). Not owned. Faults are decided once, at send time,
  // after the veto filters: a vetoed message was never on the wire, so it
  // consumes no fault randomness. With no model installed the delivery path
  // is byte-for-byte the ideal-network behavior — the golden corpus pins
  // this.
  void set_fault_model(FaultModel* model) { faults_ = model; }

  // Deterministic per-pair latency (symmetric) and per-node bandwidth.
  // Both are pure functions of the ids and the run's salt, so an adversary
  // with unconstrained identities (§3.1) costs no simulator state.
  sim::SimTime latency(NodeId a, NodeId b) const;
  double bandwidth_bps(NodeId id) const;

  // Transfer delay for a message of `bytes` between two registered nodes.
  sim::SimTime delivery_delay(NodeId from, NodeId to, uint64_t bytes) const;

  const NetworkStats& stats() const { return stats_; }
  sim::Simulator& simulator() { return simulator_; }

  // Installs (or clears, with nullptr) the protocol-event sink; fault
  // injections (loss/burst/dup/jitter) are recorded on it
  // (docs/observability.md).
  void set_event_sink(obs::EventSink* sink) { events_ = sink; }

 private:
  bool allowed(NodeId from, NodeId to) const;
  void schedule_delivery(MessagePtr message, sim::SimTime delay);

  sim::Simulator& simulator_;
  FaultModel* faults_ = nullptr;
  obs::EventSink* events_ = nullptr;
  sim::Rng rng_;
  NetworkConfig config_;
  uint64_t latency_salt_;
  uint64_t bandwidth_salt_;
  std::unordered_map<NodeId, MessageHandler*> handlers_;
  std::vector<const LinkFilter*> filters_;
  NetworkStats stats_;
};

}  // namespace lockss::net

#endif  // LOCKSS_NET_NETWORK_HPP_
