// Fault tolerance without an adversary: flaky links and a crashed peer.
//
// Digital preservation networks run for decades on commodity hardware and
// consumer links; messages get lost and peers reboot. This example wires a
// deployment directly from the public peer/net/sim APIs (the same low-level
// assembly examples/custom_adversary.cpp uses), injects 10% message loss
// everywhere plus a two-month outage of one peer, and shows the §5.2
// desynchronization machinery riding through both: polls keep succeeding,
// the crashed peer's replicas catch up after reboot, and no false alarms
// fire.
//
//   $ ./build/examples/fault_tolerant_archive
#include <cstdio>
#include <memory>
#include <vector>

#include "metrics/collector.hpp"
#include "net/fault_injection.hpp"
#include "net/fault_model.hpp"
#include "net/network.hpp"
#include "peer/peer.hpp"
#include "sim/simulator.hpp"

using namespace lockss;

int main() {
  constexpr uint32_t kPeers = 24;
  const storage::AuId kAu{0};

  sim::Simulator simulator;
  sim::Rng root(424242);
  net::Network network(simulator, root.split());
  metrics::MetricsCollector collector;
  collector.set_total_replicas(kPeers);

  peer::PeerEnvironment env;
  env.simulator = &simulator;
  env.network = &network;
  env.metrics = &collector;
  // Moderate bit rot so the outage window matters (the crashed peer cannot
  // audit its replica while dark) without flooding the population with
  // simultaneous damage: one block per 3 disk-years keeps the damaged
  // fraction low enough that every poll still finds a landslide.
  env.damage.mean_disk_years_between_failures = 3.0;
  env.damage.aus_per_disk = 1.0;

  // The environment is copied into each Peer at construction, so the
  // observer must be in place before the peers are built.
  uint64_t successes_by_peer13 = 0;
  env.poll_observer = [&successes_by_peer13](net::NodeId poller,
                                             const protocol::PollOutcome& outcome) {
    if (poller == net::NodeId{13} && outcome.kind == protocol::PollOutcomeKind::kSuccess) {
      ++successes_by_peer13;
      std::printf("  [%6.1f d] peer 13 audited its replica%s\n", outcome.concluded.to_days(),
                  outcome.replica_was_repaired ? " and repaired it" : "");
    }
  };

  std::vector<std::unique_ptr<peer::Peer>> peers;
  for (uint32_t p = 0; p < kPeers; ++p) {
    peers.push_back(std::make_unique<peer::Peer>(env, net::NodeId{p}, root.split()));
    peers.back()->join_au(kAu);
  }
  for (uint32_t p = 0; p < kPeers; ++p) {
    std::vector<net::NodeId> others;
    for (uint32_t q = 0; q < kPeers; ++q) {
      if (q != p) {
        others.push_back(net::NodeId{q});
      }
    }
    peers[p]->seed_reference_list(kAu, others);
    for (net::NodeId other : others) {
      peers[p]->seed_grade(kAu, other, reputation::Grade::kEven);
    }
  }

  // Fault injection: 10% uniform message loss for the whole run (via the
  // deterministic unreliable-link model, docs/faults.md), and peer 13 dark
  // from day 90 to day 150 (say, a dead power supply over the summer).
  net::FaultConfig fault_config;
  fault_config.loss_rate = 0.10;
  net::FaultModel faults(fault_config, root.split());
  network.set_fault_model(&faults);
  net::OutageLinkFilter outage(simulator, net::NodeId{13}, sim::SimTime::days(90),
                               sim::SimTime::days(150));
  network.add_filter(&outage);

  std::printf("fault_tolerant_archive: %u peers, 10%% message loss, peer 13 down days 90-150\n\n",
              kPeers);

  for (auto& p : peers) {
    p->start();
  }

  simulator.run_until(sim::SimTime::years(1));

  std::printf("\nAfter one simulated year:\n");
  std::printf("  messages dropped by loss model:  %llu\n",
              static_cast<unsigned long long>(network.stats().messages_lost));
  std::printf("  network-wide successful polls:   %llu\n",
              static_cast<unsigned long long>(collector.successful_polls()));
  std::printf("  polls peer 13 completed:         %llu\n",
              static_cast<unsigned long long>(successes_by_peer13));
  std::printf("  false alarms:                    %llu\n",
              static_cast<unsigned long long>(collector.alarms()));
  std::printf("\nLoss and outages cost throughput, never correctness: repairs resume as soon\n"
              "as connectivity does, because polls are long sequences of independently\n"
              "retried two-party exchanges (§5.2).\n");
  return 0;
}
