// Non-adversarial fault injection: the protocol's retry and
// desynchronization machinery must absorb message loss and node outages
// (§5.2 — a poll is a long sequence of two-party exchanges precisely so
// sporadic unavailability cannot stall it).
//
// Probabilistic faults (loss/duplication/jitter/bursts) go through
// net::FaultModel on the delivery path; binary outages stay veto
// LinkFilters. docs/faults.md.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "metrics/collector.hpp"
#include "net/fault_injection.hpp"
#include "net/fault_model.hpp"
#include "net/network.hpp"
#include "peer/peer.hpp"
#include "sim/simulator.hpp"

namespace lockss {
namespace {

// --- Unit: FaultModel -------------------------------------------------------

TEST(FaultModelTest, ZeroConfigIsDisabledAndInertFlagEnables) {
  net::FaultConfig config;
  EXPECT_FALSE(config.enabled());
  config.install_when_inert = true;
  EXPECT_TRUE(config.enabled());
}

TEST(FaultModelTest, InertModelNeverPerturbsAnything) {
  net::FaultConfig config;
  config.install_when_inert = true;
  net::FaultModel model(config, sim::Rng(1));
  for (uint32_t i = 0; i < 200; ++i) {
    const net::FaultDecision d =
        model.decide(net::NodeId{i % 8}, net::NodeId{(i + 1) % 8}, sim::SimTime::seconds(i));
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.extra_delay, sim::SimTime::zero());
  }
}

TEST(FaultModelTest, FullLossDropsEverySend) {
  net::FaultConfig config;
  config.loss_rate = 1.0;
  net::FaultModel model(config, sim::Rng(1));
  for (uint32_t i = 0; i < 100; ++i) {
    const net::FaultDecision d = model.decide(net::NodeId{i % 8}, net::NodeId{(i + 3) % 8},
                                              sim::SimTime::seconds(i));
    EXPECT_TRUE(d.drop);
    EXPECT_FALSE(d.burst);  // i.i.d. loss, not a burst casualty
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.extra_delay, sim::SimTime::zero());
  }
}

TEST(FaultModelTest, LossRateIsApproximatelyHonored) {
  net::FaultConfig config;
  config.loss_rate = 0.3;
  net::FaultModel model(config, sim::Rng(7));
  uint32_t dropped = 0;
  const uint32_t trials = 20000;
  for (uint32_t i = 0; i < trials; ++i) {
    if (model.decide(net::NodeId{1}, net::NodeId{2}, sim::SimTime::seconds(i)).drop) {
      ++dropped;
    }
  }
  EXPECT_NEAR(static_cast<double>(dropped) / trials, 0.3, 0.02);
}

TEST(FaultModelTest, DuplicationAndJitterDrawIndependentDelays) {
  net::FaultConfig config;
  config.dup_rate = 1.0;
  config.jitter = sim::SimTime::milliseconds(100);
  net::FaultModel model(config, sim::Rng(11));
  bool delays_differ = false;
  for (uint32_t i = 0; i < 200; ++i) {
    const net::FaultDecision d =
        model.decide(net::NodeId{0}, net::NodeId{1}, sim::SimTime::seconds(i));
    EXPECT_FALSE(d.drop);
    EXPECT_TRUE(d.duplicate);
    EXPECT_GE(d.extra_delay, sim::SimTime::zero());
    EXPECT_LT(d.extra_delay, config.jitter);
    EXPECT_GE(d.dup_extra_delay, sim::SimTime::zero());
    EXPECT_LT(d.dup_extra_delay, config.jitter);
    delays_differ = delays_differ || d.extra_delay != d.dup_extra_delay;
  }
  // The copy gets its own jitter draw; 200 coincidences would be absurd.
  EXPECT_TRUE(delays_differ);
}

TEST(FaultModelTest, LossWinsOverDuplication) {
  net::FaultConfig config;
  config.loss_rate = 1.0;
  config.dup_rate = 1.0;
  config.jitter = sim::SimTime::milliseconds(50);
  net::FaultModel model(config, sim::Rng(13));
  const net::FaultDecision d = model.decide(net::NodeId{0}, net::NodeId{1}, sim::SimTime::zero());
  EXPECT_TRUE(d.drop);
  EXPECT_FALSE(d.duplicate);
  EXPECT_EQ(d.extra_delay, sim::SimTime::zero());
}

TEST(FaultModelTest, BurstEpisodesCoverTheConfiguredFraction) {
  net::FaultConfig config;
  config.burst_outage_rate = 0.25;
  config.burst_cycle = sim::SimTime::days(1.0);
  net::FaultModel model(config, sim::Rng(17));
  // Each directed pair spends exactly a quarter of every cycle in outage;
  // sample one pair densely across many cycles.
  uint32_t in_burst = 0;
  const uint32_t samples = 24 * 100;  // hourly over 100 days
  for (uint32_t i = 0; i < samples; ++i) {
    if (model.in_burst(net::NodeId{2}, net::NodeId{5}, sim::SimTime::hours(i))) {
      ++in_burst;
    }
  }
  EXPECT_NEAR(static_cast<double>(in_burst) / samples, 0.25, 0.04);
}

TEST(FaultModelTest, BurstMembershipIsPureAndDirected) {
  net::FaultConfig config;
  config.burst_outage_rate = 0.5;
  net::FaultModel a(config, sim::Rng(23));
  net::FaultModel b(config, sim::Rng(23));
  bool directions_differ = false;
  for (uint32_t i = 0; i < 200; ++i) {
    const sim::SimTime at = sim::SimTime::hours(i);
    // Same seed -> same burst salt -> identical membership, no matter how
    // many decide() draws either model has consumed.
    (void)b.decide(net::NodeId{0}, net::NodeId{1}, at);
    EXPECT_EQ(a.in_burst(net::NodeId{3}, net::NodeId{4}, at),
              b.in_burst(net::NodeId{3}, net::NodeId{4}, at));
    directions_differ = directions_differ ||
                        a.in_burst(net::NodeId{3}, net::NodeId{4}, at) !=
                            a.in_burst(net::NodeId{4}, net::NodeId{3}, at);
  }
  EXPECT_TRUE(directions_differ);  // per *directed* pair, like real flaky links
}

TEST(FaultModelTest, SenderLanesAreIndependentOfInterleaving) {
  net::FaultConfig config;
  config.loss_rate = 0.3;
  config.dup_rate = 0.2;
  config.jitter = sim::SimTime::milliseconds(40);
  // Model A: sender 1's sends interleaved with a storm from sender 2.
  // Model B: sender 1 alone. Same seed -> sender 1's fault sequence must be
  // identical — the per-sender-lane property that makes every fault
  // outcome independent of cross-sender event interleaving.
  net::FaultModel a(config, sim::Rng(31));
  net::FaultModel b(config, sim::Rng(31));
  for (uint32_t i = 0; i < 500; ++i) {
    for (uint32_t burst = 0; burst < i % 5; ++burst) {
      (void)a.decide(net::NodeId{2}, net::NodeId{3}, sim::SimTime::seconds(i));
    }
    const net::FaultDecision da =
        a.decide(net::NodeId{1}, net::NodeId{3}, sim::SimTime::seconds(i));
    const net::FaultDecision db =
        b.decide(net::NodeId{1}, net::NodeId{3}, sim::SimTime::seconds(i));
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.extra_delay, db.extra_delay);
    EXPECT_EQ(da.dup_extra_delay, db.dup_extra_delay);
  }
}

TEST(FaultModelTest, HighSenderIdsGetPrivateLanes) {
  net::FaultConfig config;
  config.loss_rate = 0.5;
  net::FaultModel model(config, sim::Rng(37));
  // Ids far above the loyal range (adversary minions) must still get
  // stable private lanes.
  uint32_t dropped = 0;
  for (uint32_t i = 0; i < 2000; ++i) {
    if (model.decide(net::NodeId{1'000'000}, net::NodeId{1}, sim::SimTime::seconds(i)).drop) {
      ++dropped;
    }
  }
  EXPECT_NEAR(static_cast<double>(dropped) / 2000, 0.5, 0.05);
}

// --- Unit: OutageLinkFilter ---------------------------------------------------

TEST(OutageLinkFilterTest, SilencesNodeOnlyDuringWindow) {
  sim::Simulator simulator;
  net::OutageLinkFilter filter(simulator, net::NodeId{3}, sim::SimTime::hours(1),
                               sim::SimTime::hours(2));
  EXPECT_TRUE(filter.allow(net::NodeId{3}, net::NodeId{4}));  // before
  bool during_blocked = false;
  bool during_other_ok = false;
  simulator.schedule_at(sim::SimTime::hours(1) + sim::SimTime::minutes(30), [&] {
    during_blocked = !filter.allow(net::NodeId{4}, net::NodeId{3});
    during_other_ok = filter.allow(net::NodeId{4}, net::NodeId{5});
  });
  bool after_ok = false;
  simulator.schedule_at(sim::SimTime::hours(3), [&] {
    after_ok = filter.allow(net::NodeId{3}, net::NodeId{4});
  });
  simulator.run_until(sim::SimTime::hours(4));
  EXPECT_TRUE(during_blocked);
  EXPECT_TRUE(during_other_ok);
  EXPECT_TRUE(after_ok);
}

// --- Integration: deployments under injected faults --------------------------
//
// run_scenario() owns its Network internally, so these tests assemble a small
// deployment directly from the public peer/net/sim APIs and install faults on
// it (the same wiring examples/fault_tolerant_archive.cpp demonstrates).

struct MiniDeployment {
  explicit MiniDeployment(uint64_t seed, uint32_t peer_count) : root(seed), network(simulator, root.split()) {
    env.simulator = &simulator;
    env.network = &network;
    env.metrics = &collector;
    env.enable_damage = false;
    collector.set_total_replicas(peer_count);
    const storage::AuId au{0};
    for (uint32_t p = 0; p < peer_count; ++p) {
      peers.push_back(std::make_unique<peer::Peer>(env, net::NodeId{p}, root.split()));
      peers.back()->join_au(au);
    }
    for (uint32_t p = 0; p < peer_count; ++p) {
      std::vector<net::NodeId> others;
      for (uint32_t q = 0; q < peer_count; ++q) {
        if (q != p) {
          others.push_back(net::NodeId{q});
        }
      }
      peers[p]->seed_reference_list(au, others);
      for (net::NodeId o : others) {
        peers[p]->seed_grade(au, o, reputation::Grade::kEven);
      }
    }
  }

  // Installs an unreliable-link model on the delivery path. The peers' own
  // seeds were already split in the constructor, so a faulty deployment's
  // peers behave identically to a clean one's until faults actually fire.
  void install_faults(const net::FaultConfig& config) {
    faults = std::make_unique<net::FaultModel>(config, root.split());
    network.set_fault_model(faults.get());
  }

  void start() {
    for (auto& p : peers) {
      p->start();
    }
  }

  sim::Simulator simulator;
  sim::Rng root;
  net::Network network;
  metrics::MetricsCollector collector;
  peer::PeerEnvironment env;
  std::vector<std::unique_ptr<peer::Peer>> peers;
  std::unique_ptr<net::FaultModel> faults;
};

TEST(FaultInjectionIntegrationTest, PollsSurviveModerateMessageLoss) {
  MiniDeployment clean(5, 20);
  clean.start();
  clean.simulator.run_until(sim::SimTime::years(1));
  const uint64_t clean_successes = clean.collector.successful_polls();
  ASSERT_GT(clean_successes, 40u);
  EXPECT_EQ(clean.network.stats().messages_lost, 0u);

  MiniDeployment lossy(5, 20);
  net::FaultConfig faults;
  faults.loss_rate = 0.10;
  lossy.install_faults(faults);
  lossy.start();
  lossy.simulator.run_until(sim::SimTime::years(1));
  EXPECT_GT(lossy.network.stats().messages_lost, 100u);
  // Retries and over-invitation (inner circle 2x quorum) absorb 10% loss;
  // at least two thirds of the successes must survive.
  EXPECT_GT(lossy.collector.successful_polls(), clean_successes * 2 / 3);
  EXPECT_EQ(lossy.collector.alarms(), 0u);
}

TEST(FaultInjectionIntegrationTest, SingleNodeOutageRecoversAfterReboot) {
  MiniDeployment deployment(6, 20);
  // Peer 7 goes dark for 60 days starting at day 60.
  net::OutageLinkFilter outage(deployment.simulator, net::NodeId{7}, sim::SimTime::days(60),
                               sim::SimTime::days(120));
  deployment.network.add_filter(&outage);
  deployment.start();
  deployment.simulator.run_until(sim::SimTime::years(1));
  // The network keeps polling (others barely notice one dead peer), and the
  // rebooted peer's own polls succeed again after the outage.
  EXPECT_GT(deployment.collector.successful_polls(), 40u);
  EXPECT_EQ(deployment.collector.alarms(), 0u);
}

TEST(FaultInjectionIntegrationTest, HeavyLossDegradesButDoesNotAlarm) {
  MiniDeployment deployment(8, 20);
  net::FaultConfig faults;
  faults.loss_rate = 0.40;
  deployment.install_faults(faults);
  deployment.start();
  deployment.simulator.run_until(sim::SimTime::years(1));
  // 40% loss cripples throughput but must fail *safe*: inconclusive polls
  // become inquorate (handled), never false alarms.
  EXPECT_GT(deployment.network.stats().messages_lost, 1000u);
  EXPECT_EQ(deployment.collector.alarms(), 0u);
}

TEST(FaultInjectionIntegrationTest, DuplicationAndJitterAreHarmless) {
  MiniDeployment deployment(9, 20);
  net::FaultConfig faults;
  faults.dup_rate = 0.05;
  faults.jitter = sim::SimTime::milliseconds(200);
  deployment.install_faults(faults);
  deployment.start();
  deployment.simulator.run_until(sim::SimTime::years(1));
  // Duplicate receipts hit sessions that already consumed the original and
  // are ignored; jitter only reorders. Neither may raise alarms or stall
  // the poll pipeline.
  EXPECT_GT(deployment.network.stats().messages_duplicated, 100u);
  EXPECT_GT(deployment.network.stats().messages_jittered, 1000u);
  EXPECT_GT(deployment.collector.successful_polls(), 40u);
  EXPECT_EQ(deployment.collector.alarms(), 0u);
}

}  // namespace
}  // namespace lockss
