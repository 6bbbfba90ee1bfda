#include "experiment/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "adversary/admission_flood.hpp"
#include "adversary/grade_recovery.hpp"
#include "adversary/pipe_stoppage.hpp"
#include "adversary/vote_flood.hpp"
#include "dynamics/churn.hpp"
#include "dynamics/operator_response.hpp"
#include "net/fault_injection.hpp"
#include "net/network.hpp"
#include "net/node_slot_registry.hpp"
#include "peer/peer.hpp"
#include "sim/simulator.hpp"

namespace lockss::experiment {

// See the header: perfbench/driver.cpp is the only caller.
void set_default_shards(uint32_t /*shards*/) {}

adversary::AdversaryPipeline canonical_pipeline(const AdversarySpec& spec) {
  adversary::AdversaryPipeline pipeline;
  const auto phase = [&spec](adversary::PhaseKind kind) {
    adversary::AdversaryPhase p;
    p.kind = kind;
    p.cadence = spec.cadence;
    p.defection = spec.defection;
    return p;
  };
  switch (spec.kind) {
    case AdversarySpec::Kind::kNone:
      break;
    case AdversarySpec::Kind::kPipeStoppage:
      pipeline.push_back(phase(adversary::PhaseKind::kPipeStoppage));
      break;
    case AdversarySpec::Kind::kAdmissionFlood:
      pipeline.push_back(phase(adversary::PhaseKind::kAdmissionFlood));
      break;
    case AdversarySpec::Kind::kBruteForce:
      pipeline.push_back(phase(adversary::PhaseKind::kBruteForce));
      break;
    case AdversarySpec::Kind::kGradeRecovery:
      pipeline.push_back(phase(adversary::PhaseKind::kGradeRecovery));
      break;
    case AdversarySpec::Kind::kVoteFlood:
      pipeline.push_back(phase(adversary::PhaseKind::kVoteFlood));
      break;
    case AdversarySpec::Kind::kCombined:
      // §9 combined strategy: a network-level blackout over part of the
      // population while the brute-force adversary drains the remainder at
      // the application level. The blackout also severs the brute-force
      // lanes into covered victims, so the effortful attack concentrates on
      // whoever can still communicate. Pipe stoppage installs first — the
      // ordering the old hard-coded switch used, now part of the canonical
      // pipeline's bit-identity contract.
      pipeline.push_back(phase(adversary::PhaseKind::kPipeStoppage));
      pipeline.push_back(phase(adversary::PhaseKind::kBruteForce));
      break;
  }
  return pipeline;
}

adversary::AdversaryPipeline effective_pipeline(const AdversarySpec& spec) {
  return spec.pipeline.empty() ? canonical_pipeline(spec) : spec.pipeline;
}

RunResult run_scenario(const ScenarioConfig& config) {
  // Wall-clock self-profiling (docs/observability.md). Reads of the host
  // clock never touch simulation state, so profiling cannot perturb the
  // deterministic result; the numbers are reporting only.
  const obs::Stopwatch total_watch;
  obs::Stopwatch phase_watch;
  obs::RunProfile profile;

  sim::Simulator simulator;
  sim::Rng root(config.seed);
  // Deployment dynamics draw first: one root split per enabled stream
  // (churn, operators), taken before anything else so the arrival count is
  // known when the identity registry freezes below. Disabled streams take
  // no split at all, which keeps every static-deployment RNG stream — and
  // therefore the whole golden corpus — bit-identical to the pre-dynamics
  // engine.
  const bool churn_enabled = config.churn.enabled();
  const bool operators_enabled = config.operators.enabled();
  // The adversary policy engine exists only when there is both a policy
  // table and a pipeline to drive; it consumes no root split either way
  // (its RNG stream is a domain-separated hash of the seed).
  const bool policy_enabled =
      config.adversary_policy.enabled() && !effective_pipeline(config.adversary).empty();
  sim::Rng churn_rng(0);
  sim::Rng operators_rng(0);
  dynamics::ChurnSchedule churn_schedule;
  if (churn_enabled) {
    churn_rng = root.split();
    churn_schedule =
        dynamics::build_churn_schedule(config.churn, config.peer_count, config.duration,
                                       churn_rng);
  }
  if (operators_enabled) {
    operators_rng = root.split();
  }
  const uint32_t arrival_count = churn_schedule.arrival_count;

  // The loyal ids — established peers, newcomers, and the whole churn
  // arrival schedule — form the dense range [0, owned_ids); adversary
  // minions and spoofed floods sit above it.
  const uint32_t owned_ids = config.peer_count + config.newcomer_count + arrival_count;

  net::Network network(simulator, root.split(), config.network);
  // Unreliable-link fault layer. Its RNG is a domain-separated hash of the
  // scenario seed — NOT a root split — so installing the model (even an
  // inert one) shifts no other stream: a zero-fault run is byte-identical
  // to ideal, and the bench overhead row asserts an inert-enabled run
  // produces identical metrics too (docs/faults.md).
  constexpr uint64_t kFaultStreamTag = 0xFA017A6E5EEDC0DEull;
  std::unique_ptr<net::FaultModel> fault_model;
  if (config.faults.enabled()) {
    fault_model = std::make_unique<net::FaultModel>(
        config.faults, sim::Rng(sim::splitmix64_mix(config.seed ^ kFaultStreamTag)));
    network.set_fault_model(fault_model.get());
  }
  // Protocol event tracing (docs/observability.md). The log takes no RNG
  // split and sampling is a pure hash, so enabling it shifts no stream; a
  // disabled config constructs nothing and every hook site stays a null
  // check. The dense owned-id range bounds the peer-domain ids for
  // fault-event tagging.
  std::unique_ptr<obs::EventLog> event_log;
  obs::EventSink* events = nullptr;
  if (config.obs_trace.enabled) {
    event_log = std::make_unique<obs::EventLog>(config.obs_trace, owned_ids);
    events = event_log->sink();
    network.set_event_sink(events);
  }
  metrics::MetricsCollector collector;
  // Deployment-wide identity registry behind the dense per-AU substrates.
  // Registration happens entirely at setup, in ascending NodeId order
  // (loyal peers, newcomers, churn arrivals — the *whole* arrival schedule,
  // even peers that only come up late in the run — then adversary minions
  // at their high id bases — the registry's ordering contract, which makes
  // slot order equal NodeId order and keeps every substrate walk
  // seed-identical).
  net::NodeSlotRegistry registry;
  for (uint32_t p = 0; p < owned_ids; ++p) {
    registry.register_node(net::NodeId{p});
  }

  // Operator-response engine (constructed before the peers so its alarm
  // observer can ride the environment's poll-observer chain).
  std::unique_ptr<dynamics::OperatorResponseEngine> operators_engine;
  if (operators_enabled) {
    operators_engine = std::make_unique<dynamics::OperatorResponseEngine>(
        simulator, config.operators, operators_rng.split());
  }
  // Adaptive-adversary policy engine (adversary/policy.hpp): constructed
  // before the peers so its alarm observer can ride the poll-observer
  // chain, armed with the fleet after the fleet exists below. No root
  // split — the policy stream is a domain-separated hash of the seed.
  std::unique_ptr<adversary::PolicyEngine> policy_engine;
  if (policy_enabled) {
    policy_engine = std::make_unique<adversary::PolicyEngine>(
        simulator, config.adversary_policy, config.seed);
  }

  peer::PeerEnvironment env;
  env.simulator = &simulator;
  env.network = &network;
  env.metrics = &collector;
  env.nodes = &registry;
  env.params = config.params;
  env.costs = config.costs;
  env.damage = config.damage;
  env.enable_damage = config.enable_damage;
  env.retain_schedule_history = config.collect_schedule_history;
  env.events = events;
  // Chain the alarm consumers: the policy engine wraps the operator
  // engine's observer, so both see each alarm once, in poll order.
  env.poll_observer = config.poll_observer;
  if (operators_engine != nullptr) {
    env.poll_observer = operators_engine->observer(env.poll_observer);
  }
  if (policy_engine != nullptr) {
    env.poll_observer = policy_engine->observer(env.poll_observer);
  }

  // --- Loyal population ------------------------------------------------------
  std::vector<std::unique_ptr<peer::Peer>> peers;
  std::vector<net::NodeId> ids;
  peers.reserve(config.peer_count);
  for (uint32_t p = 0; p < config.peer_count; ++p) {
    const net::NodeId id{p};
    ids.push_back(id);
    peers.push_back(std::make_unique<peer::Peer>(env, id, root.split()));
  }
  std::vector<storage::AuId> aus;
  for (uint32_t a = 0; a < config.au_count; ++a) {
    aus.push_back(storage::AuId{a});
  }
  // Fix the slot registry's row stride up front by registering every AU in
  // id order; the peers (and newcomers) register themselves in join_au
  // below, so after setup nothing on the poll path registers lazily.
  for (storage::AuId au : aus) {
    collector.register_au(au);
  }
  // Collection membership. At au_coverage = 1.0 every peer holds every AU
  // (the paper's setting); below it, each peer joins each AU independently,
  // with a floor of 2x quorum holders per AU so polls remain feasible.
  sim::Rng membership = root.split();
  std::vector<std::vector<net::NodeId>> holders(config.au_count);
  uint64_t total_replicas = 0;
  for (uint32_t a = 0; a < config.au_count; ++a) {
    for (uint32_t p = 0; p < config.peer_count; ++p) {
      if (config.au_coverage >= 1.0 || membership.bernoulli(config.au_coverage)) {
        holders[a].push_back(ids[p]);
      }
    }
    const uint32_t floor = std::min(config.peer_count, 2 * config.params.quorum);
    if (holders[a].size() < floor) {
      // Top up deterministically with the lowest-id non-holders.
      for (uint32_t p = 0; p < config.peer_count && holders[a].size() < floor; ++p) {
        if (std::find(holders[a].begin(), holders[a].end(), ids[p]) == holders[a].end()) {
          holders[a].push_back(ids[p]);
        }
      }
    }
    for (net::NodeId id : holders[a]) {
      peers[id.value]->join_au(aus[a]);
    }
    total_replicas += holders[a].size();
  }
  collector.set_total_replicas(total_replicas);

  // Friends lists (operator-maintained, §4.1): a few random fellow peers.
  sim::Rng bootstrap = root.split();
  for (uint32_t p = 0; p < config.peer_count; ++p) {
    std::vector<net::NodeId> others;
    for (net::NodeId id : ids) {
      if (id != ids[p]) {
        others.push_back(id);
      }
    }
    peers[p]->set_friends(bootstrap.sample(others, config.params.friends_list_size));
  }

  // Initial reference lists with mutual familiarity: the deployed beta
  // network bootstraps peers from the publisher and prior contact, so both
  // directions start at an `even` grade. Reference lists draw only from the
  // AU's actual holders — a peer cannot vote on an AU it does not preserve.
  for (uint32_t a = 0; a < config.au_count; ++a) {
    for (net::NodeId holder : holders[a]) {
      std::vector<net::NodeId> others;
      for (net::NodeId id : holders[a]) {
        if (id != holder) {
          others.push_back(id);
        }
      }
      const auto seeds = bootstrap.sample(others, config.params.reference_list_target);
      peers[holder.value]->seed_reference_list(aus[a], seeds);
      for (net::NodeId other : seeds) {
        peers[holder.value]->seed_grade(aus[a], other, reputation::Grade::kEven);
        peers[other.value]->seed_grade(aus[a], holder, reputation::Grade::kEven);
      }
    }
  }

  // Newcomers (§9 extension): constructed now so the network knows their
  // addresses, but started only at their join time. They hold correct
  // publisher replicas of every AU they join and know a bootstrap sample of
  // established holders; no established peer knows them.
  std::vector<std::unique_ptr<peer::Peer>> newcomers;
  // Historically named `churn` (pre-dating the dynamics subsystem); renamed
  // so the newcomer-bootstrap stream can never be confused with the
  // dynamics `churn_rng` above — the draw sequence is unchanged.
  sim::Rng newcomer_rng = root.split();
  for (uint32_t n = 0; n < config.newcomer_count; ++n) {
    const net::NodeId id{config.peer_count + n};
    newcomers.push_back(std::make_unique<peer::Peer>(env, id, root.split()));
    peer::Peer* newcomer = newcomers.back().get();
    for (uint32_t a = 0; a < config.au_count; ++a) {
      newcomer->join_au(aus[a]);
      const auto seeds = newcomer_rng.sample(holders[a], config.params.reference_list_target);
      newcomer->seed_reference_list(aus[a], seeds);
    }
    newcomer->set_friends(newcomer_rng.sample(ids, config.params.friends_list_size));
    const sim::SimTime join_at =
        newcomer_rng.uniform_time(sim::SimTime::zero(), config.newcomer_join_window);
    simulator.schedule_at(join_at, [newcomer] { newcomer->start(); });
  }
  // Churn arrivals (deployment dynamics): constructed and seeded now — like
  // newcomers, the network must know their addresses and the registry their
  // ids before any traffic flows — but started only when their schedule
  // event fires (ChurnModel::apply). Their bootstrap draws come from the
  // churn stream, never the protocol streams.
  std::vector<std::unique_ptr<peer::Peer>> arrival_peers;
  for (uint32_t a = 0; a < arrival_count; ++a) {
    const net::NodeId id{config.peer_count + config.newcomer_count + a};
    arrival_peers.push_back(
        std::make_unique<peer::Peer>(env, id, churn_rng.split()));
    peer::Peer* arrival = arrival_peers.back().get();
    for (uint32_t au = 0; au < config.au_count; ++au) {
      arrival->join_au(aus[au]);
      const auto seeds = churn_rng.sample(holders[au], config.params.reference_list_target);
      arrival->seed_reference_list(aus[au], seeds);
    }
    arrival->set_friends(churn_rng.sample(ids, config.params.friends_list_size));
  }
  if (config.newcomer_count > 0 || arrival_count > 0) {
    collector.set_total_replicas(
        total_replicas +
        static_cast<uint64_t>(config.newcomer_count + arrival_count) * config.au_count);
  }

  // Background load from previous layers (§6.3 layering).
  if (config.background != nullptr) {
    assert(config.background->size() == peers.size());
    for (size_t p = 0; p < peers.size(); ++p) {
      for (const sched::Reservation& r : (*config.background)[p]) {
        peers[p]->schedule().inject_busy(r.start, r.end);
      }
    }
  }

  for (auto& p : peers) {
    p->start();
  }

  // --- Adversary --------------------------------------------------------------
  // Every spec — legacy single enum or explicit multi-phase pipeline — is
  // installed through the AdversaryFleet. Minions with fixed identity sets
  // register like everyone else (their per-victim reputation entries then
  // live in the dense slot arrays); the admission-flood adversary spoofs
  // unbounded fresh ids and stays on the substrates' overflow path by
  // design. The fleet consumes one root split per phase in phase order, so
  // canonical single-kind pipelines reproduce the pre-pipeline RNG stream
  // exactly (golden corpus pins this).
  std::vector<peer::Peer*> victim_ptrs;
  for (auto& p : peers) {
    victim_ptrs.push_back(p.get());
  }
  const adversary::AdversaryPipeline pipeline = effective_pipeline(config.adversary);
  adversary::FleetEnvironment fleet_env;
  fleet_env.simulator = &simulator;
  fleet_env.network = &network;
  fleet_env.registry = &registry;
  fleet_env.reserved_low_ids = owned_ids;
  fleet_env.loyal_ids = ids;
  fleet_env.victims = victim_ptrs;
  fleet_env.aus = aus;
  fleet_env.params = &config.params;
  fleet_env.costs = &config.costs;
  adversary::AdversaryFleet fleet(fleet_env, pipeline, root);
  fleet.start();
  if (policy_engine != nullptr) {
    policy_engine->arm(&fleet, config.peer_count);
    policy_engine->start();
  }

  // --- Deployment dynamics ----------------------------------------------------
  // The churn model replays its precomputed schedule off the event queue,
  // flipping established peers through depart()/recover() and the offline
  // link filter, and starting arrivals. The operator engine attends every
  // loyal peer (established, newcomer, arrival) and samples friend
  // refreshes from the established roster.
  std::unique_ptr<net::OfflineSetFilter> offline_filter;
  std::unique_ptr<dynamics::ChurnModel> churn_model;
  if (operators_engine != nullptr) {
    for (auto& p : peers) {
      operators_engine->attend(p.get());
    }
    for (auto& p : newcomers) {
      operators_engine->attend(p.get());
    }
    for (auto& p : arrival_peers) {
      operators_engine->attend(p.get());
    }
    operators_engine->set_roster(ids);
  }
  if (churn_enabled) {
    offline_filter = std::make_unique<net::OfflineSetFilter>();
    network.add_filter(offline_filter.get());
    std::vector<peer::Peer*> established_ptrs = victim_ptrs;
    std::vector<peer::Peer*> arrival_ptrs;
    for (auto& p : arrival_peers) {
      arrival_ptrs.push_back(p.get());
    }
    churn_model = std::make_unique<dynamics::ChurnModel>(
        simulator, std::move(churn_schedule), std::move(established_ptrs),
        std::move(arrival_ptrs), offline_filter.get());
    if (operators_engine != nullptr) {
      churn_model->set_recovery_hook(
          [engine = operators_engine.get()](peer::Peer& p) { engine->on_peer_recovered(p); });
    }
    if (events != nullptr || policy_engine != nullptr) {
      // Churn transitions record with the domain-0 tag, so the canonical
      // order sorts them ahead of peer streams at exact ties. Leave/crash/
      // recover carry established indices, which equal NodeIds; arrival
      // ordinals offset past the newcomer block. The adversary policy
      // engine samples the established offline count off the same hook (an
      // outage-watching adversary sees every transition).
      const uint32_t arrival_base = config.peer_count + config.newcomer_count;
      churn_model->set_transition_hook([events, arrival_base,
                                        pol = policy_engine.get(),
                                        cm = churn_model.get()](const dynamics::ChurnEvent& ev) {
        if (events != nullptr) {
          obs::Event e;
          e.time_ns = ev.at.ns();
          switch (ev.kind) {
            case dynamics::ChurnEventKind::kArrival:
              e.kind = obs::EventKind::kChurnArrival;
              break;
            case dynamics::ChurnEventKind::kLeave:
              e.kind = obs::EventKind::kChurnLeave;
              break;
            case dynamics::ChurnEventKind::kCrash:
              e.kind = obs::EventKind::kChurnCrash;
              break;
            case dynamics::ChurnEventKind::kRecover:
              e.kind = obs::EventKind::kChurnRecover;
              e.arg = ev.state_loss ? 1 : 0;
              break;
          }
          e.origin = ev.kind == dynamics::ChurnEventKind::kArrival ? arrival_base + ev.peer
                                                                   : ev.peer;
          e.domain = 0;
          events->record(e);
        }
        if (pol != nullptr && ev.kind != dynamics::ChurnEventKind::kArrival) {
          pol->on_churn_sample(ev.at, cm->offline_count());
        }
      });
    }
    churn_model->start();
  }
  if (events != nullptr && operators_engine != nullptr) {
    operators_engine->set_action_hook(
        [events, clock = &simulator](dynamics::OperatorAction action, net::NodeId peer) {
          obs::Event e;
          e.time_ns = clock->now().ns();
          e.arg = static_cast<uint64_t>(action);
          e.origin = static_cast<uint32_t>(peer.value);
          e.kind = obs::EventKind::kOperatorAction;
          e.domain = 0;
          events->record(e);
        });
  }
  if (events != nullptr && policy_engine != nullptr) {
    policy_engine->set_trigger_hook(
        [events, clock = &simulator](adversary::PolicyTrigger trigger, uint32_t rule) {
          obs::Event e;
          e.time_ns = clock->now().ns();
          e.arg = static_cast<uint64_t>(trigger);
          e.origin = rule;
          e.kind = obs::EventKind::kAdversaryPolicyTrigger;
          e.domain = 0;
          events->record(e);
        });
    policy_engine->set_action_hook(
        [events, clock = &simulator](adversary::PolicyAction action, uint32_t phase) {
          obs::Event e;
          e.time_ns = clock->now().ns();
          e.arg = static_cast<uint64_t>(action);
          e.origin = phase;
          e.kind = obs::EventKind::kAdversaryPolicyAction;
          e.domain = 0;
          events->record(e);
        });
  }

  // --- Trace sampling ----------------------------------------------------------
  // Fixed-interval §6.1 time series. Every sampled quantity is a pure read
  // (afp_to_date peeks the damage integral without advancing it; efforts
  // come straight off the live meters), so a traced run computes the exact
  // same report as an untraced one; the ticks are ordinary simulator
  // events and therefore deterministic.
  metrics::TraceRecorder recorder(config.trace_interval);
  const auto loyal_effort_now = [&] {
    double total = 0.0;
    for (const auto& p : peers) {
      total += p->meter().total();
    }
    for (const auto& p : newcomers) {
      total += p->meter().total();
    }
    for (const auto& p : arrival_peers) {
      total += p->meter().total();
    }
    return total;
  };
  const auto adversary_effort_now = [&]() -> double { return fleet.effort_seconds(); };
  const auto sample_trace = [&](sim::SimTime t) {
    metrics::TracePoint point;
    point.t = t;
    point.damaged_fraction = collector.damaged_fraction_now();
    point.afp_to_date = collector.afp_to_date(t);
    point.successful_polls = collector.successful_polls();
    point.inquorate_polls = collector.inquorate_polls();
    point.alarms = collector.alarms();
    point.repairs = collector.repairs();
    point.loyal_effort_seconds = loyal_effort_now();
    point.adversary_effort_seconds = adversary_effort_now();
    // Robustness counters (fault layer + poll timeouts/retries).
    point.faults_injected = network.stats().faults_injected();
    uint64_t acks = 0, votes = 0, retries = 0;
    const auto add_robustness = [&](const peer::Peer& p) {
      acks += p.ack_timeouts_total();
      votes += p.vote_timeouts_total();
      retries += p.solicitation_retries_total();
    };
    for (const auto& p : peers) {
      add_robustness(*p);
    }
    for (const auto& p : newcomers) {
      add_robustness(*p);
    }
    for (const auto& p : arrival_peers) {
      add_robustness(*p);
    }
    point.ack_timeouts = acks;
    point.vote_timeouts = votes;
    point.solicitation_retries = retries;
    if (churn_model != nullptr) {
      point.online_fraction = churn_model->online_fraction();
      point.departures = churn_model->departures();
      point.recoveries = churn_model->recoveries();
      point.mean_recovery_days = churn_model->mean_recovery_days();
    }
    recorder.record(point);
  };
  std::function<void()> trace_tick;  // self-rescheduling; outlives run_until
  if (recorder.enabled()) {
    trace_tick = [&] {
      sample_trace(simulator.now());
      if (simulator.now() + config.trace_interval < config.duration) {
        simulator.schedule_in(config.trace_interval, [&trace_tick] { trace_tick(); });
      }
    };
    if (config.trace_interval < config.duration) {
      simulator.schedule_in(config.trace_interval, [&trace_tick] { trace_tick(); });
    }
  }

  // --- Run ---------------------------------------------------------------------
  profile.setup_ms = phase_watch.elapsed_ms();
  phase_watch.reset();
  simulator.run_until(config.duration);
  profile.run_ms = phase_watch.elapsed_ms();
  phase_watch.reset();

  // --- Harvest -------------------------------------------------------------------
  RunResult result;
  if (recorder.enabled()) {
    // Closing sample at end-of-run (in-run ticks stop strictly before it).
    sample_trace(config.duration);
  }
  result.trace = recorder.close(config.duration);
  // Session-liveness audit horizon (docs/faults.md): a poller books work
  // only up to ~one inter-poll interval past its start and the repair chain
  // is timeout-bounded well inside that, so twice the interval covers every
  // legitimate session lifetime and schedule commitment. Anything older is
  // a leak.
  const sim::SimTime audit_horizon = config.params.inter_poll_interval * 2.0;
  const auto harvest_peer = [&](peer::Peer& p) {
    result.polls_started += p.polls_started();
    result.solicitations_sent += p.solicitations_sent();
    for (size_t v = 0; v < result.admission_verdicts.size(); ++v) {
      result.admission_verdicts[v] += p.admission_verdicts()[v];
    }
    result.ack_timeouts += p.ack_timeouts_total();
    result.vote_timeouts += p.vote_timeouts_total();
    result.solicitation_retries += p.solicitation_retries_total();
    for (size_t a = 0; a < result.polls_aborted.size(); ++a) {
      result.polls_aborted[a] += p.poll_aborts()[a];
    }
    p.for_each_live_session_start([&](sim::SimTime started) {
      ++result.sessions_live_at_end;
      if (started + audit_horizon < config.duration) {
        ++result.stale_sessions_at_end;
      }
    });
    result.reservations_beyond_horizon +=
        p.schedule().intervals_after(config.duration + audit_horizon).size();
  };
  for (auto& p : peers) {
    harvest_peer(*p);
  }
  for (auto& p : newcomers) {
    harvest_peer(*p);
  }
  for (auto& p : arrival_peers) {
    harvest_peer(*p);
  }
  if (churn_model != nullptr) {
    result.churn_departures = churn_model->departures();
    result.churn_recoveries = churn_model->recoveries();
    result.churn_arrivals = churn_model->arrivals_started();
    result.availability_mean = churn_model->availability_mean(config.duration);
    result.mean_recovery_days = churn_model->mean_recovery_days();
  }
  if (operators_engine != nullptr) {
    result.operator_interventions = operators_engine->interventions();
  }
  if (policy_engine != nullptr) {
    result.policy_triggers = policy_engine->triggers_seen();
    result.policy_actions = policy_engine->actions_applied();
  }
  collector.set_effort_totals(loyal_effort_now(), adversary_effort_now());
  result.report = collector.finalize(config.duration);
  const net::NetworkStats& net_stats = network.stats();
  result.messages_delivered = net_stats.messages_delivered;
  result.messages_filtered = net_stats.messages_filtered;
  result.faults_lost = net_stats.messages_lost;
  result.faults_burst_dropped = net_stats.messages_burst_dropped;
  result.faults_duplicated = net_stats.messages_duplicated;
  result.faults_jittered = net_stats.messages_jittered;
  result.events_processed = simulator.events_processed();
  result.peak_queue_depth = simulator.peak_queue_depth();
  result.adversary_invitations = fleet.invitations();
  result.adversary_admissions = fleet.admissions();
  if (config.collect_schedule_history) {
    result.schedules.reserve(peers.size());
    for (auto& p : peers) {
      result.schedules.push_back(p->schedule().intervals_after(sim::SimTime::zero()));
    }
  }
  if (event_log != nullptr) {
    result.obs_events = event_log->finalize();
  }
  if (config.obs_profile) {
    profile.enabled = true;
    profile.harvest_ms = phase_watch.elapsed_ms();
    profile.total_ms = total_watch.elapsed_ms();
    profile.peak_rss_kb = obs::vm_hwm_kb();
    result.profile = profile;
  }
  return result;
}

std::vector<RunResult> run_layered(const ScenarioConfig& config, uint32_t layers) {
  std::vector<RunResult> results;
  // Accumulated busy intervals per peer across layers.
  std::vector<std::vector<sched::Reservation>> background(config.peer_count);
  for (uint32_t layer = 0; layer < layers; ++layer) {
    ScenarioConfig layer_config = config;
    layer_config.seed = config.seed + 7919 * layer;  // distinct stream per layer
    layer_config.collect_schedule_history = true;
    layer_config.background = layer > 0 ? &background : nullptr;
    RunResult r = run_scenario(layer_config);
    // Fold this layer's *new* busy time into the accumulated background.
    // intervals_after() returns the merged schedule (old injected + new), so
    // simply replacing the background with the export keeps the union.
    for (uint32_t p = 0; p < config.peer_count; ++p) {
      background[p] = r.schedules[p];
    }
    r.schedules.clear();  // not useful to callers; keep results lean
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace lockss::experiment
