// Performance-trajectory emitter: runs the figure-sweep grids serially and
// in parallel, checks that both produce bit-identical metrics (the parallel
// runner's determinism contract), and writes BENCH_sweep.json so every PR
// from here on can track wall-clock, events/sec, and queue depth.
//
//   bench_report [--peers N] [--aus N] [--years Y] [--seeds N]
//                [--workers N] [--out PATH]
//                [--large] [--large-peers N] [--large-aus N]
//                [--large-years Y]
//
// --large adds the `large_deployment` row: ONE deployment at the scale the
// roadmap targets (default 10k peers x 100 AUs x 1 sim-year), run once,
// reporting its wall-clock and bytes/peer (VmHWM / peers). The row is
// marked "optional": true so bench_compare skips it when a current report
// was produced without --large (it is far too slow for the default CI
// bench pass).
//
// Two sweeps are timed, matching the two attack families the paper plots:
// the pipe-stoppage grid behind Figures 3-5 and the admission-flood grid
// behind Figures 6-8. Each grid is duration × coverage × seeds plus a
// replicated baseline, the grids of campaigns/fig3.json and fig6.json.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/message_dispatch.hpp"
#include "bench_support/substrate_workloads.hpp"
#include "experiment/aggregate.hpp"
#include "experiment/cli.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "experiment/table.hpp"
#include "net/node_slot_registry.hpp"
#include "protocol/session_table.hpp"
#include "reputation/known_peers.hpp"
#include "reputation/reference_tables.hpp"

using namespace lockss;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Exact equality over every deterministic field of a run. Doubles compare
// bitwise-equal because a run is a pure function of its config; any drift
// here means the parallel runner changed *what* was computed, not just when.
bool identical(const experiment::RunResult& a, const experiment::RunResult& b) {
  // RunTrace's defaulted operator== covers every trace field exactly.
  return a.trace == b.trace &&
         a.report.access_failure_probability == b.report.access_failure_probability &&
         a.report.mean_success_gap_days == b.report.mean_success_gap_days &&
         a.report.mean_observed_gap_days == b.report.mean_observed_gap_days &&
         a.report.successful_polls == b.report.successful_polls &&
         a.report.inquorate_polls == b.report.inquorate_polls &&
         a.report.alarms == b.report.alarms && a.report.repairs == b.report.repairs &&
         a.report.damage_events == b.report.damage_events &&
         a.report.loyal_effort_seconds == b.report.loyal_effort_seconds &&
         a.report.adversary_effort_seconds == b.report.adversary_effort_seconds &&
         a.polls_started == b.polls_started && a.solicitations_sent == b.solicitations_sent &&
         a.messages_delivered == b.messages_delivered &&
         a.messages_filtered == b.messages_filtered &&
         a.adversary_invitations == b.adversary_invitations &&
         a.adversary_admissions == b.adversary_admissions &&
         a.admission_verdicts == b.admission_verdicts &&
         a.events_processed == b.events_processed && a.peak_queue_depth == b.peak_queue_depth &&
         a.churn_departures == b.churn_departures &&
         a.churn_recoveries == b.churn_recoveries && a.churn_arrivals == b.churn_arrivals &&
         a.availability_mean == b.availability_mean &&
         a.mean_recovery_days == b.mean_recovery_days &&
         a.operator_interventions == b.operator_interventions &&
         a.policy_triggers == b.policy_triggers && a.policy_actions == b.policy_actions &&
         a.faults_lost == b.faults_lost && a.faults_burst_dropped == b.faults_burst_dropped &&
         a.faults_duplicated == b.faults_duplicated && a.faults_jittered == b.faults_jittered &&
         a.ack_timeouts == b.ack_timeouts && a.vote_timeouts == b.vote_timeouts &&
         a.solicitation_retries == b.solicitation_retries &&
         a.polls_aborted == b.polls_aborted &&
         a.sessions_live_at_end == b.sessions_live_at_end &&
         a.stale_sessions_at_end == b.stale_sessions_at_end &&
         a.reservations_beyond_horizon == b.reservations_beyond_horizon &&
         a.obs_events == b.obs_events;
}

// Wall-clock cost of an inert hook: `ideal` and `inert` differ only in a
// hook that is installed but can never change the simulation. One sample
// of each swings by several percent on a shared host — more than the 1.02x
// cap bench_compare holds the ratio to — so the ratio is the median over
// kHookPairs interleaved pairs, alternating which side runs first so slow
// drift in host speed does not favour either side.
constexpr int kHookPairs = 7;
static_assert(kHookPairs % 2 == 1, "an odd pair count has a middle sample");

struct HookOverhead {
  double ideal_seconds = 0.0;  // median
  double inert_seconds = 0.0;  // median
  double ratio = 0.0;          // median of the per-pair ratios
  // The first pair's results, for the caller's bit-identity check.
  experiment::RunResult ideal_result;
  experiment::RunResult inert_result;
};

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

HookOverhead measure_hook(const experiment::ScenarioConfig& ideal,
                          const experiment::ScenarioConfig& inert) {
  HookOverhead out;
  std::vector<double> ideal_s, inert_s, ratios;
  const auto timed = [](const experiment::ScenarioConfig& config, experiment::RunResult* keep) {
    const double start = now_seconds();
    experiment::RunResult r = experiment::run_scenario(config);
    const double seconds = now_seconds() - start;
    if (keep != nullptr) {
      *keep = std::move(r);
    }
    return seconds;
  };
  for (int i = 0; i < kHookPairs; ++i) {
    experiment::RunResult* keep_ideal = i == 0 ? &out.ideal_result : nullptr;
    experiment::RunResult* keep_inert = i == 0 ? &out.inert_result : nullptr;
    double a = 0.0, b = 0.0;
    if (i % 2 == 0) {
      a = timed(ideal, keep_ideal);
      b = timed(inert, keep_inert);
    } else {
      b = timed(inert, keep_inert);
      a = timed(ideal, keep_ideal);
    }
    ideal_s.push_back(a);
    inert_s.push_back(b);
    ratios.push_back(b / a);
  }
  out.ideal_seconds = median(ideal_s);
  out.inert_seconds = median(inert_s);
  out.ratio = median(ratios);
  return out;
}

// Process high-water mark, for the bytes/peer accounting of the
// large_deployment row. Linux-only; returns 0 where unavailable.
size_t vm_hwm_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  size_t bytes = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      bytes = static_cast<size_t>(kb) * 1024;
      break;
    }
  }
  std::fclose(f);
  return bytes;
}

struct SweepReport {
  std::string name;
  size_t runs = 0;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  uint64_t events_processed = 0;
  uint64_t peak_queue_depth = 0;
  bool identical_metrics = false;
  // Extra JSON members spliced into this row verbatim (the
  // large_deployment row carries its scale and memory
  // accounting; empty for the regular grid sweeps).
  std::string extra_json;
  // Labelled per-run traces from the serial pass, for BENCH_trace.csv.
  std::vector<std::pair<std::string, metrics::RunTrace>> traces;
};

SweepReport time_grid(const std::string& name,
                      const std::vector<experiment::ScenarioConfig>& grid,
                      const std::vector<std::string>& labels, unsigned workers) {
  SweepReport out;
  out.name = name;
  out.runs = grid.size();

  double start = now_seconds();
  const auto serial = experiment::run_grid(grid, /*workers=*/1);
  out.serial_seconds = now_seconds() - start;
  for (size_t i = 0; i < serial.size(); ++i) {
    if (serial[i].trace.enabled()) {
      out.traces.emplace_back(labels[i], serial[i].trace);
    }
  }

  start = now_seconds();
  const auto parallel = experiment::run_grid(grid, workers);
  out.parallel_seconds = now_seconds() - start;

  out.identical_metrics = serial.size() == parallel.size();
  for (size_t i = 0; out.identical_metrics && i < serial.size(); ++i) {
    out.identical_metrics = identical(serial[i], parallel[i]);
  }
  for (const experiment::RunResult& r : serial) {
    out.events_processed += r.events_processed;
    out.peak_queue_depth = std::max(out.peak_queue_depth, r.peak_queue_depth);
  }
  return out;
}

SweepReport time_sweep(const std::string& name, experiment::AdversarySpec::Kind adversary,
                       const experiment::BenchProfile& profile,
                       const experiment::ScenarioConfig& base, unsigned workers) {
  const std::vector<double> durations = {5, 30, 90, 180};
  const std::vector<double> coverages = {10, 40, 100};

  std::vector<experiment::ScenarioConfig> grid;
  std::vector<std::string> labels;
  for (uint32_t s = 0; s < profile.seeds; ++s) {  // baseline replicas
    experiment::ScenarioConfig config = base;
    config.seed = base.seed + s;
    grid.push_back(config);
    labels.push_back(name + "/baseline_s" + std::to_string(s));
  }
  for (double duration : durations) {
    for (double coverage : coverages) {
      experiment::ScenarioConfig config = base;
      config.adversary.kind = adversary;
      config.adversary.cadence.attack_duration = sim::SimTime::days(duration);
      config.adversary.cadence.recuperation = sim::SimTime::days(30);
      config.adversary.cadence.coverage = coverage / 100.0;
      for (uint32_t s = 0; s < profile.seeds; ++s) {
        config.seed = base.seed + s;
        grid.push_back(config);
        char label[96];
        std::snprintf(label, sizeof(label), "%s/d%.0f_c%.0f_s%u", name.c_str(), duration,
                      coverage, s);
        labels.push_back(label);
      }
    }
  }
  SweepReport out = time_grid(name, grid, labels, workers);

  // Observability inert-hook bound (docs/observability.md), mirroring the
  // network_faults row's fault-hook bound: one untraced run against one
  // with tracing enabled but kind_mask = 0, so every protocol hook reaches
  // its sink and is masked off there. The wall-clock ratio is the pure
  // cost of keeping the tracing path hot, and the two runs must agree on
  // every simulation field (tracing consumes no RNG).
  experiment::ScenarioConfig ideal = base;
  ideal.trace_interval = sim::SimTime::zero();
  experiment::ScenarioConfig traced = ideal;
  traced.obs_trace.enabled = true;
  traced.obs_trace.kind_mask = 0;
  HookOverhead hook = measure_hook(ideal, traced);
  // The trace itself (enabled flag, zero events) is the one legitimate
  // difference; every simulation field must match bit for bit.
  hook.inert_result.obs_events = hook.ideal_result.obs_events;
  const bool obs_identical = identical(hook.ideal_result, hook.inert_result);
  out.identical_metrics = out.identical_metrics && obs_identical;
  char extra[192];
  std::snprintf(extra, sizeof(extra),
                ",\n     \"obs_ideal_seconds\": %.3f, \"obs_inert_seconds\": %.3f, "
                "\"obs_hook_overhead\": %.3f",
                hook.ideal_seconds, hook.inert_seconds, hook.ratio);
  out.extra_json = extra;
  std::printf("# %s: obs inert-hook overhead %.3fs / %.3fs, median ratio %.3fx, identical=%s\n",
              name.c_str(), hook.inert_seconds, hook.ideal_seconds, hook.ratio,
              obs_identical ? "yes" : "NO");
  return out;
}

// Dynamic-deployment throughput (PR 5): churn leave-rate × regional outage
// rate over the same base deployment, so future perf PRs track how much the
// dynamics layer (schedule replay, session teardown, offline filtering,
// arrival bootstrap) costs per event.
SweepReport time_churn_sweep(const std::string& name, const experiment::BenchProfile& profile,
                             const experiment::ScenarioConfig& base, unsigned workers) {
  const std::vector<double> leave_rates = {0.5, 2.0, 6.0};
  const std::vector<double> outage_rates = {0, 4.0};

  std::vector<experiment::ScenarioConfig> grid;
  std::vector<std::string> labels;
  for (double leave : leave_rates) {
    for (double outage : outage_rates) {
      experiment::ScenarioConfig config = base;
      config.churn.leave_rate_per_peer_year = leave;
      config.churn.crash_rate_per_peer_year = leave * 0.5;
      config.churn.mean_downtime_days = 8.0;
      config.churn.arrival_rate_per_year = 4.0;
      if (outage > 0) {
        config.churn.regions = 4;
        config.churn.regional_outage_rate_per_year = outage;
        config.churn.regional_outage_days = 4.0;
        config.churn.regional_recovery_stagger_hours = 8.0;
        config.churn.regional_state_loss = true;
      }
      for (uint32_t s = 0; s < profile.seeds; ++s) {
        config.seed = base.seed + s;
        grid.push_back(config);
        char label[96];
        std::snprintf(label, sizeof(label), "%s/l%.1f_r%.0f_s%u", name.c_str(), leave, outage,
                      s);
        labels.push_back(label);
      }
    }
  }
  return time_grid(name, grid, labels, workers);
}

// Unreliable-network throughput (docs/faults.md): loss-rate ladder over the
// base deployment (duplication and jitter riding along), so future perf PRs
// track what the fault layer costs per event. The row also bounds the
// delivery-path overhead of the fault *hook* at loss = 0: one ideal run
// against one with an inert model installed (install_when_inert) — the
// inert model draws from its own domain-separated RNG stream, so the two
// runs must produce bit-identical metrics, and their wall-clock ratio is
// the pure cost of having the hook on the path.
SweepReport time_faults_sweep(const std::string& name, const experiment::BenchProfile& profile,
                              const experiment::ScenarioConfig& base, unsigned workers) {
  const std::vector<double> loss_rates = {0.05, 0.2, 0.4};

  std::vector<experiment::ScenarioConfig> grid;
  std::vector<std::string> labels;
  for (uint32_t s = 0; s < profile.seeds; ++s) {  // ideal-network replicas
    experiment::ScenarioConfig config = base;
    config.seed = base.seed + s;
    grid.push_back(config);
    labels.push_back(name + "/ideal_s" + std::to_string(s));
  }
  for (double loss : loss_rates) {
    experiment::ScenarioConfig config = base;
    config.faults.loss_rate = loss;
    config.faults.dup_rate = 0.01;
    config.faults.jitter = sim::SimTime::milliseconds(20);
    for (uint32_t s = 0; s < profile.seeds; ++s) {
      config.seed = base.seed + s;
      grid.push_back(config);
      char label[96];
      std::snprintf(label, sizeof(label), "%s/p%.2f_s%u", name.c_str(), loss, s);
      labels.push_back(label);
    }
  }
  SweepReport out = time_grid(name, grid, labels, workers);

  // Hook-overhead bound at loss = 0.
  experiment::ScenarioConfig ideal = base;
  ideal.trace_interval = sim::SimTime::zero();
  experiment::ScenarioConfig inert = ideal;
  inert.faults.install_when_inert = true;
  const HookOverhead hook = measure_hook(ideal, inert);
  const bool fault_identical = identical(hook.ideal_result, hook.inert_result);
  out.identical_metrics = out.identical_metrics && fault_identical;
  char extra[160];
  std::snprintf(extra, sizeof(extra),
                ",\n     \"ideal_seconds\": %.3f, \"inert_seconds\": %.3f, "
                "\"hook_overhead\": %.3f",
                hook.ideal_seconds, hook.inert_seconds, hook.ratio);
  out.extra_json = extra;
  std::printf("# network_faults: inert-hook overhead %.3fs / %.3fs, median ratio %.3fx, "
              "identical=%s\n",
              hook.inert_seconds, hook.ideal_seconds, hook.ratio,
              fault_identical ? "yes" : "NO");
  return out;
}

// Strategy-tournament throughput (docs/adversaries.md): the 2x2 pairing
// grid the tournament campaigns run — adaptive vs static adversary policies
// against hands-off vs vigilant operators, over a churning deployment — so
// future perf PRs track what the policy engine (sensor sweeps, alarm
// eavesdropping, phase switching) costs per event. The row also bounds the
// overhead of an inert policy *hook*: one run with no policy table against
// one with an outage-triggered table over a static (churn-free) population
// — the rules can never fire, the engine schedules nothing and draws no
// RNG, so the two runs must produce bit-identical metrics and their
// wall-clock ratio is the pure cost of having the engine installed.
SweepReport time_tournament_sweep(const std::string& name,
                                  const experiment::BenchProfile& profile,
                                  const experiment::ScenarioConfig& base, unsigned workers) {
  experiment::ScenarioConfig duel = base;
  duel.churn.leave_rate_per_peer_year = 1.5;
  duel.churn.crash_rate_per_peer_year = 0.5;
  duel.churn.mean_downtime_days = 10.0;
  adversary::AdversaryPhase stoppage;
  stoppage.kind = adversary::PhaseKind::kPipeStoppage;
  stoppage.cadence.attack_duration = sim::SimTime::days(25);
  stoppage.cadence.recuperation = sim::SimTime::days(20);
  stoppage.cadence.coverage = 0.6;
  adversary::AdversaryPhase brute;
  brute.kind = adversary::PhaseKind::kBruteForce;
  brute.defection = adversary::DefectionPoint::kRemaining;
  duel.adversary.pipeline = {stoppage, brute};
  duel.adversary_policy.reaction_latency = sim::SimTime::hours(6);
  duel.adversary_policy.cooldown = sim::SimTime::days(3);
  duel.adversary_policy.outage_threshold = 0.15;

  const std::vector<adversary::AdversaryPolicy> opportunist = {
      {adversary::PolicyTrigger::kOutage, adversary::PolicyAction::kSwitchPhase, 1, 0.5},
      {adversary::PolicyTrigger::kRecovery, adversary::PolicyAction::kSwitchPhase, 0, 0.5},
  };
  dynamics::OperatorResponseConfig vigilant;
  vigilant.detection_latency = sim::SimTime::days(1);
  vigilant.policies = {
      {dynamics::OperatorTrigger::kAlarm, dynamics::OperatorAction::kRateTighten, 0.5},
      {dynamics::OperatorTrigger::kRecovery, dynamics::OperatorAction::kRekey, 1.0},
  };

  std::vector<experiment::ScenarioConfig> grid;
  std::vector<std::string> labels;
  const std::pair<const char*, std::vector<adversary::AdversaryPolicy>> adversaries[] = {
      {"static", {}}, {"opportunist", opportunist}};
  const std::pair<const char*, dynamics::OperatorResponseConfig> operators[] = {
      {"handsoff", {}}, {"vigilant", vigilant}};
  for (const auto& [adv_name, policies] : adversaries) {
    for (const auto& [op_name, op_config] : operators) {
      experiment::ScenarioConfig config = duel;
      config.adversary_policy.policies = policies;
      config.operators = op_config;
      for (uint32_t s = 0; s < profile.seeds; ++s) {
        config.seed = base.seed + s;
        grid.push_back(config);
        labels.push_back(name + "/" + adv_name + "_" + op_name + "_s" + std::to_string(s));
      }
    }
  }
  SweepReport out = time_grid(name, grid, labels, workers);

  // Inert-policy-hook bound over the static deployment.
  experiment::ScenarioConfig ideal = base;
  ideal.trace_interval = sim::SimTime::zero();
  ideal.adversary.pipeline = duel.adversary.pipeline;
  experiment::ScenarioConfig inert = ideal;
  inert.adversary_policy = duel.adversary_policy;
  inert.adversary_policy.policies = opportunist;  // no churn: can never fire
  const HookOverhead hook = measure_hook(ideal, inert);
  const bool policy_identical = identical(hook.ideal_result, hook.inert_result);
  out.identical_metrics = out.identical_metrics && policy_identical;
  char extra[192];
  std::snprintf(extra, sizeof(extra),
                ",\n     \"policy_ideal_seconds\": %.3f, \"policy_inert_seconds\": %.3f, "
                "\"policy_hook_overhead\": %.3f",
                hook.ideal_seconds, hook.inert_seconds, hook.ratio);
  out.extra_json = extra;
  std::printf("# %s: inert-policy-hook overhead %.3fs / %.3fs, median ratio %.3fx, "
              "identical=%s\n",
              name.c_str(), hook.inert_seconds, hook.ideal_seconds, hook.ratio,
              policy_identical ? "yes" : "NO");
  return out;
}

// --- Substrate micros (PR 3) -------------------------------------------------
// Dense slot-indexed substrates vs the preserved seed containers, timed over
// the bench_support op streams — the same streams micro_substrates uses, so
// the JSON numbers and the google-benchmark numbers stay comparable. The
// acceptance-bar pair (KnownPeers::standing, session-table lookup) plus the
// grade-transition mix.

struct SubstrateMicro {
  std::string name;
  double reference_ops_per_sec = 0.0;
  double dense_ops_per_sec = 0.0;
  double speedup() const { return dense_ops_per_sec / reference_ops_per_sec; }
};

template <typename Fn>
double ops_per_second(uint64_t ops, const Fn& fn) {
  const double start = now_seconds();
  fn();
  return static_cast<double>(ops) / (now_seconds() - start);
}

template <typename KnownPeersT>
void drive_known_peers_standing(KnownPeersT& known, uint32_t peers, uint64_t ops) {
  bench_support::populate_graded(known, peers);
  const auto queries = bench_support::standing_queries(peers);
  uint64_t sink = 0;
  for (uint64_t i = 0; i < ops; ++i) {
    sink += static_cast<uint64_t>(bench_support::standing_probe(known, queries, i));
  }
  // Defeat dead-code elimination without branching on the hot loop.
  volatile uint64_t keep = sink;
  (void)keep;
}

template <typename KnownPeersT>
void drive_known_peers_transitions(KnownPeersT& known, uint32_t peers, uint64_t ops) {
  sim::Rng rng(bench_support::kTransitionRngSeed);
  for (uint64_t i = 0; i < ops; ++i) {
    bench_support::transition_op(known, rng, peers, static_cast<int64_t>(i));
  }
}

struct MicroSession {
  uint64_t payload[4] = {};
};

template <typename TableT>
void drive_session_lookup(TableT& table, uint64_t ops) {
  const auto ids = bench_support::populate_sessions(
      table, [] { return std::make_unique<MicroSession>(); });
  const auto queries = bench_support::session_queries(ids);
  uint64_t sink = 0;
  for (uint64_t i = 0; i < ops; ++i) {
    sink += bench_support::lookup_probe(table, queries, i) != nullptr ? 1 : 0;
  }
  volatile uint64_t keep = sink;
  (void)keep;
}

// Message-dispatch micro (PR 4): the seed dynamic_cast chain vs the
// MessageKind tag switch, over the shared weighted protocol-message mix.
SubstrateMicro run_dispatch_micro(uint64_t ops) {
  const auto stream = bench_support::make_message_stream(4096, /*seed=*/42);
  SubstrateMicro micro;
  micro.name = "message_dispatch";
  uint64_t sink = 0;
  micro.reference_ops_per_sec = ops_per_second(ops, [&] {
    for (uint64_t i = 0; i < ops; ++i) {
      sink += static_cast<uint64_t>(
          bench_support::dispatch_reference(*stream[i & (stream.size() - 1)]));
    }
  });
  micro.dense_ops_per_sec = ops_per_second(ops, [&] {
    for (uint64_t i = 0; i < ops; ++i) {
      sink += static_cast<uint64_t>(
          bench_support::dispatch_kind(*stream[i & (stream.size() - 1)]));
    }
  });
  volatile uint64_t keep = sink;
  (void)keep;
  return micro;
}

std::vector<SubstrateMicro> run_substrate_micros(uint64_t ops) {
  constexpr uint32_t kPeers = 200;
  net::NodeSlotRegistry registry;
  for (uint32_t p = 0; p < kPeers; ++p) {
    registry.register_node(net::NodeId{p});
  }
  std::vector<SubstrateMicro> out;
  {
    SubstrateMicro micro;
    micro.name = "known_peers_standing";
    reputation::KnownPeersReference reference(sim::SimTime::months(6));
    micro.reference_ops_per_sec =
        ops_per_second(ops, [&] { drive_known_peers_standing(reference, kPeers, ops); });
    reputation::KnownPeers dense(sim::SimTime::months(6), &registry);
    micro.dense_ops_per_sec =
        ops_per_second(ops, [&] { drive_known_peers_standing(dense, kPeers, ops); });
    out.push_back(micro);
  }
  {
    SubstrateMicro micro;
    micro.name = "known_peers_transitions";
    reputation::KnownPeersReference reference(sim::SimTime::months(6));
    micro.reference_ops_per_sec =
        ops_per_second(ops, [&] { drive_known_peers_transitions(reference, kPeers, ops); });
    reputation::KnownPeers dense(sim::SimTime::months(6), &registry);
    micro.dense_ops_per_sec =
        ops_per_second(ops, [&] { drive_known_peers_transitions(dense, kPeers, ops); });
    out.push_back(micro);
  }
  out.push_back(run_dispatch_micro(ops));
  {
    SubstrateMicro micro;
    micro.name = "session_table_lookup";
    protocol::SessionTableReference<MicroSession> reference;
    micro.reference_ops_per_sec =
        ops_per_second(ops, [&] { drive_session_lookup(reference, ops); });
    protocol::SessionTable<MicroSession> dense;
    micro.dense_ops_per_sec = ops_per_second(ops, [&] { drive_session_lookup(dense, ops); });
    out.push_back(micro);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  experiment::CliArgs args(argc, argv);
  const auto profile = experiment::resolve_profile(args, /*peers=*/40, /*aus=*/4,
                                                   /*years=*/1.0, /*seeds=*/1);
  const unsigned workers = static_cast<unsigned>(
      args.integer("workers", experiment::ParallelRunner::default_workers()));
  const std::string out_path = args.text("out", "BENCH_sweep.json");
  const std::string trace_path = args.text("trace-out", "BENCH_trace.csv");
  const double trace_days = args.real("trace-days", 7.0);

  experiment::print_preamble("bench_report: sweep wall-clock + event-queue throughput", profile);
  std::printf("# workers: %u (serial pass uses 1)\n", workers);

  experiment::ScenarioConfig base = experiment::base_config(profile);
  // Every grid run samples a metric time series; the serial/parallel
  // identity check then also pins trace determinism, and the serial pass's
  // traces are emitted as CSV for the §6.1 time-series figures.
  base.trace_interval = sim::SimTime::days(trace_days);
  std::vector<SweepReport> sweeps;
  sweeps.push_back(time_sweep("fig3_pipe_stoppage_afp",
                              experiment::AdversarySpec::Kind::kPipeStoppage, profile, base,
                              workers));
  sweeps.push_back(time_sweep("fig6_admission_afp",
                              experiment::AdversarySpec::Kind::kAdmissionFlood, profile, base,
                              workers));
  sweeps.push_back(time_churn_sweep("churn_dynamics", profile, base, workers));
  sweeps.push_back(time_faults_sweep("network_faults", profile, base, workers));
  sweeps.push_back(time_tournament_sweep("adversary_tournament", profile, base, workers));

  // Opt-in large-deployment row: one deployment at (or scaled toward) the
  // 10k-peer x 100-AU x 1-year target, with bytes/peer from the process
  // high-water mark. Runs after the grids so
  // VmHWM is dominated by the large run, not the sweeps.
  if (args.flag("large")) {
    experiment::ScenarioConfig large = experiment::base_config(profile);
    large.peer_count = static_cast<uint32_t>(args.integer("large-peers", 10000));
    large.au_count = static_cast<uint32_t>(args.integer("large-aus", 100));
    const double large_years = args.real("large-years", 1.0);
    large.duration = sim::SimTime::days(365.0 * large_years);
    large.trace_interval = sim::SimTime::zero();
    std::printf("# large_deployment: %u peers x %u AUs x %.2fy\n", large.peer_count,
                large.au_count, large_years);

    SweepReport row;
    row.name = "large_deployment";
    row.runs = 1;
    const double start = now_seconds();
    const experiment::RunResult result = experiment::run_scenario(large);
    // One run: there is no parallel pass, so both columns carry its time.
    row.serial_seconds = now_seconds() - start;
    row.parallel_seconds = row.serial_seconds;
    row.events_processed = result.events_processed;
    row.peak_queue_depth = result.peak_queue_depth;
    row.identical_metrics = true;

    const size_t hwm = vm_hwm_bytes();
    char extra[256];
    std::snprintf(extra, sizeof(extra),
                  ",\n     \"peers\": %u, \"aus\": %u, \"years\": %.3f,\n"
                  "     \"vm_hwm_bytes\": %zu, \"bytes_per_peer\": %zu, \"optional\": true",
                  large.peer_count, large.au_count, large_years, hwm,
                  hwm / std::max<uint32_t>(large.peer_count, 1));
    row.extra_json = extra;
    std::printf("# large_deployment: VmHWM %.1f MiB -> %zu bytes/peer\n",
                static_cast<double>(hwm) / (1024.0 * 1024.0),
                hwm / std::max<uint32_t>(large.peer_count, 1));
    sweeps.push_back(row);
  }

  const uint64_t substrate_ops =
      static_cast<uint64_t>(args.integer("substrate-ops", 4000000));
  const std::vector<SubstrateMicro> micros = run_substrate_micros(substrate_ops);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"generated_by\": \"tools/bench_report\",\n");
  std::fprintf(f, "  \"scale\": {\"peers\": %u, \"aus\": %u, \"years\": %.3f, \"seeds\": %u},\n",
               profile.peers, profile.aus, profile.years, profile.seeds);
  std::fprintf(f, "  \"workers\": %u,\n", workers);
  std::fprintf(f, "  \"sweeps\": [\n");
  bool all_identical = true;
  for (size_t i = 0; i < sweeps.size(); ++i) {
    const SweepReport& s = sweeps[i];
    all_identical = all_identical && s.identical_metrics;
    const double events = static_cast<double>(s.events_processed);
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"runs\": %zu,\n"
                 "     \"serial_seconds\": %.3f, \"parallel_seconds\": %.3f, "
                 "\"speedup\": %.2f,\n"
                 "     \"events_processed\": %" PRIu64
                 ", \"events_per_second_serial\": %.0f, "
                 "\"events_per_second_parallel\": %.0f,\n"
                 "     \"peak_queue_depth\": %" PRIu64 ", \"identical_metrics\": %s%s}%s\n",
                 s.name.c_str(), s.runs, s.serial_seconds, s.parallel_seconds,
                 s.serial_seconds / s.parallel_seconds, s.events_processed,
                 events / s.serial_seconds, events / s.parallel_seconds, s.peak_queue_depth,
                 s.identical_metrics ? "true" : "false", s.extra_json.c_str(),
                 i + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"substrates\": [\n");
  for (size_t i = 0; i < micros.size(); ++i) {
    const SubstrateMicro& m = micros[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ops\": %" PRIu64
                 ", \"reference_ops_per_second\": %.0f, "
                 "\"dense_ops_per_second\": %.0f, \"speedup\": %.2f}%s\n",
                 m.name.c_str(), substrate_ops, m.reference_ops_per_sec, m.dense_ops_per_sec,
                 m.speedup(), i + 1 < micros.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  for (const SubstrateMicro& m : micros) {
    std::printf("substrate %-24s reference=%.2eops/s dense=%.2eops/s speedup=%.2fx\n",
                m.name.c_str(), m.reference_ops_per_sec, m.dense_ops_per_sec, m.speedup());
  }
  for (const SweepReport& s : sweeps) {
    std::printf("%-24s runs=%-3zu serial=%.2fs parallel=%.2fs speedup=%.2fx "
                "events=%.2e ev/s=%.0f peak_depth=%" PRIu64 " identical=%s\n",
                s.name.c_str(), s.runs, s.serial_seconds, s.parallel_seconds,
                s.serial_seconds / s.parallel_seconds,
                static_cast<double>(s.events_processed),
                static_cast<double>(s.events_processed) / s.parallel_seconds,
                s.peak_queue_depth, s.identical_metrics ? "yes" : "NO");
  }
  std::printf("# wrote %s\n", out_path.c_str());
  std::vector<std::pair<std::string, const metrics::RunTrace*>> trace_series;
  for (const SweepReport& s : sweeps) {
    for (const auto& [label, trace] : s.traces) {
      trace_series.emplace_back(label, &trace);
    }
  }
  if (experiment::write_trace_csv(trace_path, trace_series)) {
    std::printf("# wrote %s (%zu trace series)\n", trace_path.c_str(), trace_series.size());
  }
  if (!all_identical) {
    std::fprintf(stderr, "DETERMINISM VIOLATION: serial and parallel metrics differ\n");
    return 1;
  }
  return 0;
}
