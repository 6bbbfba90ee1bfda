// Whole-deployment scenario construction and execution.
//
// A ScenarioConfig describes one simulated deployment (§6.3): a population
// of loyal peers preserving a collection of AUs for a simulated span, plus
// at most one adversary. run_scenario() builds everything, runs the
// discrete-event simulation, and returns the §6.1 metrics together with raw
// counters.
//
// The 600-AU collections of §6.3 are simulated with the paper's *layering*
// methodology: "We simulate 600 AU collections by layering 50 AUs/peer runs,
// adding the tasks caused by this layer's 50 AUs to the task schedule for
// each peer accumulated during the preceding layers." run_layered() exports
// every peer's busy intervals after each layer and injects them as
// background load into the next.
#ifndef LOCKSS_EXPERIMENT_SCENARIO_HPP_
#define LOCKSS_EXPERIMENT_SCENARIO_HPP_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "adversary/attack_schedule.hpp"
#include "adversary/brute_force.hpp"
#include "adversary/pipeline.hpp"
#include "adversary/policy.hpp"
#include "crypto/cost_model.hpp"
#include "dynamics/spec.hpp"
#include "metrics/collector.hpp"
#include "metrics/trace.hpp"
#include "net/fault_model.hpp"
#include "net/network.hpp"
#include "obs/event_log.hpp"
#include "obs/profile.hpp"
#include "protocol/host.hpp"
#include "protocol/params.hpp"
#include "sched/task_schedule.hpp"
#include "storage/damage.hpp"

namespace lockss::experiment {

struct AdversarySpec {
  enum class Kind {
    kNone,
    kPipeStoppage,    // §7.2 (Figures 3–5)
    kAdmissionFlood,  // §7.3 (Figures 6–8)
    kBruteForce,      // §7.4 (Table 1)
    kGradeRecovery,   // §7.4 closing variant (extension)
    kVoteFlood,       // §5.1 rate-limitation adversary (extension)
    kCombined,        // §9 combined strategy: pipe stoppage + brute force
  };
  Kind kind = Kind::kNone;
  adversary::AttackCadence cadence;  // pipe stoppage / admission flood / combined
  adversary::DefectionPoint defection = adversary::DefectionPoint::kNone;  // brute force/combined
  // Composable multi-adversary pipeline (§9). When non-empty it takes
  // precedence over `kind` and is installed verbatim; when empty, `kind` is
  // expanded via canonical_pipeline() below. Every run — legacy enum or
  // explicit pipeline — therefore flows through adversary::AdversaryFleet.
  adversary::AdversaryPipeline pipeline;
};

// The canonical pipeline for a legacy single-enum spec: one phase per kind
// (two for kCombined: pipe stoppage then brute force, the §9 ordering),
// carrying the spec's cadence and defection point. Bit-identical to the old
// hard-coded adversary switch by the fleet's determinism contract; the
// equivalence is property-tested (tests/adversary_pipeline_test.cpp) and
// pinned by the golden corpus.
adversary::AdversaryPipeline canonical_pipeline(const AdversarySpec& spec);

// The pipeline a ScenarioConfig will actually install: spec.pipeline when
// non-empty, else canonical_pipeline(spec).
adversary::AdversaryPipeline effective_pipeline(const AdversarySpec& spec);

struct ScenarioConfig {
  uint32_t peer_count = 100;   // §6.3: "a constant loyal peer population of 100"
  uint32_t au_count = 50;      // one layer's collection
  // Fraction of the AU collection each peer holds (extension; §6.3 notes the
  // paper does "not yet simulate the diversity of local collections"). At
  // 1.0 every peer holds every AU, the paper's setting. Below 1.0 each peer
  // joins each AU independently with this probability; reference lists and
  // reputation seeds are then drawn from the AU's actual holders, and the
  // metrics denominators count actual replicas.
  double au_coverage = 1.0;
  // Extension (§9): a dynamic population. `newcomer_count` additional peers
  // (node ids peer_count .. peer_count+newcomer_count-1) join the running
  // system at uniform-random times within [0, newcomer_join_window]. Each
  // bootstraps the way a freshly installed peer does: it holds correct
  // publisher replicas and knows a sample of established holders, but nobody
  // knows it — its first solicitations run through the unknown-peer
  // admission channel and the discovery/introduction machinery.
  uint32_t newcomer_count = 0;
  sim::SimTime newcomer_join_window = sim::SimTime::years(1);
  sim::SimTime duration = sim::SimTime::years(2);  // §6.3: two simulated years
  uint64_t seed = 1;
  protocol::Params params;
  crypto::CostModel costs;
  storage::DamageConfig damage;
  bool enable_damage = true;
  AdversarySpec adversary;
  // Adaptive adversary policies (adversary/policy.hpp; docs/adversaries.md):
  // deterministic trigger→action rules driving the installed pipeline. The
  // engine's RNG is a domain-separated hash of `seed` — never a root split —
  // and nothing is constructed when the table is empty (or the pipeline is),
  // so policy-free configs reproduce the golden corpus bit for bit.
  adversary::AdversaryPolicyConfig adversary_policy;
  // Deployment dynamics (extension; see docs/dynamics.md): session churn,
  // correlated regional outages, and Poisson peer arrivals over the
  // established population, plus detection-latency-delayed operator
  // interventions. Each enabled subsystem consumes exactly one root-RNG
  // split (taken before any other stream), so disabled configs reproduce
  // the static deployment bit for bit — the golden corpus pins this.
  dynamics::ChurnConfig churn;
  dynamics::OperatorResponseConfig operators;
  // Network topology parameters (§6.2 latency band + bandwidth choices).
  net::NetworkConfig network;
  // Unreliable-link fault layer (net::FaultModel; docs/faults.md): loss,
  // duplication, jitter, burst outages on the delivery path. The model's
  // RNG is a domain-separated hash of `seed` — never a root split — so
  // enabling (or inertly installing) it shifts no other stream, and the
  // default disabled config reproduces the ideal network bit for bit.
  net::FaultConfig faults;
  // Layering support: per-peer busy intervals injected before the run, and
  // whether to retain full schedule history for export.
  const std::vector<std::vector<sched::Reservation>>* background = nullptr;
  bool collect_schedule_history = false;
  // Optional per-poll observer (diagnostics / examples).
  std::function<void(net::NodeId, const protocol::PollOutcome&)> poll_observer;
  // Metric time-series sampling cadence (metrics::TraceRecorder); zero
  // disables tracing. Samples are scheduled as ordinary simulator events,
  // so traces obey the same bit-identical determinism contract as the
  // scalar report.
  sim::SimTime trace_interval = sim::SimTime::zero();
  // Protocol event tracing (docs/observability.md). Disabled (the default)
  // every hook is a cached null check and the run is byte-for-byte the
  // untraced behavior — the golden corpus pins this. Enabled, the trace in
  // RunResult::obs_events is itself bit-identical across worker counts. Tracing consumes no RNG (sampling is a pure hash), so it never
  // perturbs the simulation either way.
  obs::TraceConfig obs_trace;
  // Wall-clock self-profiling (setup/run/harvest timers, peak RSS) into
  // RunResult::profile. Non-deterministic by
  // nature; reporting only.
  bool obs_profile = false;
};

struct RunResult {
  metrics::MetricsReport report;
  // Fixed-interval §6.1 time series (empty unless config.trace_interval set).
  metrics::RunTrace trace;
  uint64_t polls_started = 0;
  uint64_t solicitations_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_filtered = 0;
  uint64_t adversary_invitations = 0;
  uint64_t adversary_admissions = 0;
  // Population-wide admission-verdict histogram (protocol::AdmissionVerdict).
  std::array<uint64_t, 8> admission_verdicts{};
  // Simulation-engine counters (deterministic; tracked for the perf reports).
  uint64_t events_processed = 0;
  uint64_t peak_queue_depth = 0;
  // Deployment-dynamics accounting (defaults for static deployments, so
  // every existing fixture and comparator is unaffected).
  uint64_t churn_departures = 0;
  uint64_t churn_recoveries = 0;
  uint64_t churn_arrivals = 0;
  // Time-weighted mean online fraction of the established population.
  double availability_mean = 1.0;
  // Mean completed downtime, in days (0 when nothing ever recovered).
  double mean_recovery_days = 0.0;
  // Operator interventions applied, indexed by dynamics::OperatorAction.
  std::array<uint64_t, dynamics::kOperatorActionCount> operator_interventions{};
  // Adaptive-adversary policy accounting (all zero without a policy table):
  // rule firings seen, and reactions applied indexed by
  // adversary::PolicyAction.
  uint64_t policy_triggers = 0;
  std::array<uint64_t, adversary::kPolicyActionCount> policy_actions{};
  // Fault-layer accounting (net::FaultModel; all zero on ideal networks).
  uint64_t faults_lost = 0;
  uint64_t faults_burst_dropped = 0;
  uint64_t faults_duplicated = 0;
  uint64_t faults_jittered = 0;
  // Protocol robustness counters, summed over every concluded poll.
  uint64_t ack_timeouts = 0;
  uint64_t vote_timeouts = 0;
  uint64_t solicitation_retries = 0;
  // Poll conclusions by abort reason (protocol::PollAbortReason; slot
  // kNone counts full successes).
  std::array<uint64_t, protocol::kPollAbortReasonCount> polls_aborted{};
  // Session-liveness audit, computed at harvest (docs/faults.md). Sessions
  // still live at end-of-run are legitimate when young; a live session
  // older than twice the inter-poll interval, or a schedule reservation
  // ending past that horizon, is a leak — both counts must stay zero under
  // arbitrary loss (tests/fault_soak_test.cpp).
  uint64_t sessions_live_at_end = 0;
  uint64_t stale_sessions_at_end = 0;
  uint64_t reservations_beyond_horizon = 0;
  // Per-peer busy history (only when collect_schedule_history).
  std::vector<std::vector<sched::Reservation>> schedules;
  // Canonically ordered protocol event trace (empty unless
  // config.obs_trace.enabled; docs/observability.md). Deterministic, but
  // deliberately excluded from the campaign journal and golden comparisons —
  // trace artifacts are serialized separately.
  obs::EventTrace obs_events;
  // Wall-clock profile (zeroed unless config.obs_profile). Never
  // deterministic; never journaled or compared.
  obs::RunProfile profile;
};

// No-op kept for perfbench/driver.cpp, its only caller, which still passes
// its --shards option here; runs are always serial. Remove it when the
// benchmark drops --shards.
void set_default_shards(uint32_t shards);

// Builds and runs one scenario to completion.
RunResult run_scenario(const ScenarioConfig& config);

// Runs `layers` scenarios, threading accumulated schedule load through, and
// returns the per-layer results (combine with combine_results()).
std::vector<RunResult> run_layered(const ScenarioConfig& config, uint32_t layers);

}  // namespace lockss::experiment

#endif  // LOCKSS_EXPERIMENT_SCENARIO_HPP_
