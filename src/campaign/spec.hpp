// Declarative campaign specs: data-driven scenario descriptions.
//
// A campaign file (campaigns/*.json) describes a whole experiment (each
// paper figure and table is one or more such files): a deployment (peers,
// AUs, coverage, newcomers, duration), protocol/cost/damage overrides, an
// adversary *pipeline* (ordered, windowed, composable phases — see
// adversary/pipeline.hpp), sweep axes expanded into a grid, seed
// replication, §6.3 layering, and trace/output settings. campaign::Spec is
// the validated in-memory form; compile_campaign() lowers it onto
// experiment::ScenarioConfig cells that run through the parallel runner.
//
// Validation errors carry file/line/field context ("fig3.json:14:
// adversary[0].kind: unknown attack module ...") — a campaign author should
// never have to read this source to find a typo.
//
// Schema reference: docs/campaigns.md.
#ifndef LOCKSS_CAMPAIGN_SPEC_HPP_
#define LOCKSS_CAMPAIGN_SPEC_HPP_

#include <string>
#include <vector>

#include "campaign/json.hpp"
#include "experiment/scenario.hpp"

namespace lockss::campaign {

// One sweep dimension. Axes expand to their cartesian product in file
// order, first axis outermost (row-major).
struct SweepAxis {
  // What the axis varies. Phase-level params ("attack_days",
  // "recuperation_days", "coverage_percent", "start_days", "stop_days",
  // "minion_count", "defection") apply to pipeline[phase]; the rest apply
  // deployment- or protocol-wide (see axis_params() / docs/campaigns.md).
  std::string param;
  size_t phase = 0;
  // Short prefix used in cell labels ("d" -> "d30"); defaults to the
  // param's first letter.
  std::string label;
  std::vector<double> values;       // numeric axis ...
  std::vector<std::string> names;   // ... or categorical (e.g. defection)
  int line = 0;

  bool categorical() const { return !names.empty(); }
  size_t size() const { return categorical() ? names.size() : values.size(); }
};

// Optional figure output in the attrition-sweep CSV layout of Figures 3–8:
// rows = axis 0, one column per axis-1 value, cells holding `metric`
// relative to the baseline.
struct FigureOutput {
  bool enabled = false;
  std::string metric;      // access_failure | delay_ratio | friction
  std::string row_header;  // first CSV column name, e.g. "duration_days"
  std::string title;
  std::string x_label;
  bool log_x = true;
  bool log_y = true;
  std::string csv;  // output file name (relative to the run's out dir)
};

struct Spec {
  std::string name;
  std::string description;
  std::string source_path;  // where the spec was loaded from (diagnostics)

  // Deployment (defaults = experiment::ScenarioConfig defaults).
  uint32_t peers = 100;
  uint32_t aus = 50;
  double au_coverage = 1.0;
  uint32_t newcomers = 0;
  sim::SimTime newcomer_join_window = sim::SimTime::years(1);
  sim::SimTime duration = sim::SimTime::years(2);
  uint64_t seed = 1;
  uint32_t seeds = 1;   // replication: seed, seed+1, ...
  uint32_t layers = 0;  // §6.3 layering; 0 = single run
  sim::SimTime trace_interval = sim::SimTime::zero();

  // Damage model.
  bool enable_damage = true;
  double damage_mtbf_disk_years = 5.0;
  double damage_aus_per_disk = 50.0;

  // Protocol overrides by name, applied in file order (see
  // protocol_params() for the vocabulary).
  std::vector<std::pair<std::string, double>> protocol_overrides;

  // Deployment dynamics: session churn, regional outages, Poisson arrivals
  // (`dynamics` section) and operator-response policies (`operators`
  // section). Defaults = disabled = the static deployment.
  dynamics::ChurnConfig churn;
  dynamics::OperatorResponseConfig operators;

  // Network topology (`network` section): latency band overrides. The
  // default is the §6.2 model (1–30 ms).
  net::NetworkConfig network;
  // Unreliable-link faults (`network_faults` section; docs/faults.md).
  // Defaults = disabled = the ideal delivery path. `faults_section`
  // records whether the section appeared at all — fault sweep axes are
  // rejected without it, so a sweep can never silently run ideal cells.
  net::FaultConfig faults;
  bool faults_section = false;

  // Observability (`observability` section; docs/observability.md):
  // protocol event tracing (per-unit trace artifacts) and wall-clock
  // self-profiling (wall_ms/peak_rss_kb keys in the manifest). Defaults =
  // both off = byte-identical manifests and goldens.
  obs::TraceConfig obs_trace;
  bool obs_profile = false;

  // The adversary pipeline (empty = undisturbed deployment).
  adversary::AdversaryPipeline pipeline;

  // Adaptive adversary policies (`adversary_policy` section;
  // docs/adversaries.md): deterministic trigger→action rules driving the
  // pipeline. Defaults = disabled = the fixed-schedule adversary, with
  // byte-identical manifests and goldens. In tournament mode the section
  // may carry only the knobs (the rule tables come per strategy).
  adversary::AdversaryPolicyConfig adversary_policy;

  // Tournament mode (`tournament` section; docs/adversaries.md): named
  // adversary-policy strategies crossed against named operator-policy
  // strategies as two categorical axes ("adversary_strategy" outermost,
  // then "operator_strategy", appended to `axes` at parse time), scored
  // into a payoff-matrix CSV next to the manifest. Mutually exclusive
  // with explicit sweep axes.
  struct AdversaryStrategy {
    std::string name;
    // Rule table for this strategy (empty = the static, non-adaptive
    // adversary — a tournament control row). Shared knobs come from the
    // spec's adversary_policy section.
    std::vector<adversary::AdversaryPolicy> policies;
    int line = 0;
  };
  struct OperatorStrategy {
    std::string name;
    // Full per-strategy operator config (empty policies = hands-off
    // operators, a control column).
    dynamics::OperatorResponseConfig operators;
    int line = 0;
  };
  bool tournament = false;
  std::vector<AdversaryStrategy> adversary_strategies;
  std::vector<OperatorStrategy> operator_strategies;
  std::string payoff_name;  // default: <name>.payoff.csv

  std::vector<SweepAxis> axes;

  // Run an adversary-free baseline (same deployment/seeds) and report
  // relative metrics. Required by figure outputs.
  bool baseline = true;

  FigureOutput figure;
  std::string manifest_name;  // default: <name>.manifest.json
  std::string cells_name;     // default: <name>.cells.csv
};

// Parses and validates a spec. Returns false and a "path:line: field:
// reason" diagnostic on any malformed, unknown, or inconsistent input.
bool parse_spec(const Json& json, const std::string& source_path, Spec* out, std::string* error);

// Reads, parses, and validates a campaign file.
bool load_spec_file(const std::string& path, Spec* out, std::string* error);

// --- Compilation ---------------------------------------------------------

struct CompiledCell {
  experiment::ScenarioConfig config;
  std::vector<double> values;       // per axis (categorical: index)
  std::vector<std::string> names;   // per axis, display form
  std::string label;                // "d30_c100"
};

struct CompiledCampaign {
  Spec spec;
  experiment::ScenarioConfig base;   // adversary-free baseline config
  std::vector<CompiledCell> cells;   // row-major over axes
};

// Lowers a validated Spec onto ScenarioConfig cells. Returns false (with a
// diagnostic) on inconsistencies that only surface during expansion.
bool compile_campaign(const Spec& spec, CompiledCampaign* out, std::string* error);

// The sweepable-axis and protocol-override vocabularies (documentation +
// error messages + tests).
std::vector<std::string> axis_params();
std::vector<std::string> protocol_params();

// Whether the campaign runs a dynamic deployment anywhere in its grid:
// the base dynamics/operators sections, or any dynamics sweep axis (a
// sweep can enable churn in cells the base spec leaves static). Gates the
// dynamics keys/columns in the manifest and cells CSV.
bool spec_is_dynamic(const Spec& spec);

// Whether the campaign injects network faults anywhere in its grid: the
// base `network_faults` section, or any fault sweep axis. Gates the fault
// keys/columns in the manifest and cells CSV.
bool spec_has_faults(const Spec& spec);

// Whether the campaign records protocol event traces (per-unit .trace.bin
// artifacts next to the manifest). Gates the trace keys in the manifest.
bool spec_has_trace(const Spec& spec);

// Whether the campaign engages adaptive adversary policies anywhere in its
// grid: a base `adversary_policy` rule table, or a tournament (whose
// strategy axes swap rule tables per cell). Gates the policy keys/columns
// in the manifest and cells CSV, so policy-free campaigns render
// byte-identically to the pre-policy engine.
bool spec_has_policies(const Spec& spec);

}  // namespace lockss::campaign

#endif  // LOCKSS_CAMPAIGN_SPEC_HPP_
