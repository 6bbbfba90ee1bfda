#include "campaign/engine.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "analysis/gnuplot.hpp"
#include "campaign/cell_hash.hpp"
#include "campaign/journal.hpp"
#include "experiment/aggregate.hpp"
#include "experiment/runner.hpp"
#include "experiment/table.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"

namespace lockss::campaign {
namespace {

std::string join_path(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir == ".") {
    return name;
  }
  return dir.back() == '/' ? dir + name : dir + "/" + name;
}

std::string base_name(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// Flushes `tmp` to stable storage and renames it over `path` — the atomic
// commit: a kill before the rename leaves the previous artifact (or none),
// a kill after leaves the new one, and nothing in between is observable.
bool commit_artifact(const std::string& tmp, const std::string& path, const FaultPlan& faults,
                     std::string* error) {
  if (faults.should_fail_artifact(base_name(path))) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    *error = path + ": injected artifact I/O error";
    return false;
  }
  const int fd = ::open(tmp.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    *error = "cannot rename " + tmp + " over " + path + ": " + ec.message();
    return false;
  }
  return true;
}

bool write_file_atomic(const std::string& path, const std::string& content,
                       const FaultPlan& faults, std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      *error = "cannot write " + tmp;
      return false;
    }
    out << content;
    out.close();
    if (!out) {
      *error = "write failed: " + tmp;
      return false;
    }
  }
  return commit_artifact(tmp, path, faults, error);
}

double figure_metric(const std::string& metric, const experiment::RelativeMetrics& rel) {
  if (metric == "access_failure") {
    return rel.access_failure;
  }
  if (metric == "delay_ratio") {
    return rel.delay_ratio;
  }
  return rel.friction;
}

// The attrition-sweep figure layout of Figures 3–8 (campaigns/fig3.json ...
// fig8.json): rows = axis 0, one column per axis-1 value labelled "<v>%",
// access-failure cells in %.2e and everything else in %.2f, plus the
// companion trace CSV and gnuplot script (bytes pinned by
// tests/campaign_fig_identity_test.cpp). Each file is staged to <name>.tmp
// and atomically renamed into place.
bool write_figure(const CompiledCampaign& campaign, const CampaignOutcome& outcome,
                  const RunOptions& options, std::vector<std::string>* files,
                  std::string* error) {
  const Spec& spec = campaign.spec;
  const SweepAxis& rows = spec.axes[0];
  const SweepAxis& cols = spec.axes[1];
  const std::string csv_path = join_path(options.out_dir, spec.figure.csv);
  const std::string csv_tmp = csv_path + ".tmp";

  std::vector<std::string> columns = {spec.figure.row_header};
  for (double v : cols.values) {
    columns.push_back(experiment::TableWriter::fixed(v, 0) + "%");
  }
  {
    experiment::TableWriter table(columns, csv_tmp, /*echo_stdout=*/!options.quiet);
    if (!table.csv_ok()) {
      *error = "cannot write " + csv_path;
      return false;
    }
    table.header();
    size_t cell = 0;
    for (double row_value : rows.values) {
      std::vector<std::string> row = {experiment::TableWriter::fixed(row_value, 0)};
      for (size_t c = 0; c < cols.values.size(); ++c) {
        const experiment::RelativeMetrics rel =
            experiment::relative_metrics(outcome.cells[cell++], outcome.baseline);
        const double value = figure_metric(spec.figure.metric, rel);
        row.push_back(spec.figure.metric == "access_failure"
                          ? experiment::TableWriter::scientific(value, 2)
                          : experiment::TableWriter::fixed(value, 2));
      }
      table.row(row);
    }
  }
  if (!commit_artifact(csv_tmp, csv_path, options.faults, error)) {
    return false;
  }
  files->push_back(csv_path);

  if (spec.trace_interval > sim::SimTime::zero()) {
    std::vector<std::pair<std::string, const metrics::RunTrace*>> traces;
    traces.emplace_back("baseline", &outcome.baseline.trace);
    for (size_t k = 0; k < campaign.cells.size(); ++k) {
      traces.emplace_back(campaign.cells[k].label, &outcome.cells[k].trace);
    }
    const std::string trace_path = csv_path + ".trace.csv";
    if (experiment::write_trace_csv(trace_path + ".tmp", traces)) {
      if (!commit_artifact(trace_path + ".tmp", trace_path, options.faults, error)) {
        return false;
      }
      files->push_back(trace_path);
    }
  }

  analysis::GnuplotSpec plot;
  plot.title = spec.figure.title;
  // Reference the CSV by bare name: the script sits next to it, and the
  // rendered bytes stay a pure function of the spec (no out-dir leakage),
  // which the kill-resume bit-identity tests compare across directories.
  plot.csv_path = spec.figure.csv;
  plot.x_label = spec.figure.x_label;
  plot.y_label = spec.figure.metric == "access_failure" ? "access_failure_probability"
                 : spec.figure.metric == "delay_ratio"  ? "delay_ratio"
                                                        : "coefficient_of_friction";
  plot.log_x = spec.figure.log_x;
  plot.log_y = spec.figure.log_y;
  for (double v : cols.values) {
    plot.series.push_back(experiment::TableWriter::fixed(v, 0) + "% coverage");
  }
  const std::string gp_path = csv_path + ".gp";
  if (analysis::write_gnuplot(plot, gp_path + ".tmp")) {
    if (!commit_artifact(gp_path + ".tmp", gp_path, options.faults, error)) {
      return false;
    }
    files->push_back(gp_path);
  }
  return true;
}

// Dynamics keys in the manifest/CSV are emitted only for dynamic specs
// (campaign::spec_is_dynamic — base sections or dynamics sweep axes), so
// static campaigns (and their committed golden fixtures) render
// byte-identically to the pre-dynamics engine.
void append_dynamics_metrics(JsonWriter& w, const experiment::RunResult& r) {
  w.key("churn_departures").value(r.churn_departures);
  w.key("churn_recoveries").value(r.churn_recoveries);
  w.key("churn_arrivals").value(r.churn_arrivals);
  w.key("availability_mean").value(r.availability_mean);
  w.key("mean_recovery_days").value(r.mean_recovery_days);
  w.key("operator_interventions").begin_array();
  for (uint64_t n : r.operator_interventions) {
    w.value(n);
  }
  w.end_array();
}

// Policy keys only for policy-engaging specs (spec_has_policies), so every
// policy-free campaign manifest renders byte-identically to the pre-policy
// engine.
void append_policy_metrics(JsonWriter& w, const experiment::RunResult& r) {
  w.key("policy_triggers").value(r.policy_triggers);
  w.key("policy_actions").begin_array();
  for (uint64_t n : r.policy_actions) {
    w.value(n);
  }
  w.end_array();
}

// Fault keys likewise only for fault-injecting specs (spec_has_faults), so
// every fault-free campaign manifest renders byte-identically to the
// pre-fault engine.
void append_fault_metrics(JsonWriter& w, const experiment::RunResult& r) {
  w.key("faults_lost").value(r.faults_lost);
  w.key("faults_burst_dropped").value(r.faults_burst_dropped);
  w.key("faults_duplicated").value(r.faults_duplicated);
  w.key("faults_jittered").value(r.faults_jittered);
}

// Protocol robustness and session-liveness audit keys, for EVERY spec:
// polls abort and acks time out on ideal networks too (refusals, busy
// schedules), and the liveness audit is exactly the counter that must stay
// zero when nothing is faulty — hiding it from clean campaigns would hide
// a leak. These used to ride inside the fault block; the golden fixtures
// were regenerated when they became unconditional.
void append_robustness_metrics(JsonWriter& w, const experiment::RunResult& r) {
  w.key("ack_timeouts").value(r.ack_timeouts);
  w.key("vote_timeouts").value(r.vote_timeouts);
  w.key("solicitation_retries").value(r.solicitation_retries);
  w.key("polls_aborted").begin_array();
  for (uint64_t n : r.polls_aborted) {
    w.value(n);
  }
  w.end_array();
  w.key("sessions_live_at_end").value(r.sessions_live_at_end);
  w.key("stale_sessions_at_end").value(r.stale_sessions_at_end);
  w.key("reservations_beyond_horizon").value(r.reservations_beyond_horizon);
}

void append_metrics(JsonWriter& w, const experiment::RunResult& r) {
  const metrics::MetricsReport& m = r.report;
  w.key("access_failure_probability").value(m.access_failure_probability);
  w.key("mean_success_gap_days").value(m.mean_success_gap_days);
  w.key("successful_polls").value(m.successful_polls);
  w.key("inquorate_polls").value(m.inquorate_polls);
  w.key("alarms").value(m.alarms);
  w.key("repairs").value(m.repairs);
  w.key("damage_events").value(m.damage_events);
  w.key("loyal_effort_seconds").value(m.loyal_effort_seconds);
  w.key("adversary_effort_seconds").value(m.adversary_effort_seconds);
  w.key("effort_per_successful_poll").value(m.effort_per_successful_poll);
  w.key("cost_ratio").value(m.cost_ratio);
  w.key("polls_started").value(r.polls_started);
  w.key("messages_delivered").value(r.messages_delivered);
  w.key("messages_filtered").value(r.messages_filtered);
  w.key("adversary_invitations").value(r.adversary_invitations);
  w.key("adversary_admissions").value(r.adversary_admissions);
  w.key("events_processed").value(r.events_processed);
}

// Per-unit trace artifact name (next to the manifest): campaign name,
// unit label, .trace.bin. Written by on_complete before the journal
// append, so a resumed unit's file is already on disk.
std::string trace_file_name(const Spec& spec, const std::string& label) {
  return spec.name + "." + label + ".trace.bin";
}

// Per-unit trailer shared by the baseline and the cells: unconditional
// robustness keys, then the opt-in observability keys (trace file name is
// a pure function of the spec; wall_ms/peak_rss_kb deliberately are not —
// see the purity caveat in engine.hpp).
void append_unit_extras(JsonWriter& w, const Spec& spec, const experiment::RunResult& r,
                        const std::string& label) {
  append_robustness_metrics(w, r);
  if (spec_has_trace(spec)) {
    // Only the file name — event counts live in the artifact itself, and a
    // journal-resumed unit (whose in-memory trace is empty; traces are
    // never journaled) must render the same manifest as a fresh run.
    w.key("trace_file").value(trace_file_name(spec, label));
  }
  if (spec.obs_profile) {
    w.key("wall_ms").value(r.profile.total_ms);
    w.key("peak_rss_kb").value(r.profile.peak_rss_kb);
  }
}

// Failed units render their status instead of metrics, so a manifest is
// never silently mistaken for a fully computed one. Campaigns with no
// failures render byte-identically to the pre-resilience engine (the
// golden fixtures pin this).
void append_failure(JsonWriter& w, const UnitStatus& status) {
  w.key("status").value("failed");
  w.key("attempts").value(static_cast<uint64_t>(status.attempts));
  w.key("error").value(status.error);
}

std::string render_cells_csv(const CompiledCampaign& campaign, const CampaignOutcome& outcome) {
  const Spec& spec = campaign.spec;
  std::string out = "cell";
  for (const SweepAxis& axis : spec.axes) {
    out += "," + axis.param;
  }
  out += ",access_failure,mean_success_gap_days,successful_polls,inquorate_polls,alarms,"
         "repairs,loyal_effort_s,adversary_effort_s,cost_ratio,adversary_invitations,"
         "adversary_admissions";
  const bool dynamic = spec_is_dynamic(spec);
  if (dynamic) {
    out += ",churn_departures,churn_recoveries,churn_arrivals,availability_mean,"
           "mean_recovery_days,operator_interventions";
  }
  const bool faulty = spec_has_faults(spec);
  if (faulty) {
    out += ",faults_lost,faults_burst_dropped,faults_duplicated,faults_jittered";
  }
  const bool policied = spec_has_policies(spec);
  if (policied) {
    out += ",policy_triggers,policy_actions";
  }
  // Robustness columns for every spec (the manifest's
  // append_robustness_metrics rationale).
  out += ",ack_timeouts,vote_timeouts,solicitation_retries,stale_sessions_at_end";
  if (spec.baseline) {
    out += ",delay_ratio,friction";
  }
  out += "\n";
  char buf[512];
  for (size_t k = 0; k < campaign.cells.size(); ++k) {
    const CompiledCell& cell = campaign.cells[k];
    // A failed cell's result is the default RunResult (all-zero metrics);
    // the manifest carries its authoritative failed status.
    const experiment::RunResult& r = outcome.cells[k];
    out += cell.label;
    for (const std::string& name : cell.names) {
      out += "," + name;
    }
    std::snprintf(buf, sizeof(buf),
                  ",%.6e,%.4f,%llu,%llu,%llu,%llu,%.6e,%.6e,%.4f,%llu,%llu",
                  r.report.access_failure_probability, r.report.mean_success_gap_days,
                  static_cast<unsigned long long>(r.report.successful_polls),
                  static_cast<unsigned long long>(r.report.inquorate_polls),
                  static_cast<unsigned long long>(r.report.alarms),
                  static_cast<unsigned long long>(r.report.repairs),
                  r.report.loyal_effort_seconds, r.report.adversary_effort_seconds,
                  r.report.cost_ratio,
                  static_cast<unsigned long long>(r.adversary_invitations),
                  static_cast<unsigned long long>(r.adversary_admissions));
    out += buf;
    if (dynamic) {
      uint64_t interventions = 0;
      for (uint64_t n : r.operator_interventions) {
        interventions += n;
      }
      std::snprintf(buf, sizeof(buf), ",%llu,%llu,%llu,%.6f,%.4f,%llu",
                    static_cast<unsigned long long>(r.churn_departures),
                    static_cast<unsigned long long>(r.churn_recoveries),
                    static_cast<unsigned long long>(r.churn_arrivals), r.availability_mean,
                    r.mean_recovery_days, static_cast<unsigned long long>(interventions));
      out += buf;
    }
    if (faulty) {
      std::snprintf(buf, sizeof(buf), ",%llu,%llu,%llu,%llu",
                    static_cast<unsigned long long>(r.faults_lost),
                    static_cast<unsigned long long>(r.faults_burst_dropped),
                    static_cast<unsigned long long>(r.faults_duplicated),
                    static_cast<unsigned long long>(r.faults_jittered));
      out += buf;
    }
    if (policied) {
      uint64_t actions = 0;
      for (uint64_t n : r.policy_actions) {
        actions += n;
      }
      std::snprintf(buf, sizeof(buf), ",%llu,%llu",
                    static_cast<unsigned long long>(r.policy_triggers),
                    static_cast<unsigned long long>(actions));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), ",%llu,%llu,%llu,%llu",
                  static_cast<unsigned long long>(r.ack_timeouts),
                  static_cast<unsigned long long>(r.vote_timeouts),
                  static_cast<unsigned long long>(r.solicitation_retries),
                  static_cast<unsigned long long>(r.stale_sessions_at_end));
    out += buf;
    if (spec.baseline) {
      const experiment::RelativeMetrics rel =
          experiment::relative_metrics(r, outcome.baseline);
      std::snprintf(buf, sizeof(buf), ",%.4f,%.4f", rel.delay_ratio, rel.friction);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

// Runs one unit of work: all of its seed replicas (and §6.3 layers),
// combined seed-major with layers in order inside each seed (for unlayered
// units, the part order of experiment::run_replicated_grid), so the
// combined result never depends on scheduling.
experiment::RunResult execute_unit(const experiment::ScenarioConfig& config, const Spec& spec) {
  std::vector<experiment::RunResult> parts;
  parts.reserve(static_cast<size_t>(spec.seeds) * (spec.layers > 0 ? spec.layers : 1));
  for (uint32_t s = 0; s < spec.seeds; ++s) {
    experiment::ScenarioConfig c = config;
    c.seed = config.seed + s;
    if (spec.layers > 0) {
      std::vector<experiment::RunResult> layer_results =
          experiment::run_layered(c, spec.layers);
      for (experiment::RunResult& r : layer_results) {
        parts.push_back(std::move(r));
      }
    } else {
      parts.push_back(experiment::run_scenario(c));
    }
  }
  experiment::RunResult combined = experiment::combine_results(parts);
  // combine_results builds a fresh RunResult and deliberately ignores the
  // observability fields. A trace is only well-defined for a single run
  // (parse_spec rejects tracing with seeds > 1 or layers); the profile
  // sums across parts since unit wall time is what the manifest reports.
  if (parts.size() == 1) {
    combined.obs_events = std::move(parts[0].obs_events);
  }
  for (const experiment::RunResult& part : parts) {
    if (!part.profile.enabled) {
      continue;
    }
    combined.profile.enabled = true;
    combined.profile.setup_ms += part.profile.setup_ms;
    combined.profile.run_ms += part.profile.run_ms;
    combined.profile.harvest_ms += part.profile.harvest_ms;
    combined.profile.total_ms += part.profile.total_ms;
    combined.profile.peak_rss_kb = std::max(combined.profile.peak_rss_kb,
                                            part.profile.peak_rss_kb);
  }
  return combined;
}

// One schedulable unit: the baseline or one compiled cell.
struct Unit {
  bool is_baseline = false;
  size_t cell_index = 0;  // meaningful when !is_baseline
  uint64_t hash = 0;
  const experiment::ScenarioConfig* config = nullptr;
  std::string label;
};

}  // namespace

std::string render_manifest(const CompiledCampaign& campaign, const CampaignOutcome& outcome) {
  const Spec& spec = campaign.spec;
  const bool baseline_ok = outcome.baseline_status.ok;
  JsonWriter w;
  w.begin_object();
  w.key("campaign").value(spec.name);
  w.key("description").value(spec.description);
  w.key("generated_by").value("tools/lockss_campaign");
  if (outcome.units_failed > 0) {
    w.key("failed_units").value(static_cast<uint64_t>(outcome.units_failed));
  }
  w.key("scale").begin_object();
  w.key("peers").value(static_cast<uint64_t>(spec.peers));
  w.key("aus").value(static_cast<uint64_t>(spec.aus));
  w.key("au_coverage").value(spec.au_coverage);
  w.key("newcomers").value(static_cast<uint64_t>(spec.newcomers));
  w.key("duration_days").value(spec.duration.to_days());
  w.key("seed").value(spec.seed);
  w.key("seeds").value(static_cast<uint64_t>(spec.seeds));
  w.key("layers").value(static_cast<uint64_t>(spec.layers));
  w.key("trace_interval_days").value(spec.trace_interval.to_days());
  w.end_object();
  if (spec_is_dynamic(spec)) {
    w.key("dynamics").begin_object();
    w.key("leave_rate_per_peer_year").value(spec.churn.leave_rate_per_peer_year);
    w.key("crash_rate_per_peer_year").value(spec.churn.crash_rate_per_peer_year);
    w.key("mean_downtime_days").value(spec.churn.mean_downtime_days);
    w.key("arrival_rate_per_year").value(spec.churn.arrival_rate_per_year);
    w.key("regions").value(static_cast<uint64_t>(spec.churn.regions));
    w.key("regional_outage_rate_per_year").value(spec.churn.regional_outage_rate_per_year);
    w.key("regional_outage_days").value(spec.churn.regional_outage_days);
    w.key("regional_recovery_stagger_hours")
        .value(spec.churn.regional_recovery_stagger_hours);
    w.key("regional_state_loss").value(spec.churn.regional_state_loss);
    w.end_object();
    w.key("operators").begin_object();
    w.key("detection_latency_days").value(spec.operators.detection_latency.to_days());
    w.key("recrawl_cost_factor").value(spec.operators.recrawl_cost_factor);
    w.key("policies").begin_array();
    for (const dynamics::OperatorPolicy& policy : spec.operators.policies) {
      w.begin_object();
      w.key("trigger").value(dynamics::operator_trigger_name(policy.trigger));
      w.key("action").value(dynamics::operator_action_name(policy.action));
      w.key("factor").value(policy.factor);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  if (spec_has_faults(spec)) {
    w.key("network").begin_object();
    w.key("min_latency_ms").value(spec.network.min_latency.to_seconds() * 1000.0);
    w.key("max_latency_ms").value(spec.network.max_latency.to_seconds() * 1000.0);
    w.end_object();
    w.key("network_faults").begin_object();
    w.key("loss_rate").value(spec.faults.loss_rate);
    w.key("dup_rate").value(spec.faults.dup_rate);
    w.key("jitter_ms").value(spec.faults.jitter.to_seconds() * 1000.0);
    w.key("burst_outage_rate").value(spec.faults.burst_outage_rate);
    w.key("burst_cycle_days").value(spec.faults.burst_cycle.to_days());
    w.end_object();
  }
  w.key("pipeline").begin_array();
  for (const adversary::AdversaryPhase& phase : spec.pipeline) {
    w.begin_object();
    w.key("kind").value(adversary::phase_kind_name(phase.kind));
    w.key("attack_days").value(phase.cadence.attack_duration.to_days());
    w.key("recuperation_days").value(phase.cadence.recuperation.to_days());
    w.key("coverage").value(phase.cadence.coverage);
    w.key("defection").value(adversary::defection_point_name(phase.defection));
    w.key("start_days").value(phase.start.to_days());
    w.key("stop_days").value(phase.stop.to_days());
    w.end_object();
  }
  w.end_array();
  if (spec_has_policies(spec)) {
    const auto policy_rules = [&w](const std::vector<adversary::AdversaryPolicy>& rules) {
      w.begin_array();
      for (const adversary::AdversaryPolicy& rule : rules) {
        w.begin_object();
        w.key("trigger").value(adversary::policy_trigger_name(rule.trigger));
        w.key("action").value(adversary::policy_action_name(rule.action));
        w.key("phase").value(static_cast<uint64_t>(rule.phase));
        w.key("factor").value(rule.factor);
        w.end_object();
      }
      w.end_array();
    };
    w.key("adversary_policy").begin_object();
    w.key("reaction_latency_hours")
        .value(spec.adversary_policy.reaction_latency.to_seconds() / 3600.0);
    w.key("sensor_interval_days").value(spec.adversary_policy.sensor_interval.to_days());
    w.key("cooldown_days").value(spec.adversary_policy.cooldown.to_days());
    w.key("outage_threshold").value(spec.adversary_policy.outage_threshold);
    w.key("backoff_threshold").value(spec.adversary_policy.backoff_threshold);
    w.key("collapse_threshold").value(spec.adversary_policy.collapse_threshold);
    w.key("dormant_mean_days").value(spec.adversary_policy.dormant_mean.to_days());
    w.key("throttle_pause_days").value(spec.adversary_policy.throttle_pause.to_days());
    w.key("policies");
    policy_rules(spec.adversary_policy.policies);
    w.end_object();
    if (spec.tournament) {
      w.key("tournament").begin_object();
      w.key("adversary_strategies").begin_array();
      for (const Spec::AdversaryStrategy& strategy : spec.adversary_strategies) {
        w.begin_object();
        w.key("name").value(strategy.name);
        w.key("policies");
        policy_rules(strategy.policies);
        w.end_object();
      }
      w.end_array();
      w.key("operator_strategies").begin_array();
      for (const Spec::OperatorStrategy& strategy : spec.operator_strategies) {
        w.begin_object();
        w.key("name").value(strategy.name);
        w.key("detection_latency_days").value(strategy.operators.detection_latency.to_days());
        w.key("recrawl_cost_factor").value(strategy.operators.recrawl_cost_factor);
        w.key("policies").begin_array();
        for (const dynamics::OperatorPolicy& rule : strategy.operators.policies) {
          w.begin_object();
          w.key("trigger").value(dynamics::operator_trigger_name(rule.trigger));
          w.key("action").value(dynamics::operator_action_name(rule.action));
          w.key("factor").value(rule.factor);
          w.end_object();
        }
        w.end_array();
        w.end_object();
      }
      w.end_array();
      w.key("payoff").value(spec.payoff_name);
      w.end_object();
    }
  }
  w.key("axes").begin_array();
  for (const SweepAxis& axis : spec.axes) {
    w.begin_object();
    w.key("param").value(axis.param);
    w.key("phase").value(static_cast<uint64_t>(axis.phase));
    w.key("values").begin_array();
    if (axis.categorical()) {
      for (const std::string& name : axis.names) {
        w.value(name);
      }
    } else {
      for (double v : axis.values) {
        w.value(v);
      }
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  if (spec.baseline) {
    w.key("baseline").begin_object();
    if (baseline_ok) {
      append_metrics(w, outcome.baseline);
      if (spec_is_dynamic(spec)) {
        append_dynamics_metrics(w, outcome.baseline);
      }
      if (spec_has_faults(spec)) {
        append_fault_metrics(w, outcome.baseline);
      }
      if (spec_has_policies(spec)) {
        append_policy_metrics(w, outcome.baseline);
      }
      append_unit_extras(w, spec, outcome.baseline, "baseline");
    } else {
      append_failure(w, outcome.baseline_status);
    }
    w.end_object();
  }
  w.key("cells").begin_array();
  for (size_t k = 0; k < campaign.cells.size(); ++k) {
    const CompiledCell& cell = campaign.cells[k];
    const bool cell_ok = k >= outcome.cell_status.size() || outcome.cell_status[k].ok;
    w.begin_object();
    w.key("label").value(cell.label);
    w.key("values").begin_array();
    for (const std::string& name : cell.names) {
      w.value(name);
    }
    w.end_array();
    if (!cell_ok) {
      append_failure(w, outcome.cell_status[k]);
    } else {
      append_metrics(w, outcome.cells[k]);
      if (spec_is_dynamic(spec)) {
        append_dynamics_metrics(w, outcome.cells[k]);
      }
      if (spec_has_faults(spec)) {
        append_fault_metrics(w, outcome.cells[k]);
      }
      if (spec_has_policies(spec)) {
        append_policy_metrics(w, outcome.cells[k]);
      }
      append_unit_extras(w, spec, outcome.cells[k], cell.label);
      if (spec.baseline && baseline_ok) {
        const experiment::RelativeMetrics rel =
            experiment::relative_metrics(outcome.cells[k], outcome.baseline);
        w.key("relative").begin_object();
        w.key("access_failure").value(rel.access_failure);
        w.key("delay_ratio").value(rel.delay_ratio);
        w.key("friction").value(rel.friction);
        w.key("cost_ratio").value(rel.cost_ratio);
        w.end_object();
      }
    }
    w.end_object();
  }
  w.end_array();
  if (spec.obs_profile) {
    // Campaign-level wall-clock summary; see the purity caveat up top.
    w.key("profile").begin_object();
    w.key("workers").value(static_cast<uint64_t>(outcome.workers_used));
    w.key("total_wall_ms").value(outcome.total_wall_ms);
    w.end_object();
  }
  w.end_object();
  std::string out = w.take();
  out += "\n";
  return out;
}

std::string render_payoff_csv(const CompiledCampaign& campaign,
                              const CampaignOutcome& outcome) {
  const Spec& spec = campaign.spec;
  if (!spec.tournament) {
    return "";
  }
  // Tournament cells are exactly adversary_strategies × operator_strategies
  // in row-major order (the strategy axes are the only axes; parse_spec
  // rejects tournament + sweep).
  const size_t rows = spec.adversary_strategies.size();
  const size_t cols = spec.operator_strategies.size();
  char buf[64];
  std::string out;
  const auto matrix = [&](const char* metric,
                          const std::function<std::string(const experiment::RunResult&)>&
                              render_cell) {
    out += "# payoff: ";
    out += metric;
    out += "\nadversary_strategy";
    for (const Spec::OperatorStrategy& strategy : spec.operator_strategies) {
      out += "," + strategy.name;
    }
    out += "\n";
    for (size_t a = 0; a < rows; ++a) {
      out += spec.adversary_strategies[a].name;
      for (size_t o = 0; o < cols; ++o) {
        const size_t cell = a * cols + o;
        out += ",";
        // A failed cell has no metrics; say so instead of rendering its
        // all-zero placeholder as a legitimate score.
        if (cell < outcome.cell_status.size() && !outcome.cell_status[cell].ok) {
          out += "failed";
        } else {
          out += render_cell(outcome.cells[cell]);
        }
      }
      out += "\n";
    }
  };
  matrix("afp", [&](const experiment::RunResult& r) {
    std::snprintf(buf, sizeof(buf), "%.6e", r.report.access_failure_probability);
    return std::string(buf);
  });
  out += "\n";
  matrix("adversary_effort_seconds", [&](const experiment::RunResult& r) {
    std::snprintf(buf, sizeof(buf), "%.6e", r.report.adversary_effort_seconds);
    return std::string(buf);
  });
  out += "\n";
  // The pairing score: damage bought per attacker-second. Higher = the
  // adversary strategy dominates that operator strategy; an effort-free
  // pairing scores its raw afp (all damage was free).
  matrix("score", [&](const experiment::RunResult& r) {
    const double effort = r.report.adversary_effort_seconds;
    const double score = effort > 0.0 ? r.report.access_failure_probability / effort
                                      : r.report.access_failure_probability;
    std::snprintf(buf, sizeof(buf), "%.6e", score);
    return std::string(buf);
  });
  return out;
}

bool run_campaign(const CompiledCampaign& campaign, const RunOptions& options,
                  CampaignOutcome* outcome, std::string* error) {
  const obs::Stopwatch campaign_watch;
  const Spec& spec = campaign.spec;
  if (options.write_outputs && !options.out_dir.empty() && options.out_dir != ".") {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    if (ec) {
      *error = "cannot create " + options.out_dir + ": " + ec.message();
      return false;
    }
  }

  const uint64_t spec_hash = campaign_hash(spec);
  FaultPlan faults = options.faults;
  faults.campaign_hash = spec_hash;

  outcome->cells.assign(campaign.cells.size(), experiment::RunResult{});
  outcome->cell_status.assign(campaign.cells.size(), UnitStatus{});
  outcome->baseline_status = UnitStatus{};
  outcome->units_resumed = 0;
  outcome->units_failed = 0;

  // Every unit of work in deterministic order: baseline first, then cells.
  std::vector<Unit> units;
  units.reserve(campaign.cells.size() + 1);
  if (spec.baseline) {
    units.push_back(
        {true, 0, baseline_identity(spec_hash), &campaign.base, "baseline"});
  }
  for (size_t k = 0; k < campaign.cells.size(); ++k) {
    units.push_back({false, k, cell_identity(spec_hash, k, campaign.cells[k]),
                     &campaign.cells[k].config, campaign.cells[k].label});
  }

  // --- Journal: replay (resume) and open for appending --------------------
  const bool journaling = options.write_outputs;
  JournalWriter journal;
  std::unordered_map<uint64_t, JournalRecord> replayed;
  if (journaling) {
    outcome->journal_path = join_path(options.out_dir, spec.name + ".journal");
    bool appending = false;
    if (options.resume) {
      JournalContents contents;
      std::string read_error;
      if (read_journal(outcome->journal_path, &contents, &read_error) && contents.header_ok) {
        if (contents.campaign_hash != spec_hash) {
          *error = outcome->journal_path +
                   ": journal belongs to a different campaign spec (content hash mismatch); "
                   "rerun without --resume or remove the journal";
          return false;
        }
        for (JournalRecord& record : contents.records) {
          replayed[record.unit_hash] = std::move(record);  // latest record wins
        }
        if (!journal.open_append(outcome->journal_path, contents.valid_bytes, error)) {
          return false;
        }
        appending = true;
      }
      // Missing or headerless journal: fall through to a fresh one.
    }
    if (!appending) {
      if (faults.should_fail_journal_append(0)) {
        *error = outcome->journal_path + ": injected journal I/O error (append 0)";
        return false;
      }
      if (!journal.create(outcome->journal_path, spec_hash, error)) {
        return false;
      }
      faults.maybe_kill_after_append(0);
    }
  }

  // --- Partition units: resumed from the journal vs still to run ----------
  std::vector<size_t> pending;  // indices into `units`
  pending.reserve(units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    const Unit& unit = units[u];
    auto it = replayed.find(unit.hash);
    if (it != replayed.end() && !it->second.failed) {
      if (unit.is_baseline) {
        outcome->baseline = std::move(it->second.result);
        outcome->baseline_status = {true, true, 0, ""};
      } else {
        outcome->cells[unit.cell_index] = std::move(it->second.result);
        outcome->cell_status[unit.cell_index] = {true, true, 0, ""};
      }
      ++outcome->units_resumed;
    } else {
      // Never run, or recorded as failed: (re-)attempt it.
      pending.push_back(u);
    }
  }

  // --- Execute pending units with per-unit isolation + retry --------------
  bool any_observer = campaign.base.poll_observer != nullptr;
  for (const CompiledCell& cell : campaign.cells) {
    any_observer = any_observer || cell.config.poll_observer != nullptr;
  }
  experiment::ParallelRunner runner(any_observer ? 1u : 0u);
  outcome->workers_used = runner.workers();

  RunOptions::Progress progress;
  progress.units_done = outcome->units_resumed;
  progress.units_total = units.size();
  if (options.progress) {
    options.progress(progress);
  }

  const bool tracing = spec_has_trace(spec) && options.write_outputs;
  std::string journal_error;  // first journal/artifact failure (ends journaling)
  bool journal_dead = !journaling;
  const auto on_complete = [&](size_t index, const experiment::JobOutcome& job) {
    // Serialized by run_protected's mutex. Journal order is completion
    // order — records are self-identifying, so replay never depends on it.
    const Unit& unit = units[pending[index]];
    if (options.progress) {
      ++progress.units_done;
      if (!job.ok) {
        ++progress.units_failed;
      }
      progress.extra_attempts += job.attempts > 0 ? job.attempts - 1 : 0;
      options.progress(progress);
    }
    if (journal_dead) {
      return;
    }
    // Trace artifact BEFORE the journal append: if the write dies here the
    // unit is never journaled and a --resume recomputes it (the in-memory
    // trace is not journaled, so this is the only chance to persist it).
    if (tracing && job.ok) {
      const std::string trace_path =
          join_path(options.out_dir, trace_file_name(spec, unit.label));
      std::string bytes;
      obs::serialize_trace(job.result.obs_events, &bytes);
      std::string trace_error;
      if (!write_file_atomic(trace_path, bytes, faults, &trace_error)) {
        journal_error = trace_error;
        journal_dead = true;
        return;
      }
    }
    const uint64_t ordinal = journal.appends();
    if (faults.should_fail_journal_append(ordinal)) {
      journal_error = outcome->journal_path + ": injected journal I/O error (append " +
                      std::to_string(ordinal) + ")";
      journal_dead = true;
      return;
    }
    std::string append_error;
    const bool ok = job.ok
                        ? journal.append_result(unit.hash, job.result, &append_error)
                        : journal.append_failure(unit.hash, job.attempts, job.error,
                                                 &append_error);
    if (!ok) {
      journal_error = append_error;
      journal_dead = true;
      return;
    }
    faults.maybe_kill_after_append(ordinal);
  };

  const std::vector<experiment::JobOutcome> job_outcomes = runner.run_protected(
      pending.size(),
      [&](size_t index, uint32_t attempt) -> experiment::RunResult {
        const Unit& unit = units[pending[index]];
        if (faults.should_fail_unit(unit.is_baseline, unit.cell_index, unit.hash, attempt)) {
          throw std::runtime_error("injected cell fault (" + unit.label + ", attempt " +
                                   std::to_string(attempt) + ")");
        }
        return execute_unit(*unit.config, spec);
      },
      options.retries + 1, on_complete);

  for (size_t index = 0; index < pending.size(); ++index) {
    const Unit& unit = units[pending[index]];
    const experiment::JobOutcome& job = job_outcomes[index];
    UnitStatus status;
    status.ok = job.ok;
    status.attempts = job.attempts;
    status.error = job.error;
    if (!job.ok) {
      ++outcome->units_failed;
    }
    if (unit.is_baseline) {
      outcome->baseline = job.result;
      outcome->baseline_status = status;
    } else {
      outcome->cells[unit.cell_index] = job.result;
      outcome->cell_status[unit.cell_index] = status;
    }
  }

  if (journaling && !journal_error.empty()) {
    *error = journal_error;
    return false;
  }

  // --- Report ---------------------------------------------------------------
  if (!options.quiet) {
    std::printf("# campaign %s: %zu cells x %u seed(s)%s\n", spec.name.c_str(),
                campaign.cells.size(), spec.seeds,
                spec.layers > 0 ? (" x " + std::to_string(spec.layers) + " layers").c_str()
                                : "");
    if (outcome->units_resumed > 0) {
      std::printf("# resume: %zu of %zu unit(s) replayed from %s\n", outcome->units_resumed,
                  units.size(), outcome->journal_path.c_str());
    }
    if (spec.baseline && outcome->baseline_status.ok) {
      std::printf("# baseline: afp=%.3e gap=%.1fd effort/success=%.0fs over %llu polls\n",
                  outcome->baseline.report.access_failure_probability,
                  outcome->baseline.report.mean_success_gap_days,
                  outcome->baseline.report.effort_per_successful_poll,
                  static_cast<unsigned long long>(outcome->baseline.report.successful_polls));
    }
    if (spec.baseline && !outcome->baseline_status.ok) {
      std::printf("# FAILED baseline after %u attempt(s): %s\n",
                  outcome->baseline_status.attempts, outcome->baseline_status.error.c_str());
    }
    for (size_t k = 0; k < campaign.cells.size(); ++k) {
      if (!outcome->cell_status[k].ok) {
        std::printf("# FAILED %s after %u attempt(s): %s\n",
                    campaign.cells[k].label.c_str(), outcome->cell_status[k].attempts,
                    outcome->cell_status[k].error.c_str());
      }
    }
  }

  const bool baseline_usable = !spec.baseline || outcome->baseline_status.ok;
  if (spec.figure.enabled && options.write_outputs && baseline_usable) {
    if (!write_figure(campaign, *outcome, options, &outcome->files_written, error)) {
      return false;
    }
  } else if (!options.quiet) {
    for (size_t k = 0; k < campaign.cells.size(); ++k) {
      if (!outcome->cell_status[k].ok) {
        continue;
      }
      std::printf("  %-24s afp=%.3e polls=%llu adversary_effort=%.3es\n",
                  campaign.cells[k].label.c_str(),
                  outcome->cells[k].report.access_failure_probability,
                  static_cast<unsigned long long>(outcome->cells[k].report.successful_polls),
                  outcome->cells[k].report.adversary_effort_seconds);
    }
  }

  if (!options.write_outputs) {
    outcome->total_wall_ms = campaign_watch.elapsed_ms();
    return true;
  }
  // List trace artifacts in deterministic unit order (they were written in
  // completion order by on_complete; resumed units' files predate this run).
  if (tracing) {
    if (spec.baseline && outcome->baseline_status.ok) {
      outcome->files_written.push_back(
          join_path(options.out_dir, trace_file_name(spec, "baseline")));
    }
    for (size_t k = 0; k < campaign.cells.size(); ++k) {
      if (outcome->cell_status[k].ok) {
        outcome->files_written.push_back(
            join_path(options.out_dir, trace_file_name(spec, campaign.cells[k].label)));
      }
    }
  }
  outcome->total_wall_ms = campaign_watch.elapsed_ms();
  const std::string manifest_path = join_path(options.out_dir, spec.manifest_name);
  if (!write_file_atomic(manifest_path, render_manifest(campaign, *outcome), faults, error)) {
    return false;
  }
  outcome->files_written.push_back(manifest_path);
  const std::string cells_path = join_path(options.out_dir, spec.cells_name);
  if (!write_file_atomic(cells_path, render_cells_csv(campaign, *outcome), faults, error)) {
    return false;
  }
  outcome->files_written.push_back(cells_path);
  if (spec.tournament) {
    const std::string payoff_path = join_path(options.out_dir, spec.payoff_name);
    if (!write_file_atomic(payoff_path, render_payoff_csv(campaign, *outcome), faults,
                           error)) {
      return false;
    }
    outcome->files_written.push_back(payoff_path);
  }
  return true;
}

}  // namespace lockss::campaign
