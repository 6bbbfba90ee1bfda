#include "campaign/spec.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace lockss::campaign {
namespace {

// --- Protocol override vocabulary ----------------------------------------

struct ProtocolParam {
  const char* name;
  void (*apply)(protocol::Params&, double);
};

const ProtocolParam kProtocolParams[] = {
    {"quorum", [](protocol::Params& p, double v) { p.quorum = static_cast<uint32_t>(v); }},
    {"inner_circle_factor",
     [](protocol::Params& p, double v) { p.inner_circle_factor = static_cast<uint32_t>(v); }},
    {"max_disagreeing",
     [](protocol::Params& p, double v) { p.max_disagreeing = static_cast<uint32_t>(v); }},
    {"inter_poll_days",
     [](protocol::Params& p, double v) { p.inter_poll_interval = sim::SimTime::days(v); }},
    {"nominations_per_vote",
     [](protocol::Params& p, double v) { p.nominations_per_vote = static_cast<uint32_t>(v); }},
    {"outer_circle_size",
     [](protocol::Params& p, double v) { p.outer_circle_size = static_cast<uint32_t>(v); }},
    {"introduction_fraction",
     [](protocol::Params& p, double v) { p.introduction_fraction = v; }},
    {"reference_list_target",
     [](protocol::Params& p, double v) { p.reference_list_target = static_cast<uint32_t>(v); }},
    {"friends_per_poll",
     [](protocol::Params& p, double v) { p.friends_per_poll = static_cast<uint32_t>(v); }},
    {"friends_list_size",
     [](protocol::Params& p, double v) { p.friends_list_size = static_cast<uint32_t>(v); }},
    {"unknown_drop_probability",
     [](protocol::Params& p, double v) { p.unknown_drop_probability = v; }},
    {"debt_drop_probability",
     [](protocol::Params& p, double v) { p.debt_drop_probability = v; }},
    {"refractory_days",
     [](protocol::Params& p, double v) { p.refractory_period = sim::SimTime::days(v); }},
    {"consideration_rate_multiplier",
     [](protocol::Params& p, double v) { p.consideration_rate_multiplier = v; }},
    {"grade_decay_months",
     [](protocol::Params& p, double v) { p.grade_decay_interval = sim::SimTime::months(v); }},
    {"introductory_effort_fraction",
     [](protocol::Params& p, double v) { p.introductory_effort_fraction = v; }},
    {"frivolous_repair_probability",
     [](protocol::Params& p, double v) { p.frivolous_repair_probability = v; }},
    {"adaptive_acceptance",
     [](protocol::Params& p, double v) { p.adaptive_acceptance = v != 0.0; }},
    {"adaptive_scale", [](protocol::Params& p, double v) { p.adaptive_scale = v; }},
};

const ProtocolParam* find_protocol_param(const std::string& name) {
  for (const ProtocolParam& entry : kProtocolParams) {
    if (name == entry.name) {
      return &entry;
    }
  }
  return nullptr;
}

// --- Sweep-axis vocabulary ------------------------------------------------

constexpr const char* kDeploymentAxes[] = {
    "peers", "aus", "au_coverage", "newcomers", "newcomer_window_days", "duration_years",
};
constexpr const char* kPhaseAxes[] = {
    "attack_days", "recuperation_days", "coverage_percent", "start_days",
    "stop_days",   "minion_count",      "defection",
};
// Deployment-dynamics axes (docs/dynamics.md): churn rates apply to the
// `dynamics` section, detection latency to `operators`.
constexpr const char* kDynamicsAxes[] = {
    "churn_leave_rate",   "churn_crash_rate",     "churn_mean_downtime_days",
    "churn_arrival_rate", "regional_outage_rate", "detection_latency_days",
};
// Unreliable-link fault axes (docs/faults.md): all apply to the
// `network_faults` section, which must be present for them to mean
// anything (cross-validated below).
constexpr const char* kFaultAxes[] = {
    "loss_rate",
    "dup_rate",
    "jitter_ms",
    "burst_outage_rate",
};

bool is_deployment_axis(const std::string& name) {
  return std::find_if(std::begin(kDeploymentAxes), std::end(kDeploymentAxes),
                      [&](const char* a) { return name == a; }) != std::end(kDeploymentAxes);
}
bool is_phase_axis(const std::string& name) {
  return std::find_if(std::begin(kPhaseAxes), std::end(kPhaseAxes),
                      [&](const char* a) { return name == a; }) != std::end(kPhaseAxes);
}
bool is_dynamics_axis(const std::string& name) {
  return std::find_if(std::begin(kDynamicsAxes), std::end(kDynamicsAxes),
                      [&](const char* a) { return name == a; }) != std::end(kDynamicsAxes);
}
bool is_fault_axis(const std::string& name) {
  return std::find_if(std::begin(kFaultAxes), std::end(kFaultAxes),
                      [&](const char* a) { return name == a; }) != std::end(kFaultAxes);
}

bool param_is_unsigned_int(const std::string& param) {
  for (const char* name : {"peers", "aus", "newcomers", "minion_count", "quorum",
                           "inner_circle_factor", "max_disagreeing", "nominations_per_vote",
                           "outer_circle_size", "reference_list_target", "friends_per_poll",
                           "friends_list_size", "max_outstanding_introductions"}) {
    if (param == name) {
      return true;
    }
  }
  return false;
}

// Range/shape constraint for one numeric axis value; empty string = OK.
// Integer-valued params must be whole non-negative 32-bit numbers (a silent
// static_cast truncation would run a different experiment than the file
// describes), and a few params carry semantic ranges.
std::string check_axis_value(const std::string& param, double v) {
  if (param_is_unsigned_int(param)) {
    if (v < 0 || v > 4294967295.0 || v != static_cast<double>(static_cast<uint64_t>(v))) {
      return "'" + param + "' values must be whole non-negative 32-bit numbers";
    }
    if ((param == "peers" || param == "aus") && v < 1) {
      return "'" + param + "' values must be >= 1";
    }
    return "";
  }
  if (param == "au_coverage") {
    return v > 0.0 && v <= 1.0 ? "" : "'au_coverage' values must be within (0, 1]";
  }
  if (param == "duration_years") {
    return v > 0.0 ? "" : "'duration_years' values must be positive";
  }
  if (param == "attack_days" || param == "recuperation_days" || param == "start_days" ||
      param == "stop_days" || param == "newcomer_window_days") {
    return v >= 0.0 ? "" : "'" + param + "' values must be non-negative";
  }
  if (param == "coverage_percent") {
    return v >= 0.0 && v <= 100.0 ? "" : "'coverage_percent' values must be within [0, 100]";
  }
  if (param == "churn_leave_rate" || param == "churn_crash_rate" ||
      param == "churn_arrival_rate" || param == "regional_outage_rate" ||
      param == "detection_latency_days") {
    return v >= 0.0 ? "" : "'" + param + "' values must be non-negative";
  }
  if (param == "churn_mean_downtime_days") {
    return v > 0.0 ? "" : "'churn_mean_downtime_days' values must be positive";
  }
  if (param == "loss_rate" || param == "dup_rate" || param == "burst_outage_rate") {
    return v >= 0.0 && v <= 1.0 ? "" : "'" + param + "' values must be within [0, 1]";
  }
  if (param == "jitter_ms") {
    return v >= 0.0 ? "" : "'jitter_ms' values must be non-negative";
  }
  return "";
}

bool parse_defection(const std::string& name, adversary::DefectionPoint* out) {
  for (adversary::DefectionPoint point :
       {adversary::DefectionPoint::kIntro, adversary::DefectionPoint::kRemaining,
        adversary::DefectionPoint::kNone}) {
    if (name == adversary::defection_point_name(point)) {
      *out = point;
      return true;
    }
  }
  return false;
}

// --- Diagnostics-carrying object reader -----------------------------------

// Wraps one JSON object: typed member access with "path:line: field: why"
// diagnostics, plus unknown-member detection (catches typos instead of
// silently ignoring them).
class ObjectReader {
 public:
  ObjectReader(const Json& json, const std::string& source, const std::string& field_prefix,
               std::string* error)
      : json_(json), source_(source), prefix_(field_prefix), error_(error) {}

  bool ok() const { return ok_; }

  bool fail(int line, const std::string& field, const std::string& reason) {
    if (ok_) {  // keep the first error
      *error_ = source_ + ":" + std::to_string(line) + ": " + qualify(field) + ": " + reason;
      ok_ = false;
    }
    return false;
  }

  // Object-shape check; call first.
  bool expect_object() {
    if (!json_.is_object()) {
      return fail(json_.line, prefix_.empty() ? "(top level)" : prefix_,
                  std::string("expected an object, got ") + Json::type_name(json_.type));
    }
    return true;
  }

  const Json* member(const std::string& name) {
    consumed_.insert(name);
    return json_.find(name);
  }

  bool number(const std::string& name, double* out) {
    const Json* m = member(name);
    if (m == nullptr) {
      return true;  // optional; *out keeps its default
    }
    if (!m->is_number()) {
      return fail(m->line, name,
                  std::string("expected a number, got ") + Json::type_name(m->type));
    }
    *out = m->number_value;
    return true;
  }

  bool unsigned_int(const std::string& name, uint32_t* out) {
    const Json* m = member(name);
    if (m == nullptr) {
      return true;
    }
    if (!m->is_number() || m->number_value < 0 ||
        m->number_value != static_cast<double>(static_cast<uint64_t>(m->number_value))) {
      return fail(m->line, name, "expected a non-negative integer");
    }
    if (m->number_value > 4294967295.0) {
      return fail(m->line, name, "exceeds the 32-bit range");
    }
    *out = static_cast<uint32_t>(m->number_value);
    return true;
  }

  bool unsigned_int64(const std::string& name, uint64_t* out) {
    const Json* m = member(name);
    if (m == nullptr) {
      return true;
    }
    if (!m->is_number() || m->number_value < 0 ||
        m->number_value != static_cast<double>(static_cast<uint64_t>(m->number_value))) {
      return fail(m->line, name, "expected a non-negative integer");
    }
    if (m->number_value > 9007199254740992.0) {  // 2^53: exact-double ceiling
      return fail(m->line, name, "too large to represent exactly (max 2^53)");
    }
    *out = static_cast<uint64_t>(m->number_value);
    return true;
  }

  bool boolean(const std::string& name, bool* out) {
    const Json* m = member(name);
    if (m == nullptr) {
      return true;
    }
    if (!m->is_bool()) {
      return fail(m->line, name, std::string("expected a bool, got ") + Json::type_name(m->type));
    }
    *out = m->bool_value;
    return true;
  }

  bool string(const std::string& name, std::string* out) {
    const Json* m = member(name);
    if (m == nullptr) {
      return true;
    }
    if (!m->is_string()) {
      return fail(m->line, name,
                  std::string("expected a string, got ") + Json::type_name(m->type));
    }
    *out = m->string_value;
    return true;
  }

  // Errors on members this reader never asked about.
  bool finish() {
    if (!ok_) {
      return false;
    }
    for (const auto& [name, value] : json_.object_members) {
      if (!consumed_.contains(name)) {
        return fail(value.line, name, "unknown member (see docs/campaigns.md for the schema)");
      }
    }
    return true;
  }

  std::string qualify(const std::string& field) const {
    return prefix_.empty() ? field : prefix_ + "." + field;
  }

 private:
  const Json& json_;
  const std::string& source_;
  std::string prefix_;
  std::string* error_;
  std::set<std::string> consumed_;
  bool ok_ = true;
};

// One adversary trigger→action rule ({ trigger, action, phase?, factor? };
// docs/adversaries.md). Shared by the adversary_policy section and the
// tournament strategy tables. Phase-range and factor constraints are
// checked later via adversary::validate_policies (they need the pipeline).
bool parse_adversary_policy_rule(const Json& json, const std::string& source,
                                 const std::string& prefix, adversary::AdversaryPolicy* out,
                                 std::string* error) {
  ObjectReader p(json, source, prefix, error);
  if (!p.expect_object()) {
    return false;
  }
  std::string trigger;
  std::string action;
  uint32_t phase = 0;
  if (!p.string("trigger", &trigger) || !p.string("action", &action) ||
      !p.unsigned_int("phase", &phase) || !p.number("factor", &out->factor)) {
    return false;
  }
  out->phase = phase;
  if (trigger.empty()) {
    return p.fail(json.line, "trigger",
                  "required (alarm | backoff | outage | recovery | grade_collapse)");
  }
  if (!adversary::parse_policy_trigger(trigger, &out->trigger)) {
    const Json* m = json.find("trigger");
    return p.fail(m != nullptr ? m->line : json.line, "trigger",
                  "unknown trigger '" + trigger +
                      "' (expected alarm | backoff | outage | recovery | grade_collapse)");
  }
  if (action.empty()) {
    return p.fail(json.line, "action",
                  "required (switch_phase | retarget | throttle | go_dormant)");
  }
  if (!adversary::parse_policy_action(action, &out->action)) {
    const Json* m = json.find("action");
    return p.fail(m != nullptr ? m->line : json.line, "action",
                  "unknown action '" + action +
                      "' (expected switch_phase | retarget | throttle | go_dormant)");
  }
  return p.finish();
}

// One operator trigger→action rule; shared by the operators section and the
// tournament operator strategies.
bool parse_operator_policy_entry(const Json& entry, const std::string& source,
                                 const std::string& prefix, dynamics::OperatorPolicy* out,
                                 std::string* error) {
  ObjectReader p(entry, source, prefix, error);
  if (!p.expect_object()) {
    return false;
  }
  std::string trigger;
  std::string action;
  if (!p.string("trigger", &trigger) || !p.string("action", &action) ||
      !p.number("factor", &out->factor)) {
    return false;
  }
  if (!dynamics::parse_operator_trigger(trigger, &out->trigger)) {
    const Json* m = entry.find("trigger");
    return p.fail(m != nullptr ? m->line : entry.line, "trigger",
                  "unknown trigger '" + trigger + "' (expected alarm | recovery)");
  }
  if (!dynamics::parse_operator_action(action, &out->action)) {
    const Json* m = entry.find("action");
    return p.fail(m != nullptr ? m->line : entry.line, "action",
                  "unknown action '" + action +
                      "' (expected rekey | friend_refresh | rate_tighten | au_recrawl)");
  }
  if (out->action == dynamics::OperatorAction::kRateTighten &&
      (out->factor <= 0.0 || out->factor > 1.0)) {
    const Json* m = entry.find("factor");
    return p.fail(m != nullptr ? m->line : entry.line, "factor",
                  "rate_tighten factor must be within (0, 1]");
  }
  return p.finish();
}

// Tournament strategy names become cell-label segments and payoff CSV
// headers, so the separators those formats use are reserved.
std::string check_strategy_name(const std::string& name) {
  if (name.empty()) {
    return "required";
  }
  if (name.find('/') != std::string::npos || name.find(' ') != std::string::npos ||
      name.find(',') != std::string::npos || name.find('_') != std::string::npos) {
    return "must not contain '/', '_', ',' or spaces (used in cell labels and the payoff CSV)";
  }
  return "";
}

bool parse_phase(const Json& json, const std::string& source, size_t index,
                 adversary::AdversaryPhase* out, std::string* error) {
  const std::string prefix = "adversary[" + std::to_string(index) + "]";
  ObjectReader reader(json, source, prefix, error);
  if (!reader.expect_object()) {
    return false;
  }
  std::string kind;
  if (!reader.string("kind", &kind)) {
    return false;
  }
  const Json* kind_member = json.find("kind");
  if (kind.empty()) {
    return reader.fail(json.line, "kind", "required (pipe_stoppage | admission_flood | "
                                          "brute_force | grade_recovery | vote_flood)");
  }
  if (!adversary::parse_phase_kind(kind, &out->kind)) {
    return reader.fail(kind_member->line, "kind",
                       "unknown attack module '" + kind +
                           "' (expected pipe_stoppage | admission_flood | brute_force | "
                           "grade_recovery | vote_flood)");
  }
  double attack_days = out->cadence.attack_duration.to_days();
  double recuperation_days = out->cadence.recuperation.to_days();
  double coverage_percent = out->cadence.coverage * 100.0;
  double start_days = 0.0;
  double stop_days = 0.0;
  if (!reader.number("attack_days", &attack_days) ||
      !reader.number("recuperation_days", &recuperation_days) ||
      !reader.number("coverage_percent", &coverage_percent) ||
      !reader.number("start_days", &start_days) || !reader.number("stop_days", &stop_days) ||
      !reader.unsigned_int("minion_count", &out->minion_count) ||
      !reader.unsigned_int("minion_id_base", &out->minion_id_base)) {
    return false;
  }
  std::string defection;
  if (!reader.string("defection", &defection)) {
    return false;
  }
  if (!defection.empty() && !parse_defection(defection, &out->defection)) {
    return reader.fail(json.find("defection")->line, "defection",
                       "unknown defection point '" + defection +
                           "' (expected INTRO | REMAINING | NONE)");
  }
  out->cadence.attack_duration = sim::SimTime::days(attack_days);
  out->cadence.recuperation = sim::SimTime::days(recuperation_days);
  out->cadence.coverage = coverage_percent / 100.0;
  out->start = sim::SimTime::days(start_days);
  out->stop = sim::SimTime::days(stop_days);
  return reader.finish();
}

bool parse_axis(const Json& json, const std::string& source, size_t index,
                const adversary::AdversaryPipeline& pipeline, SweepAxis* out,
                std::string* error) {
  const std::string prefix = "sweep[" + std::to_string(index) + "]";
  ObjectReader reader(json, source, prefix, error);
  if (!reader.expect_object()) {
    return false;
  }
  out->line = json.line;
  uint32_t phase = 0;
  if (!reader.string("param", &out->param) || !reader.unsigned_int("phase", &phase) ||
      !reader.string("label", &out->label)) {
    return false;
  }
  out->phase = phase;
  if (out->param.empty()) {
    return reader.fail(json.line, "param", "required");
  }
  const bool phase_level = is_phase_axis(out->param);
  if (!phase_level && !is_deployment_axis(out->param) && !is_dynamics_axis(out->param) &&
      !is_fault_axis(out->param) && find_protocol_param(out->param) == nullptr) {
    std::string known;
    for (const std::string& name : axis_params()) {
      known += (known.empty() ? "" : ", ") + name;
    }
    return reader.fail(json.find("param")->line, "param",
                       "unknown sweep parameter '" + out->param + "' (known: " + known + ")");
  }
  if (phase_level && out->phase >= pipeline.size()) {
    return reader.fail(json.line, "phase",
                       "phase index " + std::to_string(out->phase) +
                           " out of range (pipeline has " + std::to_string(pipeline.size()) +
                           " phase(s))");
  }
  const Json* values = reader.member("values");
  if (values == nullptr || !values->is_array() || values->array_items.empty()) {
    return reader.fail(values != nullptr ? values->line : json.line, "values",
                       "required non-empty array");
  }
  const bool expect_names = out->param == "defection";
  for (const Json& item : values->array_items) {
    if (expect_names) {
      adversary::DefectionPoint ignored;
      if (!item.is_string() || !parse_defection(item.string_value, &ignored)) {
        return reader.fail(item.line, "values",
                           "defection values must be INTRO | REMAINING | NONE strings");
      }
      out->names.push_back(item.string_value);
    } else {
      if (!item.is_number()) {
        return reader.fail(item.line, "values", "expected numbers");
      }
      const std::string constraint = check_axis_value(out->param, item.number_value);
      if (!constraint.empty()) {
        return reader.fail(item.line, "values", constraint);
      }
      out->values.push_back(item.number_value);
    }
  }
  if (out->label.empty() && !out->categorical()) {
    // Numeric axes need a prefix to tell "d30" from "c30"; categorical
    // value names are self-describing.
    out->label = out->param.substr(0, 1);
  }
  return reader.finish();
}

std::string format_axis_value(const SweepAxis& axis, size_t index) {
  if (axis.categorical()) {
    return axis.names[index];
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", axis.values[index]);
  return buf;
}

// Applies one axis value onto a cell config. Parse-time validation already
// guaranteed the param/phase are legal. Tournament strategy axes resolve
// their names against the spec's strategy tables.
void apply_axis_value(const Spec& spec, const SweepAxis& axis, size_t index,
                      experiment::ScenarioConfig* config) {
  if (axis.categorical()) {
    if (axis.param == "adversary_strategy") {
      // Shared knobs from the adversary_policy section; the rule table is
      // the strategy's.
      config->adversary_policy = spec.adversary_policy;
      config->adversary_policy.policies = spec.adversary_strategies[index].policies;
      return;
    }
    if (axis.param == "operator_strategy") {
      config->operators = spec.operator_strategies[index].operators;
      return;
    }
    // defection
    adversary::DefectionPoint point = adversary::DefectionPoint::kNone;
    parse_defection(axis.names[index], &point);
    config->adversary.pipeline[axis.phase].defection = point;
    return;
  }
  const double v = axis.values[index];
  if (is_phase_axis(axis.param)) {
    adversary::AdversaryPhase& phase = config->adversary.pipeline[axis.phase];
    if (axis.param == "attack_days") {
      phase.cadence.attack_duration = sim::SimTime::days(v);
    } else if (axis.param == "recuperation_days") {
      phase.cadence.recuperation = sim::SimTime::days(v);
    } else if (axis.param == "coverage_percent") {
      phase.cadence.coverage = v / 100.0;
    } else if (axis.param == "start_days") {
      phase.start = sim::SimTime::days(v);
    } else if (axis.param == "stop_days") {
      phase.stop = sim::SimTime::days(v);
    } else if (axis.param == "minion_count") {
      phase.minion_count = static_cast<uint32_t>(v);
    }
    return;
  }
  if (axis.param == "churn_leave_rate") {
    config->churn.leave_rate_per_peer_year = v;
  } else if (axis.param == "churn_crash_rate") {
    config->churn.crash_rate_per_peer_year = v;
  } else if (axis.param == "churn_mean_downtime_days") {
    config->churn.mean_downtime_days = v;
  } else if (axis.param == "churn_arrival_rate") {
    config->churn.arrival_rate_per_year = v;
  } else if (axis.param == "regional_outage_rate") {
    config->churn.regional_outage_rate_per_year = v;
  } else if (axis.param == "detection_latency_days") {
    config->operators.detection_latency = sim::SimTime::days(v);
  } else if (axis.param == "loss_rate") {
    config->faults.loss_rate = v;
  } else if (axis.param == "dup_rate") {
    config->faults.dup_rate = v;
  } else if (axis.param == "jitter_ms") {
    config->faults.jitter = sim::SimTime::seconds(v / 1000.0);
  } else if (axis.param == "burst_outage_rate") {
    config->faults.burst_outage_rate = v;
  } else if (axis.param == "peers") {
    config->peer_count = static_cast<uint32_t>(v);
  } else if (axis.param == "aus") {
    config->au_count = static_cast<uint32_t>(v);
  } else if (axis.param == "au_coverage") {
    config->au_coverage = v;
  } else if (axis.param == "newcomers") {
    config->newcomer_count = static_cast<uint32_t>(v);
  } else if (axis.param == "newcomer_window_days") {
    config->newcomer_join_window = sim::SimTime::days(v);
  } else if (axis.param == "duration_years") {
    config->duration = sim::SimTime::years(v);
  } else if (const ProtocolParam* param = find_protocol_param(axis.param)) {
    param->apply(config->params, v);
  }
}

}  // namespace

std::vector<std::string> axis_params() {
  std::vector<std::string> out;
  for (const char* name : kDeploymentAxes) {
    out.push_back(name);
  }
  for (const char* name : kPhaseAxes) {
    out.push_back(name);
  }
  for (const char* name : kDynamicsAxes) {
    out.push_back(name);
  }
  for (const char* name : kFaultAxes) {
    out.push_back(name);
  }
  for (const ProtocolParam& entry : kProtocolParams) {
    out.push_back(entry.name);
  }
  return out;
}

std::vector<std::string> protocol_params() {
  std::vector<std::string> out;
  for (const ProtocolParam& entry : kProtocolParams) {
    out.push_back(entry.name);
  }
  return out;
}

bool spec_is_dynamic(const Spec& spec) {
  if (spec.churn.enabled() || spec.operators.enabled()) {
    return true;
  }
  for (const SweepAxis& axis : spec.axes) {
    if (is_dynamics_axis(axis.param)) {
      return true;
    }
  }
  // A tournament's operator strategies enable the operator engine per cell.
  for (const Spec::OperatorStrategy& strategy : spec.operator_strategies) {
    if (strategy.operators.enabled()) {
      return true;
    }
  }
  return false;
}

bool spec_has_faults(const Spec& spec) {
  if (spec.faults.enabled()) {
    return true;
  }
  for (const SweepAxis& axis : spec.axes) {
    if (is_fault_axis(axis.param)) {
      return true;
    }
  }
  return false;
}

bool spec_has_trace(const Spec& spec) { return spec.obs_trace.enabled; }

bool spec_has_policies(const Spec& spec) {
  return spec.adversary_policy.enabled() || spec.tournament;
}

bool parse_spec(const Json& json, const std::string& source_path, Spec* out,
                std::string* error) {
  *out = Spec{};
  out->source_path = source_path;
  ObjectReader reader(json, source_path, "", error);
  if (!reader.expect_object()) {
    return false;
  }
  if (!reader.string("name", &out->name) || !reader.string("description", &out->description)) {
    return false;
  }
  if (out->name.empty()) {
    return reader.fail(json.line, "name", "required");
  }
  if (out->name.find('/') != std::string::npos || out->name.find(' ') != std::string::npos) {
    return reader.fail(json.find("name")->line, "name",
                       "must not contain '/' or spaces (used in output file names)");
  }

  // deployment
  if (const Json* deployment = reader.member("deployment")) {
    ObjectReader d(*deployment, source_path, "deployment", error);
    double duration_years = out->duration.to_days() / 365.0;
    double newcomer_window_days = out->newcomer_join_window.to_days();
    if (!d.expect_object() || !d.unsigned_int("peers", &out->peers) ||
        !d.unsigned_int("aus", &out->aus) || !d.number("au_coverage", &out->au_coverage) ||
        !d.unsigned_int("newcomers", &out->newcomers) ||
        !d.number("newcomer_window_days", &newcomer_window_days) ||
        !d.number("duration_years", &duration_years) ||
        !d.unsigned_int64("seed", &out->seed) || !d.unsigned_int("seeds", &out->seeds) ||
        !d.unsigned_int("layers", &out->layers) || !d.finish()) {
      return false;
    }
    out->duration = sim::SimTime::years(duration_years);
    out->newcomer_join_window = sim::SimTime::days(newcomer_window_days);
    if (out->peers == 0) {
      return d.fail(deployment->line, "peers", "must be >= 1");
    }
    if (out->aus == 0) {
      return d.fail(deployment->line, "aus", "must be >= 1");
    }
    if (out->seeds == 0) {
      return d.fail(deployment->line, "seeds", "must be >= 1");
    }
    if (out->duration <= sim::SimTime::zero()) {
      return d.fail(deployment->line, "duration_years", "must be positive");
    }
    if (out->au_coverage <= 0.0 || out->au_coverage > 1.0) {
      return d.fail(deployment->line, "au_coverage", "must be within (0, 1]");
    }
  }

  // damage
  if (const Json* damage = reader.member("damage")) {
    ObjectReader d(*damage, source_path, "damage", error);
    if (!d.expect_object() || !d.boolean("enabled", &out->enable_damage) ||
        !d.number("mean_disk_years_between_failures", &out->damage_mtbf_disk_years) ||
        !d.number("aus_per_disk", &out->damage_aus_per_disk) || !d.finish()) {
      return false;
    }
    if (out->damage_mtbf_disk_years <= 0.0 || out->damage_aus_per_disk <= 0.0) {
      return d.fail(damage->line, "mean_disk_years_between_failures", "must be positive");
    }
  }

  // deployment dynamics
  if (const Json* dyn = reader.member("dynamics")) {
    ObjectReader d(*dyn, source_path, "dynamics", error);
    if (!d.expect_object() ||
        !d.number("leave_rate_per_peer_year", &out->churn.leave_rate_per_peer_year) ||
        !d.number("crash_rate_per_peer_year", &out->churn.crash_rate_per_peer_year) ||
        !d.number("mean_downtime_days", &out->churn.mean_downtime_days) ||
        !d.number("arrival_rate_per_year", &out->churn.arrival_rate_per_year) ||
        !d.unsigned_int("regions", &out->churn.regions) ||
        !d.number("regional_outage_rate_per_year",
                  &out->churn.regional_outage_rate_per_year) ||
        !d.number("regional_outage_days", &out->churn.regional_outage_days) ||
        !d.number("regional_recovery_stagger_hours",
                  &out->churn.regional_recovery_stagger_hours) ||
        !d.boolean("regional_state_loss", &out->churn.regional_state_loss) || !d.finish()) {
      return false;
    }
    if (out->churn.leave_rate_per_peer_year < 0.0) {
      return d.fail(dyn->line, "leave_rate_per_peer_year", "must be non-negative");
    }
    if (out->churn.crash_rate_per_peer_year < 0.0) {
      return d.fail(dyn->line, "crash_rate_per_peer_year", "must be non-negative");
    }
    if (out->churn.arrival_rate_per_year < 0.0) {
      return d.fail(dyn->line, "arrival_rate_per_year", "must be non-negative");
    }
    if (out->churn.mean_downtime_days <= 0.0) {
      return d.fail(dyn->line, "mean_downtime_days", "must be positive");
    }
    if (out->churn.regional_outage_rate_per_year < 0.0) {
      return d.fail(dyn->line, "regional_outage_rate_per_year", "must be non-negative");
    }
    if (out->churn.regional_outage_days <= 0.0) {
      return d.fail(dyn->line, "regional_outage_days", "must be positive");
    }
    if (out->churn.regional_recovery_stagger_hours < 0.0) {
      return d.fail(dyn->line, "regional_recovery_stagger_hours", "must be non-negative");
    }
    if (out->churn.regional_outage_rate_per_year > 0.0 && out->churn.regions == 0) {
      return d.fail(dyn->line, "regions",
                    "required (>= 1) when regional_outage_rate_per_year is set");
    }
  }

  // operator response
  if (const Json* operators = reader.member("operators")) {
    ObjectReader o(*operators, source_path, "operators", error);
    double detection_latency_days = out->operators.detection_latency.to_days();
    if (!o.expect_object() || !o.number("detection_latency_days", &detection_latency_days) ||
        !o.number("recrawl_cost_factor", &out->operators.recrawl_cost_factor)) {
      return false;
    }
    if (detection_latency_days < 0.0) {
      return o.fail(operators->line, "detection_latency_days", "must be non-negative");
    }
    if (out->operators.recrawl_cost_factor <= 0.0) {
      return o.fail(operators->line, "recrawl_cost_factor", "must be positive");
    }
    out->operators.detection_latency = sim::SimTime::days(detection_latency_days);
    const Json* policies = o.member("policies");
    if (policies == nullptr || !policies->is_array() || policies->array_items.empty()) {
      return o.fail(policies != nullptr ? policies->line : operators->line, "policies",
                    "required non-empty array of { trigger, action } objects");
    }
    for (size_t i = 0; i < policies->array_items.size(); ++i) {
      const std::string prefix = "operators.policies[" + std::to_string(i) + "]";
      dynamics::OperatorPolicy policy;
      if (!parse_operator_policy_entry(policies->array_items[i], source_path, prefix, &policy,
                                       error)) {
        return false;
      }
      out->operators.policies.push_back(policy);
    }
    if (!o.finish()) {
      return false;
    }
  }

  // network topology
  if (const Json* network = reader.member("network")) {
    ObjectReader n(*network, source_path, "network", error);
    double min_latency_ms = out->network.min_latency.to_seconds() * 1000.0;
    double max_latency_ms = out->network.max_latency.to_seconds() * 1000.0;
    if (!n.expect_object() || !n.number("min_latency_ms", &min_latency_ms) ||
        !n.number("max_latency_ms", &max_latency_ms) || !n.finish()) {
      return false;
    }
    if (min_latency_ms < 0.0) {
      return n.fail(network->line, "min_latency_ms", "must be non-negative");
    }
    if (max_latency_ms < min_latency_ms) {
      return n.fail(network->line, "max_latency_ms", "must be >= min_latency_ms");
    }
    out->network.min_latency = sim::SimTime::seconds(min_latency_ms / 1000.0);
    out->network.max_latency = sim::SimTime::seconds(max_latency_ms / 1000.0);
  }

  // unreliable-link faults (docs/faults.md)
  if (const Json* faults = reader.member("network_faults")) {
    ObjectReader f(*faults, source_path, "network_faults", error);
    out->faults_section = true;
    double jitter_ms = 0.0;
    double burst_cycle_days = out->faults.burst_cycle.to_days();
    if (!f.expect_object() || !f.number("loss_rate", &out->faults.loss_rate) ||
        !f.number("dup_rate", &out->faults.dup_rate) || !f.number("jitter_ms", &jitter_ms) ||
        !f.number("burst_outage_rate", &out->faults.burst_outage_rate) ||
        !f.number("burst_cycle_days", &burst_cycle_days) || !f.finish()) {
      return false;
    }
    if (out->faults.loss_rate < 0.0 || out->faults.loss_rate > 1.0) {
      return f.fail(faults->line, "loss_rate", "must be within [0, 1]");
    }
    if (out->faults.dup_rate < 0.0 || out->faults.dup_rate > 1.0) {
      return f.fail(faults->line, "dup_rate", "must be within [0, 1]");
    }
    if (out->faults.burst_outage_rate < 0.0 || out->faults.burst_outage_rate > 1.0) {
      return f.fail(faults->line, "burst_outage_rate", "must be within [0, 1]");
    }
    if (jitter_ms < 0.0) {
      return f.fail(faults->line, "jitter_ms", "must be non-negative");
    }
    if (jitter_ms > 0.0 && out->network.min_latency <= sim::SimTime::zero()) {
      // Jitter rides on top of the propagation latency; a zero minimum
      // leaves it no delay floor (docs/faults.md).
      return f.fail(faults->line, "jitter_ms",
                    "jitter needs network.min_latency_ms > 0 (zero-latency networks have no "
                    "delay floor for delivery jitter to ride on)");
    }
    if (burst_cycle_days <= 0.0) {
      return f.fail(faults->line, "burst_cycle_days", "must be positive");
    }
    out->faults.jitter = sim::SimTime::seconds(jitter_ms / 1000.0);
    out->faults.burst_cycle = sim::SimTime::days(burst_cycle_days);
  }

  // observability: protocol event tracing + self-profiling
  // (docs/observability.md)
  if (const Json* observability = reader.member("observability")) {
    ObjectReader o(*observability, source_path, "observability", error);
    uint64_t ring_capacity = 0;
    if (!o.expect_object() || !o.boolean("trace", &out->obs_trace.enabled) ||
        !o.number("sample_rate", &out->obs_trace.sample_rate) ||
        !o.unsigned_int64("ring_capacity", &ring_capacity) ||
        !o.boolean("profile", &out->obs_profile)) {
      return false;
    }
    if (out->obs_trace.sample_rate < 0.0 || out->obs_trace.sample_rate > 1.0) {
      return o.fail(observability->line, "sample_rate", "must be within [0, 1]");
    }
    out->obs_trace.ring_capacity = static_cast<size_t>(ring_capacity);
    if (const Json* kinds = o.member("kinds")) {
      if (!kinds->is_array()) {
        return o.fail(kinds->line, "kinds",
                      "expected an array of event-group names "
                      "(poll | voter | churn | operator | fault | adversary)");
      }
      uint32_t mask = 0;
      for (const Json& item : kinds->array_items) {
        if (!item.is_string()) {
          return o.fail(item.line, "kinds", "expected strings");
        }
        if (item.string_value == "poll") {
          mask |= obs::kMaskPoll;
        } else if (item.string_value == "voter") {
          mask |= obs::kMaskVoter;
        } else if (item.string_value == "churn") {
          mask |= obs::kMaskChurn;
        } else if (item.string_value == "operator") {
          mask |= obs::kMaskOperator;
        } else if (item.string_value == "fault") {
          mask |= obs::kMaskFault;
        } else if (item.string_value == "adversary") {
          mask |= obs::kMaskAdversary;
        } else {
          return o.fail(item.line, "kinds",
                        "unknown event group '" + item.string_value +
                            "' (expected poll | voter | churn | operator | fault | "
                            "adversary)");
        }
      }
      out->obs_trace.kind_mask = mask;
    }
    if (!o.finish()) {
      return false;
    }
    // Trace artifacts are one-file-per-unit snapshots of a single run; a
    // seed-replicated or layered unit aggregates several runs and has no
    // single trace to write.
    if (out->obs_trace.enabled && out->seeds > 1) {
      return o.fail(observability->line, "trace",
                    "tracing requires deployment.seeds == 1 (one trace file per unit)");
    }
    if (out->obs_trace.enabled && out->layers > 0) {
      return o.fail(observability->line, "trace",
                    "tracing is not supported with deployment.layers (layered units "
                    "aggregate several runs)");
    }
  }

  // protocol overrides
  if (const Json* protocol = reader.member("protocol")) {
    ObjectReader p(*protocol, source_path, "protocol", error);
    if (!p.expect_object()) {
      return false;
    }
    for (const auto& [name, value] : protocol->object_members) {
      if (find_protocol_param(name) == nullptr) {
        std::string known;
        for (const std::string& k : protocol_params()) {
          known += (known.empty() ? "" : ", ") + k;
        }
        return p.fail(value.line, name,
                      "unknown protocol parameter (known: " + known + ")");
      }
      double v = 0.0;
      if (value.is_bool()) {
        v = value.bool_value ? 1.0 : 0.0;
      } else if (value.is_number()) {
        v = value.number_value;
      } else {
        return p.fail(value.line, name, "expected a number or bool");
      }
      out->protocol_overrides.emplace_back(name, v);
    }
  }

  double trace_days = 0.0;
  if (!reader.number("trace_days", &trace_days)) {
    return false;
  }
  out->trace_interval = sim::SimTime::days(trace_days);

  // adversary pipeline
  if (const Json* adversary_json = reader.member("adversary")) {
    if (!adversary_json->is_array()) {
      return reader.fail(adversary_json->line, "adversary",
                         "expected an array of phase objects");
    }
    for (size_t i = 0; i < adversary_json->array_items.size(); ++i) {
      adversary::AdversaryPhase phase;
      if (!parse_phase(adversary_json->array_items[i], source_path, i, &phase, error)) {
        return false;
      }
      out->pipeline.push_back(phase);
    }
    const std::string pipeline_error =
        adversary::validate_pipeline(out->pipeline, out->peers + out->newcomers);
    if (!pipeline_error.empty()) {
      return reader.fail(adversary_json->line, "adversary", pipeline_error);
    }
  }

  // adaptive adversary policies (docs/adversaries.md). The non-empty-table
  // and pipeline-shape checks run after the tournament section below: a
  // tournament spec may use this section for knobs only.
  const Json* adversary_policy_json = reader.member("adversary_policy");
  if (adversary_policy_json != nullptr) {
    ObjectReader a(*adversary_policy_json, source_path, "adversary_policy", error);
    adversary::AdversaryPolicyConfig& pol = out->adversary_policy;
    double reaction_latency_hours = pol.reaction_latency.to_seconds() / 3600.0;
    double sensor_interval_days = pol.sensor_interval.to_days();
    double cooldown_days = pol.cooldown.to_days();
    double dormant_mean_days = pol.dormant_mean.to_days();
    double throttle_pause_days = pol.throttle_pause.to_days();
    if (!a.expect_object() ||
        !a.number("reaction_latency_hours", &reaction_latency_hours) ||
        !a.number("sensor_interval_days", &sensor_interval_days) ||
        !a.number("cooldown_days", &cooldown_days) ||
        !a.number("outage_threshold", &pol.outage_threshold) ||
        !a.number("backoff_threshold", &pol.backoff_threshold) ||
        !a.number("collapse_threshold", &pol.collapse_threshold) ||
        !a.number("dormant_mean_days", &dormant_mean_days) ||
        !a.number("throttle_pause_days", &throttle_pause_days)) {
      return false;
    }
    pol.reaction_latency = sim::SimTime::hours(reaction_latency_hours);
    pol.sensor_interval = sim::SimTime::days(sensor_interval_days);
    pol.cooldown = sim::SimTime::days(cooldown_days);
    pol.dormant_mean = sim::SimTime::days(dormant_mean_days);
    pol.throttle_pause = sim::SimTime::days(throttle_pause_days);
    if (const Json* policies = a.member("policies")) {
      if (!policies->is_array()) {
        return a.fail(policies->line, "policies",
                      "expected an array of { trigger, action } objects");
      }
      for (size_t i = 0; i < policies->array_items.size(); ++i) {
        const std::string prefix = "adversary_policy.policies[" + std::to_string(i) + "]";
        adversary::AdversaryPolicy rule;
        if (!parse_adversary_policy_rule(policies->array_items[i], source_path, prefix, &rule,
                                         error)) {
          return false;
        }
        out->adversary_policy.policies.push_back(rule);
      }
    }
    if (!a.finish()) {
      return false;
    }
  }

  // sweep axes
  if (const Json* sweep = reader.member("sweep")) {
    if (!sweep->is_array()) {
      return reader.fail(sweep->line, "sweep", "expected an array of axis objects");
    }
    for (size_t i = 0; i < sweep->array_items.size(); ++i) {
      SweepAxis axis;
      if (!parse_axis(sweep->array_items[i], source_path, i, out->pipeline, &axis, error)) {
        return false;
      }
      out->axes.push_back(std::move(axis));
    }
    // Dynamics axes only mean something with their section in place: a
    // detection-latency sweep with no operator policies (or a regional
    // outage-rate sweep with no regions) would silently run the same
    // scenario in every cell.
    for (size_t i = 0; i < out->axes.size(); ++i) {
      const SweepAxis& axis = out->axes[i];
      const auto axis_fail = [&](const std::string& reason) {
        *error = source_path + ":" + std::to_string(axis.line) + ": sweep[" +
                 std::to_string(i) + "].param: " + reason;
        return false;
      };
      if (is_fault_axis(axis.param) && !out->faults_section) {
        return axis_fail("'" + axis.param +
                         "' sweeps need a network_faults section (even an all-zero one) so "
                         "the campaign states its fault model explicitly");
      }
      if (axis.param == "jitter_ms" && out->network.min_latency <= sim::SimTime::zero()) {
        return axis_fail(
            "'jitter_ms' sweeps need network.min_latency_ms > 0 (zero-latency networks have "
            "no delay floor for delivery jitter to ride on)");
      }
      if (axis.param == "detection_latency_days" && out->operators.policies.empty()) {
        return axis_fail(
            "'detection_latency_days' sweeps need an operators section with at least one "
            "policy");
      }
      if (axis.param == "regional_outage_rate" && out->churn.regions == 0) {
        return axis_fail("'regional_outage_rate' sweeps need dynamics.regions >= 1");
      }
      if (axis.param == "churn_mean_downtime_days" && !out->churn.session_churn()) {
        // Downtime is inert without session churn; allow the sweep only if
        // a sibling axis switches churn on per cell.
        bool churn_swept = false;
        for (const SweepAxis& other : out->axes) {
          churn_swept = churn_swept || other.param == "churn_leave_rate" ||
                        other.param == "churn_crash_rate";
        }
        if (!churn_swept) {
          return axis_fail(
              "'churn_mean_downtime_days' sweeps need session churn: set "
              "dynamics.leave_rate_per_peer_year / crash_rate_per_peer_year or sweep them");
        }
      }
    }
  }

  // tournament (docs/adversaries.md): adversary strategies × operator
  // strategies as two categorical axes appended to the sweep grid.
  if (const Json* tournament = reader.member("tournament")) {
    ObjectReader t(*tournament, source_path, "tournament", error);
    if (!t.expect_object()) {
      return false;
    }
    out->tournament = true;
    if (!out->axes.empty()) {
      return t.fail(tournament->line, "tournament",
                    "tournament campaigns cross their strategy axes exclusively; remove the "
                    "sweep section");
    }
    if (!t.string("payoff", &out->payoff_name)) {
      return false;
    }
    const Json* adv = t.member("adversary_strategies");
    if (adv == nullptr || !adv->is_array() || adv->array_items.empty()) {
      return t.fail(adv != nullptr ? adv->line : tournament->line, "adversary_strategies",
                    "required non-empty array of { name, policies } objects");
    }
    const Json* ops = t.member("operator_strategies");
    if (ops == nullptr || !ops->is_array() || ops->array_items.empty()) {
      return t.fail(ops != nullptr ? ops->line : tournament->line, "operator_strategies",
                    "required non-empty array of { name, policies } objects");
    }
    for (size_t i = 0; i < adv->array_items.size(); ++i) {
      const Json& entry = adv->array_items[i];
      const std::string prefix = "tournament.adversary_strategies[" + std::to_string(i) + "]";
      ObjectReader s(entry, source_path, prefix, error);
      Spec::AdversaryStrategy strategy;
      strategy.line = entry.line;
      if (!s.expect_object() || !s.string("name", &strategy.name)) {
        return false;
      }
      const std::string name_error = check_strategy_name(strategy.name);
      if (!name_error.empty()) {
        const Json* m = entry.find("name");
        return s.fail(m != nullptr ? m->line : entry.line, "name", name_error);
      }
      if (const Json* policies = s.member("policies")) {
        if (!policies->is_array()) {
          return s.fail(policies->line, "policies",
                        "expected an array of { trigger, action } objects (empty = the "
                        "static, non-adaptive adversary)");
        }
        for (size_t j = 0; j < policies->array_items.size(); ++j) {
          adversary::AdversaryPolicy rule;
          if (!parse_adversary_policy_rule(policies->array_items[j], source_path,
                                           prefix + ".policies[" + std::to_string(j) + "]",
                                           &rule, error)) {
            return false;
          }
          strategy.policies.push_back(rule);
        }
      }
      if (!s.finish()) {
        return false;
      }
      if (!strategy.policies.empty()) {
        // Shape-check against the pipeline with the section knobs the cell
        // will actually run under.
        adversary::AdversaryPolicyConfig probe = out->adversary_policy;
        probe.policies = strategy.policies;
        const std::string policy_error =
            adversary::validate_policies(probe, out->pipeline.size());
        if (!policy_error.empty()) {
          return t.fail(entry.line, "adversary_strategies[" + std::to_string(i) + "]",
                        policy_error);
        }
      }
      for (const Spec::AdversaryStrategy& prior : out->adversary_strategies) {
        if (prior.name == strategy.name) {
          return t.fail(entry.line, "adversary_strategies[" + std::to_string(i) + "].name",
                        "duplicate strategy name '" + strategy.name + "'");
        }
      }
      out->adversary_strategies.push_back(std::move(strategy));
    }
    for (size_t i = 0; i < ops->array_items.size(); ++i) {
      const Json& entry = ops->array_items[i];
      const std::string prefix = "tournament.operator_strategies[" + std::to_string(i) + "]";
      ObjectReader s(entry, source_path, prefix, error);
      Spec::OperatorStrategy strategy;
      strategy.line = entry.line;
      double detection_latency_days = strategy.operators.detection_latency.to_days();
      if (!s.expect_object() || !s.string("name", &strategy.name) ||
          !s.number("detection_latency_days", &detection_latency_days) ||
          !s.number("recrawl_cost_factor", &strategy.operators.recrawl_cost_factor)) {
        return false;
      }
      const std::string name_error = check_strategy_name(strategy.name);
      if (!name_error.empty()) {
        const Json* m = entry.find("name");
        return s.fail(m != nullptr ? m->line : entry.line, "name", name_error);
      }
      if (detection_latency_days < 0.0) {
        return s.fail(entry.line, "detection_latency_days", "must be non-negative");
      }
      if (strategy.operators.recrawl_cost_factor <= 0.0) {
        return s.fail(entry.line, "recrawl_cost_factor", "must be positive");
      }
      strategy.operators.detection_latency = sim::SimTime::days(detection_latency_days);
      if (const Json* policies = s.member("policies")) {
        if (!policies->is_array()) {
          return s.fail(policies->line, "policies",
                        "expected an array of { trigger, action } objects (empty = "
                        "hands-off operators)");
        }
        for (size_t j = 0; j < policies->array_items.size(); ++j) {
          dynamics::OperatorPolicy policy;
          if (!parse_operator_policy_entry(policies->array_items[j], source_path,
                                           prefix + ".policies[" + std::to_string(j) + "]",
                                           &policy, error)) {
            return false;
          }
          strategy.operators.policies.push_back(policy);
        }
      }
      if (!s.finish()) {
        return false;
      }
      for (const Spec::OperatorStrategy& prior : out->operator_strategies) {
        if (prior.name == strategy.name) {
          return t.fail(entry.line, "operator_strategies[" + std::to_string(i) + "].name",
                        "duplicate strategy name '" + strategy.name + "'");
        }
      }
      out->operator_strategies.push_back(std::move(strategy));
    }
    if (!t.finish()) {
      return false;
    }
    // The two strategy axes, adversary outermost — the payoff matrix's
    // row-major order. Categorical names are self-describing (no label
    // prefix), matching the defection axis convention.
    SweepAxis adversary_axis;
    adversary_axis.param = "adversary_strategy";
    adversary_axis.line = tournament->line;
    for (const Spec::AdversaryStrategy& strategy : out->adversary_strategies) {
      adversary_axis.names.push_back(strategy.name);
    }
    SweepAxis operator_axis;
    operator_axis.param = "operator_strategy";
    operator_axis.line = tournament->line;
    for (const Spec::OperatorStrategy& strategy : out->operator_strategies) {
      operator_axis.names.push_back(strategy.name);
    }
    out->axes.push_back(std::move(adversary_axis));
    out->axes.push_back(std::move(operator_axis));
  }
  if (out->payoff_name.empty()) {
    out->payoff_name = out->name + ".payoff.csv";
  }

  // Deferred adversary_policy cross-checks (they need the tournament and
  // pipeline context from above).
  if (adversary_policy_json != nullptr && out->adversary_policy.policies.empty() &&
      !out->tournament) {
    *error = source_path + ":" + std::to_string(adversary_policy_json->line) +
             ": adversary_policy.policies: required non-empty array of { trigger, action } "
             "objects (knob-only sections are only meaningful with a tournament)";
    return false;
  }
  if (!out->adversary_policy.policies.empty()) {
    const std::string policy_error =
        adversary::validate_policies(out->adversary_policy, out->pipeline.size());
    if (!policy_error.empty()) {
      *error = source_path + ":" + std::to_string(adversary_policy_json->line) +
               ": adversary_policy: " + policy_error;
      return false;
    }
  }

  if (!reader.boolean("baseline", &out->baseline)) {
    return false;
  }

  // outputs
  out->manifest_name = out->name + ".manifest.json";
  out->cells_name = out->name + ".cells.csv";
  if (const Json* outputs = reader.member("outputs")) {
    ObjectReader o(*outputs, source_path, "outputs", error);
    if (!o.expect_object() || !o.string("manifest", &out->manifest_name) ||
        !o.string("cells", &out->cells_name)) {
      return false;
    }
    if (const Json* figure = o.member("figure")) {
      ObjectReader f(*figure, source_path, "outputs.figure", error);
      out->figure.enabled = true;
      if (!f.expect_object() || !f.string("metric", &out->figure.metric) ||
          !f.string("row_header", &out->figure.row_header) ||
          !f.string("title", &out->figure.title) || !f.string("x_label", &out->figure.x_label) ||
          !f.boolean("log_x", &out->figure.log_x) || !f.boolean("log_y", &out->figure.log_y) ||
          !f.string("csv", &out->figure.csv) || !f.finish()) {
        return false;
      }
      if (out->figure.metric != "access_failure" && out->figure.metric != "delay_ratio" &&
          out->figure.metric != "friction") {
        return f.fail(figure->line, "metric",
                      "unknown metric '" + out->figure.metric +
                          "' (expected access_failure | delay_ratio | friction)");
      }
      if (out->figure.csv.empty()) {
        return f.fail(figure->line, "csv", "required");
      }
      if (out->figure.row_header.empty()) {
        return f.fail(figure->line, "row_header", "required");
      }
      if (out->axes.size() != 2) {
        return f.fail(figure->line, "figure",
                      "figure outputs need exactly 2 sweep axes (rows, columns); this "
                      "campaign has " +
                          std::to_string(out->axes.size()));
      }
      if (out->axes[0].categorical() || out->axes[1].categorical()) {
        return f.fail(figure->line, "figure", "figure axes must be numeric");
      }
      if (!out->baseline) {
        return f.fail(figure->line, "figure",
                      "figure metrics are relative to the baseline; set baseline: true");
      }
    }
    if (!o.finish()) {
      return false;
    }
  }

  return reader.finish();
}

bool load_spec_file(const std::string& path, Spec* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    *error = path + ": cannot open";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  Json json;
  std::string json_error;
  if (!parse_json(buffer.str(), &json, &json_error)) {
    *error = path + ": " + json_error;
    return false;
  }
  return parse_spec(json, path, out, error);
}

bool compile_campaign(const Spec& spec, CompiledCampaign* out, std::string* error) {
  out->spec = spec;
  out->cells.clear();

  experiment::ScenarioConfig base;
  base.peer_count = spec.peers;
  base.au_count = spec.aus;
  base.au_coverage = spec.au_coverage;
  base.newcomer_count = spec.newcomers;
  base.newcomer_join_window = spec.newcomer_join_window;
  base.duration = spec.duration;
  base.seed = spec.seed;
  base.enable_damage = spec.enable_damage;
  base.damage.mean_disk_years_between_failures = spec.damage_mtbf_disk_years;
  base.damage.aus_per_disk = spec.damage_aus_per_disk;
  base.trace_interval = spec.trace_interval;
  // Dynamics are deployment properties, like newcomers: the adversary-free
  // baseline churns exactly as the attack cells do — and so is the
  // network, faults included (a lossy campaign's baseline is lossy too).
  base.churn = spec.churn;
  base.operators = spec.operators;
  base.adversary_policy = spec.adversary_policy;
  base.network = spec.network;
  base.faults = spec.faults;
  base.obs_trace = spec.obs_trace;
  base.obs_profile = spec.obs_profile;
  for (const auto& [name, value] : spec.protocol_overrides) {
    // parse_spec vets override names, but a hand-built Spec may not have
    // gone through it; diagnose instead of dereferencing null.
    const ProtocolParam* param = find_protocol_param(name);
    if (param == nullptr) {
      *error = spec.source_path + ": unknown protocol override '" + name + "'";
      return false;
    }
    param->apply(base.params, value);
  }
  out->base = base;

  // Row-major cartesian expansion, first axis outermost.
  size_t cell_count = 1;
  for (const SweepAxis& axis : spec.axes) {
    if (axis.size() == 0) {
      *error = spec.source_path + ": sweep axis '" + axis.param + "' has no values";
      return false;
    }
    if (cell_count > 100000 / axis.size()) {
      *error = spec.source_path + ": sweep grid exceeds 100000 cells";
      return false;
    }
    cell_count *= axis.size();
  }
  std::vector<size_t> indices(spec.axes.size(), 0);
  for (size_t cell = 0; cell < cell_count; ++cell) {
    CompiledCell compiled;
    compiled.config = base;
    compiled.config.adversary.pipeline = spec.pipeline;
    std::string label;
    for (size_t a = 0; a < spec.axes.size(); ++a) {
      const SweepAxis& axis = spec.axes[a];
      apply_axis_value(spec, axis, indices[a], &compiled.config);
      compiled.values.push_back(axis.categorical() ? static_cast<double>(indices[a])
                                                   : axis.values[indices[a]]);
      compiled.names.push_back(format_axis_value(axis, indices[a]));
      label += (label.empty() ? "" : "_") + axis.label + compiled.names.back();
    }
    compiled.label = label.empty() ? "cell" : label;
    // Re-validate: an axis can move a phase window or pool into an invalid
    // shape that the static pipeline validation could not see.
    const std::string pipeline_error = adversary::validate_pipeline(
        compiled.config.adversary.pipeline,
        compiled.config.peer_count + compiled.config.newcomer_count);
    if (!pipeline_error.empty()) {
      *error = spec.source_path + ": cell " + compiled.label + ": " + pipeline_error;
      return false;
    }
    if (compiled.config.adversary_policy.enabled()) {
      const std::string policy_error = adversary::validate_policies(
          compiled.config.adversary_policy, compiled.config.adversary.pipeline.size());
      if (!policy_error.empty()) {
        *error = spec.source_path + ": cell " + compiled.label + ": " + policy_error;
        return false;
      }
    }
    out->cells.push_back(std::move(compiled));
    for (size_t a = spec.axes.size(); a-- > 0;) {
      if (++indices[a] < spec.axes[a].size()) {
        break;
      }
      indices[a] = 0;
    }
  }
  return true;
}

}  // namespace lockss::campaign
