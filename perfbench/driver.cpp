// Benchmark driver: runs generated campaign specs through the public
// campaign API and writes one JSON report of timings, counters and
// per-unit result digests. run.py generates the specs, calls this binary
// once per repetition in a child process under a deadline, and turns the
// reports into the benchmark's metrics.
//
//   perfbench_driver --mode untraced|traced --spec FILE [--spec FILE ...]
//                    --workers N --shards N --out DIR --report FILE
//                    [--journal-dir DIR]
//
// untraced  campaign::load_spec_file -> compile_campaign -> run_campaign per
//           spec, event tracing off (the specs set observability.profile so
//           RunProfile.setup_ms reaches the outcome). This is the
//           end-to-end measurement: wall_s runs from the first spec load to
//           the last artifact written.
// traced    the same load/compile, then every unit's seeds through
//           experiment::run_scenario with obs_trace and obs_profile on
//           (campaign tracing requires seeds == 1, so the campaign engine
//           cannot do this itself), fanned out with ParallelRunner like the
//           engine does. Spans around each call are kept in memory and
//           written once, to DIR/spans.csv, when the pass ends.
//
// Both modes digest every unit's deterministic result
// (campaign::serialize_run_result with peak_queue_depth zeroed, the one
// field that legitimately differs between shard counts), so run.py can
// check that tracing and sharding change nothing.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "adversary/policy.hpp"
#include "campaign/engine.hpp"
#include "campaign/journal.hpp"
#include "campaign/json.hpp"
#include "campaign/spec.hpp"
#include "dynamics/spec.hpp"
#include "experiment/aggregate.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "obs/event.hpp"
#include "obs/profile.hpp"
#include "protocol/host.hpp"
#include "protocol/voter_session.hpp"

namespace {

using namespace lockss;
using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

double now_s() { return std::chrono::duration<double>(Clock::now() - kOrigin).count(); }

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

// --- Spans ----------------------------------------------------------------
// One record per call into a layer: name, start, end, and the span that
// caused it. Units run on ParallelRunner threads, hence the mutex.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;
};

class SpanLog {
 public:
  int64_t open(const std::string& name, int64_t parent) {
    return add(name, now_s(), -1.0, parent);
  }
  void close(int64_t id) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = t;
  }
  int64_t add(const std::string& name, double start, double end, int64_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, parent});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  // Called once every span is closed (no more concurrent writers).
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int64_t parent)
      : log_(log), id_(log ? log->open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

// Self time: a span's duration minus the union of its children's
// intervals (children of the runner span overlap across worker threads).
struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_start = 0.0;
    double cur_end = -1.0;
    for (const auto& [start, end] : kids) {
      if (start > cur_end) {
        covered += std::max(0.0, cur_end - cur_start);
        cur_start = start;
        cur_end = end;
      } else {
        cur_end = std::max(cur_end, end);
      }
    }
    covered += std::max(0.0, cur_end - cur_start);
    const double duration = spans[i].end - spans[i].start;
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_s += duration;
    t.self_s += std::max(0.0, duration - covered);
  }
  return totals;
}

bool write_spans_csv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "id,parent,name,start_s,end_s\n";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%zu,%lld,%s,%.9f,%.9f\n", i,
                  static_cast<long long>(spans[i].parent), spans[i].name.c_str(),
                  spans[i].start, spans[i].end);
    out << buf;
  }
  return static_cast<bool>(out);
}

// --- Result digests ------------------------------------------------------

std::string result_digest(experiment::RunResult result) {
  result.peak_queue_depth = 0;
  std::string bytes;
  campaign::serialize_run_result(result, &bytes);
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- Per-unit report -----------------------------------------------------

constexpr const char* kEventGroups[] = {"poll", "voter", "churn", "operator", "fault", "adversary"};
constexpr uint32_t kEventGroupMasks[] = {obs::kMaskPoll,     obs::kMaskVoter, obs::kMaskChurn,
                                         obs::kMaskOperator, obs::kMaskFault, obs::kMaskAdversary};
constexpr size_t kEventGroupCount = sizeof(kEventGroupMasks) / sizeof(kEventGroupMasks[0]);

// What the traced pass sees that the combined RunResult does not carry.
struct UnitExtras {
  double wall_s = 0.0;
  uint64_t windows = 0;
  uint64_t barriers = 0;
  uint64_t parallel_windows = 0;  // windows with >= 2 active shards
  double window_exec_s = 0.0;
  double barrier_stall_s = 0.0;
  uint64_t trace_events = 0;
  uint64_t event_groups[kEventGroupCount] = {};
};

struct UnitReport {
  std::string spec;
  std::string label;
  bool ok = true;
  std::string error;
  const experiment::ScenarioConfig* config = nullptr;
  uint32_t seeds = 1;
  experiment::RunResult result;
  UnitExtras extras;
};

void write_unit(campaign::JsonWriter& w, const UnitReport& u) {
  const experiment::RunResult& r = u.result;
  const experiment::ScenarioConfig& c = *u.config;
  w.begin_object();
  w.key("spec").value(u.spec);
  w.key("label").value(u.label);
  w.key("ok").value(u.ok);
  w.key("error").value(u.error);
  w.key("digest").value(u.ok ? result_digest(r) : std::string());
  w.key("peers").value(static_cast<uint64_t>(c.peer_count + c.newcomer_count));
  w.key("aus").value(static_cast<uint64_t>(c.au_count));
  w.key("years").value(c.duration.to_years());
  w.key("seeds").value(static_cast<uint64_t>(u.seeds));
  w.key("afp").value(r.report.access_failure_probability);
  w.key("successful_polls").value(r.report.successful_polls);
  w.key("loyal_effort_s").value(r.report.loyal_effort_seconds);
  w.key("adversary_effort_s").value(r.report.adversary_effort_seconds);
  w.key("polls_started").value(r.polls_started);
  w.key("solicitations_sent").value(r.solicitations_sent);
  w.key("messages_delivered").value(r.messages_delivered);
  w.key("messages_filtered").value(r.messages_filtered);
  w.key("adversary_invitations").value(r.adversary_invitations);
  w.key("adversary_admissions").value(r.adversary_admissions);
  w.key("admission_verdicts").begin_object();
  for (size_t i = 0; i < r.admission_verdicts.size(); ++i) {
    w.key(protocol::admission_verdict_name(static_cast<protocol::AdmissionVerdict>(i)))
        .value(r.admission_verdicts[i]);
  }
  w.end_object();
  w.key("events").value(r.events_processed);
  w.key("peak_queue_depth").value(r.peak_queue_depth);
  w.key("churn_departures").value(r.churn_departures);
  w.key("churn_recoveries").value(r.churn_recoveries);
  w.key("churn_arrivals").value(r.churn_arrivals);
  w.key("operator_interventions").begin_object();
  for (size_t i = 0; i < r.operator_interventions.size(); ++i) {
    w.key(dynamics::operator_action_name(static_cast<dynamics::OperatorAction>(i)))
        .value(r.operator_interventions[i]);
  }
  w.end_object();
  w.key("policy_triggers").value(r.policy_triggers);
  w.key("policy_actions").begin_object();
  for (size_t i = 0; i < r.policy_actions.size(); ++i) {
    w.key(adversary::policy_action_name(static_cast<adversary::PolicyAction>(i)))
        .value(r.policy_actions[i]);
  }
  w.end_object();
  w.key("faults_lost").value(r.faults_lost);
  w.key("faults_burst_dropped").value(r.faults_burst_dropped);
  w.key("faults_duplicated").value(r.faults_duplicated);
  w.key("faults_jittered").value(r.faults_jittered);
  w.key("ack_timeouts").value(r.ack_timeouts);
  w.key("vote_timeouts").value(r.vote_timeouts);
  w.key("solicitation_retries").value(r.solicitation_retries);
  w.key("polls_aborted").begin_object();
  for (size_t i = 0; i < r.polls_aborted.size(); ++i) {
    w.key(protocol::poll_abort_reason_name(static_cast<protocol::PollAbortReason>(i)))
        .value(r.polls_aborted[i]);
  }
  w.end_object();
  w.key("sessions_live_at_end").value(r.sessions_live_at_end);
  w.key("stale_sessions_at_end").value(r.stale_sessions_at_end);
  w.key("reservations_beyond_horizon").value(r.reservations_beyond_horizon);
  w.key("setup_s").value(r.profile.setup_ms / 1000.0);
  w.key("run_s").value(r.profile.run_ms / 1000.0);
  w.key("harvest_s").value(r.profile.harvest_ms / 1000.0);
  w.key("unit_s").value(u.extras.wall_s > 0.0 ? u.extras.wall_s : r.profile.total_ms / 1000.0);
  const UnitExtras& x = u.extras;
  w.key("windows").value(x.windows);
  w.key("barriers").value(x.barriers);
  w.key("parallel_windows").value(x.parallel_windows);
  w.key("window_exec_s").value(x.window_exec_s);
  w.key("barrier_stall_s").value(x.barrier_stall_s);
  w.key("trace_events").value(x.trace_events);
  w.key("event_groups").begin_object();
  for (size_t g = 0; g < kEventGroupCount; ++g) {
    w.key(kEventGroups[g]).value(x.event_groups[g]);
  }
  w.end_object();
  w.end_object();
}

// --- Campaign passes ------------------------------------------------------

struct LoadedSpec {
  campaign::CompiledCampaign compiled;
  campaign::CampaignOutcome outcome;
};

struct PassTimes {
  double load_spec_s = 0.0;
  double compile_s = 0.0;
  double render_manifest_s = 0.0;
  double journal_read_s = 0.0;
  uint64_t journal_bytes = 0;
};

bool load_and_compile(const std::string& path, SpanLog* spans, int64_t parent, PassTimes* times,
                      campaign::CompiledCampaign* out, std::string* error) {
  campaign::Spec spec;
  const double t0 = now_s();
  {
    ScopedSpan span(spans, "campaign.load_spec_file", parent);
    if (!campaign::load_spec_file(path, &spec, error)) {
      return false;
    }
  }
  const double t1 = now_s();
  {
    ScopedSpan span(spans, "campaign.compile_campaign", parent);
    if (!campaign::compile_campaign(spec, out, error)) {
      return false;
    }
  }
  times->load_spec_s += t1 - t0;
  times->compile_s += now_s() - t1;
  return true;
}

void collect_units(const LoadedSpec& s, std::vector<UnitReport>* units) {
  const campaign::Spec& spec = s.compiled.spec;
  if (spec.baseline) {
    const campaign::UnitStatus& st = s.outcome.baseline_status;
    units->push_back(UnitReport{spec.name, "baseline", st.ok, st.error, &s.compiled.base,
                                spec.seeds, s.outcome.baseline, {}});
  }
  for (size_t k = 0; k < s.compiled.cells.size(); ++k) {
    const campaign::UnitStatus& st = s.outcome.cell_status[k];
    units->push_back(UnitReport{spec.name, s.compiled.cells[k].label, st.ok, st.error,
                                &s.compiled.cells[k].config, spec.seeds, s.outcome.cells[k],
                                {}});
  }
}

// Runs one unit's seeds through run_scenario with tracing on, the way
// campaign::run_campaign's unit executor does with tracing off.
experiment::RunResult run_traced_unit(const experiment::ScenarioConfig& config, uint32_t seeds,
                                      SpanLog* spans, int64_t parent, UnitExtras* extras) {
  const double unit_start = now_s();
  ScopedSpan unit_span(spans, "experiment.unit", parent);
  std::vector<experiment::RunResult> parts;
  for (uint32_t s = 0; s < seeds; ++s) {
    experiment::ScenarioConfig c = config;
    c.seed = config.seed + s;
    c.obs_trace.enabled = true;
    c.obs_profile = true;
    const double start = now_s();
    experiment::RunResult r;
    {
      ScopedSpan run_span(spans, "experiment.run_scenario", unit_span.id());
      r = experiment::run_scenario(c);
      // RunProfile's phase timers, laid end to end from the call's start:
      // the only view inside run_scenario that needs no instrumentation.
      const obs::RunProfile& p = r.profile;
      const double setup_end = start + p.setup_ms / 1000.0;
      const double run_end = setup_end + p.run_ms / 1000.0;
      spans->add("sim.setup", start, setup_end, run_span.id());
      spans->add("sim.run", setup_end, run_end, run_span.id());
      spans->add("sim.harvest", run_end, run_end + p.harvest_ms / 1000.0, run_span.id());
    }
    const obs::EngineProfile& e = r.profile.engine;
    extras->windows += e.windows;
    extras->barriers += e.barriers;
    for (size_t b = 2; b < obs::EngineProfile::kOccupancyBuckets; ++b) {
      extras->parallel_windows += e.occupancy[b];
    }
    extras->window_exec_s += e.window_exec_seconds;
    extras->barrier_stall_s += e.barrier_stall_seconds;
    extras->trace_events += r.obs_events.events.size();
    for (const obs::Event& ev : r.obs_events.events) {
      const uint32_t bit = obs::kind_bit(ev.kind);
      for (size_t g = 0; g < kEventGroupCount; ++g) {
        if ((kEventGroupMasks[g] & bit) != 0) {
          ++extras->event_groups[g];
        }
      }
    }
    r.obs_events = obs::EventTrace{};
    parts.push_back(std::move(r));
  }
  experiment::RunResult combined;
  {
    ScopedSpan span(spans, "experiment.combine_results", unit_span.id());
    combined = experiment::combine_results(parts);
  }
  for (const experiment::RunResult& part : parts) {
    combined.profile.enabled = true;
    combined.profile.setup_ms += part.profile.setup_ms;
    combined.profile.run_ms += part.profile.run_ms;
    combined.profile.harvest_ms += part.profile.harvest_ms;
    combined.profile.total_ms += part.profile.total_ms;
  }
  extras->wall_s = now_s() - unit_start;
  return combined;
}

struct Args {
  std::string mode;
  std::vector<std::string> specs;
  unsigned workers = 1;
  uint32_t shards = 1;
  std::string out_dir;
  std::string report;
  std::string journal_dir;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench_driver: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--mode") {
      args->mode = value;
    } else if (flag == "--spec") {
      args->specs.push_back(value);
    } else if (flag == "--workers") {
      args->workers = static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--shards") {
      args->shards = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--report") {
      args->report = value;
    } else if (flag == "--journal-dir") {
      args->journal_dir = value;
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if ((args->mode != "untraced" && args->mode != "traced") || args->specs.empty() ||
      args->workers == 0 || args->shards == 0 || args->out_dir.empty() || args->report.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --mode untraced|traced --spec FILE... --workers N "
                 "--shards N --out DIR --report FILE [--journal-dir DIR]\n");
    return false;
  }
  return true;
}

// End-to-end pass: the path a researcher runs, tracing off.
bool untraced_pass(const Args& args, std::vector<LoadedSpec>* loaded, PassTimes* times,
                   std::string* error) {
  for (const std::string& path : args.specs) {
    LoadedSpec& s = loaded->emplace_back();
    if (!load_and_compile(path, nullptr, -1, times, &s.compiled, error)) {
      return false;
    }
    campaign::RunOptions options;
    options.out_dir = args.out_dir + "/" + s.compiled.spec.name;
    options.quiet = true;
    if (!campaign::run_campaign(s.compiled, options, &s.outcome, error)) {
      return false;
    }
  }
  return true;
}

// Per-layer pass: each unit's seeds through run_scenario with tracing on.
bool traced_pass(const Args& args, SpanLog* spans, int64_t root, std::vector<LoadedSpec>* loaded,
                 std::vector<UnitExtras>* extras, PassTimes* times, std::string* error) {
  for (const std::string& path : args.specs) {
    LoadedSpec& s = loaded->emplace_back();
    if (!load_and_compile(path, spans, root, times, &s.compiled, error)) {
      return false;
    }
    const campaign::Spec& spec = s.compiled.spec;
    if (spec.layers > 0) {
      *error = path + ": the traced pass does not drive layered specs";
      return false;
    }
    std::vector<const experiment::ScenarioConfig*> configs;
    if (spec.baseline) {
      configs.push_back(&s.compiled.base);
    }
    for (const campaign::CompiledCell& cell : s.compiled.cells) {
      configs.push_back(&cell.config);
    }
    const size_t first = extras->size();
    extras->resize(first + configs.size());
    std::vector<experiment::JobOutcome> jobs;
    {
      ScopedSpan span(spans, "experiment.parallel_runner", root);
      const int64_t runner_span = span.id();
      jobs = experiment::ParallelRunner(args.workers)
                 .run_protected(
                     configs.size(),
                     [&](size_t i, uint32_t) {
                       return run_traced_unit(*configs[i], spec.seeds, spans, runner_span,
                                              &(*extras)[first + i]);
                     },
                     1);
    }
    // Same outcome shape run_campaign produces, for render_manifest.
    campaign::CampaignOutcome& outcome = s.outcome;
    outcome.cells.resize(s.compiled.cells.size());
    outcome.cell_status.resize(s.compiled.cells.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      const bool is_baseline = spec.baseline && i == 0;
      campaign::UnitStatus status;
      status.ok = jobs[i].ok;
      status.attempts = jobs[i].attempts;
      status.error = jobs[i].error;
      if (!jobs[i].ok) {
        ++outcome.units_failed;
      }
      if (is_baseline) {
        outcome.baseline = std::move(jobs[i].result);
        outcome.baseline_status = status;
      } else {
        const size_t k = i - (spec.baseline ? 1 : 0);
        outcome.cells[k] = std::move(jobs[i].result);
        outcome.cell_status[k] = status;
      }
    }
    {
      const double t0 = now_s();
      ScopedSpan span(spans, "campaign.render_manifest", root);
      const std::string manifest = campaign::render_manifest(s.compiled, outcome);
      times->render_manifest_s += now_s() - t0;
      if (manifest.empty()) {
        *error = path + ": empty manifest";
        return false;
      }
    }
    if (!args.journal_dir.empty()) {
      const double t0 = now_s();
      ScopedSpan span(spans, "campaign.read_journal", root);
      campaign::JournalContents contents;
      if (!campaign::read_journal(args.journal_dir + "/" + spec.name + "/" + spec.name +
                                      ".journal",
                                  &contents, error)) {
        return false;
      }
      times->journal_read_s += now_s() - t0;
      times->journal_bytes += contents.valid_bytes;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    return 2;
  }
  experiment::ParallelRunner::set_default_workers(args.workers);
  experiment::set_default_shards(args.shards);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  const bool traced = args.mode == "traced";
  SpanLog spans;
  std::vector<LoadedSpec> loaded;
  std::vector<UnitExtras> extras;
  PassTimes times;
  std::string error;
  const double start = now_s();
  bool ok = false;
  if (traced) {
    ScopedSpan root(&spans, "bench.traced_pass", -1);
    ok = traced_pass(args, &spans, root.id(), &loaded, &extras, &times, &error);
  } else {
    ok = untraced_pass(args, &loaded, &times, &error);
  }
  const double wall = now_s() - start;
  const double cpu = cpu_s();
  const uint64_t hwm_kb = obs::vm_hwm_kb();
  if (!ok) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.c_str());
    return 1;
  }

  std::vector<UnitReport> units;
  for (const LoadedSpec& s : loaded) {
    collect_units(s, &units);
  }
  for (size_t i = 0; i < extras.size(); ++i) {
    units[i].extras = extras[i];
  }

  campaign::JsonWriter w;
  w.begin_object();
  w.key("mode").value(args.mode);
  w.key("workers").value(static_cast<uint64_t>(args.workers));
  w.key("shards").value(static_cast<uint64_t>(args.shards));
  w.key("wall_s").value(wall);
  w.key("cpu_s").value(cpu);
  w.key("peak_rss_kb").value(hwm_kb);
  w.key("load_spec_s").value(times.load_spec_s);
  w.key("compile_s").value(times.compile_s);
  w.key("render_manifest_s").value(times.render_manifest_s);
  w.key("journal_read_s").value(times.journal_read_s);
  w.key("journal_bytes").value(times.journal_bytes);
  w.key("spans").begin_object();
  if (traced) {
    for (const auto& [name, t] : span_totals(spans.spans())) {
      w.key(name).begin_object();
      w.key("count").value(t.count);
      w.key("total_s").value(t.total_s);
      w.key("self_s").value(t.self_s);
      w.end_object();
    }
  }
  w.end_object();
  w.key("units").begin_array();
  for (const UnitReport& u : units) {
    write_unit(w, u);
  }
  w.end_array();
  w.end_object();

  if (traced && !write_spans_csv(args.out_dir + "/spans.csv", spans.spans())) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s/spans.csv\n", args.out_dir.c_str());
    return 1;
  }
  std::ofstream report(args.report);
  report << w.take() << "\n";
  if (!report) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", args.report.c_str());
    return 1;
  }
  return 0;
}
