#!/usr/bin/env python3
"""Benchmark of the LOCKSS attrition-defenses reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds perfbench_driver (the
simulator core from src/ plus perfbench/driver.cpp) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), generates the
workload's campaign specs from --seed, and runs them in child processes,
one repetition per child, each under a deadline (the hang watchdog). It
repeats until --seconds of measuring have passed and reports medians over
the repetitions.

--trace 0 prints the end-to-end metrics, measured with event tracing off.
--trace 1 runs a shorter untraced pass, then a traced pass (and, on the
sharded workload, a serial pass) and prints the per-layer metrics.

Every repetition's per-unit result digests go through the correctness gate
(gate_errors below). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 1 when the
gate fails and 2 when the benchmark cannot run at all (no result printed).
perfbench/README.md defines every metric and explains the workloads.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# The whole invocation, build excluded, must end well within 180 s.
DEADLINE_S = 165.0
# One repetition that runs longer than this is a hang: killed, counted failed.
REP_TIMEOUT_S = 60.0

WORKLOADS = ("large_deployment", "hostile_dynamics")


def cores():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(4, n))


# --- Workload generation ----------------------------------------------------
# Each generator returns (specs, workers, shards). The seed only picks the
# deployment RNG seed: sizes stay fixed, so cost varies little across seeds.


def deployment_seed(seed, salt):
    return (seed * 1000003 + salt) % 2147483647 + 1


def large_deployment(seed, tiny):
    """One static, adversary-free deployment, sharded.

    Two shards, not one per core: with three or more the sharded engine
    hangs or aborts intermittently (see README.md, "Findings")."""
    peers, aus, days = (64, 2, 20) if tiny else (1000, 2, 100)
    spec = {
        "name": "large_deployment",
        "description": "One large static deployment, no adversary",
        "deployment": {"peers": peers, "aus": aus, "duration_years": days / 365.0,
                       "seed": deployment_seed(seed, 7), "seeds": 1},
        "damage": {"mean_disk_years_between_failures": 0.6, "aus_per_disk": float(aus)},
        "baseline": False,
        "observability": {"profile": True},
    }
    return [spec], 1, min(2, cores())


def hostile_dynamics(seed, tiny):
    """Strategy tournament over churn and lossy, bursty links."""
    peers, aus, years, seeds = (12, 2, 0.2, 2) if tiny else (16, 3, 0.4, 16)
    days = 365.0 * years
    spec = {
        "name": "hostile_dynamics",
        "description": "Adaptive adversaries vs operator playbooks over churn and lossy links",
        "deployment": {"peers": peers, "aus": aus, "duration_years": years,
                       "seed": deployment_seed(seed, 11), "seeds": seeds},
        "damage": {"mean_disk_years_between_failures": 0.2, "aus_per_disk": float(aus)},
        "dynamics": {"leave_rate_per_peer_year": 1.5, "crash_rate_per_peer_year": 0.5,
                     "mean_downtime_days": 10},
        "network_faults": {"loss_rate": 0.05, "dup_rate": 0.01, "jitter_ms": 20.0,
                           "burst_outage_rate": 0.05, "burst_cycle_days": 1.0},
        "observability": {"profile": True},
        "adversary": [
            {"kind": "pipe_stoppage", "attack_days": 25, "recuperation_days": 20,
             "coverage_percent": 60, "start_days": round(0.1 * days),
             "stop_days": round(0.9 * days)},
            {"kind": "brute_force", "defection": "REMAINING"},
        ],
        # How long the opportunist spends in outage windows varies from seed
        # to seed, and so does its cost. Sixteen seeds per unit and a
        # threshold low enough that every seed sees many windows keep the
        # workload's cost close to the same from one --seed to the next. The
        # 0.4 simulated years let the 3-month polls conclude, time out and
        # abort inside the run.
        "adversary_policy": {"reaction_latency_hours": 6, "cooldown_days": 3,
                             "outage_threshold": 0.12},
        "tournament": {
            "adversary_strategies": [
                {"name": "static", "policies": []},
                {"name": "opportunist", "policies": [
                    {"trigger": "outage", "action": "switch_phase", "phase": 1},
                    {"trigger": "recovery", "action": "switch_phase", "phase": 0},
                    {"trigger": "alarm", "action": "throttle", "phase": 0, "factor": 0.5},
                ]},
            ],
            "operator_strategies": [
                {"name": "handsoff"},
                {"name": "vigilant", "detection_latency_days": 1, "policies": [
                    {"trigger": "alarm", "action": "au_recrawl"},
                    {"trigger": "alarm", "action": "rate_tighten", "factor": 0.5},
                    {"trigger": "recovery", "action": "rekey"},
                ]},
            ],
        },
    }
    return [spec], cores(), 1


GENERATORS = {
    "large_deployment": large_deployment,
    "hostile_dynamics": hostile_dynamics,
}


def unit_count(spec):
    cells = 1
    if "tournament" in spec:
        t = spec["tournament"]
        cells = len(t["adversary_strategies"]) * len(t["operator_strategies"])
    return cells + (1 if spec.get("baseline", True) else 0)


# --- Build and child processes -----------------------------------------------


def build(build_dir):
    """Configures (once) and builds perfbench_driver; returns its path or None."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", str(cores())])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(step))
                return None
    return os.path.join(build_dir, "perfbench_driver")


class Child:
    """One driver invocation in its own process group, killed on overrun."""

    def __init__(self, cmd):
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     start_new_session=True)

    def wait(self, timeout):
        try:
            _, err = self.proc.communicate(timeout=timeout)
            return self.proc.returncode, err.decode(errors="replace")
        except subprocess.TimeoutExpired:
            self.kill()
            return None, "killed by the watchdog after %.0f s" % timeout
        except BaseException:
            self.kill()
            raise

    def kill(self):
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.communicate()


class Runner:
    def __init__(self, driver, work_dir, spec_paths, units_per_rep, workers, deadline):
        self.driver = driver
        self.work_dir = work_dir
        self.spec_paths = spec_paths
        self.units_per_rep = units_per_rep
        self.workers = workers
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reps = 0

    def rep(self, mode, shards, journal_dir=None):
        """Runs one repetition; returns (report, out_dir) or (None, None)."""
        self.reps += 1
        out_dir = os.path.join(self.work_dir, "%s-s%d-r%d" % (mode, shards, self.reps))
        report_path = out_dir + ".json"
        cmd = [self.driver, "--mode", mode, "--workers", str(self.workers),
               "--shards", str(shards), "--out", out_dir, "--report", report_path]
        for path in self.spec_paths:
            cmd += ["--spec", path]
        if journal_dir:
            cmd += ["--journal-dir", journal_dir]
        timeout = max(1.0, min(REP_TIMEOUT_S, self.deadline - time.monotonic()))
        self.attempted += self.units_per_rep
        code, err = Child(cmd).wait(timeout)
        if code != 0:
            self.failed += self.units_per_rep
            self.errors.append("%s rep %d: %s" % (mode, self.reps,
                                                   err.strip()[-500:] or "exit %s" % code))
            return None, None
        with open(report_path) as f:
            report = json.load(f)
        self.failed += sum(1 for u in report["units"] if not u["ok"])
        return report, out_dir

    def measure(self, mode, shards, budget_s, min_reps, journal_dir=None):
        """Repeats until budget_s has passed (at least min_reps attempts)."""
        reports, dirs = [], []
        start = time.monotonic()
        attempts = 0
        while attempts < min_reps or time.monotonic() - start < budget_s:
            if time.monotonic() >= self.deadline - 1.0:
                break
            attempts += 1
            report, out_dir = self.rep(mode, shards, journal_dir)
            if report is not None:
                reports.append(report)
                dirs.append(out_dir)
        return reports, dirs


# --- Correctness gate ---------------------------------------------------------


def digests(report):
    return {"%s/%s" % (u["spec"], u["label"]): u["digest"] for u in report["units"]}


def combined_digest(unit_digests):
    text = "".join("%s=%s\n" % kv for kv in sorted(unit_digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def gate_errors(passes):
    """passes: [(name, [report, ...]), ...]. Every report of every pass must
    carry the same per-unit digests as the first report of the first pass,
    and every unit must be ok, with AFP in [0, 1] and no stale session or
    reservation past the horizon."""
    errors = []
    reference = None
    for name, reports in passes:
        for i, report in enumerate(reports):
            for u in report["units"]:
                where = "%s rep %d %s/%s" % (name, i + 1, u["spec"], u["label"])
                if not u["ok"]:
                    errors.append("%s: unit failed: %s" % (where, u["error"]))
                    continue
                if not 0.0 <= u["afp"] <= 1.0:
                    errors.append("%s: access failure probability %r outside [0, 1]"
                                  % (where, u["afp"]))
                for key in ("stale_sessions_at_end", "reservations_beyond_horizon"):
                    if u[key] != 0:
                        errors.append("%s: %s = %d" % (where, key, u[key]))
            d = digests(report)
            if reference is None:
                reference = (name, d)
            elif d != reference[1]:
                diff = sorted(k for k in set(d) | set(reference[1])
                              if d.get(k) != reference[1].get(k))
                errors.append("%s rep %d: result digest differs from %s for %s"
                              % (name, i + 1, reference[0], ", ".join(diff)))
    return errors


# --- Metrics ---------------------------------------------------------------------


def median(values):
    return statistics.median(list(values))


def setup_s(report):
    return report["load_spec_s"] + report["compile_s"] + sum(u["setup_s"] for u in report["units"])


def end_to_end(untraced, attempted, failed):
    return {
        "wall_s": (median(r["wall_s"] for r in untraced), "s"),
        "cpu_s": (median(r["cpu_s"] for r in untraced), "s"),
        "setup_s": (median(setup_s(r) for r in untraced), "s"),
        "peak_rss_mb": (median(r["peak_rss_kb"] / 1024.0 for r in untraced), "MB"),
        "completed_share": (1.0 - failed / attempted if attempted else 0.0, "share"),
    }


SPANS = ("bench.traced_pass", "campaign.load_spec_file", "campaign.compile_campaign",
         "experiment.parallel_runner", "experiment.unit", "experiment.run_scenario",
         "experiment.combine_results", "sim.setup", "sim.run", "sim.harvest",
         "campaign.render_manifest", "campaign.read_journal")


def per_layer(traced, untraced, serial):
    units = traced[0]["units"]

    def total(key):
        return sum(u[key] for u in units)

    def host(f):
        return median(f(r) for r in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    run_s = lambda r: sum(u["run_s"] for u in r["units"])
    unit_s = lambda r: [u["unit_s"] for u in r["units"]]
    events, windows = total("events"), total("windows")
    successful = total("successful_polls")
    m = {
        "campaign.load_spec_s": (host(lambda r: r["load_spec_s"]), "s"),
        "campaign.compile_s": (host(lambda r: r["compile_s"]), "s"),
        "campaign.render_manifest_s": (host(lambda r: r["render_manifest_s"]), "s"),
        "campaign.journal_read_s": (host(lambda r: r["journal_read_s"]), "s"),
        "campaign.units": (len(units), "count"),
        "campaign.journal_bytes": (traced[0]["journal_bytes"], "bytes"),
        "experiment.unit_s.p50": (host(lambda r: median(unit_s(r))), "s"),
        "experiment.unit_s.max": (host(lambda r: max(unit_s(r))), "s"),
        "experiment.worker_utilization": (
            host(lambda r: sum(unit_s(r)) / (r["wall_s"] * r["workers"])), "ratio"),
        "experiment.setup_s": (host(lambda r: sum(u["setup_s"] for u in r["units"])), "s"),
        "experiment.run_s": (host(run_s), "s"),
        "experiment.harvest_s": (host(lambda r: sum(u["harvest_s"] for u in r["units"])), "s"),
        "experiment.peer_au_years_per_s": (
            host(lambda r: sum(u["peers"] * u["aus"] * u["years"] * u["seeds"]
                               for u in r["units"]) / r["wall_s"]), "peer-au-y/s"),
        "sim.events": (events, "count"),
        "sim.peak_queue_depth": (max(u["peak_queue_depth"] for u in units), "count"),
        "sim.windows": (windows, "count"),
        "sim.barriers": (total("barriers"), "count"),
        "sim.events_per_window": (ratio(events, windows), "ratio"),
        "sim.parallel_window_share": (ratio(total("parallel_windows"), windows), "ratio"),
        "sim.window_exec_s": (host(lambda r: sum(u["window_exec_s"] for u in r["units"])), "s"),
        "sim.barrier_stall_s": (
            host(lambda r: sum(u["barrier_stall_s"] for u in r["units"])), "s"),
        "sim.ns_per_event": (host(lambda r: ratio(run_s(r), events) * 1e9), "ns"),
        "sim.shard_speedup": (
            ratio(median(run_s(r) for r in serial), median(run_s(r) for r in untraced))
            if serial else 1.0, "x"),
        "net.messages_delivered": (total("messages_delivered"), "count"),
        "net.messages_filtered": (total("messages_filtered"), "count"),
        "net.faults_lost": (total("faults_lost"), "count"),
        "net.faults_burst_dropped": (total("faults_burst_dropped"), "count"),
        "net.faults_duplicated": (total("faults_duplicated"), "count"),
        "net.faults_jittered": (total("faults_jittered"), "count"),
        "net.messages_per_successful_poll": (
            ratio(total("messages_delivered"), successful), "ratio"),
        "protocol.polls_started": (total("polls_started"), "count"),
        "protocol.successful_polls": (successful, "count"),
        "protocol.poll_success_ratio": (ratio(successful, total("polls_started")), "ratio"),
        "protocol.solicitations_sent": (total("solicitations_sent"), "count"),
        "protocol.solicitation_retries": (total("solicitation_retries"), "count"),
        "protocol.ack_timeouts": (total("ack_timeouts"), "count"),
        "protocol.vote_timeouts": (total("vote_timeouts"), "count"),
        "protocol.sessions_live_at_end": (total("sessions_live_at_end"), "count"),
        "protocol.stale_sessions_at_end": (total("stale_sessions_at_end"), "count"),
        "reputation.adversary_admission_ratio": (
            ratio(total("adversary_admissions"), total("adversary_invitations")), "ratio"),
        "peer.bytes_per_peer": (
            median(r["peak_rss_kb"] for r in untraced) * 1024.0
            / max(u["peers"] for u in units), "bytes"),
        "sched.reservations_beyond_horizon": (total("reservations_beyond_horizon"), "count"),
        "crypto.loyal_effort_s": (total("loyal_effort_s"), "sim-s"),
        "crypto.adversary_effort_s": (total("adversary_effort_s"), "sim-s"),
        "crypto.effort_per_successful_poll_s": (
            ratio(total("loyal_effort_s"), successful), "sim-s"),
        "adversary.invitations": (total("adversary_invitations"), "count"),
        "adversary.policy_triggers": (total("policy_triggers"), "count"),
        "dynamics.departures": (total("churn_departures"), "count"),
        "dynamics.recoveries": (total("churn_recoveries"), "count"),
        "dynamics.arrivals": (total("churn_arrivals"), "count"),
        "dynamics.operator_interventions": (
            sum(sum(u["operator_interventions"].values()) for u in units), "count"),
        "metrics.access_failure_probability": (median(u["afp"] for u in units), "probability"),
        "obs.trace_events": (total("trace_events"), "count"),
        "obs.trace_overhead": (
            median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in untraced), "x"),
    }
    for group, prefix in (("polls_aborted", "protocol.polls_aborted."),
                          ("admission_verdicts", "reputation.admission_verdicts."),
                          ("policy_actions", "adversary.policy_actions."),
                          ("event_groups", "obs.events.")):
        for name in units[0][group]:
            m[prefix + name] = (sum(u[group][name] for u in units), "count")
    for name in SPANS:
        m["span.%s.self_s" % name] = (
            host(lambda r: r["spans"].get(name, {}).get("self_s", 0.0)), "s")
    return m


# --- Main -------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every deployment (smoke tests)")
    args = ap.parse_args(argv)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    driver = build(build_dir)
    if driver is None:
        return 2
    deadline = time.monotonic() + DEADLINE_S

    work_dir = os.path.join(build_dir, "runs", "%s-trace%d-%s" % (args.workload, args.trace,
                                                                   args.scale))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    specs, workers, shards = GENERATORS[args.workload](args.seed, args.scale == "tiny")
    spec_paths = []
    for spec in specs:
        path = os.path.join(work_dir, spec["name"] + ".json")
        with open(path, "w") as f:
            json.dump(spec, f, indent=1)
        spec_paths.append(path)
    runner = Runner(driver, work_dir, spec_paths, sum(unit_count(s) for s in specs), workers,
                    deadline)
    print("# %s: seed %d, %d units per repetition, workers %d, shards %d, tracing %s"
          % (args.workload, args.seed, runner.units_per_rep, workers, shards,
             "on" if args.trace else "off"))

    seconds = max(args.seconds, 0.0)
    if args.trace == 0:
        untraced, _ = runner.measure("untraced", shards, seconds, 3)
        passes = [("untraced", untraced)]
    else:
        untraced, dirs = runner.measure("untraced", shards, seconds / 2, 2)
        passes = [("untraced", untraced)]
        serial = []
        if shards > 1:
            serial, _ = runner.measure("untraced", 1, 0.0, 1)
            passes.append(("serial", serial))
        traced, _ = runner.measure("traced", shards, seconds / 2, 1,
                                   journal_dir=dirs[0] if dirs else None)
        passes.append(("traced", traced))

    errors = gate_errors(passes)
    for name, reports in passes:
        if reports:
            d = digests(reports[0])
            print("# digest %s %s (%d units, %d reps)"
                  % (name, combined_digest(d), len(d), len(reports)))
        else:
            errors.append("%s pass: no repetition completed" % name)
    if passes[0][1]:
        for unit, digest in sorted(digests(passes[0][1][0]).items()):
            print("#   %s %s" % (digest, unit))
    for e in runner.errors:
        print("# failed run: " + e)
    for e in errors:
        print("# GATE: " + e)

    correct = not errors
    metrics = {}
    if all(reports for _, reports in passes):
        if args.trace == 0:
            metrics = end_to_end(untraced, runner.attempted, runner.failed)
        else:
            metrics = per_layer(traced, untraced, serial)
        for name, (value, unit) in metrics.items():
            print("%-44s %16.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
