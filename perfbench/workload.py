"""One benchmark workload, measured in its own process.

Each repetition is the campaign path a user runs: expand the spec, execute
it serially as two shards back to back (``workers=1``, failures quarantined
rather than fatal), store every record, merge the shard segments, and
report the merged store with ``streaming_campaign_table``.  Each run starts
when the previous one finishes (a closed loop with one client).

The process prints :data:`READY` on stdout when its first campaign run
starts, so the caller can time set-up from process start.  With ``--probe``
it exits there.  Otherwise it runs :data:`REPS` repetitions (with
``--trace``, the last two under the layer tracer) and prints one JSON line
of raw measurements.  ``perfbench/run.py`` turns those into metrics.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/workload.py --workload pca_cohort --seed 20101 \\
        --seconds 20 --out perfbench/out [--trace] [--probe]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import repro.campaign as campaign
from repro.campaign import (
    CampaignSpec,
    ResilienceConfig,
    ResultStore,
    RetryPolicy,
    ShardSelector,
    get_scenario,
    register_scenario,
    run_campaign,
)
from repro.scenarios.ward import DEFAULT_TOPOLOGY
from repro.topology.spec import standard_hospital

import hostspeed
from layers import ROOT, Tracer

READY = "perfbench-ready"
REPS = 3
SHARDS = 2
#: Quarantine a failing run on its first failure (no retries): it counts as
#: failed instead of aborting the campaign.
RESILIENCE = ResilienceConfig(retry=RetryPolicy(max_attempts=1))

_GRID = {"mode": ["open_loop", "closed_loop"], "faults": ["none", "standard+outage"]}
_WARD = DEFAULT_TOPOLOGY["wards"][0]
_HOSPITAL = standard_hospital(
    "bench-hospital", wards=2, beds_per_ward=10,
    device_mix=_WARD["device_mix"], cohort=_WARD["cohort"],
    staffing=_WARD["staffing"], faults=_WARD["faults"],
).as_dict()


def _check_pca(result: Dict[str, Any]) -> List[str]:
    problems = []
    spo2 = result.get("min_spo2")
    if not (isinstance(spo2, (int, float)) and 0.0 <= spo2 <= 100.0):
        problems.append(f"min_spo2 {spo2!r} outside [0, 100]")
    for key in ("total_drug_delivered_mg", "max_plasma_concentration"):
        value = result.get(key)
        if not (isinstance(value, (int, float)) and value >= 0.0):
            problems.append(f"{key} {value!r} is negative or missing")
    return problems


def _check_ward(result: Dict[str, Any]) -> List[str]:
    injected, planned = result.get("faults_injected"), result.get("faults_planned")
    if not (isinstance(injected, int) and isinstance(planned, int) and injected <= planned):
        return [f"faults_injected {injected!r} exceeds faults_planned {planned!r}"]
    return []


#: name -> scenario, swept/fixed parameters, sizing cost (wall seconds per
#: run on a 2-CPU x86 box), report columns, and the per-record check.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "pca_cohort": {
        "scenario": "pca",
        "parameters": {**_GRID, "duration_s": 3.0 * 3600.0},
        "run_cost_s": 0.6,
        "report": ["harmed", "min_spo2", "total_drug_delivered_mg", "supervisor_stops"],
        "check": _check_pca,
    },
    "ward_hospital": {
        "scenario": "ward",
        "parameters": {"topology": _HOSPITAL, "security_posture": ["open", "allowlisted"],
                       "duration_s": 1800.0},
        "run_cost_s": 1.3,
        "report": ["alarms_total", "faults_injected", "attacks_succeeded",
                   "messages_forwarded"],
        "check": _check_ward,
    },
    "campaign_churn": {
        "scenario": "pca",
        "parameters": {**_GRID, "duration_s": 5.0},
        "run_cost_s": 0.0018,
        "report": ["harmed", "min_spo2", "total_drug_delivered_mg", "supervisor_stops"],
        "check": _check_pca,
    },
}


def campaign_spec(name: str, seed: int, seconds: float) -> CampaignSpec:
    """The workload's campaign, its cohort sized so one repetition fills
    ``seconds / REPS`` at the workload's nominal per-run cost."""
    workload = WORKLOADS[name]
    parameters = workload["parameters"]
    grid = 1
    for value in parameters.values():
        if isinstance(value, list):
            grid *= len(value)
    cohort = max(1, round(seconds / REPS / (workload["run_cost_s"] * grid)))
    return CampaignSpec(name=name, scenario=workload["scenario"],
                        parameters=dict(parameters), cohort_size=cohort,
                        base_seed=seed)


class RunTimer:
    """Per-run wall times of one repetition, from runner start to stored
    record, and host speed probes taken between runs."""

    def __init__(self, probe_host: bool) -> None:
        self.probe_host = probe_host
        self.first_start: Optional[float] = None
        self.run_walls: List[float] = []
        self.runner_wall_s = 0.0
        self.sim_s = 0.0
        self.host_probes: List[float] = []
        #: Time spent probing after the first run started (not campaign time).
        self.probe_s = 0.0
        self._last_probe = float("-inf")
        self._started = 0.0

    def between_runs(self) -> None:
        began = perf_counter()
        if not self.probe_host or began - self._last_probe < hostspeed.EVERY_S:
            return
        self.host_probes.append(hostspeed.probe())
        self._last_probe = perf_counter()
        if self.first_start is not None:
            self.probe_s += self._last_probe - began

    def progress(self, done: int, total: int, record: Dict[str, Any]) -> None:
        self.run_walls.append(perf_counter() - self._started)


class Session:
    """The process's one scenario-runner wrapper: READY signal and timing."""

    def __init__(self, scenario: str, probe: bool) -> None:
        self.probe = probe
        self.ready = False
        self.timer = RunTimer(probe_host=False)
        spec = get_scenario(scenario)
        self.original = self.inner = spec.runner
        register_scenario(replace(spec, runner=self._timed))

    def _timed(self, params: Dict[str, Any], seed: int) -> Dict[str, Any]:
        timer = self.timer
        if not self.ready:
            self.ready = True
            print(READY, flush=True)
            if self.probe:
                # Passes through the engine (it re-raises SystemExit), which
                # closes its store; main() then removes the work directory.
                raise SystemExit(0)
        timer.between_runs()
        started = perf_counter()
        if timer.first_start is None:
            timer.first_start = started
        timer._started = started
        try:
            return self.inner(params, seed)
        finally:
            timer.runner_wall_s += perf_counter() - started
            timer.sim_s += float(params["duration_s"])


def execute(session: Session, spec: CampaignSpec, directory: Path,
            probe_host: bool) -> Dict[str, Any]:
    """One repetition's timed path: shards -> store -> merge -> report."""
    shutil.rmtree(directory, ignore_errors=True)
    timer = session.timer = RunTimer(probe_host)
    began = perf_counter()
    segments, reports = [], []
    for index in range(1, SHARDS + 1):
        segment = directory / f"shard-{index}"
        reports.append(run_campaign(
            spec, directory=segment, shard=ShardSelector(index, SHARDS),
            resilience=RESILIENCE, progress=timer.progress))
        segments.append(segment)
    merged = directory / "merged"
    merge = ResultStore(merged).merge(segments, allow_partial=True)
    # Called through the package, where the tracer's wrapper is installed.
    table = campaign.streaming_campaign_table(
        ResultStore(merged).iter_records(), group_by=spec.sweep_axes(),
        metrics=WORKLOADS[spec.name]["report"], title=spec.name)
    done = perf_counter()
    return {"timer": timer, "reports": reports, "merge": merge, "table": table,
            "pipeline_s": done - began, "window_s": done - timer.first_start}


def verify(spec: CampaignSpec, outcome: Dict[str, Any]) -> Dict[str, Any]:
    """Output checks of one repetition, outside the timed path."""
    reports, merge, timer = outcome["reports"], outcome["merge"], outcome["timer"]
    problems: List[str] = []
    failed = set()
    for report in reports:
        for error in report.errors:
            failed.add(error["run_index"])
            message = error["error"].get("message", "").strip().splitlines() or [""]
            problems.append(f"run {error['run_id']} quarantined: {message[-1][:200]}")
    ok = sum(report.ok for report in reports)
    if merge.records != ok:
        problems.append(f"merge holds {merge.records} records, shards stored {ok}")
    for info in merge.segments:
        if info.records != reports[info.index - 1].ok:
            problems.append(f"merge read {info.records} records of shard "
                            f"{info.index}, which stored {reports[info.index - 1].ok}")
    if sorted(merge.missing) != sorted(failed):
        problems.append(f"merge is missing runs {merge.missing[:8]}")
    check: Callable = WORKLOADS[spec.name]["check"]
    results_path = merge.directory / "results.jsonl"
    for record in ResultStore(merge.directory).iter_records():
        found = check(record["result"])
        if found:
            failed.add(record["run_index"])
            problems.extend(f"run {record['run_id']}: {text}" for text in found)
    groups = 1
    for axis in spec.sweep_axes():
        groups *= len(spec.parameters[axis])
    if len(outcome["table"].rows) != groups:
        problems.append(f"report has {len(outcome['table'].rows)} rows, "
                        f"expected {groups}")
    return {
        "attempted": spec.grid_size(),
        "failed": len(failed),
        "problems": problems[:20],
        "pipeline_s": outcome["pipeline_s"],
        "window_s": outcome["window_s"],
        "runner_wall_s": timer.runner_wall_s,
        "host_probes_s": timer.host_probes,
        "probe_s": timer.probe_s,
        "sim_s": timer.sim_s,
        "run_walls_s": timer.run_walls,
        "digest": merge.merged_sha256,
        "results_bytes": results_path.stat().st_size,
        "records": merge.records,
    }


def traced_rep(session: Session, tracer: Tracer, spec: CampaignSpec,
               directory: Path) -> Dict[str, Any]:
    """One repetition under the tracer: spans folded into layer totals."""
    tracer.reset()
    root = tracer.open(tracer.name_id("pipeline", ROOT))
    outcome = execute(session, spec, directory, probe_host=False)
    tracer.close(root)
    wall = tracer.end[root] - tracer.start[root]
    tracer.finish()
    rep = verify(spec, outcome)
    buckets = tracer.bucket_self_time()
    rep.update({
        "traced_wall_s": wall,
        "buckets_s": buckets,
        "calls": dict(sorted(tracer.calls.items())),
        "counts": dict(sorted(tracer.counts.items())),
        "missing_boundaries": list(tracer.missing),
    })
    if abs(sum(buckets.values()) - wall) > 1e-6 * wall:
        rep["problems"].append(
            f"layer self times sum to {sum(buckets.values())!r}, traced wall is {wall!r}")
    return rep


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true",
                        help="exit as soon as the first campaign run starts")
    args = parser.parse_args(argv)

    spec = campaign_spec(args.workload, args.seed, args.seconds)
    session = Session(spec.scenario, probe=args.probe)
    work = args.out / "work" / f"{args.workload}-{os.getpid()}"
    try:
        if not args.trace:
            reps = [verify(spec, execute(session, spec, work, probe_host=True))
                    for _ in range(REPS)]
            payload: Dict[str, Any] = {"reps": reps}
        else:
            # Traced runs are not probed: a probe inside a run's span would
            # be billed to the campaign engine.
            untraced = verify(spec, execute(session, spec, work, probe_host=False))
            tracer = Tracer()
            tracer.install()
            session.inner = tracer.wrap(
                session.original, tracer.name_id(f"scenarios.{spec.scenario}", "scenarios"))
            traced = [traced_rep(session, tracer, spec, work) for _ in range(REPS - 1)]
            spans_path = args.out / f"{args.workload}-seed{args.seed}-spans.jsonl"
            with open(spans_path, "w", encoding="utf-8") as handle:
                for span in tracer.kept_spans():
                    handle.write(json.dumps(span) + "\n")
            payload = {"reps": [untraced] + traced, "spans_path": str(spans_path)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload["cohort_size"] = spec.cohort_size
    payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
