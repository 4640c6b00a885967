"""Kernel hot-path benchmark: raw event dispatch plus one real scenario.

Two workloads, one trajectory file:

1. A synthetic 1M-event micro-benchmark that exercises exactly the kernel's
   hot loop — self-rescheduling callback chains (one ``heappush`` + one
   ``heappop`` per event) with a sprinkling of cancelled decoy events so the
   cancelled-head discard path is measured too.  Reported as events/s.
2. A full closed-loop PCA scenario run through the campaign registry's
   runner (the unit of work every campaign multiplies by thousands).
   Reported as runs/s.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernel_hotpath.py
    PYTHONPATH=src python benchmarks/bench_kernel_hotpath.py --quick  # CI

Emits ``BENCH_kernel.json`` (events/s, runs/s, git sha, ISO timestamp) via
the shared emitter in ``conftest.py`` — the machine-readable perf trajectory
future PRs must defend.

Regression gate (CI)::

    python benchmarks/bench_kernel_hotpath.py --quick --check-against BENCH_kernel.json

``--check-against`` compares this run against a committed baseline file and
exits non-zero on a regression beyond ``--tolerance`` (default 30%, sized
for noisy shared runners).  Because the quick workload runs a shorter PCA
scenario than the committed full baseline, the PCA comparison uses the
duration-invariant *simulated seconds per wall second* (``runs_per_s *
pca_duration_s``); events/s is workload-size-invariant already.  Each
measurement is the best of ``--best-of`` attempts (default 3 when checking)
so one scheduler hiccup cannot fail the gate.
"""

import argparse
import time

from conftest import emit_json, read_baseline

from repro.sim.kernel import Simulator

#: Concurrent self-rescheduling chains (sets the steady-state heap depth).
CHAINS = 64
#: Every DECOY_EVERY-th chain hop also schedules-then-cancels a decoy event.
DECOY_EVERY = 8


def run_synthetic(n_events: int) -> float:
    """Dispatch ``n_events`` through the hot loop; returns events/s."""
    sim = Simulator()

    def make_chain(delay: float, index: int):
        counter = [0]

        def hop() -> None:
            counter[0] += 1
            if counter[0] % DECOY_EVERY == 0:
                sim.schedule(delay * 2.0, hop).cancel()
            sim.schedule(delay, hop)

        return hop

    for i in range(CHAINS):
        delay = 0.25 + 0.01 * i
        sim.schedule(delay, make_chain(delay, i))

    started = time.perf_counter()
    sim.run(max_events=n_events)
    elapsed = time.perf_counter() - started
    assert sim.event_count == n_events
    return n_events / elapsed


def run_synthetic_baseline(n_events: int, attempts: int) -> float:
    """Best-of disabled-mode synthetic rate, forcing repro.obs off.

    Forcing keeps the headline (and gated) events/s comparable to the
    committed baseline even when the process runs under ``REPRO_OBS=1``.
    """
    from repro.obs import metrics as obs

    was_enabled = obs.enabled()
    obs.disable()
    try:
        return max(run_synthetic(n_events) for _ in range(attempts))
    finally:
        if was_enabled:
            obs.enable()


def run_synthetic_obs(n_events: int, attempts: int) -> dict:
    """Best-of enabled-mode synthetic rate plus the registry's own view.

    Returns the measured events/s, the registry-derived rate
    (``kernel.events_fired / kernel.wall_seconds_total`` — the number a
    metrics consumer would compute from a snapshot), and the peak heap
    depth the instrumented kernel observed.
    """
    from repro.obs import metrics as obs

    was_enabled = obs.enabled()
    obs.enable()
    registry = obs.registry()
    registry.reset()
    try:
        measured = max(run_synthetic(n_events) for _ in range(attempts))
    finally:
        if not was_enabled:
            obs.disable()
    fired = registry.counter("kernel.events_fired").value
    wall = registry.counter("kernel.wall_seconds_total").value
    heap_peak = registry.gauge("kernel.heap_peak", agg="max").value
    stats = {
        "events_per_s": measured,
        "registry_events_per_s": (fired / wall) if wall > 0 else 0.0,
        "events_fired": fired,
        "heap_peak": heap_peak,
    }
    registry.reset()
    return stats


def run_pca(runs: int, duration_s: float) -> tuple:
    """Execute ``runs`` seeded PCA scenario runs; returns (runs/s, elapsed)."""
    from repro.campaign.registry import get_scenario

    scenario = get_scenario("pca")
    params = scenario.resolved_params({"duration_s": duration_s})
    started = time.perf_counter()
    for seed in range(runs):
        scenario.runner(dict(params), 1000 + seed)
    elapsed = time.perf_counter() - started
    return runs / elapsed, elapsed


def check_against(baseline: dict, baseline_path: str, tolerance: float,
                  events_per_s: float, runs_per_s: float, pca_duration: float) -> int:
    """Compare this run to a committed baseline record; returns exit status.

    Metrics compared:

    * ``events_per_s`` — synthetic kernel dispatch rate (size-invariant).
    * simulated-seconds/s — ``runs_per_s * pca_duration_s``, which is
      comparable between the quick (1 h) CI run and the committed full
      (3 h) baseline, unlike raw runs/s.
    """
    checks = [
        ("events/s", events_per_s, float(baseline["events_per_s"])),
        ("pca sim-s/s", runs_per_s * pca_duration,
         float(baseline["runs_per_s"]) * float(baseline["pca_duration_s"])),
    ]
    status = 0
    for label, measured, reference in checks:
        floor = reference * (1.0 - tolerance)
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(f"[bench-gate] {label}: measured {measured:,.0f} vs baseline "
              f"{reference:,.0f} (floor {floor:,.0f}, tolerance {tolerance:.0%}) "
              f"-> {verdict}")
        if measured < floor:
            status = 1
    if status:
        print(f"[bench-gate] FAILED against {baseline_path} — if the slowdown "
              f"is intentional, refresh the committed BENCH_kernel.json and "
              f"justify it in CHANGES.md")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=1_000_000,
                        help="synthetic micro-benchmark event count")
    parser.add_argument("--pca-runs", type=int, default=3,
                        help="number of timed PCA scenario runs")
    parser.add_argument("--pca-duration", type=float, default=3.0 * 3600.0,
                        help="simulated seconds per PCA run")
    parser.add_argument("--quick", action="store_true",
                        help="reduced workload for CI (200k events, 1 short run)")
    parser.add_argument("--check-against", metavar="BASELINE_JSON",
                        help="compare against a committed BENCH_kernel.json and "
                             "exit 1 on regression beyond --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression before the gate "
                             "fails (default 0.30 for noisy runners)")
    parser.add_argument("--best-of", type=int, default=0, metavar="N",
                        help="repeat each measurement N times and keep the "
                             "fastest (default: 3 when checking, else 1)")
    parser.add_argument("--obs-overhead-gate", type=float, default=None,
                        metavar="FRAC",
                        help="fail (exit 1) if enabled-observability overhead "
                             "on the synthetic events/s exceeds FRAC "
                             "(e.g. 0.10 for a 10%% budget)")
    args = parser.parse_args(argv)

    n_events = 200_000 if args.quick else args.events
    pca_runs = 1 if args.quick else args.pca_runs
    pca_duration = 3600.0 if args.quick else args.pca_duration
    gating = bool(args.check_against) or args.obs_overhead_gate is not None
    attempts = args.best_of or (3 if gating else 1)
    baseline = read_baseline(args.check_against) if args.check_against else None

    events_per_s = run_synthetic_baseline(n_events, attempts)
    print(f"kernel synthetic: {n_events} events -> {events_per_s:,.0f} events/s"
          + (f" (best of {attempts})" if attempts > 1 else ""))

    obs_stats = run_synthetic_obs(n_events, attempts)
    obs_overhead = max(0.0, 1.0 - obs_stats["events_per_s"] / events_per_s)
    print(f"kernel synthetic (obs enabled): {obs_stats['events_per_s']:,.0f} "
          f"events/s (overhead {obs_overhead:.1%}, "
          f"heap peak {obs_stats['heap_peak']:.0f})")

    runs_per_s, pca_elapsed = max(
        (run_pca(pca_runs, pca_duration) for _ in range(attempts)),
        key=lambda sample: sample[0],
    )
    print(f"pca scenario: {pca_runs} x {pca_duration / 3600:.1f}h run(s) "
          f"in {pca_elapsed:.2f}s -> {runs_per_s:.3f} runs/s"
          + (f" (best of {attempts})" if attempts > 1 else ""))

    emit_json("kernel", {
        "workload": "quick" if args.quick else "full",
        "synthetic_events": n_events,
        "events_per_s": events_per_s,
        "pca_runs": pca_runs,
        "pca_duration_s": pca_duration,
        "pca_elapsed_s": pca_elapsed,
        "runs_per_s": runs_per_s,
        "obs_metrics": dict(obs_stats, overhead_frac=obs_overhead),
    }, baseline=args.check_against)

    status = 0
    if args.obs_overhead_gate is not None:
        if obs_overhead > args.obs_overhead_gate:
            print(f"[obs-gate] FAILED: enabled-observability overhead "
                  f"{obs_overhead:.1%} exceeds the "
                  f"{args.obs_overhead_gate:.0%} budget")
            status = 1
        else:
            print(f"[obs-gate] ok: overhead {obs_overhead:.1%} within "
                  f"{args.obs_overhead_gate:.0%}")
    if baseline is not None:
        status = check_against(baseline, args.check_against, args.tolerance,
                               events_per_s, runs_per_s, pca_duration) or status
    return status


if __name__ == "__main__":
    raise SystemExit(main())
