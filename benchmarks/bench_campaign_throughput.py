"""Campaign throughput: serial, multiprocessing, and sharded dispatch.

Measures runs/second of a PCA campaign through ``repro.campaign`` executed
serially, on a 2-worker (and, when the host allows, a cpu-count) pool, and
as a K-way shard/merge cycle (every shard run back-to-back on this box,
then ``ResultStore.merge``), verifying the engine's core guarantees along
the way: identical records regardless of execution mode, and a merged
``results.jsonl`` byte-identical to the serial store.

Run standalone for the CI regression gate::

    python benchmarks/bench_campaign_throughput.py --quick \
        --check-against BENCH_campaign.json --tolerance 0.30

The gate compares *simulated-seconds per wall second* (runs/s times the
simulated duration per run), which is comparable between the quick CI
workload and the committed full baseline, unlike raw runs/s.
"""

import argparse
import os
import shutil
import tempfile
import time
from pathlib import Path

from conftest import emit, emit_json, read_baseline

from repro.analysis.tables import Table
from repro.campaign import CampaignSpec, ResultStore, ShardSelector, run_campaign

RUNS_PER_CONFIG = 8
DURATION_S = 1800.0
SHARDS = 4


def _spec(duration_s: float = DURATION_S) -> CampaignSpec:
    return CampaignSpec(
        name="throughput",
        scenario="pca",
        parameters={
            "mode": ["open_loop", "closed_loop"],
            "duration_s": duration_s,
        },
        cohort_size=RUNS_PER_CONFIG,
        base_seed=33,
    )


def _timed_run(workers: int, duration_s: float = DURATION_S):
    started = time.perf_counter()
    report = run_campaign(_spec(duration_s), workers=workers)
    elapsed = time.perf_counter() - started
    return report, elapsed


def run_sharded(duration_s: float, shards: int = SHARDS) -> dict:
    """Time a full shard/merge cycle and verify merged == serial bytes.

    All shards execute back-to-back on this box (the single-box worst case:
    a real fleet overlaps them), so ``runs_per_s`` here is the *dispatch
    overhead* floor of sharding — manifest partitioning, per-segment stores,
    and the merge — not a parallelism claim.
    """
    spec = _spec(duration_s)
    total = spec.grid_size()
    scratch = Path(tempfile.mkdtemp(prefix="bench-shard-"))
    try:
        serial_dir = scratch / "serial"
        started = time.perf_counter()
        run_campaign(spec, directory=serial_dir)
        serial_elapsed = time.perf_counter() - started

        segments = []
        shard_elapsed = 0.0
        for index in range(1, shards + 1):
            segment = scratch / f"seg-{index}"
            started = time.perf_counter()
            run_campaign(spec, directory=segment,
                         shard=ShardSelector(index, shards))
            shard_elapsed += time.perf_counter() - started
            segments.append(segment)

        merged_dir = scratch / "merged"
        started = time.perf_counter()
        result = ResultStore(merged_dir).merge(segments)
        merge_elapsed = time.perf_counter() - started

        serial_bytes = (serial_dir / "results.jsonl").read_bytes()
        merged_bytes = (merged_dir / "results.jsonl").read_bytes()
        assert merged_bytes == serial_bytes, (
            "sharded merge is not byte-identical to the serial store")
        assert result.records == total, result

        return {
            "shards": shards,
            "total_runs": total,
            "serial_store_elapsed_s": serial_elapsed,
            "shard_elapsed_s": shard_elapsed,
            "merge_elapsed_s": merge_elapsed,
            "elapsed_s": shard_elapsed + merge_elapsed,
            "runs_per_s": total / (shard_elapsed + merge_elapsed),
            "merged_sha256": result.merged_sha256,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_against(baseline: dict, baseline_path: str, tolerance: float, duration_s: float,
                  serial_runs_per_s: float, sharded_runs_per_s: float) -> int:
    """Compare duration-invariant sim-s/s against the committed baseline."""
    reference_duration = float(baseline["run_duration_s"])
    checks = [
        ("campaign serial sim-s/s", serial_runs_per_s * duration_s,
         float(baseline["serial_runs_per_s"]) * reference_duration),
    ]
    if "sharded" in baseline:
        checks.append(
            ("campaign sharded sim-s/s", sharded_runs_per_s * duration_s,
             float(baseline["sharded"]["runs_per_s"]) * reference_duration))
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
              f"is intentional, refresh the committed BENCH_campaign.json and "
              f"justify it in CHANGES.md")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=DURATION_S,
                        help="simulated seconds per PCA run")
    parser.add_argument("--shards", type=int, default=SHARDS,
                        help="shard count for the dispatch measurement")
    parser.add_argument("--quick", action="store_true",
                        help="reduced workload for CI (10-minute runs)")
    parser.add_argument("--skip-parallel", action="store_true",
                        help="skip the multiprocessing measurement (the "
                             "sharded cycle and gate do not need it)")
    parser.add_argument("--check-against", metavar="BASELINE_JSON",
                        help="compare against a committed BENCH_campaign.json "
                             "and exit 1 on regression beyond --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression before the gate "
                             "fails (default 0.30 for noisy runners)")
    parser.add_argument("--best-of", type=int, default=0, metavar="N",
                        help="repeat each measurement N times and keep the "
                             "fastest (default: 3 when checking, else 1)")
    args = parser.parse_args(argv)

    duration_s = 600.0 if args.quick else args.duration
    attempts = args.best_of or (3 if args.check_against else 1)
    baseline = read_baseline(args.check_against) if args.check_against else None
    cpus = os.cpu_count() or 1
    total = _spec(duration_s).grid_size()

    serial_samples = [_timed_run(1, duration_s) for _ in range(attempts)]
    serial_report, serial_elapsed = min(serial_samples, key=lambda s: s[1])
    serial_runs_per_s = total / serial_elapsed
    print(f"campaign serial: {total} runs in {serial_elapsed:.2f}s -> "
          f"{serial_runs_per_s:.2f} runs/s"
          + (f" (best of {attempts})" if attempts > 1 else ""))

    parallel_runs_per_s = None
    if not args.skip_parallel:
        parallel_report, parallel_elapsed = min(
            (_timed_run(2, duration_s) for _ in range(attempts)),
            key=lambda s: s[1])
        parallel_runs_per_s = total / parallel_elapsed
        assert parallel_report.records == serial_report.records
        print(f"campaign 2-worker: {total} runs in {parallel_elapsed:.2f}s -> "
              f"{parallel_runs_per_s:.2f} runs/s")

    sharded = min((run_sharded(duration_s, args.shards)
                   for _ in range(attempts)),
                  key=lambda sample: sample["elapsed_s"])
    print(f"campaign sharded: {args.shards} shards x "
          f"{total // args.shards} runs + merge in "
          f"{sharded['elapsed_s']:.2f}s -> {sharded['runs_per_s']:.2f} runs/s "
          f"(merge {sharded['merge_elapsed_s'] * 1000:.0f}ms, "
          f"merged == serial bytes)")

    payload = {
        "workload": "quick" if args.quick else "full",
        "total_runs": total,
        "run_duration_s": duration_s,
        "cpus": cpus,
        "serial_elapsed_s": serial_elapsed,
        "serial_runs_per_s": serial_runs_per_s,
        "sharded": {key: value for key, value in sharded.items()
                    if key != "merged_sha256"},
    }
    if parallel_runs_per_s is not None:
        payload["best_parallel_elapsed_s"] = total / parallel_runs_per_s
        payload["best_parallel_runs_per_s"] = parallel_runs_per_s
    emit_json("campaign", payload, baseline=args.check_against)

    if baseline is not None:
        return check_against(baseline, args.check_against, args.tolerance, duration_s,
                             serial_runs_per_s, sharded["runs_per_s"])
    return 0


def test_campaign_throughput(benchmark):
    cpus = os.cpu_count() or 1
    worker_counts = [1, 2]
    if cpus > 2:
        worker_counts.append(cpus)

    def run_all():
        return {workers: _timed_run(workers) for workers in worker_counts}

    timings = benchmark.pedantic(run_all, rounds=1, iterations=1)

    total_runs = _spec().grid_size()
    serial_report, serial_elapsed = timings[1]
    sharded = run_sharded(DURATION_S)
    table = Table(
        f"Campaign throughput ({total_runs} PCA runs of {DURATION_S / 60:.0f} min, {cpus} CPUs)",
        ["workers", "elapsed (s)", "runs/s", "speedup"],
        notes="records are identical across worker counts by construction",
    )
    for workers in worker_counts:
        report, elapsed = timings[workers]
        table.add_row(workers, elapsed, total_runs / elapsed, serial_elapsed / elapsed)
    table.add_row(f"{sharded['shards']} shards", sharded["elapsed_s"],
                  sharded["runs_per_s"],
                  serial_elapsed / sharded["elapsed_s"])
    emit(table)

    best_parallel = min(
        (elapsed for workers, (_, elapsed) in timings.items() if workers > 1),
        default=serial_elapsed,
    )
    emit_json("campaign", {
        "total_runs": total_runs,
        "run_duration_s": DURATION_S,
        "cpus": cpus,
        "serial_elapsed_s": serial_elapsed,
        "serial_runs_per_s": total_runs / serial_elapsed,
        "best_parallel_elapsed_s": best_parallel,
        "best_parallel_runs_per_s": total_runs / best_parallel,
        "sharded": {key: value for key, value in sharded.items()
                    if key != "merged_sha256"},
    })

    # The determinism guarantee that makes parallel campaigns trustworthy.
    for workers in worker_counts[1:]:
        assert timings[workers][0].records == serial_report.records

    # Parallel must pay off wherever parallel hardware exists.  Requiring a
    # real >=10% improvement (not mere parity) catches accidental
    # serialisation of the pool; the margin below a perfect 2x absorbs
    # normal load on shared hosts.
    if cpus >= 2:
        best = min(elapsed for workers, (report, elapsed) in timings.items()
                   if workers > 1)
        assert best < serial_elapsed * 0.9, (
            f"parallel execution showed no speedup over serial ({serial_elapsed:.2f}s)"
        )


if __name__ == "__main__":
    raise SystemExit(main())
