"""A communication-failure sweep: outage duration x start time, fault-tolerantly.

The paper's Section II(c) requires the PCA supervisor to be "tolerant to
faults that interfere with the control loop, in particular communication
failures between the devices".  This example sweeps that failure mode at
campaign scale: a declarative ``faults`` block injects a pulse-oximeter
uplink outage into every run, crossing outage duration with start time, and
the safety outcomes show how the closed-loop protection degrades as the
supervisor is blinded for longer.

The campaign itself runs fault-tolerantly (``ResilienceConfig``): a failing
or crashing run is quarantined to ``errors.jsonl`` instead of killing the
sweep, and re-running with ``--out DIR`` resumes and re-dispatches it.

Run with::

    python examples/campaign_faults.py [--workers 2] [--duration-hours 1.0]
                                       [--out DIR]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.campaign import (
    CampaignSpec,
    ResilienceConfig,
    RetryPolicy,
    run_campaign,
    streaming_campaign_table,
)


def build_spec(duration_hours: float) -> CampaignSpec:
    duration_s = duration_hours * 3600.0
    return CampaignSpec(
        name="uplink-outage-sweep",
        scenario="pca",
        description="SpO2 uplink outage: duration x start time, closed loop",
        parameters={
            "mode": ["open_loop", "closed_loop"],
            "duration_s": duration_s,
        },
        faults=[
            {
                "kind": "channel_outage",
                "target": "uplink:pulse-ox-1",
                "start": [0.25 * duration_s, 0.5 * duration_s],
                "duration": [120.0, 600.0, 1800.0],
            }
        ],
        repeats=3,
        base_seed=2026,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--duration-hours", type=float, default=1.0)
    parser.add_argument("--out", default=None,
                        help="campaign directory (enables resume + quarantine file)")
    args = parser.parse_args()

    spec = build_spec(args.duration_hours)
    total = spec.grid_size()
    print(f"sweeping {total} runs: "
          f"{spec.sweep_axes()} (workers={args.workers})")

    started = time.perf_counter()
    report = run_campaign(
        spec,
        workers=args.workers,
        directory=args.out,
        resume=args.out is not None and Path(args.out, "results.jsonl").exists(),
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=3),
            # Only a worker pool can preempt a run; serial campaigns reject it.
            run_timeout_s=600.0 if args.workers > 1 else None,
        ),
    )
    elapsed = time.perf_counter() - started
    print(f"completed in {elapsed:.1f}s: {report.ok} ok "
          f"({report.retried} after retry), {report.quarantined} quarantined, "
          f"{report.worker_restarts} worker restarts")
    if report.quarantined and report.directory is not None:
        print(f"quarantined runs -> {report.directory / 'errors.jsonl'}; "
              "re-run with the same --out to re-dispatch them")

    table = streaming_campaign_table(
        report.records,
        group_by=["mode", "fault0.duration"],
        metrics=["harmed", "time_below_spo2_90_s", "supervisor_stops"],
        title="safety vs uplink outage duration",
    )
    print()
    print(table.render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
