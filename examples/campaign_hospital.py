"""A generated-hospital campaign: staffing x security posture at ward scale.

The acceptance workload of ``repro.topology``: a multi-ward hospital built
from one declarative :class:`TopologySpec` — device mixes, cohort
fractions, night-shift staffing, per-ward fault profiles — expanded
deterministically and swept through the campaign engine across security
postures and staffing ratios.  Every run regenerates its own fault
schedule and attack campaign from the topology, so the table at the end is
the paper's flexibility-versus-security tradeoff measured on a whole
hospital rather than a single pump.

Run with::

    python examples/campaign_hospital.py [--wards 2] [--beds 18]
                                         [--duration-minutes 10]
                                         [--workers 2] [--out DIR]

Passing ``--out`` streams results to a campaign directory; re-running with
the same ``--out`` resumes an interrupted campaign instead of restarting it.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.campaign import CampaignSpec, run_campaign, streaming_campaign_table
from repro.topology import standard_hospital


def build_spec(wards: int, beds: int, duration_minutes: float) -> CampaignSpec:
    topologies = [
        standard_hospital(
            f"hospital-1to{ratio}",
            wards=wards,
            beds_per_ward=beds,
            device_mix={"pulse_oximeter": 1.0, "capnograph": 0.5,
                        "bp_monitor": 0.5, "bed": 1.0, "pca_pump": 0.5},
            cohort={"sensitive_fraction": 0.2, "athlete_fraction": 0.1},
            staffing={"beds_per_caregiver": ratio, "shift": "night"},
            faults={"channel_outage_rate": 1.5, "stuck_sensor_rate": 1.0,
                    "misprogramming_rate": 0.5},
        ).as_dict()
        for ratio in (4, 8)
    ]
    return CampaignSpec(
        name="hospital-postures",
        scenario="ward",
        description="generated hospital: staffing ratio x security posture",
        parameters={
            "topology": topologies,
            "security_posture": ["open", "allowlisted", "data_only"],
            "duration_s": duration_minutes * 60.0,
        },
        repeats=3,
        base_seed=7,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--wards", type=int, default=2)
    parser.add_argument("--beds", type=int, default=18,
                        help="beds per ward")
    parser.add_argument("--duration-minutes", type=float, default=10.0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default=None,
                        help="campaign directory (enables streaming + resume)")
    args = parser.parse_args()

    spec = build_spec(args.wards, args.beds, args.duration_minutes)
    total = spec.grid_size()
    print(f"campaign {spec.name!r}: {total} runs "
          f"({args.wards} wards x {args.beds} beds, 2 staffing ratios x "
          f"3 postures x 3 repeats), {args.workers} workers")

    started = time.perf_counter()
    report = run_campaign(
        spec,
        workers=args.workers,
        directory=args.out,
        resume=args.out is not None and Path(args.out, "results.jsonl").exists(),
    )
    elapsed = time.perf_counter() - started
    print(f"completed {report.total} runs in {elapsed:.1f}s "
          f"({report.total / elapsed:.1f} runs/s; "
          f"{report.executed} executed, {report.skipped} resumed)")
    print()

    print(streaming_campaign_table(
        report.records,
        group_by=("security_posture",),
        metrics=("alarms_total", "caregiver_alarms_missed", "supervisor_stops",
                 "faults_injected", "attacks_succeeded",
                 "attacks_blocked_authentication"),
        title="Security posture vs closed-loop flexibility "
              f"({args.wards * args.beds}-bed hospital)",
    ).render())
    print()
    print(streaming_campaign_table(
        report.records,
        group_by=("topology",),
        metrics=("caregivers", "caregiver_alarms_received",
                 "caregiver_alarms_missed", "caregiver_interventions"),
        title="Staffing ratio vs alarm response "
              "(topology axis = content-hashed spec)",
    ).render())


if __name__ == "__main__":
    main()
