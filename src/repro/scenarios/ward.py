"""Hospital-ward scenario family: topology-driven campaigns at scale.

Where the other scenarios hand-wire one patient, this one expands a
declarative :class:`~repro.topology.spec.TopologySpec` — wards x beds x
device mixes x staffing x cohort fractions x fault profiles — into a fully
wired hospital (:mod:`repro.topology.expand`) and runs it as a registered
campaign scenario.  "200-bed hospital, 3% device fault rate, night staffing"
becomes one JSON spec swept like any parameter through the existing
shard/merge/streaming-aggregation pipeline, with generated fault schedules
(:mod:`repro.sim.faults`), posture-driven attack campaigns
(:mod:`repro.security.attacks`), and population cohorts
(:mod:`repro.patient.population`) all in the loop.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.campaign.registry import CampaignError, campaign_scenario
from repro.campaign.spec import cohort_patient
from repro.security.attacks import AttackCampaign
from repro.sim.faults import fault_plan_specs
from repro.topology.expand import (
    AlarmThresholds,
    build_hospital,
    expand_topology,
    manifest_device_ids,
)
from repro.topology.generators import (
    SECURITY_POSTURES,
    generate_attack_plan,
    generate_fault_plan,
    security_for_posture,
)
from repro.topology.spec import TopologyError, TopologySpec, standard_hospital

#: Default topology: one small mixed ward with modest fault rates, sized so
#: golden and smoke campaigns stay fast.  Stored as its plain-dict form —
#: campaign params must survive JSON manifests byte-identically.
DEFAULT_TOPOLOGY = standard_hospital(
    "ward-default",
    wards=1,
    beds_per_ward=6,
    device_mix={"pulse_oximeter": 1.0, "capnograph": 0.5, "bp_monitor": 0.5,
                "bed": 1.0, "pca_pump": 0.5},
    faults={"channel_outage_rate": 2.0, "stuck_sensor_rate": 1.0,
            "misprogramming_rate": 0.5},
).as_dict()


def _validate_ward_campaign(spec) -> None:
    """Reject bad topologies/postures at spec time, before any run executes."""
    topologies = spec.parameters.get("topology")
    candidates = topologies if isinstance(topologies, list) else (
        [topologies] if topologies is not None else [])
    for value in candidates:
        try:
            TopologySpec.from_dict(value)
        except TopologyError as error:
            raise CampaignError(f"invalid ward topology: {error}") from None
    postures = spec.parameters.get("security_posture")
    candidates = postures if isinstance(postures, list) else (
        [postures] if postures is not None else [])
    for value in candidates:
        if value not in SECURITY_POSTURES:
            raise CampaignError(
                f"unknown security posture {value!r}; expected one of "
                f"{SECURITY_POSTURES}")


def _apply_focus_patient(manifest: Dict[str, Any], params: Dict[str, Any]) -> str:
    """Place the campaign cohort's focus patient into the first bed.

    Cohort campaigns compare configurations on *paired* patients: patient
    ``i`` is the same person in every configuration.  The rest of the
    hospital stays as expanded — the backdrop load the focus patient is
    monitored under.  Returns the focus patient's cohort label.
    """
    focus = cohort_patient(params["cohort_seed"], params["patient_index"])
    if "opioid_sensitive" in focus.tags:
        label = "opioid_sensitive"
    elif focus.is_athlete:
        label = "athlete"
    else:
        label = "typical"
    first_ward = manifest["wards"][0]
    first_bed = first_ward["beds"][0]
    first_ward["cohort_counts"][first_bed["cohort"]] -= 1
    first_ward["cohort_counts"][label] += 1
    first_bed["cohort"] = label
    first_bed["patient"] = focus.as_record()
    return label


@campaign_scenario(
    "ward",
    defaults={
        "topology": DEFAULT_TOPOLOGY,
        "duration_s": 600.0,
        "security_posture": "allowlisted",
        "generate_faults": True,
        "attack_reprogram": 4,
        "attack_replay": 2,
        "attack_flood": 2,
        "attack_insider": 1,
        "spo2_alarm_threshold": 90.0,
        "respiratory_rate_alarm_threshold": 8.0,
        "map_alarm_threshold_mmhg": 65.0,
        "heart_rate_alarm_threshold": 50.0,
        "stop_threshold_spo2": 85.0,
    },
    result_fields=(
        "wards", "beds", "caregivers",
        "patients_typical", "patients_opioid_sensitive", "patients_athlete",
        "alarms_total", "alarms_typical", "alarms_opioid_sensitive",
        "alarms_athlete", "caregiver_alarms_received", "caregiver_alarms_missed",
        "caregiver_interventions", "supervisor_stops",
        "faults_planned", "faults_injected",
        "attacks_total", "attacks_succeeded", "attacks_blocked_authentication",
        "attacks_blocked_authorization",
        "messages_published", "messages_forwarded", "focus_cohort",
    ),
    supports_cohort=True,
    supports_faults=True,
    description="Topology-driven hospital ward with generated fault/attack campaigns",
    spec_validator=_validate_ward_campaign,
)
def run_ward_campaign(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Campaign runner: one monitored shift of a generated hospital ward."""
    try:
        topology = TopologySpec.from_dict(params["topology"])
    except TopologyError as error:
        raise ValueError(f"invalid ward topology: {error}") from None
    duration_s = float(params["duration_s"])
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    posture = params["security_posture"]
    if posture not in SECURITY_POSTURES:
        raise ValueError(
            f"unknown security posture {posture!r}; expected one of "
            f"{SECURITY_POSTURES}")

    manifest = expand_topology(topology, seed)
    focus_cohort = "none"
    if params.get("patient_index") is not None:
        focus_cohort = _apply_focus_patient(manifest, params)

    # Fault schedule: topology-generated profile faults compose with any
    # campaign-level ``faults`` block (the engine-injected fault_plan param).
    plan = []
    if params["generate_faults"]:
        plan.extend(generate_fault_plan(topology, seed, duration_s,
                                        manifest=manifest))
    plan.extend(params.get("fault_plan", ()))
    fault_specs = fault_plan_specs(plan)

    attacks = generate_attack_plan(
        topology, seed, manifest=manifest,
        reprogram=int(params["attack_reprogram"]),
        replay=int(params["attack_replay"]),
        flood=int(params["attack_flood"]),
        insider=int(params["attack_insider"]),
    )
    insiders = tuple(attack.attacker for attack in attacks
                     if attack.kind == "insider")
    pumps = manifest_device_ids(manifest, "pca_pump")
    authenticator, policy, stolen = security_for_posture(
        posture, seed, pump_ids=tuple(pumps), insider_principals=insiders)

    runtime = build_hospital(
        topology, seed,
        thresholds=AlarmThresholds(
            spo2=float(params["spo2_alarm_threshold"]),
            respiratory_rate=float(params["respiratory_rate_alarm_threshold"]),
            map_mmhg=float(params["map_alarm_threshold_mmhg"]),
            heart_rate=float(params["heart_rate_alarm_threshold"]),
        ),
        stop_threshold=float(params["stop_threshold_spo2"]),
        command_authoriser=policy.as_authoriser(),
        manifest=manifest,
    )
    runtime.injector.extend(fault_specs)
    runtime.injector.arm()
    runtime.simulator.run(until=duration_s)

    # Post-shift attack audit: the generated attack campaign against the
    # same policy the supervisors commanded through during the run.
    attack_campaign = AttackCampaign(authenticator, policy,
                                     stolen_credentials=stolen)
    attack_campaign.run(attacks)
    outcomes = attack_campaign.outcomes()

    patients = runtime.cohort_counts()
    alarms = runtime.alarm_counts_by_cohort()
    caregivers = runtime.caregiver_stats()
    bus = runtime.bus_stats()
    return {
        "wards": len(runtime.wards),
        "beds": topology.total_beds,
        "caregivers": sum(len(ward.caregivers) for ward in runtime.wards),
        "patients_typical": patients["typical"],
        "patients_opioid_sensitive": patients["opioid_sensitive"],
        "patients_athlete": patients["athlete"],
        "alarms_total": sum(alarms.values()),
        "alarms_typical": alarms["typical"],
        "alarms_opioid_sensitive": alarms["opioid_sensitive"],
        "alarms_athlete": alarms["athlete"],
        "caregiver_alarms_received": caregivers["alarms_received"],
        "caregiver_alarms_missed": caregivers["alarms_missed"],
        "caregiver_interventions": caregivers["interventions"],
        "supervisor_stops": runtime.stop_commands(),
        "faults_planned": len(fault_specs),
        "faults_injected": len(runtime.injector.injected),
        "attacks_total": len(attacks),
        "attacks_succeeded": outcomes["succeeded"],
        "attacks_blocked_authentication": outcomes["blocked_authentication"],
        "attacks_blocked_authorization": outcomes["blocked_authorization"],
        "messages_published": bus["published"],
        "messages_forwarded": bus["forwarded"],
        "focus_cohort": focus_cohort,
    }
