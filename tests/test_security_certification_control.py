"""Tests for security, certification, and control packages."""

import pytest

from repro.certification.evidence import Evidence, EvidenceStatus, EvidenceStore
from repro.certification.gsn import AssuranceCase, GoalNode, NodeType, SolutionNode, StrategyNode
from repro.certification.incremental import IncrementalCertifier
from repro.control.pid import PIDController, PIDGains
from repro.control.supervisory import (
    CandidateController,
    SupervisoryAdaptiveController,
    SupervisoryConfig,
)
from repro.security.attacks import Attack, AttackCampaign, standard_reprogramming_campaign
from repro.security.auth import AuthenticationError, DeviceAuthenticator
from repro.security.policy import (
    CommandAuthorizationPolicy,
    SecurityPosture,
    closed_loop_attack_surface,
)


class TestDeviceAuthenticator:
    def test_provision_and_authenticate(self):
        auth = DeviceAuthenticator()
        credential = auth.provision("supervisor", b"secret-key")
        assert auth.authenticate(credential)
        assert auth.is_authenticated("supervisor")

    def test_wrong_key_rejected(self):
        auth = DeviceAuthenticator()
        auth.provision("supervisor", b"right-key")
        nonce = auth.challenge("supervisor")
        import hashlib, hmac
        wrong = hmac.new(b"wrong-key", nonce, hashlib.sha256).digest()
        assert not auth.verify("supervisor", wrong)
        assert auth.failed_attempts["supervisor"] == 1

    def test_unprovisioned_principal_rejected(self):
        auth = DeviceAuthenticator()
        with pytest.raises(AuthenticationError):
            auth.challenge("stranger")

    def test_replayed_response_rejected(self):
        auth = DeviceAuthenticator()
        credential = auth.provision("supervisor", b"key")
        nonce = auth.challenge("supervisor")
        response = credential.respond(nonce)
        assert auth.verify("supervisor", response)
        # Replaying the same response against a new nonce fails.
        auth.challenge("supervisor")
        assert not auth.verify("supervisor", response)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            DeviceAuthenticator().provision("x", b"")

    def test_deauthenticate(self):
        auth = DeviceAuthenticator()
        credential = auth.provision("s", b"k")
        auth.authenticate(credential)
        auth.deauthenticate("s")
        assert not auth.is_authenticated("s")


class TestCommandAuthorizationPolicy:
    def test_data_only_blocks_everything(self):
        policy = CommandAuthorizationPolicy(posture=SecurityPosture.DATA_ONLY)
        allowed, reason = policy.authorise("supervisor", "pump", "stop")
        assert not allowed and "data-only" in reason

    def test_open_posture_allows_authenticated(self):
        policy = CommandAuthorizationPolicy(posture=SecurityPosture.OPEN)
        policy.mark_authenticated("supervisor")
        assert policy.authorise("supervisor", "pump", "anything")[0]

    def test_open_posture_blocks_unauthenticated(self):
        policy = CommandAuthorizationPolicy(posture=SecurityPosture.OPEN)
        assert not policy.authorise("attacker", "pump", "stop")[0]

    def test_allowlist_scopes_commands(self):
        policy = CommandAuthorizationPolicy(posture=SecurityPosture.ALLOWLISTED)
        policy.mark_authenticated("supervisor")
        policy.allow("supervisor", "pump", "stop")
        assert policy.authorise("supervisor", "pump", "stop")[0]
        assert not policy.authorise("supervisor", "pump", "set_prescription")[0]
        assert not policy.authorise("other", "pump", "stop")[0]

    def test_decisions_recorded(self):
        policy = CommandAuthorizationPolicy(posture=SecurityPosture.ALLOWLISTED)
        policy.authorise("a", "b", "c")
        assert policy.denied_count == 1 and policy.allowed_count == 0

    def test_as_authoriser_adapter(self):
        policy = CommandAuthorizationPolicy(posture=SecurityPosture.OPEN, require_authentication=False)
        authorise = policy.as_authoriser()
        assert authorise("app", "pump", "stop") == (True, "open posture")

    def test_attack_surface_by_posture(self):
        critical = {("pump", "resume"), ("pump", "set_prescription")}
        open_policy = CommandAuthorizationPolicy(posture=SecurityPosture.OPEN)
        data_only = CommandAuthorizationPolicy(posture=SecurityPosture.DATA_ONLY)
        allowlisted = CommandAuthorizationPolicy(posture=SecurityPosture.ALLOWLISTED)
        allowlisted.allow("supervisor", "pump", "resume")
        assert closed_loop_attack_surface(open_policy, critical)["insider_reachable_fraction"] == 1.0
        assert closed_loop_attack_surface(data_only, critical)["insider_reachable_fraction"] == 0.0
        assert closed_loop_attack_surface(allowlisted, critical)["insider_reachable_fraction"] == 0.5


class TestAttackCampaign:
    def _setup(self, posture, allow_supervisor=True):
        auth = DeviceAuthenticator()
        supervisor_credential = auth.provision("pca-safety-app", b"supervisor-key")
        policy = CommandAuthorizationPolicy(posture=posture)
        if allow_supervisor:
            policy.allow_app_commands("pca-safety-app", "pca-pump-1", ["stop", "resume"])
        campaign = AttackCampaign(auth, policy,
                                  stolen_credentials={"pca-safety-app": supervisor_credential})
        return campaign

    def test_external_attacks_blocked_by_authentication(self):
        campaign = self._setup(SecurityPosture.OPEN)
        results = campaign.run(standard_reprogramming_campaign())
        external = [r for r in results if r.attack.kind in ("reprogram", "replay", "flood")]
        assert all(not r.succeeded for r in external)

    def test_insider_succeeds_under_open_posture(self):
        campaign = self._setup(SecurityPosture.OPEN)
        results = campaign.run(standard_reprogramming_campaign())
        insider = [r for r in results if r.attack.kind == "insider"]
        assert all(r.succeeded for r in insider)

    def test_allowlist_blocks_insider_reprogramming(self):
        campaign = self._setup(SecurityPosture.ALLOWLISTED)
        results = campaign.run(standard_reprogramming_campaign())
        insider = [r for r in results if r.attack.kind == "insider"]
        assert all(not r.succeeded for r in insider)

    def test_data_only_blocks_all(self):
        campaign = self._setup(SecurityPosture.DATA_ONLY)
        campaign.run(standard_reprogramming_campaign())
        assert campaign.success_rate() == 0.0

    def test_outcomes_breakdown(self):
        campaign = self._setup(SecurityPosture.ALLOWLISTED)
        campaign.run(standard_reprogramming_campaign())
        outcomes = campaign.outcomes()
        assert sum(outcomes.values()) == len(standard_reprogramming_campaign())

    def test_invalid_attack_kind_rejected(self):
        with pytest.raises(ValueError):
            Attack(kind="teleport", attacker="x", target_device="pump", command="stop")


def build_assurance_case():
    case = AssuranceCase("pca-safety")
    store = EvidenceStore()
    root = case.add(GoalNode("G1", "Closed-loop PCA does not contribute to patient harm",
                             components={"system"}))
    strategy = case.add(StrategyNode("S1", "Argue over hazards"), parent_id="G1")
    g_overdose = case.add(GoalNode("G2", "Overdose is prevented", components={"supervisor", "pump"}),
                          parent_id="S1")
    g_comm = case.add(GoalNode("G3", "Communication failures are tolerated", components={"middleware"}),
                      parent_id="S1")
    store.add(Evidence("E1", "model checking of supervisor-pump protocol", "model_checking",
                       components={"supervisor", "pump"}, regeneration_cost=5.0))
    store.add(Evidence("E2", "fault-injection test campaign", "testing",
                       components={"middleware", "supervisor"}, regeneration_cost=3.0))
    store.add(Evidence("E3", "delay budget analysis", "analysis",
                       components={"pump", "oximeter"}, regeneration_cost=1.0))
    case.add(SolutionNode("Sn1", "protocol verified", "E1", components={"supervisor", "pump"}),
             parent_id="G2")
    case.add(SolutionNode("Sn2", "fault campaign passed", "E2", components={"middleware"}),
             parent_id="G3")
    case.add(SolutionNode("Sn3", "delay budget within margin", "E3", components={"pump"}),
             parent_id="G2")
    return case, store


class TestAssuranceCase:
    def test_structure_queries(self):
        case, _ = build_assurance_case()
        assert case.root_id == "G1"
        assert len(case.goals()) == 3
        assert len(case.solutions()) == 3
        assert "Sn1" in case.descendants("G1")
        assert "G1" in case.ancestors("Sn1")

    def test_root_must_be_goal(self):
        case = AssuranceCase("x")
        with pytest.raises(ValueError):
            case.add(StrategyNode("S1", "strategy first"))

    def test_solution_cannot_have_children(self):
        case, _ = build_assurance_case()
        with pytest.raises(ValueError):
            case.add(GoalNode("G9", "child of solution"), parent_id="Sn1")

    def test_duplicate_node_rejected(self):
        case, _ = build_assurance_case()
        with pytest.raises(ValueError):
            case.add(GoalNode("G1", "duplicate"), parent_id="G2")

    def test_undeveloped_goal_detection(self):
        case, _ = build_assurance_case()
        assert case.is_complete()
        case.add(GoalNode("G4", "residual risk acceptable"), parent_id="S1")
        assert not case.is_complete()
        assert case.undeveloped_goals()[0].node_id == "G4"

    def test_solutions_for_component(self):
        case, _ = build_assurance_case()
        assert {node.node_id for node in case.solutions_for_component("supervisor")} == {"Sn1"}


class TestIncrementalCertification:
    def test_well_formed_check(self):
        case, store = build_assurance_case()
        certifier = IncrementalCertifier(case, store)
        assert certifier.check_well_formed() == []
        assert certifier.certification_complete()

    def test_upgrade_invalidates_dependent_evidence_only(self):
        case, store = build_assurance_case()
        certifier = IncrementalCertifier(case, store)
        plan = certifier.apply_upgrade({"middleware"})
        assert plan.invalidated_evidence == ["E2"]
        assert store.get("E2").status == EvidenceStatus.INVALIDATED
        assert store.get("E1").status == EvidenceStatus.VALID
        assert "G3" in plan.affected_goals
        assert "G2" in plan.untouched_goals

    def test_incremental_cheaper_than_full(self):
        case, store = build_assurance_case()
        plan = IncrementalCertifier(case, store).plan_upgrade({"middleware"})
        assert plan.incremental_cost < plan.full_recert_cost
        assert 0.0 < plan.cost_saving_fraction < 1.0

    def test_upgrading_everything_costs_full(self):
        case, store = build_assurance_case()
        plan = IncrementalCertifier(case, store).plan_upgrade(
            {"supervisor", "pump", "middleware", "oximeter"}
        )
        assert plan.incremental_cost == plan.full_recert_cost

    def test_regeneration_restores_completeness(self):
        case, store = build_assurance_case()
        certifier = IncrementalCertifier(case, store)
        plan = certifier.apply_upgrade({"pump"})
        assert not certifier.certification_complete()
        certifier.regenerate(plan.invalidated_evidence)
        assert certifier.certification_complete()

    def test_missing_evidence_reported(self):
        case, store = build_assurance_case()
        case.add(SolutionNode("Sn9", "dangling evidence", "E-missing"), parent_id="G3")
        problems = IncrementalCertifier(case, store).check_well_formed()
        assert any("missing evidence" in p for p in problems)


class TestPIDController:
    def test_gains_validation(self):
        with pytest.raises(ValueError):
            PIDGains(kp=-1.0)

    def test_output_limits_enforced(self):
        pid = PIDController(PIDGains(kp=10.0), output_min=0.0, output_max=1.0, setpoint=100.0)
        assert pid.update(0.0, dt=1.0) == 1.0

    def test_proportional_action(self):
        pid = PIDController(PIDGains(kp=0.5), output_max=100.0, setpoint=10.0)
        assert pid.update(6.0, dt=1.0) == pytest.approx(2.0)

    def test_integral_accumulates(self):
        pid = PIDController(PIDGains(kp=0.0, ki=0.1), output_max=100.0, setpoint=10.0)
        first = pid.update(5.0, dt=1.0)
        second = pid.update(5.0, dt=1.0)
        assert second > first

    def test_anti_windup_stops_integral_growth_at_saturation(self):
        pid = PIDController(PIDGains(kp=0.0, ki=1.0), output_max=1.0, setpoint=10.0)
        for _ in range(100):
            pid.update(0.0, dt=1.0)
        # After the setpoint is reached the output should not take hundreds of
        # steps to unwind.
        outputs = [pid.update(20.0, dt=1.0) for _ in range(5)]
        assert outputs[-1] < 1.0

    def test_invalid_dt_rejected(self):
        with pytest.raises(ValueError):
            PIDController(PIDGains(kp=1.0)).update(0.0, dt=0.0)

    def test_reset(self):
        pid = PIDController(PIDGains(kp=1.0, ki=1.0), setpoint=5.0, output_max=10.0)
        pid.update(0.0, dt=1.0)
        pid.reset()
        assert pid.last_output == 0.0


class TestSupervisoryAdaptiveController:
    def _bank(self):
        # Candidate models: plant gain hypotheses 0.5, 1.0, 2.0.
        candidates = []
        for gain in (0.5, 1.0, 2.0):
            controller = PIDController(PIDGains(kp=1.0 / gain), output_max=10.0, setpoint=5.0)
            candidates.append(CandidateController(
                name=f"gain-{gain}",
                controller=controller,
                predictor=lambda output, dt, gain=gain: gain * output * dt,
            ))
        return candidates

    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            SupervisoryAdaptiveController([])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupervisoryConfig(hysteresis=0.5).validate()

    def test_switches_to_best_model(self):
        controller = SupervisoryAdaptiveController(
            self._bank(), SupervisoryConfig(dwell_time_s=0.0, hysteresis=1.01, forgetting_factor=0.9)
        )
        # Simulate a plant with true gain 2.0: measurement increases by
        # 2 * output * dt each step.
        measurement = 0.0
        time = 0.0
        for _ in range(50):
            output = controller.update(time, measurement, dt=1.0)
            measurement += 2.0 * output * 1.0
            time += 1.0
        assert controller.active_candidate.name == "gain-2.0"

    def test_dwell_time_limits_switching(self):
        controller = SupervisoryAdaptiveController(
            self._bank(), SupervisoryConfig(dwell_time_s=1000.0)
        )
        measurement = 0.0
        for step in range(20):
            output = controller.update(float(step), measurement, dt=1.0)
            measurement += 2.0 * output
        assert controller.switch_count <= 1

    def test_scores_tracked_per_candidate(self):
        controller = SupervisoryAdaptiveController(self._bank())
        controller.update(0.0, 0.0, dt=1.0)
        controller.update(1.0, 1.0, dt=1.0)
        assert set(controller.scores) == {"gain-0.5", "gain-1.0", "gain-2.0"}
