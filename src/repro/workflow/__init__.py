"""Executable clinical workflows.

Section III(e) of the paper calls for "a language for describing clinical
scenarios" specifying the devices, data flows, caregiver roles, operational
procedures, and closed-loop decision logic, with "precise operational
semantics" so scenarios can be analysed for ambiguity, coverage, device
compatibility, and fault effects, and then "compiled into run-time components
that will provide decision support for caregivers".

* :mod:`~repro.workflow.spec` -- the scenario description language
  (dataclasses for devices, flows, roles, procedure steps, decision rules).
* :mod:`~repro.workflow.analysis` -- static analysis: unreachable steps,
  ambiguous or missing transitions, role coverage, device requirement
  satisfiability, fault-effect exploration.
* :mod:`~repro.workflow.compiler` -- compiles decision rules into a
  :class:`repro.middleware.supervisor_host.SupervisorApp` and generates the
  device requirements for deployment-time matching.
"""

from repro.workflow.spec import (
    CaregiverRole,
    ClinicalScenario,
    DataFlow,
    DecisionRule,
    DeviceRole,
    ProcedureStep,
)
from repro.workflow.analysis import AnalysisFinding, analyse_scenario
from repro.workflow.compiler import CompiledScenarioApp, compile_scenario, device_requirements

__all__ = [
    "CaregiverRole",
    "ClinicalScenario",
    "DataFlow",
    "DecisionRule",
    "DeviceRole",
    "ProcedureStep",
    "AnalysisFinding",
    "analyse_scenario",
    "CompiledScenarioApp",
    "compile_scenario",
    "device_requirements",
]
