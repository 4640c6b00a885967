"""Outside-in layer tracer for the benchmark.

The tracer records spans at layer boundaries without touching the program's
source: :meth:`Tracer.install` replaces each boundary listed in
:data:`BOUNDARIES` (a public method, or a callback a layer hands to the
kernel) with a thin wrapper, on the class or module, before any system is
wired.  Systems built afterwards pick up the wrapped methods, including the
bound methods they hoist at construction time.

A span is ``(name, start, end, parent span, run)``.  Spans are kept in flat
arrays in memory while a campaign run executes; when the run ends they are
folded into per-name self time (span duration minus the durations of its
direct children) and exact call counts, and the arrays are truncated back
to the run's own span.  The fold is itself recorded as a ``trace.fold``
span, so the tracer's bookkeeping is never billed to a program layer.

Every span name belongs to exactly one bucket (a layer, or one operation of
the campaign layers).  Bucket self times plus the pipeline root's own self
time (``unattributed``) add up to the traced wall time.  Code that no
boundary covers is billed to the nearest traced caller: the kernel's
``schedule`` is not a boundary (tracing it would cost as much as it does),
so a heap push counts toward the layer that scheduled the event.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: ``(bucket, module, class or None for module functions, attributes)``.
BOUNDARIES: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim.kernel", "repro.sim.kernel", "Simulator", ("run",)),
    ("sim.channel", "repro.sim.channel", "Channel", ("send", "_deliver_batch")),
    ("middleware.bus", "repro.middleware.bus", "DeviceBus",
     ("publish", "_on_uplink_message", "_forward", "send_command")),
    ("middleware.qos", "repro.middleware.qos", "QoSMonitor", ("record_delivery", "is_stale")),
    ("middleware.supervisor_host", "repro.middleware.supervisor_host", "SupervisorHost",
     ("_run_step", "send_command")),
    ("middleware.supervisor_host", "repro.core.pca", "PCASafetySupervisor", ("on_data", "step")),
    ("middleware.supervisor_host", "repro.topology.expand", "WardSafetyApp", ("on_data",)),
    ("devices", "repro.devices.base", "MedicalDevice", ("handle_command",)),
    ("devices", "repro.devices.pulse_oximeter", "PulseOximeter", ("_sample",)),
    ("devices", "repro.devices.capnograph", "Capnograph", ("_sample",)),
    ("devices", "repro.devices.bp_monitor", "BloodPressureMonitor", ("_sample",)),
    ("devices", "repro.devices.bed", "HospitalBed", ("set_height", "_finish_move")),
    ("devices", "repro.devices.pca_pump", "PCAPump",
     ("_publish_status", "request_bolus", "_do_stop", "_do_resume")),
    ("patient", "repro.patient.model", "PatientModel",
     ("_advance", "infuse_bolus", "set_infusion_rate")),
    ("patient", "repro.core.loop", "_PatientButton", ("_press",)),
    ("sim.trace", "repro.sim.trace", "TraceRecorder", ("record", "record_many", "event")),
    ("sim.trace", "repro.sim.sampler", "BatchedTraceWriter", ("flush",)),
    ("sim.faults", "repro.sim.faults", "FaultInjector", ("_apply",)),
    ("alarms", "repro.alarms.thresholds", "ThresholdAlarm", ("observe",)),
    ("alarms", "repro.core.loop", "_AlarmRelay", ("_check",)),
    ("core.caregiver", "repro.core.caregiver", "Caregiver",
     ("_do_rounds", "notify_alarm", "_intervene")),
    ("core.loop.build", "repro.core.loop", "ClosedLoopPCASystem", ("build",)),
    ("core.loop.collect", "repro.core.loop", "ClosedLoopPCASystem", ("_collect",)),
    ("topology.expand", "repro.topology.expand", None, ("expand_topology",)),
    ("topology.build", "repro.topology.expand", None, ("build_hospital",)),
    ("topology.generate", "repro.topology.generators", None,
     ("generate_fault_plan", "generate_attack_plan", "security_for_posture")),
    ("security.audit", "repro.security.attacks", "AttackCampaign", ("run",)),
    ("campaign.spec.patient", "repro.campaign.spec", None, ("cohort_patient",)),
    ("campaign.spec.expand", "repro.campaign.spec", "CampaignSpec", ("expand",)),
    ("campaign.engine", "repro.campaign.engine", "CampaignEngine", ("run",)),
    ("campaign.engine", "repro.campaign.engine", None, ("execute_manifest",)),
    ("campaign.store.append", "repro.campaign.store", "ResultStore", ("append",)),
    ("campaign.store.merge", "repro.campaign.store", "ResultStore", ("merge",)),
    ("campaign.store.other", "repro.campaign.store", "ResultStore",
     ("write_manifest", "check_manifest", "finalize", "finalize_errors", "close")),
    ("campaign.aggregate.report", "repro.campaign.aggregate", None,
     ("streaming_campaign_table",)),
)

#: Exact counts read at a boundary: span name -> (count key, probe).  The
#: count grows by ``probe(args)`` after the call minus before it.
DELTA_COUNTS: Dict[str, Tuple[str, Callable[[tuple], int]]] = {
    "repro.sim.kernel.Simulator.run": ("events", lambda args: args[0].event_count),
    "repro.sim.channel.Channel._deliver_batch":
        ("coalesced_ticks", lambda args: args[0].coalesced_ticks),
    "repro.middleware.bus.DeviceBus._forward": ("forwards", lambda args: args[0].forwarded_count),
}
#: Span name -> (count key, amount added per call from its arguments).
ARG_COUNTS: Dict[str, Tuple[str, Callable[[tuple], int]]] = {
    "repro.sim.trace.TraceRecorder.record_many": ("batched_points", lambda args: len(args[2])),
}
#: The boundary that starts one campaign run: spans under it are folded.
RUN_BOUNDARY = "repro.campaign.engine.execute_manifest"

#: Pseudo-buckets: the pipeline root's own time, and the tracer's fold.
ROOT = "unattributed"
FOLD = "trace.fold"


def span_name(module: str, owner: Optional[str], attribute: str) -> str:
    return f"{module}.{owner}.{attribute}" if owner else f"{module}.{attribute}"


class Tracer:
    """In-memory span store with per-run folding and exact counts."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.buckets: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.stack: List[int] = [-1]
        self.run_ids: List[str] = []
        self.current_run = -1
        #: Folded child time of spans still held (their children are gone).
        self.folded_child: Dict[int, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.missing: List[str] = []
        self._fold_id = self.name_id(FOLD, FOLD)

    def name_id(self, name: str, bucket: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
            self.buckets.append(bucket)
        return index

    def reset(self) -> None:
        """Drop every span and total; installed wrappers keep working."""
        for column in (self.span_name, self.start, self.end, self.parent, self.run):
            del column[:]
        del self.stack[1:]
        self.run_ids.clear()
        self.current_run = -1
        self.folded_child.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    # ----------------------------------------------------------------- spans
    def open(self, name_id: int) -> int:
        index = len(self.end)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.run.append(self.current_run)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def wrap(self, fn: Callable, name_id: int) -> Callable:
        """The span wrapper: the hot path of every traced boundary."""
        stack = self.stack
        push, pop = stack.append, stack.pop
        add_name, add_parent, add_run = (
            self.span_name.append, self.parent.append, self.run.append)
        add_start, add_end, ends = self.start.append, self.end.append, self.end
        tracer = self
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ends)
            add_name(name_id)
            add_parent(stack[-1])
            add_run(tracer.current_run)
            add_end(0.0)
            push(index)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()

        return traced

    # ----------------------------------------------------------------- fold
    def fold(self, root: int) -> None:
        """Fold every span recorded after ``root`` (all its descendants).

        Self time and call counts go to the per-name totals; ``root`` keeps
        its direct children's total duration in :attr:`folded_child`.
        """
        began = perf_counter()
        first = root + 1
        if len(self.end) > first:
            # Slicing copies, so no numpy view pins the arrays being truncated.
            names = np.frombuffer(self.span_name[first:], dtype=np.int64)
            parents = np.frombuffer(self.parent[first:], dtype=np.int64)
            duration = (np.frombuffer(self.end[first:], dtype=np.float64)
                        - np.frombuffer(self.start[first:], dtype=np.float64))
            size = len(self.names)
            inner = parents > root
            totals = np.bincount(names, weights=duration, minlength=size)
            totals -= np.bincount(names[parents[inner] - first],
                                  weights=duration[inner], minlength=size)
            self._add(totals, np.bincount(names, minlength=size))
            self.folded_child[root] = (self.folded_child.get(root, 0.0)
                                       + float(duration[~inner].sum()))
            for column in (self.span_name, self.start, self.end, self.parent, self.run):
                del column[first:]
        self.span_name.append(self._fold_id)
        self.parent.append(self.stack[-1])
        self.run.append(self.current_run)
        self.start.append(began)
        self.end.append(perf_counter())

    def finish(self) -> None:
        """Fold the spans still held (the pipeline level) into the totals."""
        if not self.end:
            return
        names = np.frombuffer(self.span_name[:], dtype=np.int64)
        parents = np.frombuffer(self.parent[:], dtype=np.int64)
        duration = (np.frombuffer(self.end[:], dtype=np.float64)
                    - np.frombuffer(self.start[:], dtype=np.float64))
        own = duration.copy()
        inner = parents >= 0
        np.subtract.at(own, parents[inner], duration[inner])
        for index, child in self.folded_child.items():
            own[index] -= child
        size = len(self.names)
        self._add(np.bincount(names, weights=own, minlength=size),
                  np.bincount(names, minlength=size))

    def _add(self, seconds: np.ndarray, calls: np.ndarray) -> None:
        for index in np.nonzero(calls)[0]:
            name = self.names[index]
            self.self_time[name] = self.self_time.get(name, 0.0) + float(seconds[index])
            self.calls[name] = self.calls.get(name, 0) + int(calls[index])

    # -------------------------------------------------------------- results
    def kept_spans(self) -> List[Dict[str, Any]]:
        """The spans still held in memory (pipeline level and run roots)."""
        return [
            {"name": self.names[self.span_name[i]], "start": self.start[i],
             "end": self.end[i], "parent": self.parent[i],
             "run": self.run_ids[self.run[i]] if self.run[i] >= 0 else None}
            for i in range(len(self.end))
        ]

    def bucket_self_time(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for name, seconds in self.self_time.items():
            bucket = self.buckets[self._ids[name]]
            totals[bucket] = totals.get(bucket, 0.0) + seconds
        return totals

    # -------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every boundary, for the rest of the process.

        Boundaries the program no longer has are listed in :attr:`missing`
        rather than failing: their time then counts toward the caller.
        """
        for bucket, module_name, owner_name, attributes in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            owner = getattr(module, owner_name, None) if owner_name else module
            for attribute in attributes:
                name = span_name(module_name, owner_name, attribute)
                target = vars(owner).get(attribute) if owner is not None else None
                if not callable(target):
                    self.missing.append(name)
                    continue
                wrapped = self._boundary(target, name, self.name_id(name, bucket))
                self._replace(owner, attribute, target, wrapped, owner_name is None)

    def _boundary(self, fn: Callable, name: str, name_id: int) -> Callable:
        if name == RUN_BOUNDARY:
            def execute(manifest, *args, **kwargs):
                self.run_ids.append(manifest.run_id)
                self.current_run = len(self.run_ids) - 1
                root = self.open(name_id)
                try:
                    return fn(manifest, *args, **kwargs)
                finally:
                    self.close(root)
                    self.fold(root)
                    self.current_run = -1
            return functools.wraps(fn)(execute)
        traced = self.wrap(fn, name_id)
        counts = self.counts
        if name in DELTA_COUNTS:
            key, probe = DELTA_COUNTS[name]

            def delta(*args, **kwargs):
                before = probe(args)
                try:
                    return traced(*args, **kwargs)
                finally:
                    counts[key] = counts.get(key, 0) + probe(args) - before
            return functools.wraps(fn)(delta)
        if name in ARG_COUNTS:
            key, amount = ARG_COUNTS[name]

            def by_argument(*args, **kwargs):
                counts[key] = counts.get(key, 0) + amount(args)
                return traced(*args, **kwargs)
            return functools.wraps(fn)(by_argument)
        return traced

    @staticmethod
    def _replace(owner: Any, attribute: str, original: Any, wrapped: Any,
                 is_module: bool) -> None:
        setattr(owner, attribute, wrapped)
        if not is_module:
            return
        # Modules that imported the function by name hold their own reference.
        for module_name, module in list(sys.modules.items()):
            if (module_name.startswith("repro.") and module is not owner
                    and getattr(module, attribute, None) is original):
                setattr(module, attribute, wrapped)
