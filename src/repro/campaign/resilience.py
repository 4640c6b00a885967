"""Fault-tolerant campaign execution: error capture, retries, and watchdog.

The paper's core requirement (Section II(c)) is a supervisor "tolerant to
faults that interfere with the control loop"; at population scale the same
discipline must apply to the campaign engine itself — one bad run out of a
million must not kill the job.  This module provides the three layers
every campaign run goes through:

* **Structured error capture** (:func:`execute_with_capture`): a failing
  run yields an *error record* — exception class, message, traceback
  digest, attempt count, wall time, transient/deterministic classification
  — instead of an exception that poisons the worker pool.  Error records
  are quarantined to ``errors.jsonl`` by the store and re-dispatched on
  resume.
* **Bounded deterministic retry** (:class:`RetryPolicy`): transient
  failures retry in-worker with seeded-jitter backoff derived from
  ``derive_seed(manifest.seed, attempt)``, so reruns of a flaky run are
  reproducible; deterministic failures quarantine immediately.
* **Worker-death and timeout tolerance** (:class:`ResilientDispatcher`):
  a parent-side loop dispatches runs with ``apply_async`` and wakes as soon
  as one completes.  Once per :data:`WATCHDOG_PERIOD_S` it reads the
  per-run heartbeat files written by the workers, SIGKILLs wedged workers
  whose run exceeds its wall-clock budget (``multiprocessing.Pool``
  respawns the process), and re-dispatches runs whose worker died under
  them.  When the pool cannot be kept alive it hands the unfinished runs
  back to the engine, which executes them serially in the parent.

Without a :class:`ResilienceConfig` the engine uses a single attempt per
run and raises :class:`~repro.campaign.registry.CampaignError` on the first error
record instead of quarantining it.
"""

from __future__ import annotations

import hashlib
import os
import queue
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.campaign.registry import CampaignError
from repro.campaign.spec import RunManifest
from repro.sim.random import derive_seed

#: Outcome tuples the engine consumes: ("ok", record, attempts) or
#: ("error", error_record).  Error records carry their attempt count inside.
Outcome = Tuple[str, Dict[str, Any], int]

OK = "ok"
ERROR = "error"

#: Error classifications recorded in ``errors.jsonl``.
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"
TIMEOUT = "timeout"
WORKER_LOST = "worker_lost"


class TransientError(RuntimeError):
    """Marker for failures worth retrying (I/O hiccups, resource races).

    Scenario runners raise this (or any type named in
    :attr:`RetryPolicy.transient_types`) to request an in-worker retry
    instead of immediate quarantine.
    """


# ----------------------------------------------------------------- attempts
#: 1-based attempt number of the run currently executing in this process.
_CURRENT_ATTEMPT = 1

#: True inside a resilient pool worker (set by the worker initializer).
_IN_WORKER = False


def current_attempt() -> int:
    """The 1-based attempt number of the run executing right now.

    Scenario runners may consult this to make transient failures converge
    (the chaos scenario's ``flaky`` behaviour succeeds once
    ``current_attempt() >= fail_attempts``).
    """
    return _CURRENT_ATTEMPT


def in_worker() -> bool:
    """Whether this process is a resilient campaign pool worker."""
    return _IN_WORKER


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


# -------------------------------------------------------------- retry policy
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministically jittered retry for transient failures.

    max_attempts:
        Total tries per run (1 = never retry).
    backoff_base_s / backoff_factor:
        Attempt ``n`` (1-based) sleeps ``base * factor**(n-1)`` seconds
        before retrying, capped at ``backoff_max_s``.
    backoff_jitter:
        Fraction of the backoff added as seeded jitter.  The jitter for
        attempt ``n`` of a run derives from ``derive_seed(run_seed,
        "retry:n")`` — identical on every rerun of the campaign, so retry
        timing never introduces nondeterminism.
    transient_types:
        Exception type *names* classified as transient (matched against the
        exception class, its bases, and its ``__cause__`` chain, so a
        runner error wrapped in :class:`CampaignError` keeps its
        classification).
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    backoff_jitter: float = 0.5
    transient_types: Tuple[str, ...] = (
        "TransientError", "ConnectionError", "BrokenPipeError", "EOFError",
        "TimeoutError",
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise CampaignError("retry max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise CampaignError("retry backoff must be non-negative")

    def classify(self, error: BaseException) -> str:
        """``"transient"`` or ``"deterministic"`` for ``error``."""
        wanted = set(self.transient_types)
        seen = set()
        current: Optional[BaseException] = error
        while current is not None and id(current) not in seen:
            seen.add(id(current))
            for klass in type(current).__mro__:
                if klass.__name__ in wanted:
                    return TRANSIENT
            current = current.__cause__ or current.__context__
        return DETERMINISTIC

    def backoff_s(self, run_seed: int, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based count of failures so far)."""
        base = min(self.backoff_max_s,
                   self.backoff_base_s * (self.backoff_factor ** (attempt - 1)))
        if base <= 0.0:
            return 0.0
        jitter_seed = derive_seed(run_seed, f"retry:{attempt}")
        unit = (jitter_seed % 10_000) / 10_000.0  # deterministic U[0, 1)
        return base * (1.0 + self.backoff_jitter * unit)


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the engine needs to survive failing runs and workers.

    retry:
        In-worker retry policy for transient errors.
    run_timeout_s:
        Per-run wall-clock budget.  Only enforceable with ``workers > 1``
        (the parent cannot preempt its own thread), so the engine rejects
        it for serial campaigns; a run that exceeds it is quarantined as
        ``timeout`` and its worker is killed and respawned.
    max_dispatch_attempts:
        How many times a run is re-dispatched after its *worker* died under
        it (distinct from in-worker retries: the run itself never raised).
    max_worker_restarts:
        After this many killed/lost workers the dispatcher stops trusting
        the pool and degrades to in-parent serial execution for the
        survivors (timeouts can then no longer be enforced, but the
        campaign completes).
    heartbeat_grace_s:
        Extra wall-clock allowance between dispatch and the worker's
        heartbeat appearing, absorbing pool scheduling delay.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    run_timeout_s: Optional[float] = None
    max_dispatch_attempts: int = 2
    max_worker_restarts: int = 3
    heartbeat_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise CampaignError("run_timeout_s must be positive")
        if self.max_dispatch_attempts < 1:
            raise CampaignError("max_dispatch_attempts must be >= 1")


# ------------------------------------------------------------ error records
def _traceback_digest(error: BaseException) -> Tuple[str, str]:
    """(sha256 digest, last frame summary) of the error's traceback."""
    text = "".join(traceback.format_exception(
        type(error), error, error.__traceback__))
    digest = hashlib.sha256(text.encode()).hexdigest()
    frames = traceback.extract_tb(error.__traceback__)
    where = ""
    if frames:
        last = frames[-1]
        where = f"{Path(last.filename).name}:{last.lineno} in {last.name}"
    return digest, where


def error_record(
    manifest: RunManifest,
    *,
    classification: str,
    attempts: int,
    wall_s: float,
    error: Optional[BaseException] = None,
    message: Optional[str] = None,
) -> Dict[str, Any]:
    """Build the quarantine record for one failed run.

    Mirrors the result-record envelope (run identity + params) so
    ``errors.jsonl`` is self-describing, and nests the failure detail under
    ``"error"``.  Synthetic failures (timeouts, lost workers) pass
    ``message`` instead of an exception.
    """
    if error is not None:
        digest, where = _traceback_digest(error)
        detail = {
            "type": type(error).__name__,
            "message": str(error),
            "traceback_digest": digest,
            "where": where,
        }
    else:
        detail = {"type": classification, "message": message or "", }
    detail["classification"] = classification
    detail["attempts"] = attempts
    detail["wall_s"] = round(wall_s, 6)
    return {
        "run_index": manifest.run_index,
        "run_id": manifest.run_id,
        "scenario": manifest.scenario,
        "seed": manifest.seed,
        "params": dict(manifest.params),
        "error": detail,
    }


def execute_with_capture(
    manifest: RunManifest,
    policy: RetryPolicy,
    *,
    execute: Optional[Callable[[RunManifest], Dict[str, Any]]] = None,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[], None]] = None,
) -> Outcome:
    """Run one manifest, retrying transients; never raises for run failures.

    Returns ``("ok", record, attempts)`` or ``("error", error_record,
    attempts)``.  ``KeyboardInterrupt`` / ``SystemExit`` still propagate —
    they are operator intent, not run failures.
    """
    global _CURRENT_ATTEMPT
    if execute is None:
        from repro.campaign.engine import execute_manifest
        execute = execute_manifest
    attempts = 0
    wall_start = time.perf_counter()
    while True:
        attempts += 1
        _CURRENT_ATTEMPT = attempts
        try:
            record = execute(manifest)
            _CURRENT_ATTEMPT = 1
            return (OK, record, attempts)
        except (KeyboardInterrupt, SystemExit):
            _CURRENT_ATTEMPT = 1
            raise
        except BaseException as error:  # noqa: BLE001 - capture is the point
            classification = policy.classify(error)
            if classification == TRANSIENT and attempts < policy.max_attempts:
                if on_retry is not None:
                    on_retry()
                delay = policy.backoff_s(manifest.seed, attempts)
                if delay > 0.0:
                    sleep(delay)
                continue
            _CURRENT_ATTEMPT = 1
            return (ERROR,
                    error_record(manifest, classification=classification,
                                 attempts=attempts,
                                 wall_s=time.perf_counter() - wall_start,
                                 error=error),
                    attempts)


# ----------------------------------------------------------------- watchdog
class Heartbeat:
    """Per-run heartbeat files linking a dispatched run to its worker pid.

    A worker writes ``run-<index>.hb`` (containing ``pid started_at``) when
    it picks the run up and renames it to ``run-<index>.done`` when the run
    has finished; the parent removes the marker once it has consumed the
    run's completion.  The parent watchdog reads them to (a) start the
    run's wall-clock budget at actual pickup rather than dispatch, (b) tell
    a *dead* worker (re-dispatch the run) from a *wedged* one (kill it and
    quarantine the run), and (c) tell a finished run whose result is still
    on its way from one that was never picked up.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = Path(
            directory if directory is not None
            else tempfile.mkdtemp(prefix="repro-campaign-hb-"))
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, run_index: int) -> Path:
        return self.directory / f"run-{run_index:08d}.hb"

    def done_path(self, run_index: int) -> Path:
        return self.directory / f"run-{run_index:08d}.done"

    # Worker side -------------------------------------------------------
    def start(self, run_index: int) -> None:
        try:
            self.path(run_index).write_text(
                f"{os.getpid()} {time.time()}", encoding="utf-8")
        except OSError:  # pragma: no cover - scratch dir vanished
            pass

    def finish(self, run_index: int) -> None:
        try:
            os.replace(self.path(run_index), self.done_path(run_index))
        except OSError:
            pass

    # Parent side -------------------------------------------------------
    @staticmethod
    def _parse(path: Path) -> Optional[Tuple[int, float]]:
        try:
            parts = path.read_text(encoding="utf-8").split()
            return int(parts[0]), float(parts[1])
        except (OSError, ValueError, IndexError):
            return None

    def read(self, run_index: int) -> Optional[Tuple[int, float]]:
        """(pid, started_at) while a worker is executing the run."""
        return self._parse(self.path(run_index))

    def read_done(self, run_index: int) -> Optional[Tuple[int, float]]:
        """(pid, started_at) once the run has finished in that worker."""
        return self._parse(self.done_path(run_index))

    def clear(self, run_index: int) -> None:
        """Forget the run: its completion was consumed or it was expired."""
        for path in (self.path(run_index), self.done_path(run_index)):
            try:
                path.unlink()
            except OSError:
                pass

    def cleanup(self) -> None:
        try:
            for stale in self.directory.glob("run-*"):
                stale.unlink()
            self.directory.rmdir()
        except OSError:  # pragma: no cover - foreign files left behind
            pass


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (POSIX signal 0)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - EPERM etc: assume alive
        return True
    return True


def kill_worker(pid: int) -> bool:
    """SIGKILL a wedged pool worker; the pool respawns a replacement."""
    try:
        os.kill(pid, getattr(signal, "SIGKILL", signal.SIGTERM))
    except OSError:
        return False
    return True


#: How often the dispatcher reads heartbeats to enforce deadlines and spot
#: dead workers.  Completions never wait for it: they wake the dispatcher.
WATCHDOG_PERIOD_S = 0.1


@dataclass
class _InFlight:
    manifest: RunManifest
    payload_index: int
    dispatched_at: float
    dispatch_attempts: int


class ResilientDispatcher:
    """Parent-side watchdog loop over an ``apply_async`` worker pool.

    The engine hands it a live pool plus the pending manifests; it yields
    :data:`Outcome` tuples as runs finish, survives worker death (re-
    dispatch, bounded), and enforces per-run timeouts (targeted SIGKILL of
    the wedged worker — the pool respawns it).  Each completion's callback
    feeds a queue the loop blocks on, so a finished run is consumed at
    once; up to two runs per process are in flight, so a worker never
    idles while the parent refills the pool.  A queued run therefore waits
    for at most one run per worker (each bounded by ``run_timeout_s``),
    which ``heartbeat_grace_s`` absorbs before a run that never started
    counts as lost.  Once ``max_worker_restarts``
    is exhausted the pool is terminated and :meth:`outcomes` returns the
    unfinished manifests for the caller to run serially.  The ``stats``
    dict exposes ``worker_restarts`` / ``timed_out`` / ``redispatched`` for
    the campaign report.
    """

    def __init__(
        self,
        pool: Any,
        manifests: List[RunManifest],
        config: ResilienceConfig,
        heartbeat: Heartbeat,
        worker: Callable[[int], Outcome],
        processes: int,
    ) -> None:
        self.pool = pool
        self.manifests = manifests
        self.config = config
        self.heartbeat = heartbeat
        self.worker = worker
        self.window = 2 * processes
        self.stats = {"worker_restarts": 0, "timed_out": 0, "redispatched": 0}
        self._queue: List[Tuple[int, int]] = [
            (i, 1) for i in range(len(manifests))]
        self._inflight: Dict[int, _InFlight] = {}
        #: (flight, outcome or the exception the pool reported), fed by the
        #: pool's result thread.
        self._done: "queue.SimpleQueue[Tuple[_InFlight, Any]]" = queue.SimpleQueue()

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, payload_index: int, attempt: int) -> None:
        flight = _InFlight(
            manifest=self.manifests[payload_index],
            payload_index=payload_index,
            dispatched_at=time.monotonic(),
            dispatch_attempts=attempt,
        )
        # Registered before submission: a callback may fire at once.
        self._inflight[payload_index] = flight
        self.pool.apply_async(
            self.worker, (payload_index,),
            callback=lambda outcome: self._done.put((flight, outcome)),
            error_callback=lambda error: self._done.put((flight, error)),
        )

    def _fill_slots(self) -> None:
        while self._queue and len(self._inflight) < self.window:
            index, attempt = self._queue.pop(0)
            self._dispatch(index, attempt)

    def _completed(self, flight: _InFlight, outcome: Any) -> Outcome:
        """The outcome of a finished task; a task the pool itself failed
        (e.g. an unpicklable result) becomes an error record."""
        if not isinstance(outcome, BaseException):
            return outcome
        return (ERROR,
                error_record(flight.manifest,
                             classification=self.config.retry.classify(outcome),
                             attempts=flight.dispatch_attempts,
                             wall_s=time.monotonic() - flight.dispatched_at,
                             error=outcome),
                flight.dispatch_attempts)

    # -------------------------------------------------------------- watchdog
    def _expiry(self, flight: _InFlight, now: float) -> Optional[Tuple[str, Optional[int]]]:
        """Why the watchdog must take this in-flight run back, or ``None``.

        ``(TIMEOUT, pid)``: a live worker is past the run's budget.
        ``(WORKER_LOST, None)``: the worker died, or the run was never
        picked up within budget plus grace.  A finished run whose
        completion has not arrived yet is left alone while its worker
        lives: the worker sends the result before it takes another task.
        """
        timeout = self.config.run_timeout_s
        beat = self.heartbeat.read(flight.payload_index)
        if beat is not None:
            pid, started_at = beat
            if not pid_alive(pid):
                return WORKER_LOST, None
            if timeout is not None and time.time() - started_at > timeout:
                return TIMEOUT, pid
            return None
        done = self.heartbeat.read_done(flight.payload_index)
        if done is not None:
            return None if pid_alive(done[0]) else (WORKER_LOST, None)
        if timeout is not None and now - flight.dispatched_at > (
                timeout + self.config.heartbeat_grace_s):
            return WORKER_LOST, None
        return None

    def _handle_expiry(self, flight: _InFlight, reason: str,
                       pid: Optional[int]) -> Optional[Outcome]:
        """Timeout or worker loss for one in-flight run.

        Returns an error outcome to emit, or ``None`` if the run was
        re-queued (lost worker, budget left).
        """
        self.stats["worker_restarts"] += 1
        self.heartbeat.clear(flight.payload_index)
        run_id = flight.manifest.run_id
        if reason == TIMEOUT:
            # Wedged or genuinely too slow: reclaim the slot.
            kill_worker(pid)
            self.stats["timed_out"] += 1
            return (ERROR,
                    error_record(flight.manifest, classification=TIMEOUT,
                                 attempts=flight.dispatch_attempts,
                                 wall_s=self.config.run_timeout_s or 0.0,
                                 message=(
                                     f"run {run_id!r} exceeded its wall-clock "
                                     f"budget of {self.config.run_timeout_s}s")),
                    flight.dispatch_attempts)
        # Worker died under the run (or never picked it up): the run itself
        # is innocent — re-dispatch unless its budget is spent.
        if flight.dispatch_attempts < self.config.max_dispatch_attempts:
            self.stats["redispatched"] += 1
            self._queue.append(
                (flight.payload_index, flight.dispatch_attempts + 1))
            return None
        return (ERROR,
                error_record(flight.manifest, classification=WORKER_LOST,
                             attempts=flight.dispatch_attempts,
                             wall_s=time.monotonic() - flight.dispatched_at,
                             message=(
                                 "worker process died "
                                 f"{flight.dispatch_attempts} time(s) while "
                                 f"executing run {run_id!r}")),
                flight.dispatch_attempts)

    def _watch(self, now: float) -> Generator[Outcome, None, None]:
        """One watchdog pass: expire timed-out runs and runs of dead workers."""
        for index in list(self._inflight):
            flight = self._inflight[index]
            expiry = self._expiry(flight, now)
            if expiry is not None:
                del self._inflight[index]
                outcome = self._handle_expiry(flight, *expiry)
                if outcome is not None:
                    yield outcome

    def _consume(self, flight: _InFlight, outcome: Any) -> Optional[Outcome]:
        """The outcome of a completion, or ``None`` for a stale one (the
        watchdog already expired that dispatch)."""
        if self._inflight.get(flight.payload_index) is not flight:
            return None
        del self._inflight[flight.payload_index]
        self.heartbeat.clear(flight.payload_index)
        return self._completed(flight, outcome)

    # ------------------------------------------------------------------ run
    def outcomes(self) -> Generator[Outcome, None, List[RunManifest]]:
        """Yield one outcome per run, in completion order.

        Returns the manifests left unfinished when the pool had to be
        abandoned (empty otherwise); the caller executes them serially.
        """
        next_watch = time.monotonic() + WATCHDOG_PERIOD_S
        while self._queue or self._inflight:
            if self.stats["worker_restarts"] > self.config.max_worker_restarts:
                return self._abandon_pool()
            self._fill_slots()
            now = time.monotonic()
            if now >= next_watch:
                # Completions that are already here go first: the pass
                # must not mistake them for lost runs.
                while True:
                    try:
                        completion = self._done.get_nowait()
                    except queue.Empty:
                        break
                    outcome = self._consume(*completion)
                    if outcome is not None:
                        yield outcome
                next_watch = time.monotonic() + WATCHDOG_PERIOD_S
                yield from self._watch(time.monotonic())
                continue
            try:
                completion = self._done.get(timeout=next_watch - now)
            except queue.Empty:
                continue
            outcome = self._consume(*completion)
            if outcome is not None:
                yield outcome
        return []

    def _abandon_pool(self) -> List[RunManifest]:
        """Give up on the pool; the unfinished runs go back to the caller."""
        self.pool.terminate()
        indices = [index for index, _attempt in self._queue]
        indices.extend(self._inflight)
        self._queue.clear()
        self._inflight.clear()
        return [self.manifests[index] for index in indices]
