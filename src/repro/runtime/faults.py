"""Deterministic, seeded fault injection for the chase runtime.

The stack survives worker crashes, torn spill writes, truncated
snapshots and stuck workers — but only provably so if those failures
can be *produced* on demand.  This module is the production side of
that bargain: a ``FaultPlan`` names a list of fault points threaded
through the runtime (``worker.round``, ``cache.spill_write``,
``checkpoint.write``, ``http.response``) and the action to take when
execution reaches them.  Everything is opt-in: with no plan configured
``get_injector()`` returns a disabled singleton whose ``fire`` is a
single dict lookup, so the fault-free path stays byte-identical to a
build without this module.

Plans are deterministic, not probabilistic: each spec fires on exact
occurrence indices (``after`` skips, ``times`` fires), so a seeded
chaos schedule replays identically.  The ``seed`` field is provenance
for the generator that built the plan; the injector itself never draws
randomness.

Configuration travels through the ``REPRO_FAULTS`` environment
variable — either inline JSON or ``@/path/to/plan.json`` — because
pool workers are separate processes: a fork inherits the variable and
a respawned worker re-reads it.  Cross-process "how many times has
this spec fired" state lives in small counter files under
``state_dir`` (flock-serialised), so kill-once specs stay kill-once
even after the killed worker is replaced.  Fired faults append JSONL
rows to ``<state_dir>/fault_log.jsonl`` (or ``log``) for the chaos
suite and CI artifacts.

Fault points and the actions they honour:

``worker.round``
    Fired by :class:`RoundFaultPoint`, the run observer
    :func:`repro.runtime.executor.execute_payload` attaches after its
    checkpointer, at the end of every completed chase round with
    ``job=`` and ``round=`` context.
    Actions: ``kill`` (``os._exit(1)`` — a hard worker crash),
    ``error`` (raises a transient :class:`FaultError`), ``hang``
    (sleeps ``seconds`` — a stuck worker).
``cache.spill_write``
    Fired by :meth:`repro.runtime.cache.ResultCache.put` before
    appending a spill line.  Actions: ``error``, ``enospc`` (raises
    ``OSError(ENOSPC)``).
``checkpoint.write``
    Fired by :class:`repro.runtime.checkpoint.RoundCheckpointer`
    before persisting a mid-run snapshot.  Actions: ``truncate``
    (the blob is cut in half — a torn write), ``error``.
``http.response``
    Fired by the service request handler before writing a response
    body.  Actions: ``delay`` (sleeps ``seconds``), ``drop`` (the
    connection closes without a response).
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.observer import RunObserver

ENV_VAR = "REPRO_FAULTS"

#: Actions a spec may request, and the points that honour them.
ACTIONS = ("error", "kill", "hang", "enospc", "truncate", "delay", "drop")


class FaultError(RuntimeError):
    """An injected failure.

    ``transient`` mirrors the classification the executor applies to
    real failures: injected errors model crashes and I/O blips, which
    a retry may outrun, so they default to transient.
    """

    def __init__(self, message: str, *, point: str = "", transient: bool = True):
        super().__init__(message)
        self.point = point
        self.transient = transient


class FaultPlanError(ValueError):
    """The plan JSON is malformed."""


@dataclass(frozen=True)
class FaultSpec:
    """One named fault: where, what, and on which occurrences."""

    point: str
    action: str
    times: int = 1
    after: int = 0
    at_round: Optional[int] = None
    match: Optional[str] = None
    seconds: float = 0.05

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise FaultPlanError(
                f"unknown fault action {self.action!r} (expected one of {ACTIONS})"
            )
        if self.times < 1:
            raise FaultPlanError(f"fault times must be >= 1, got {self.times}")
        if self.after < 0:
            raise FaultPlanError(f"fault after must be >= 0, got {self.after}")

    def as_dict(self) -> dict:
        record = {"point": self.point, "action": self.action, "times": self.times}
        if self.after:
            record["after"] = self.after
        if self.at_round is not None:
            record["at_round"] = self.at_round
        if self.match is not None:
            record["match"] = self.match
        if self.action in ("hang", "delay"):
            record["seconds"] = self.seconds
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "FaultSpec":
        if not isinstance(record, dict):
            raise FaultPlanError(f"fault spec must be an object, got {type(record).__name__}")
        unknown = set(record) - {
            "point", "action", "times", "after", "at_round", "match", "seconds"
        }
        if unknown:
            raise FaultPlanError(f"unknown fault spec keys: {sorted(unknown)}")
        if "point" not in record or "action" not in record:
            raise FaultPlanError("fault spec needs 'point' and 'action'")
        return cls(
            point=str(record["point"]),
            action=str(record["action"]),
            times=int(record.get("times", 1)),
            after=int(record.get("after", 0)),
            at_round=None if record.get("at_round") is None else int(record["at_round"]),
            match=None if record.get("match") is None else str(record["match"]),
            seconds=float(record.get("seconds", 0.05)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic fault schedule."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    state_dir: Optional[str] = None
    log: Optional[str] = None

    def as_dict(self) -> dict:
        record: dict = {"seed": self.seed, "faults": [f.as_dict() for f in self.faults]}
        if self.state_dir:
            record["state_dir"] = self.state_dir
        if self.log:
            record["log"] = self.log
        return record

    def to_env(self) -> str:
        """A value for ``REPRO_FAULTS`` that round-trips this plan."""
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, record: dict) -> "FaultPlan":
        if not isinstance(record, dict):
            raise FaultPlanError(f"fault plan must be an object, got {type(record).__name__}")
        unknown = set(record) - {"seed", "faults", "state_dir", "log"}
        if unknown:
            raise FaultPlanError(f"unknown fault plan keys: {sorted(unknown)}")
        faults = record.get("faults", [])
        if not isinstance(faults, list):
            raise FaultPlanError("'faults' must be a list")
        return cls(
            faults=tuple(FaultSpec.from_dict(spec) for spec in faults),
            seed=int(record.get("seed", 0)),
            state_dir=record.get("state_dir"),
            log=record.get("log"),
        )

    @classmethod
    def from_env_value(cls, value: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` value: inline JSON or ``@path``."""
        text = value.strip()
        if text.startswith("@"):
            try:
                text = Path(text[1:]).read_text()
            except OSError as exc:
                raise FaultPlanError(f"cannot read fault plan file: {exc}") from exc
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(record)


@contextlib.contextmanager
def _sigterm_deferred():
    """Hold off SIGTERM while a pool worker counts and logs a fault.

    A broken pool terminates its surviving workers.  One stopped
    between truncating a spec's counter file and rewriting it would
    restart the count, and one stopped before logging would consume an
    occurrence unseen; either way the schedule fires the wrong number
    of times.
    """
    if not _worker_process or not hasattr(signal, "pthread_sigmask"):
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _flocked(handle):
    """flock the handle exclusively for the caller's with-block."""

    @contextlib.contextmanager
    def _ctx():
        try:
            import fcntl

            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                handle.flush()
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except ImportError:  # pragma: no cover - non-POSIX fallback
            yield

    return _ctx()


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at named fault points.

    Thread-safe; cross-process occurrence counts when the plan names a
    ``state_dir`` (each spec owns one counter file, incremented under
    flock), in-memory otherwise.  ``fire`` is the single entry point —
    it either returns ``None`` (no fault), returns an effect string
    the caller must honour (``"truncate"``, ``"drop"``), raises,
    sleeps, or never returns (``kill``).
    """

    def __init__(self, plan: Optional[FaultPlan]):
        self.plan = plan
        self._lock = threading.Lock()
        self._memory_counts: Dict[int, int] = {}
        self._fired_local: Dict[str, int] = {}
        self._by_point: Dict[str, List[Tuple[int, FaultSpec]]] = {}
        if plan is not None:
            for index, spec in enumerate(plan.faults):
                self._by_point.setdefault(spec.point, []).append((index, spec))
            if plan.state_dir:
                Path(plan.state_dir).mkdir(parents=True, exist_ok=True)

    @property
    def enabled(self) -> bool:
        return bool(self._by_point)

    # -- occurrence bookkeeping -------------------------------------

    def _next_occurrence(self, index: int) -> int:
        """Atomically increment and return spec ``index``'s occurrence count."""
        state_dir = self.plan.state_dir if self.plan else None
        if not state_dir:
            with self._lock:
                count = self._memory_counts.get(index, 0) + 1
                self._memory_counts[index] = count
                return count
        path = Path(state_dir) / f"spec{index}.occ"
        with self._lock:
            with open(path, "a+") as handle:
                with _flocked(handle):
                    handle.seek(0)
                    text = handle.read().strip()
                    count = (int(text) if text else 0) + 1
                    handle.seek(0)
                    handle.truncate()
                    handle.write(str(count))
        return count

    def _log_path(self) -> Optional[Path]:
        if self.plan is None:
            return None
        if self.plan.log:
            return Path(self.plan.log)
        if self.plan.state_dir:
            return Path(self.plan.state_dir) / "fault_log.jsonl"
        return None

    def _record(self, index: int, spec: FaultSpec, context: dict) -> None:
        with self._lock:
            self._fired_local[spec.point] = self._fired_local.get(spec.point, 0) + 1
        path = self._log_path()
        if path is None:
            return
        row = {
            "spec": index,
            "point": spec.point,
            "action": spec.action,
            "pid": os.getpid(),
            "ts": round(time.time(), 3),
        }
        row.update({k: v for k, v in context.items() if v is not None})
        try:
            with open(path, "a") as handle:
                with _flocked(handle):
                    handle.write(json.dumps(row, sort_keys=True) + "\n")
        except OSError:  # pragma: no cover - the log is best-effort
            pass

    # -- counters for metrics ---------------------------------------

    def fired_counts(self) -> Dict[str, int]:
        """Faults fired, per point.

        Reads the shared fault log when one exists (so a parent
        process sees faults fired inside pool workers); falls back to
        this process's local counts.
        """
        path = self._log_path()
        if path is not None and path.exists():
            counts: Dict[str, int] = {}
            try:
                for line in path.read_text().splitlines():
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    point = row.get("point")
                    if isinstance(point, str):
                        counts[point] = counts.get(point, 0) + 1
                return counts
            except OSError:
                pass
        with self._lock:
            return dict(self._fired_local)

    def fired_total(self) -> int:
        return sum(self.fired_counts().values())

    # -- the fault point --------------------------------------------

    def fire(
        self,
        point: str,
        *,
        job: Optional[str] = None,
        round: Optional[int] = None,
        key: Optional[str] = None,
    ) -> Optional[str]:
        """Evaluate ``point``; honour any spec scheduled to fire here.

        Returns ``None`` when nothing fires, or an effect string the
        caller must apply (``"truncate"``, ``"drop"``).  ``error`` and
        ``enospc`` raise; ``kill`` exits the process; ``hang`` and
        ``delay`` sleep before returning.
        """
        specs = self._by_point.get(point)
        if not specs:
            return None
        effect: Optional[str] = None
        for index, spec in specs:
            if spec.at_round is not None and round != spec.at_round:
                continue
            if spec.match is not None:
                haystack = [v for v in (job, key) if v is not None]
                if not any(spec.match in value for value in haystack):
                    continue
            with _sigterm_deferred():
                occurrence = self._next_occurrence(index)
                if occurrence <= spec.after or occurrence > spec.after + spec.times:
                    continue
                self._record(index, spec, {"job": job, "round": round, "key": key})
            result = self._apply(point, spec)
            if result is not None:
                effect = result
        return effect

    def _apply(self, point: str, spec: FaultSpec) -> Optional[str]:
        if spec.action == "error":
            raise FaultError(
                f"injected fault: {spec.action} at {point}", point=point, transient=True
            )
        if spec.action == "enospc":
            raise OSError(errno.ENOSPC, f"No space left on device (injected at {point})")
        if spec.action == "kill":
            if _worker_process:
                # A hard crash: no exception propagation, no cleanup —
                # the same signature as an OOM kill.  The fault log was
                # already flushed, so the schedule stays auditable.
                os._exit(1)
            # In-process (serial) execution: exiting would take the
            # whole batch down, which no real worker crash can do.
            # Degrade to the transient error the retry loop handles.
            raise FaultError(
                f"injected fault: kill at {point} (serial mode)",
                point=point,
                transient=True,
            )
        if spec.action in ("hang", "delay"):
            time.sleep(spec.seconds)
            return None
        # "truncate" / "drop" are cooperative: the call site applies them.
        return spec.action


_DISABLED = FaultInjector(None)
_injector: Optional[FaultInjector] = None
_injector_env: Optional[str] = None
_injector_lock = threading.Lock()

#: True in pool worker processes (set by the pool initializer): only
#: there may a ``kill`` fault actually exit the process.
_worker_process = False


class RoundFaultPoint(RunObserver):
    """The ``worker.round`` fault point as a chase run observer."""

    def __init__(self, injector: "FaultInjector", job: str) -> None:
        self.injector = injector
        self.job = job

    def round_end(self, rounds, store, marks, totals, complete) -> None:
        if complete:
            self.injector.fire("worker.round", job=self.job, round=rounds)


def mark_worker_process() -> None:
    """Pool-worker initializer: arm hard ``kill`` faults in this process."""
    global _worker_process
    _worker_process = True


def get_injector() -> FaultInjector:
    """The process-wide injector for the current ``REPRO_FAULTS`` value.

    Re-parses only when the environment variable changes (tests flip
    it; forked pool workers inherit it; respawned workers re-read it).
    A malformed plan raises :class:`FaultPlanError` — failing loudly
    beats silently running a chaos schedule with no faults.
    """
    global _injector, _injector_env
    value = os.environ.get(ENV_VAR)
    with _injector_lock:
        if value == _injector_env and _injector is not None:
            return _injector
        if not value:
            _injector = _DISABLED
        else:
            _injector = FaultInjector(FaultPlan.from_env_value(value))
        _injector_env = value
        return _injector


def reset_injector() -> None:
    """Drop the cached injector (tests call this around env changes)."""
    global _injector, _injector_env
    with _injector_lock:
        _injector = None
        _injector_env = None


def classify_failure(exc: BaseException) -> str:
    """``"transient"`` or ``"deterministic"`` for a job failure.

    Transient failures are worth retrying: injected faults, broken
    pools (a worker died), OS-level I/O errors, and connection drops.
    Everything else — parse errors, assertion failures, type errors in
    the engine — would fail identically on every attempt.
    """
    if isinstance(exc, FaultError):
        return "transient" if exc.transient else "deterministic"
    try:
        from concurrent.futures.process import BrokenProcessPool

        if isinstance(exc, BrokenProcessPool):
            return "transient"
    except ImportError:  # pragma: no cover
        pass
    if isinstance(exc, (BrokenPipeError, ConnectionError, EOFError, OSError)):
        return "transient"
    return "deterministic"


def backoff_schedule(base: float, attempts: int, cap: float = 2.0) -> List[float]:
    """Deterministic exponential backoff: ``base * 2**i`` capped at ``cap``."""
    return [min(cap, base * (2 ** i)) for i in range(attempts)]
