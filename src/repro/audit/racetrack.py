"""Eraser-style dynamic lockset race detection for the filter service.

The classic lockset algorithm (Savage et al., *Eraser: A Dynamic Data Race
Detector for Multithreaded Programs*, TOCS 1997): every shared variable
``v`` carries a candidate lockset ``C(v)`` — the locks held at *every*
access so far.  Each access intersects ``C(v)`` with the accessing thread's
held locks; if ``C(v)`` goes empty while the variable is write-shared, no
single lock protects ``v`` and a candidate race is reported with the stack
traces of both conflicting accesses.  The state machine below avoids the
classic false positives for init-writes by the creating thread (a variable
is EXCLUSIVE to its first thread until a second thread touches it).

What lockset analysis cannot see is **happens-before through other
primitives** — here, a batch handed from the batcher to the worker that
claims it under ``FilterService._lock`` and read by that worker outside it,
and ``threading.Event`` publication (``job._done.set()`` before a client
reads ``job.result``).  Fields whose readers synchronise that way
are monitored in ``"w"`` mode: only writes participate, so two
unsynchronised *writes* (the dangerous pattern: a lost update) are still
caught while the benign read side stays quiet.  Every ``"w"`` entry in
:data:`MONITORED_FIELDS` documents which happens-before edge excuses its
reads.

Instrumentation is whole-module but reversible: :func:`instrument_service`
swaps the service modules' ``threading`` for a shim whose locks register
acquisition with the tracker, rebinds ``registry._Entry`` so per-filter
``op_lock`` objects are tracked too (the dataclass captured the real
``threading.Lock`` in its ``field(default_factory=...)`` closure at class
creation, so patching the module attribute alone would miss them), and
wraps ``__setattr__``/``__getattribute__`` of the shared record classes
(``Job``, ``Batch``, ``_Entry``) to feed field accesses to the tracker.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

#: Shared fields the detector watches, per class, with their mode:
#: ``"rw"`` — full lockset tracking (reads and writes must share a lock);
#: ``"w"``  — writes only, because readers synchronise through a
#: happens-before edge the lockset algorithm cannot see.
MONITORED_FIELDS: Dict[str, Dict[str, str]] = {
    "Job": {
        # cancel() writes and _admit_jobs() reads both under the service
        # lock — full tracking keeps that honest.
        "cancel_requested": "rw",
        # Written under the service lock; read by the journal writer and
        # result() after job._done.set() (Event happens-before).
        "status": "w",
        "attempts": "w",
        "started_at": "w",
        "finished_at": "w",
        "result": "w",
        # Reassigned only pre-publication (see service.submit/recover).
        "_done": "w",
        "not_before": "w",
    },
    "Batch": {
        # A worker claims a batch from the batcher or the retry heap under
        # FilterService._lock; that handoff is the read side's
        # happens-before edge.  Writes stay under the service lock (see
        # _execute/_schedule_retry).
        "jobs": "w",
        "opened_at": "w",
        "attempts": "w",
    },
    "_Entry": {
        # Pin accounting is registry-lock protected on both sides.
        "pins": "rw",
        "last_used": "rw",
        # Written under the entry's op_lock (restore/evict);
        # read-side checks re-validate under op_lock (ensure_resident).
        "filt": "w",
        "snapshot_path": "w",
        "recreated": "w",
        # Written once by the single-flight winner before built.set();
        # losers read only after built.wait() (Event happens-before).
        "error": "w",
    },
}

#: Candidate races on these (class, field) pairs are reported as benign,
#: with the recorded explanation, instead of failing the audit.  Empty by
#: default: the service is expected to run clean under the modes above.
DEFAULT_BENIGN: Dict[Tuple[str, str], str] = {}

_STACK_LIMIT = 8


def _capture_stack(skip: int) -> Tuple[str, ...]:
    frames: List[str] = []
    try:
        frame = sys._getframe(skip)
    except ValueError:  # pragma: no cover - shallow stacks
        return ()
    while frame is not None and len(frames) < _STACK_LIMIT:
        code = frame.f_code
        name = code.co_filename.rsplit("/", 1)[-1]
        frames.append(f"{name}:{frame.f_lineno} in {code.co_name}")
        frame = frame.f_back
    return tuple(frames)


@dataclass(frozen=True)
class Access:
    """One recorded access to a monitored shared field."""

    thread: str
    is_write: bool
    locks: FrozenSet[str]
    stack: Tuple[str, ...]

    def render(self) -> str:
        kind = "write" if self.is_write else "read"
        held = ", ".join(sorted(self.locks)) or "<no locks>"
        lines = [f"{kind} by thread {self.thread!r} holding {{{held}}}"]
        lines.extend(f"    {frame}" for frame in self.stack)
        return "\n".join(lines)


@dataclass(frozen=True)
class RaceCandidate:
    """A shared field whose candidate lockset went empty while write-shared."""

    variable: str  # "ClassName.field"
    current: Access
    previous: Optional[Access]
    benign: bool
    reason: Optional[str]

    def render(self) -> str:
        head = f"candidate race on {self.variable}"
        if self.benign:
            head += f" [benign: {self.reason}]"
        parts = [head, "  access A: " + self.current.render().replace("\n", "\n  ")]
        if self.previous is not None:
            parts.append(
                "  access B: " + self.previous.render().replace("\n", "\n  ")
            )
        return "\n".join(parts)


@dataclass
class RaceReport:
    """Outcome of one instrumented run."""

    candidates: List[RaceCandidate] = field(default_factory=list)
    n_accesses: int = 0
    n_variables: int = 0

    @property
    def harmful(self) -> List[RaceCandidate]:
        return [c for c in self.candidates if not c.benign]

    @property
    def ok(self) -> bool:
        return not self.harmful

    def render(self) -> str:
        lines = [
            f"racetrack: {self.n_accesses} accesses on {self.n_variables} "
            f"shared variables, {len(self.candidates)} candidate race(s) "
            f"({len(self.harmful)} harmful)"
        ]
        for candidate in self.candidates:
            lines.append(candidate.render())
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "n_accesses": self.n_accesses,
            "n_variables": self.n_variables,
            "n_candidates": len(self.candidates),
            "n_harmful": len(self.harmful),
            "candidates": [
                {
                    "variable": c.variable,
                    "benign": c.benign,
                    "reason": c.reason,
                    "access_a": {
                        "thread": c.current.thread,
                        "write": c.current.is_write,
                        "locks": sorted(c.current.locks),
                        "stack": list(c.current.stack),
                    },
                    "access_b": None
                    if c.previous is None
                    else {
                        "thread": c.previous.thread,
                        "write": c.previous.is_write,
                        "locks": sorted(c.previous.locks),
                        "stack": list(c.previous.stack),
                    },
                }
                for c in self.candidates
            ],
        }


# Variable states (classic Eraser, with first-thread ownership).
_VIRGIN = 0
_EXCLUSIVE = 1
_SHARED = 2
_SHARED_MODIFIED = 3


class _VarState:
    __slots__ = ("state", "owner", "lockset", "last", "reported")

    def __init__(self) -> None:
        self.state = _VIRGIN
        self.owner: Optional[str] = None
        self.lockset: Optional[FrozenSet[str]] = None
        self.last: Optional[Access] = None
        self.reported = False


class RaceTracker:
    """Collects lock acquisitions and shared-field accesses; finds races."""

    def __init__(self, benign: Optional[Dict[Tuple[str, str], str]] = None) -> None:
        self.benign = dict(DEFAULT_BENIGN)
        if benign:
            self.benign.update(benign)
        self._held = threading.local()
        self._mu = threading.Lock()
        # Variables are keyed by id(obj); a strong reference per object pins
        # its address so CPython cannot reuse the id for a new object and
        # leak a dead variable's lockset state onto it.  Audit runs are
        # bounded (a few hundred jobs/batches), so the leak is too.
        self._keep: Dict[int, object] = {}
        self._vars: Dict[Tuple[int, str], _VarState] = {}
        self._names: Dict[Tuple[int, str], str] = {}
        self._races: List[RaceCandidate] = []
        self._n_accesses = 0
        self._active = True

    # ---------------------------------------------------------- lock shim API
    def held_locks(self) -> List[str]:
        held = getattr(self._held, "stack", None)
        if held is None:
            held = self._held.stack = []
        return held

    def push_lock(self, name: str) -> None:
        self.held_locks().append(name)

    def pop_lock(self, name: str) -> None:
        held = self.held_locks()
        if name in held:  # release order may differ from acquisition order
            held.remove(name)

    # ------------------------------------------------------------- recording
    def record(self, obj: object, cls_name: str, field_name: str, is_write: bool) -> None:
        if not self._active:
            return
        key = (id(obj), field_name)
        access = Access(
            thread=threading.current_thread().name,
            is_write=is_write,
            locks=frozenset(self.held_locks()),
            stack=_capture_stack(2),
        )
        with self._mu:
            self._n_accesses += 1
            self._keep.setdefault(key[0], obj)
            self._names.setdefault(key, f"{cls_name}.{field_name}")
            var = self._vars.get(key)
            if var is None:
                var = self._vars[key] = _VarState()
            self._step(var, key, access, cls_name, field_name)
            var.last = access

    def _step(
        self,
        var: _VarState,
        key: Tuple[int, str],
        access: Access,
        cls_name: str,
        field_name: str,
    ) -> None:
        if var.reported:
            return
        if var.state == _VIRGIN:
            var.state = _EXCLUSIVE
            var.owner = access.thread
            return
        if var.state == _EXCLUSIVE:
            if access.thread == var.owner:
                return
            # Second thread: the candidate lockset starts from its held set.
            var.lockset = access.locks
            var.state = _SHARED_MODIFIED if access.is_write else _SHARED
        else:
            assert var.lockset is not None
            var.lockset = var.lockset & access.locks
            if access.is_write:
                var.state = _SHARED_MODIFIED
        if var.state == _SHARED_MODIFIED and not var.lockset:
            reason = self.benign.get((cls_name, field_name))
            self._races.append(
                RaceCandidate(
                    variable=self._names[key],
                    current=access,
                    previous=var.last,
                    benign=reason is not None,
                    reason=reason,
                )
            )
            var.reported = True

    def report(self) -> RaceReport:
        with self._mu:
            self._active = False
            return RaceReport(
                candidates=list(self._races),
                n_accesses=self._n_accesses,
                n_variables=len(self._vars),
            )


# --------------------------------------------------------------------------
# instrumentation
# --------------------------------------------------------------------------
class TrackedLock:
    """A ``threading.Lock`` work-alike that reports to a :class:`RaceTracker`."""

    def __init__(self, tracker: RaceTracker, name: str, factory=threading.Lock) -> None:
        self._tracker = tracker
        self.name = name
        self._inner = factory()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._tracker.push_lock(self.name)
        return ok

    def release(self) -> None:
        self._tracker.pop_lock(self.name)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


class _ThreadingShim:
    """Stands in for the ``threading`` module inside instrumented modules.

    ``Lock``/``RLock`` hand out :class:`TrackedLock` s; everything else
    (``Thread``, ``Event``, ``Condition``, ``local``, ...) passes through.
    ``threading.Condition(tracked_lock)`` works unchanged because Condition
    only needs ``acquire``/``release`` on the lock it wraps.
    """

    def __init__(self, tracker: RaceTracker) -> None:
        self._tracker = tracker
        self._seq = 0
        self._seq_mu = threading.Lock()

    def _name(self, kind: str) -> str:
        with self._seq_mu:
            self._seq += 1
            return f"{kind}#{self._seq}"

    def Lock(self) -> TrackedLock:
        return TrackedLock(self._tracker, self._name("Lock"))

    def RLock(self) -> TrackedLock:
        return TrackedLock(self._tracker, self._name("RLock"), factory=threading.RLock)

    def __getattr__(self, item: str):
        return getattr(threading, item)


def _patch_class(cls: type, field_modes: Dict[str, str], tracker: RaceTracker):
    """Wrap ``cls``'s attribute access to feed the tracker; returns an undo."""
    cls_name = cls.__name__
    orig_setattr = cls.__setattr__
    orig_getattribute = cls.__getattribute__
    read_fields = frozenset(f for f, mode in field_modes.items() if mode == "rw")
    watched = frozenset(field_modes)

    def tracked_setattr(self, name, value, _w=watched, _t=tracker, _o=orig_setattr):
        if name in _w:
            _t.record(self, cls_name, name, is_write=True)
        _o(self, name, value)

    cls.__setattr__ = tracked_setattr  # type: ignore[method-assign]
    patched_get = False
    if read_fields:
        def tracked_getattribute(self, name, _r=read_fields, _t=tracker, _o=orig_getattribute):
            value = _o(self, name)
            if name in _r:
                _t.record(self, cls_name, name, is_write=False)
            return value

        cls.__getattribute__ = tracked_getattribute  # type: ignore[method-assign]
        patched_get = True

    def undo() -> None:
        cls.__setattr__ = orig_setattr  # type: ignore[method-assign]
        if patched_get:
            cls.__getattribute__ = orig_getattribute  # type: ignore[method-assign]

    return undo


@contextlib.contextmanager
def instrument_service(
    tracker: Optional[RaceTracker] = None,
    benign: Optional[Dict[Tuple[str, str], str]] = None,
):
    """Instrument the service layer; yields the :class:`RaceTracker`.

    Everything is restored on exit, including the ``_Entry`` rebinding and
    the shared classes' attribute hooks.  Services/registries constructed
    *inside* the context are tracked; existing instances keep their real
    locks (their accesses are still recorded, with an empty held set, so
    instrument first, construct second).
    """
    from ..service import batcher as batcher_module
    from ..service import jobs as jobs_module
    from ..service import journal as journal_module
    from ..service import registry as registry_module
    from ..service import service as service_module

    tracker = tracker or RaceTracker(benign=benign)
    shim = _ThreadingShim(tracker)
    undo_stack = []

    for module in (service_module, registry_module, journal_module):
        original = module.threading
        module.threading = shim  # type: ignore[attr-defined]
        undo_stack.append(lambda m=module, o=original: setattr(m, "threading", o))

    # _Entry's dataclass machinery captured the real threading.Lock inside
    # the field(default_factory=...) closure at class-definition time, so
    # the module shim cannot reach op_lock; a subclass swaps it post-init.
    original_entry = registry_module._Entry

    class _TrackedEntry(original_entry):  # type: ignore[misc,valid-type]
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.op_lock = TrackedLock(tracker, f"op_lock[{self.name}]")

    _TrackedEntry.__name__ = original_entry.__name__
    registry_module._Entry = _TrackedEntry  # type: ignore[attr-defined]
    undo_stack.append(
        lambda: setattr(registry_module, "_Entry", original_entry)
    )

    for cls, fields in (
        (jobs_module.Job, MONITORED_FIELDS["Job"]),
        (batcher_module.Batch, MONITORED_FIELDS["Batch"]),
        (original_entry, MONITORED_FIELDS["_Entry"]),
    ):
        undo_stack.append(_patch_class(cls, fields, tracker))

    try:
        yield tracker
    finally:
        while undo_stack:
            undo_stack.pop()()


# --------------------------------------------------------------------------
# harness
# --------------------------------------------------------------------------
def run_race_audit(
    workdir,
    benign: Optional[Dict[Tuple[str, str], str]] = None,
    with_recovery: bool = True,
) -> RaceReport:
    """Run the chaos traffic scenario under instrumentation; returns a report.

    This is the ``audit`` mode of the chaos smoke: the same seeded fault
    schedule as ``tests/test_service_chaos.py``, with every service lock
    tracked and every shared record field monitored.
    """
    from ..service.faults import FaultConfig
    from ..service.traffic import TrafficConfig, run_traffic

    traffic = TrafficConfig(
        n_clients=4, jobs_per_client=6, keys_per_job=32, fixed_tenant_slots=128
    )
    faults = FaultConfig(
        seed=0xC0A5,
        worker_crash_rate=0.25,
        slow_batch_rate=0.20,
        slow_batch_s=0.002,
        filter_full_rate=0.15,
    )
    with instrument_service(benign=benign) as tracker:
        run_traffic(
            workdir,
            traffic=traffic,
            faults=faults,
            with_recovery=with_recovery,
        )
    return tracker.report()
