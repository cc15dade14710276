"""Failure injection: crash processes at chosen times.

Used by the optimistic-recovery application (:mod:`repro.apps.recovery`) —
the original domain of optimism per Strom & Yemini [24] — and by
fault-injection tests that check the HOPE runtime keeps global consistency
when speculative processes die.
"""

from __future__ import annotations

from typing import Callable, Optional

from .kernel import SimulationError, Simulator


class CrashRecord:
    """One injected crash: who, when, and whether a restart was requested.

    ``restart_requested`` records the caller's intent (``restart_after``
    was passed); ``restarted`` records whether a restart was actually
    scheduled.  They can only differ if the restart hook disappears
    between scheduling and firing — :meth:`FailureInjector.crash_at`
    rejects a restart request with no hook attached up front.
    """

    __slots__ = ("process", "time", "restarted", "restart_requested")

    def __init__(
        self,
        process: str,
        time: float,
        restarted: bool,
        restart_requested: bool = False,
    ) -> None:
        self.process = process
        self.time = time
        self.restarted = restarted
        self.restart_requested = restart_requested

    def __repr__(self) -> str:
        if self.restarted:
            suffix = " restarted"
        elif self.restart_requested:
            suffix = " restart-requested"
        else:
            suffix = ""
        return f"<Crash {self.process!r} t={self.time:.4f}{suffix}>"


class FailureInjector:
    """Schedules crashes against a kill function supplied by the runtime.

    The injector is runtime-agnostic: callers register a ``kill_fn`` that
    maps a process name to the act of crashing it (killing its task,
    dropping its volatile state).  An optional ``restart_fn`` models
    recovery from stable storage.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.crashes: list[CrashRecord] = []
        self._kill_fn: Optional[Callable[[str], None]] = None
        self._restart_fn: Optional[Callable[[str], None]] = None

    def attach(
        self,
        kill_fn: Callable[[str], None],
        restart_fn: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Wire the injector to a runtime's crash/restart operations."""
        self._kill_fn = kill_fn
        self._restart_fn = restart_fn

    def crash_at(self, process: str, time: float, restart_after: Optional[float] = None) -> None:
        """Crash ``process`` at absolute virtual ``time``.

        If ``restart_after`` is given, the process restarts that many time
        units after the crash.  That requires a ``restart_fn``: asking for
        a restart with none attached raises immediately, rather than
        silently producing a run where the process stays dead.
        """
        if restart_after is not None and self._restart_fn is None:
            raise SimulationError(
                f"crash_at({process!r}, restart_after={restart_after}) needs a "
                "restart_fn: call attach(kill_fn, restart_fn=...) first"
            )
        self.sim.schedule_at(
            time, self._do_crash, process, restart_after, label=f"crash:{process}"
        )

    def _do_crash(self, process: str, restart_after: Optional[float]) -> None:
        if self._kill_fn is None:
            raise RuntimeError("FailureInjector.attach() was never called")
        self._kill_fn(process)
        will_restart = restart_after is not None and self._restart_fn is not None
        self.crashes.append(
            CrashRecord(
                process,
                self.sim.now,
                will_restart,
                restart_requested=restart_after is not None,
            )
        )
        if will_restart:
            assert restart_after is not None
            self.sim.schedule(
                restart_after, self._restart_fn, process, label=f"restart:{process}"
            )
