"""Simulated processes: generator coroutines driven by a trampoline.

A *task* is a Python generator that ``yield``\\ s :class:`Effect` objects;
the trampoline performs each effect against the simulator and resumes the
generator with the effect's result.  This is the classic effects-as-data
pattern: because the process never touches the event loop directly, an
outer layer (the HOPE runtime) can interpose on every effect — which is
exactly how replay-based rollback is implemented in
:mod:`repro.runtime.replay`.

Example::

    def ping(task: Task):
        yield Timeout(1.0)
        print("at t=1", task.now)

    sim = Simulator()
    Task(sim, "ping", ping).start()
    sim.run()
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from .kernel import ScheduledEvent, SimulationError, Simulator


class Effect:
    """Base class for everything a task may ``yield``."""

    __slots__ = ()


class Timeout(Effect):
    """Suspend the task for ``delay`` virtual time units.

    Tasks use this both for modelled *compute* (the paper's local work
    between RPCs) and for modelled *waiting*.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = delay


class Recv(Effect):
    """Block until a message is available in ``mailbox``.

    Resumes with the message, or with :data:`TIMED_OUT` if ``timeout``
    elapses first.  ``predicate`` restricts receipt to matching messages
    (used for RPC reply matching); non-matching messages stay queued.
    """

    __slots__ = ("mailbox", "timeout", "predicate")

    def __init__(
        self,
        mailbox: Any,
        timeout: Optional[float] = None,
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.mailbox = mailbox
        self.timeout = timeout
        self.predicate = predicate


class GetTime(Effect):
    """Resume immediately with the current virtual time."""

    __slots__ = ()


class Halt(Effect):
    """Terminate the task immediately (like returning from the generator)."""

    __slots__ = ()


class _TimedOut:
    """Singleton sentinel returned by a :class:`Recv` whose timeout fired."""

    _instance: Optional["_TimedOut"] = None

    def __new__(cls) -> "_TimedOut":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TIMED_OUT"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        # Pickle resolves the string to this module's attribute, so a
        # round-tripped sentinel (e.g. a durable log entry) keeps its
        # ``is TIMED_OUT`` identity instead of minting a second instance.
        return "TIMED_OUT"


TIMED_OUT = _TimedOut()


class TaskKilled(Exception):
    """Thrown into a generator when its task is killed (crash or rollback)."""


class UnknownEffectError(SimulationError):
    """The effect handler does not know how to perform a yielded effect."""


#: ``Task._inline`` while no synchronous result waits for the trampoline.
_NO_INLINE = object()


class Task:
    """A generator coroutine scheduled on a :class:`Simulator`.

    ``handler(task, effect)`` performs one yielded effect and must arrange
    for ``task.resume(value)`` to be called exactly once.  When
    ``handler`` is None the default sim-level handler is used.  The HOPE
    runtime passes its own handler to interpose logging and tagging on
    every effect.

    The task is also the view of the world its body gets: ``fn(task,
    *args)`` reads ``task.now``, ``task.name`` and ``task.context``, an
    arbitrary slot that higher layers (the HOPE runtime, the baselines)
    use to reach their own per-process state.  The body is called here,
    so ``context`` must be passed, not set after: a generator function
    runs nothing before its first step, and a task keeps no ``fn`` or
    ``args`` to call it later.
    """

    __slots__ = (
        "sim", "name", "context", "handler", "on_exit",
        "result", "error", "_gen", "_state", "_pending", "_cleanup", "_inline",
    )

    _FRESH = "fresh"
    _RUNNING = "running"
    _WAITING = "waiting"
    _DONE = "done"
    _KILLED = "killed"
    _FAILED = "failed"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        fn: Callable[..., Generator],
        *args: Any,
        handler: Optional[Callable[["Task", Effect], None]] = None,
        on_exit: Optional[Callable[["Task"], None]] = None,
        context: Any = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.context = context
        self.handler = handler or default_effect_handler
        self.on_exit = on_exit
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._state = Task._FRESH
        #: The event that will resume the task: its start batch, a timer
        #: (a ``Timeout``, or the timeout of a ``Recv``), a scheduled resume.
        self._pending: Optional[ScheduledEvent] = None
        #: What to run if the task dies while blocked: a task has at most
        #: one blocking effect outstanding, so one slot serves.
        self._cleanup: Optional[Callable[[], None]] = None
        self._inline: Any = _NO_INLINE
        self._gen: Optional[Generator] = fn(self, *args)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, delay: float = 0.0) -> "Task":
        """Schedule the first step ``delay`` from now, in a start batch."""
        if self._state != Task._FRESH:
            raise SimulationError(f"task {self.name!r} already started")
        self._state = Task._WAITING
        sim = self.sim
        batch = sim.start_batch
        if batch is not None and batch.sim is not None and sim.joins(batch, delay):
            batch.args[0].append(self)
        else:
            batch = sim.start_batch = sim.schedule(delay, _start_batch, [self], label="start:" + self.name)
        self._pending = batch
        return self

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def state(self) -> str:
        return self._state

    @property
    def alive(self) -> bool:
        return self._state in (Task._FRESH, Task._RUNNING, Task._WAITING)

    @property
    def done(self) -> bool:
        return self._state == Task._DONE

    def resume(self, value: Any = None) -> None:
        """Resume the generator with ``value`` as the result of its yield.

        Scheduled at the current time rather than run inline, so effect
        handlers never re-enter the generator from within its own yield.
        """
        self._expect_waiting("resume")
        self._pending = self.sim.call_soon(self._step, value, False, label="resume:" + self.name)

    def resume_inline(self, value: Any = None) -> None:
        """Resume immediately, from within this task's own pending callback.

        For effect handlers that scheduled their completion via
        ``sim.schedule(..., cb)`` and registered that event as the task's
        pending resume: the callback calls ``resume_inline`` instead of
        :meth:`resume` (which would see a stale pending event and refuse).
        """
        self._pending = None
        # _step inlined: this runs once per batched delivery.
        effect = self._drive(value, False)
        if effect is not None:
            self.dispatch(effect)

    def resume_now(self, value: Any = None) -> None:
        """Complete the current effect synchronously, from *inside* its
        handler call: the :meth:`_step` trampoline continues the generator
        in the same stack frame instead of scheduling a zero-delay event.

        This is for effects whose result is available immediately (a send
        returning its message id, a clock read, ...) — the per-effect
        simulator event was pure heap churn.  Only valid while the
        handler invoked by ``_step`` is on the stack; handlers whose
        completion arrives later (timeouts, message delivery) must keep
        using :meth:`resume`.
        """
        # Inlined _expect_waiting (this runs once per synchronous effect;
        # the extra frame was measurable): the slow path only re-runs the
        # checks to raise the standard error.
        if self._state != Task._WAITING or self._pending is not None:
            self._expect_waiting("resume_now")
        self._inline = value

    def kill(self, reason: str = "") -> None:
        """Terminate the task: cancel pending resumes and close the generator.

        Used for crash injection and for discarding a rolled-back
        incarnation of a HOPE process.  The registered cleanup runs (e.g.
        the task's waiter is taken off the mailbox it blocks on).
        """
        if not self.alive:
            return
        pending = self._pending
        if pending is not None:
            self._pending = None
            if pending.fn is not _start_batch:
                pending.cancel()
            elif pending.sim is not None:   # a firing batch skips the task
                pending.args[0].remove(self)
                if not pending.args[0]:
                    pending.cancel()
        self._run_cleanups()
        self._state = Task._KILLED
        if self._gen is not None:
            try:
                self._gen.throw(TaskKilled(reason or f"task {self.name!r} killed"))
            except (TaskKilled, StopIteration):
                pass
            except Exception:
                # A task that swallows TaskKilled and raises during unwind
                # is already dead; its cleanup error must not cascade.
                pass
            finally:
                self._gen.close()
        self._exit()

    def add_cleanup(self, fn: Callable[[], None]) -> None:
        """Register the callback to run when the task is killed while waiting."""
        self._cleanup = fn

    def clear_cleanups(self) -> None:
        self._cleanup = None

    # ------------------------------------------------------------------
    # trampoline
    # ------------------------------------------------------------------
    def _step(self, value: Any, is_throw: bool) -> None:
        effect = self._drive(value, is_throw)
        if effect is not None:
            self.dispatch(effect)

    def dispatch(self, effect: Effect) -> None:
        """Hand an effect to the handler, running the resume_now trampoline.

        When the handler completes the effect synchronously via
        :meth:`resume_now`, the generator is driven again in this same
        frame — unbounded same-time effect chains (e.g. a loop of sends)
        stay flat instead of recursing or burning one simulator event
        each.
        """
        handler = self.handler  # loop-invariant for the life of the task
        while True:
            handler(self, effect)
            value = self._inline
            if value is _NO_INLINE:
                return
            self._inline = _NO_INLINE
            if self._state != Task._WAITING:
                return  # killed/finished from within the handler
            effect = self._drive(value, False)
            if effect is None:
                return

    def drive(self, value: Any = None) -> Optional[Effect]:
        """Advance the generator one step synchronously and return the
        yielded effect — ``None`` if the task finished — without
        dispatching it to the handler.

        This is the replay fast path: the HOPE engine feeds a restarted
        incarnation its logged effect results in a tight loop, one
        ``drive`` per entry, instead of scheduling a simulator event per
        resume.  Only valid while the task is waiting at a yield.
        """
        if self._state != Task._WAITING:
            raise SimulationError(
                f"cannot drive task {self.name!r} in state {self._state!r}"
            )
        return self._drive(value, False)

    def _drive(self, value: Any, is_throw: bool) -> Optional[Effect]:
        self._pending = None
        if self._cleanup is not None:
            self._run_cleanups()
        self._state = Task._RUNNING
        try:
            if is_throw:
                effect = self._gen.throw(value)
            else:
                effect = self._gen.send(value)
        except StopIteration as stop:
            self._state = Task._DONE
            self.result = stop.value
            self._exit()
            return None
        except TaskKilled:
            self._state = Task._KILLED
            self._exit()
            return None
        except Exception as exc:
            self._state = Task._FAILED
            self.error = exc
            self._exit()
            raise
        self._state = Task._WAITING
        return effect

    def _exit(self) -> None:
        """Last step of every terminal transition: tell ``on_exit``, then
        unlink.

        A dead task keeps no generator (whose frame may hold the task, its
        body's argument), so there is no ``Task ↔ generator`` ring: the
        incarnation is freed by reference counting as soon as its owner
        lets go (for a HOPE rollback, at the kill), not by the cycle
        collector some full pass later."""
        if self.on_exit is not None:
            self.on_exit(self)
        self._gen = None

    def _run_cleanups(self) -> None:
        fn = self._cleanup
        if fn is not None:
            self._cleanup = None
            fn()

    def _expect_waiting(self, op: str) -> None:
        if self._state != Task._WAITING:
            raise SimulationError(f"cannot {op} task {self.name!r} in state {self._state!r}")
        if self._pending is not None:
            raise SimulationError(f"task {self.name!r} already has a pending resume")


def _start_batch(tasks: list) -> None:
    """Step a start batch's tasks in start order, skipping the killed; if
    one raises, the tasks after it stay queued at the batch's key."""
    for at, task in enumerate(tasks):
        try:
            if task._pending is not None:
                task._step(None, False)
        except BaseException:
            rest = [t for t in tasks[at + 1:] if t._pending is not None]
            if rest:    # (a kill of one of them now skips it, as in a firing)
                task.sim.requeue(rest[0]._pending.key, _start_batch, rest)
            raise
    tasks.clear()       # Simulator.start_batch may outlive the firing


def default_effect_handler(task: Task, effect: Effect) -> None:
    """Perform one sim-level effect.  See module docstring for the contract."""
    if isinstance(effect, Timeout):
        task._pending = task.sim.schedule(
            effect.delay, task._step, None, False, label=f"timeout:{task.name}"
        )
    elif isinstance(effect, Recv):
        effect.mailbox.register_receiver(task, effect.timeout, effect.predicate)
    elif isinstance(effect, GetTime):
        task.resume(task.sim.now)
    elif isinstance(effect, Halt):
        task._state = Task._DONE
        if task._gen is not None:
            task._gen.close()
        task._exit()
    else:
        raise UnknownEffectError(f"task {task.name!r} yielded unknown effect {effect!r}")
