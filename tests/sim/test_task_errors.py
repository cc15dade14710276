"""Error paths and lifecycle edges of the task trampoline and kernel."""

import pytest

from repro.sim import (
    Recv,
    Network,
    SimulationError,
    Simulator,
    Task,
    TaskKilled,
    Timeout,
)


def test_double_start_rejected():
    sim = Simulator()

    def body(env):
        yield Timeout(1.0)

    task = Task(sim, "t", body).start()
    with pytest.raises(SimulationError):
        task.start()


def test_resume_while_not_waiting_rejected():
    sim = Simulator()

    def body(env):
        yield Timeout(1.0)

    task = Task(sim, "t", body)
    with pytest.raises(SimulationError):
        task.resume("early")


def test_resume_with_pending_event_rejected():
    sim = Simulator()

    def body(env):
        yield Timeout(5.0)

    task = Task(sim, "t", body).start()
    sim.run(until=0.0)                     # started, now sleeping
    with pytest.raises(SimulationError):
        task.resume("duplicate")


def test_kill_idempotent_and_dead_tasks_stay_dead():
    sim = Simulator()

    def body(env):
        yield Timeout(10.0)

    task = Task(sim, "t", body).start()
    sim.run(until=1.0)
    task.kill()
    task.kill()                            # second kill is a no-op
    assert task.state == "killed"
    sim.run()
    assert not task.alive


def test_kill_before_first_step():
    sim = Simulator()
    ran = []

    def body(env):
        ran.append(True)
        yield Timeout(1.0)

    task = Task(sim, "t", body).start()
    task.kill()                            # before the start event fires
    sim.run()
    assert ran == []
    assert task.state == "killed"


def test_task_swallowing_taskkilled_does_not_crash_kernel():
    sim = Simulator()

    def stubborn(env):
        try:
            yield Timeout(100.0)
        except TaskKilled:
            pass                           # refuses to re-raise
        # generator ends here anyway (close() after throw)

    task = Task(sim, "t", stubborn).start()
    sim.run(until=1.0)
    task.kill()
    sim.run()
    assert task.state == "killed"


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_env_properties():
    sim = Simulator()
    observed = {}

    def body(env):
        observed["name"] = env.name
        yield Timeout(3.0)
        observed["now"] = env.now

    Task(sim, "proc-7", body).start()
    sim.run()
    assert observed == {"name": "proc-7", "now": 3.0}


def test_return_value_of_halted_task_is_none():
    from repro.sim import Halt

    sim = Simulator()

    def body(env):
        yield Halt()
        return 42                          # pragma: no cover - unreachable

    task = Task(sim, "t", body).start()
    sim.run()
    assert task.done
    assert task.result is None
