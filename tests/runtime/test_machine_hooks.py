"""The runtime is the machine's embedding, not one of its observers.

Finalize and rollback reach the engine through ``Machine.on_finalize`` /
``on_rollback``; a ``MachineEvent`` exists only for a subscriber, which
still sees every event, in the order the engine-as-listener produced, and
after the engine has acted on it.  A blocking twin (``speculation=False``)
keeps a waker subscribed, so its guessers still wake on resolutions.
"""

from repro.core import FinalizeEvent, MachineEvent, RollbackEvent
from repro.core import machine as machine_module
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency


def _maker(p):
    x = yield p.aid_init("x")
    y = yield p.aid_init("y")
    yield p.send("judge", x)
    yield p.send("waiter", y)
    yield p.guess(x)
    yield p.send("rx", y)               # tagged with x while it speculates


def _waiter(p):
    y = (yield p.recv()).payload
    yield p.guess(y)
    yield p.compute(10.0)
    yield p.emit("done")


def _rx(p):
    y = (yield p.recv()).payload        # a tagged receive: an implicit guess
    yield p.affirm(y)                   # speculative while it depends on x


def _judge(p):
    x = (yield p.recv()).payload
    yield p.compute(2.0)
    yield p.deny(x)                     # rolls back maker, rx and (Eq 12) waiter


def _scenario(speculation=True) -> HopeSystem:
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0), speculation=speculation)
    for name, body in (("judge", _judge), ("maker", _maker),
                       ("waiter", _waiter), ("rx", _rx)):
        system.spawn(name, body)
    return system


def _watch(system) -> list:
    seen = []
    system.machine.subscribe(
        lambda event: seen.append((type(event).__name__, event.pid,
                                   getattr(event, "definite", None))))
    return seen


#: What a subscriber saw of the scenario while the engine was itself the
#: machine's first listener.
RECORDED = [
    ("GuessEvent", "maker", None),
    ("GuessEvent", "waiter", None),
    ("GuessEvent", "rx", None),
    ("AffirmEvent", "rx", False),
    ("DenyEvent", "judge", True),
    ("RollbackEvent", "maker", None),
    ("RollbackEvent", "rx", None),
    ("RollbackEvent", "waiter", None),
    ("GuessSkippedEvent", "maker", None),
    ("GuessEvent", "waiter", None),
    ("FinalizeEvent", "waiter", None),
    ("AffirmEvent", "rx", True),
]


def test_an_unsubscribed_run_builds_no_machine_event(monkeypatch):
    built = []

    def counting(cls):
        return lambda *fields, **named: built.append(cls(*fields, **named))

    for name in dir(machine_module):
        cls = getattr(machine_module, name)
        if isinstance(cls, type) and issubclass(cls, MachineEvent):
            monkeypatch.setattr(machine_module, name, counting(cls))
    system = _scenario()
    system.run()
    assert system.stats()["rollbacks"] == 3 and system.committed_outputs("waiter") == ["done"]
    assert built == []


def test_a_subscriber_sees_every_event_in_the_recorded_order():
    system = _scenario()
    seen = _watch(system)
    assert system.run() == 13.0
    assert seen == RECORDED


def test_the_engine_has_acted_before_a_subscriber_sees_the_event():
    system = _scenario()
    procs = {name: system.procs[name] for name in ("maker", "waiter", "rx")}
    acted = []

    def watch(event):
        if isinstance(event, RollbackEvent):        # restarted already
            acted.append((event.pid, procs[event.pid].restarts))
        elif isinstance(event, FinalizeEvent):      # counted towards a pass
            acted.append((event.pid, system._finalizes_since_collect))

    system.machine.subscribe(watch)
    system.run()
    assert acted == [("maker", 1), ("rx", 1), ("waiter", 1), ("waiter", 1)]


def test_a_blocking_twin_wakes_a_guesser_resolved_later():
    """maker blocks on x until judge denies it at t=3; waiter blocks on y
    until rx affirms it on the untagged resend at t=4."""
    system = _scenario(speculation=False)
    seen = _watch(system)
    assert system.run() == 14.0
    assert system.committed_outputs("waiter") == ["done"]
    assert system.stats()["rollbacks"] == 0
    assert seen == [
        ("GuessSkippedEvent", "maker", None),       # woken inside the deny
        ("DenyEvent", "judge", True),
        ("GuessSkippedEvent", "waiter", None),
        ("AffirmEvent", "rx", True),
    ]
