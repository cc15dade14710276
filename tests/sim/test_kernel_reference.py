"""Differential property: the Simulator's heap against the sorted-list
reference in ``reference_queue.py``.

Both run the same random program — schedules (same-time ties, zero
delays scheduled from inside callbacks), cancels (including after the
event fired, and storms large enough to cross the compaction floor),
``run(until=...)``, ``step()``, ``run(max_events=...)`` and a resume,
and from a callback ``stop()``, a nested ``run``, or an exception (also
from a member of a batch event, whose rest ``requeue`` queues at the
batch's key) — plainly or under a recording schedule controller.  After
every operation they must agree on the firing order, the clock,
``events_processed``, ``pending_events`` and ``peek_time()``, and the
heap must respect the compaction bound.
"""

from hypothesis import example, given, settings, strategies as st

from repro.sim import EventLimitExceeded, Simulator

from .reference_queue import ReferenceQueue

#: Labels a program may mint in total (callbacks stop spawning children
#: past it, so every ``run()`` terminates).
LABELS = 400
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5, 10.0])

ACTIONS = st.lists(
    st.one_of(
        st.just(("none", 0)),
        st.just(("stop", 0)),
        st.just(("raise", 0)),
        st.tuples(st.just("nested"), st.one_of(st.none(), st.sampled_from([0.0, 1.0, 3.5]))),
        st.tuples(st.just("child"), DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, LABELS)),
    ),
    min_size=1,
    max_size=8,
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), DELAYS),
        st.tuples(
            st.just("burst"), st.integers(20, 150), st.integers(1, 9),
            st.sampled_from([0.0, 20.0]),
        ),
        st.tuples(st.just("cancel"), st.integers(0, LABELS)),
        st.tuples(st.just("storm"), st.integers(1, 5), st.integers(0, 3)),
        st.tuples(st.just("run"), st.one_of(st.none(), st.sampled_from([0.0, 0.5, 2.0, 7.0]))),
        st.just(("step",)),
        st.tuples(st.just("bounded"), st.integers(0, 40)),
        st.tuples(st.just("batch"), DELAYS, st.integers(1, 6)),
    ),
    max_size=30,
)


class Recorder:
    """A schedule controller that logs every batch and picks by a script."""

    def __init__(self, picks):
        self.picks, self.log = picks, []

    def choose(self, time, events):
        self.log.append((time, [e.args[0] for e in events]))
        return self.picks[len(self.log) % len(self.picks)] % len(events)


class Boom(Exception):
    """What a ``raise`` action throws out of its callback."""


class Runner:
    """Applies one program to one queue, naming events by label."""

    def __init__(self, queue, actions):
        self.queue, self.actions = queue, actions
        self.handles, self.fired = [], []
        self.members = LABELS           # the next batch member's label
        self.depth = 0                  # nested runs in progress

    def schedule(self, delay):
        self.handles.append(self.queue.schedule(delay, self.fire, len(self.handles)))

    def batch(self, delay, size):
        """One event firing ``size`` labels in turn, as a start batch or a
        delivery sweep does."""
        labels = list(range(self.members, self.members + size))
        self.members += size
        key = []
        self.handles.append(self.queue.schedule(delay, self.fire_batch, labels, key))
        handle = self.handles[-1]
        key.append((handle.time, handle.seq))

    def fire_batch(self, labels, key):
        """A member that raises leaves the rest queued at the batch's key."""
        for at, label in enumerate(labels, 1):
            try:
                self.fire(label)
            except Boom:
                if at < len(labels):
                    self.queue.requeue(key[0], self.fire_batch, labels[at:], key)
                raise

    def cancel(self, index):
        if self.handles:
            self.handles[index % len(self.handles)].cancel()

    def fire(self, label):
        self.fired.append((self.queue.now, label))
        kind, arg = self.actions[label % len(self.actions)]
        if kind == "child" and len(self.handles) < LABELS:
            self.schedule(arg)
        elif kind == "cancel":
            self.cancel(arg)
        elif kind == "stop":
            self.queue.stop()
        elif kind == "raise":
            raise Boom(label)
        elif kind == "nested" and self.depth < 2:
            self.depth += 1
            try:
                self.queue.run(until=None if arg is None else self.queue.now + arg)
            finally:
                self.depth -= 1

    def apply(self, op):
        try:
            return self._apply(op)
        except Boom as boom:
            return "raised", boom.args

    def _apply(self, op):
        kind = op[0]
        if kind == "schedule":
            self.schedule(op[1])
        elif kind == "burst":
            for i in range(min(op[1], LABELS - len(self.handles))):
                self.schedule(op[3] + i % op[2])
        elif kind == "cancel":
            self.cancel(op[1])
        elif kind == "storm":      # the newest (4 - op[2]) quarters
            for label in range(len(self.handles) * op[2] // 4, len(self.handles)):
                if label % (op[1] + 1):
                    self.handles[label].cancel()
        elif kind == "run":
            until = None if op[1] is None else self.queue.now + op[1]
            return self.queue.run(until=until)
        elif kind == "batch":
            self.batch(op[1], op[2])
        elif kind == "bounded":    # run(max_events=n), then resume
            try:
                stopped = self.queue.run(max_events=op[1]), None
            except EventLimitExceeded:
                stopped = self.queue.now, (len(self.fired), self.queue.pending_events)
            return stopped, self.queue.run()
        else:
            return self.queue.step()


#: Two bursts of 150 (times 0-4, then 20-24), the newest half mostly
#: cancelled: a dead minority, buried behind the live first burst.
BURIED = [("burst", 150, 5, 0.0), ("burst", 150, 5, 20.0), ("storm", 5, 2)]


def _case(ops, mode="plain", picks=(0,), actions=(("none", 0),)):
    return example(mode=mode, picks=list(picks), actions=list(actions), ops=ops)


#: Every third event stops the run it fires in, with later events queued.
STOPS = [("stop", 0), ("none", 0), ("none", 0)]


@settings(max_examples=300, deadline=None)
@_case([("burst", 150, 5, 0.0), ("storm", 5, 0), ("run", None)])   # cancel storm
@_case(BURIED + [("run", 7.0), ("run", None)])       # firing tips the balance
@_case(BURIED + [("step",)] * 150)                   # ... one step at a time
@_case([("burst", 30, 1, 0.0), ("run", None)], "controller", (3, 1))
@_case([("burst", 9, 3, 0.0), ("run", 7.0), ("run", 7.0), ("step",), ("run", None)],
       actions=STOPS)
@_case([("burst", 9, 3, 0.0), ("run", 0.5), ("bounded", 2), ("run", None)], "controller",
       (2, 1), actions=STOPS)
@_case([("batch", 0.0, 3), ("schedule", 0.0), ("run", None), ("run", None)],
       actions=[("none", 0), ("raise", 0)])          # a batch raises mid-way
@_case([("batch", 0.0, 2), ("schedule", 0.0), ("run", None), ("step",)], "controller",
       actions=[("raise", 0)])                       # ... and its rest waits its turn
@_case([("schedule", 0.0), ("schedule", 0.5), ("schedule", 3.0), ("run", 0.0)],
       actions=[("nested", 1.0)])                    # a nested run passes until
@_case([("schedule", 0.5), ("run", 2.0), ("run", 2.0)],
       actions=[("stop", 0)])                        # a stop that empties the queue
@given(
    mode=st.sampled_from(["plain", "controller"]),
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=6),
    actions=ACTIONS,
    ops=OPS,
)
def test_heap_matches_the_sorted_list_reference(mode, picks, actions, ops):
    def build(cls):
        if mode == "controller":
            recorder = Recorder(picks)
            return cls(controller=recorder), recorder
        return cls(), None

    sim, sim_log = build(Simulator)
    ref, ref_log = build(ReferenceQueue)
    under_test, oracle = Runner(sim, actions), Runner(ref, actions)
    for op in ops:
        assert under_test.apply(op) == oracle.apply(op), op
        assert under_test.fired == oracle.fired, op
        assert sim.now == ref.now
        assert sim.events_processed == ref.events_processed
        assert sim.pending_events == ref.pending_events
        assert len(sim._heap) <= 2 * sim.pending_events + 64
        assert sim.peek_time() == ref.peek_time()
        if sim_log is not None:
            assert sim_log.log == ref_log.log
