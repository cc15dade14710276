"""The event order a :class:`repro.sim.Simulator` must produce, by definition.

A plain list kept sorted by ``(time, seq)``: cancel removes the
event outright, a pop takes the head (or, under a schedule controller,
the controller's pick among the events sharing the head's time).
``stop()`` from a callback makes the current ``run`` return after that
event, with the clock at that event's time even under ``run(until=)``
(queue empty or not).  ``requeue`` inserts an event at the
``(time, seq)`` it is given, and ``run(until=)`` never moves the clock
back (a nested run from a callback may have passed ``until``).  No
laziness, no compaction — nothing to get wrong, which is the point.
"""

from bisect import insort

from repro.sim import EventLimitExceeded


class RefEvent:
    def __init__(self, queue, time, seq, fn, args):
        self.queue, self.time, self.seq, self.fn, self.args = queue, time, seq, fn, args
        self.key = (time, seq)

    def __lt__(self, other):
        return self.key < other.key

    def cancel(self):
        if self in self.queue.events:            # after firing: a no-op
            self.queue.events.remove(self)


class ReferenceQueue:
    def __init__(self, controller=None):
        self.now = 0.0
        self.events = []
        self.seq = 0
        self.events_processed = 0
        self.controller = controller
        self.stopped = False

    def schedule(self, delay, fn, *args):
        assert delay >= 0
        event = RefEvent(self, self.now + delay, self.seq, fn, args)
        self.seq += 1
        insort(self.events, event)
        return event

    def requeue(self, key, fn, *args):
        insort(self.events, RefEvent(self, key[0], key[1], fn, args))

    @property
    def pending_events(self):
        return len(self.events)

    def peek_time(self):
        return self.events[0].time if self.events else None

    def step(self):
        if not self.events:
            return False
        index = 0
        if self.controller is not None:
            head = self.events[0].time
            batch = [e for e in self.events if e.time == head]
            index = self.controller.choose(head, batch)
        event = self.events.pop(index)
        self.now = event.time
        self.events_processed += 1
        event.fn(*event.args)
        return True

    def stop(self):
        self.stopped = True

    def run(self, until=None, max_events=None):
        assert until is None or until >= self.now
        self.stopped = False
        while not self.stopped and self.events and (
                until is None or self.events[0].time <= until):
            if max_events is not None:
                if not max_events:
                    raise EventLimitExceeded("the over-budget event stays queued")
                max_events -= 1
            self.step()
        if until is not None and until > self.now and not self.stopped:
            self.now = until        # (a nested run may have passed it)
        return self.now
