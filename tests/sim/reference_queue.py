"""The event order a :class:`repro.sim.Simulator` must produce, by definition.

A plain list kept sorted by ``(time, priority, seq)``: cancel removes the
event outright, a pop takes the head (or, under a schedule controller,
the controller's pick among the events sharing the head's time).  No
laziness, no compaction — nothing to get wrong, which is the point.
"""

from bisect import insort


class RefEvent:
    def __init__(self, queue, time, priority, seq, fn, args):
        self.queue, self.time, self.fn, self.args = queue, time, fn, args
        self.key = (time, priority, seq)

    def __lt__(self, other):
        return self.key < other.key

    def cancel(self):
        if self in self.queue.events:            # after firing: a no-op
            self.queue.events.remove(self)


class ReferenceQueue:
    def __init__(self, tie_breaker=None, controller=None):
        self.now = 0.0
        self.events = []
        self.seq = 0
        self.tie_breaker = tie_breaker
        self.controller = controller

    def schedule(self, delay, fn, *args):
        assert delay >= 0
        priority = self.tie_breaker() if self.tie_breaker else 0
        event = RefEvent(self, self.now + delay, priority, self.seq, fn, args)
        self.seq += 1
        insort(self.events, event)
        return event

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
        event.fn(*event.args)
        return True

    def run(self, until=None):
        assert until is None or until >= self.now
        while self.events and (until is None or self.events[0].time <= until):
            self.step()
        if until is not None:
            self.now = until
        return self.now
