"""See optimism: ASCII timelines of speculation, waiting, and rollback.

Renders Gantt-style charts of the same program under (a) full HOPE
speculation with a correct assumption, (b) a failed assumption (watch the
rolled-back work appear), and (c) blocking (pessimistic) mode.

Run:  python examples/timeline_visualization.py
"""

from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, render_timeline, render_utilization


def worker(p):
    yield p.compute(2.0)                   # definite prelude
    x = yield p.aid_init("assumption")
    yield p.send("verifier", x)
    if (yield p.guess(x)):
        yield p.compute(8.0)               # optimistic work
    else:
        yield p.compute(12.0)              # pessimistic fallback
    yield p.compute(2.0)                   # definite epilogue


def verifier(p, decision):
    msg = yield p.recv()
    yield p.compute(6.0)                   # verification takes a while
    if decision:
        yield p.affirm(msg.payload)
    else:
        yield p.deny(msg.payload)


def show(title, decision, speculation=True):
    system = HopeSystem(latency=ConstantLatency(1.0), speculation=speculation)
    system.spawn("worker", worker)
    system.spawn("verifier", verifier, decision)
    # The simulator's own run stops at quiescence, before the fossil pass
    # that system.run() owes there: that pass retires both finished
    # processes and keeps only their totals, so the tracks are read first
    # (closed at the horizon, as system.run() closes them).
    horizon = system.sim.run()
    system.timeline.close_all(horizon)
    print(f"\n=== {title} (finished at t={horizon:g}) ===")
    print(render_timeline(system.timeline, horizon=horizon, width=60))
    print(render_utilization(system.timeline, horizon=horizon))


def main() -> None:
    show("speculation, assumption holds", decision=True)
    show("speculation, assumption fails (x = rolled-back work)", decision=False)
    show("blocking mode: no speculation, just waiting", decision=True,
         speculation=False)


if __name__ == "__main__":
    main()
