"""One census of what work costs in calls: the exact number of Python
calls each layer makes.

Wall time does not resolve on a shared host: a quick benchmark run's
throughput moved by up to ~30 % between back-to-back runs of one
unchanged tree (PERFORMANCE.md "Census methodology").  Calls do: two
runs of one tree under one hash seed count the same calls, so a change
that adds or removes work shows as a row that rises or falls.
:func:`census` counts, under ``cProfile``:

* the six workloads of the end-to-end benchmark (``benchmarks/e2e/``,
  imported read-only) at ``quick=True``, seed 1: the calls of each
  layer's own functions, by ``layers.LAYERS`` as ``layers.layer_of``
  groups them;
* TRACK: the definite HOPE ping-pong of
  ``experiments/test_tracking_overhead.py`` at 200 messages, and the
  bare one on the simulator alone;
* METRICS: the speculative ping-pong with a live ``MetricsRegistry``,
  and without;
* EVSEC: the kernel's chain, fanout and cancel shapes (:data:`SHAPES`),
  and the events each fires;
* one seeded walk of the crash sweep's wide shape (``walk(wide,
  seed=1)``): a run under the schedule controller, which is asked at
  every pop.

Only ``repro`` functions and the workload bodies are counted, never the
standard library or builtins, so a CPython patch release cannot move a
row.  The counts are :data:`CALLS`, one column per interpreter; the
ratios the tests read (:data:`RATIOS`) are quotients of two rows.

:func:`measure` runs the census in one child process under
``PYTHONHASHSEED=0``.  The counts read the same under every hash seed
tried, but set iteration order is the one input of a run that varies
between processes: fixed, it keeps a change that made a count depend on
it from flaking.  The file is also a script that needs neither pytest
nor the test suite:
``PYTHONPATH=src python tests/costs.py`` prints this interpreter's
counts beside the recorded ones, and ``--markdown`` prints :data:`CALLS`
as PERFORMANCE.md carries it (a tier-1 test keeps the two equal), then
this interpreter's counts beside its column.

A count is not a wall time: it misses work done in C (a bigger
``deepcopy``, a slower ``dict`` path), so the table is a gate and a
direction, not a measurement of seconds.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

#: The interpreters :data:`CALLS` has a column for, in column order.
VERSIONS = ((3, 10), (3, 11), (3, 12), (3, 13))

#: How far below its recorded value a row may fall: a bigger drop is a
#: claim, and is recorded by tightening the row.
TOLERANCE = 0.01

#: Calls per row, by interpreter (:data:`VERSIONS`): what
#: ``python tests/costs.py`` prints on each.  Rows are
#: ``"<workload>: <layer>"`` for the benchmark's workloads, then the
#: terms of :data:`RATIOS` and the walk.
CALLS = {
    "stream: sim.kernel": (9605, 9605, 9605, 9605),
    "stream: sim.process": (11036, 11036, 11036, 11036),
    "stream: sim.channel": (10955, 10955, 10955, 10935),
    "stream: sim.faults": (0, 0, 0, 0),
    "stream: core.machine": (22186, 22186, 21538, 21538),
    "stream: core.depset": (0, 0, 0, 0),
    "stream: core.fossil": (42, 42, 28, 28),
    "stream: runtime.engine": (24809, 24809, 24652, 24652),
    "stream: runtime.replay": (6600, 6600, 6600, 6600),
    "stream: runtime.resilience": (0, 0, 0, 0),
    "stream: durable": (0, 0, 0, 0),
    "stream: observers": (4917, 4917, 4917, 4917),
    "stream: workload": (4926, 4926, 4926, 4926),
    "stream: other": (0, 0, 0, 0),
    "pingpong: sim.kernel": (26011, 26011, 26011, 26011),
    "pingpong: sim.process": (36014, 36014, 36014, 36014),
    "pingpong: sim.channel": (40009, 40009, 40009, 40009),
    "pingpong: sim.faults": (0, 0, 0, 0),
    "pingpong: core.machine": (82523, 82523, 80523, 80523),
    "pingpong: core.depset": (0, 0, 0, 0),
    "pingpong: core.fossil": (378, 378, 252, 252),
    "pingpong: runtime.engine": (88305, 88305, 88302, 88302),
    "pingpong: runtime.replay": (18135, 18135, 18135, 18135),
    "pingpong: runtime.resilience": (0, 0, 0, 0),
    "pingpong: durable": (0, 0, 0, 0),
    "pingpong: observers": (145, 145, 145, 145),
    "pingpong: workload": (16006, 16006, 16006, 16006),
    "pingpong: other": (0, 0, 0, 0),
    "cascade: sim.kernel": (46955, 46955, 46955, 46955),
    "cascade: sim.process": (86401, 86401, 86401, 86401),
    "cascade: sim.channel": (31501, 31501, 31501, 31401),
    "cascade: sim.faults": (0, 0, 0, 0),
    "cascade: core.machine": (36151, 36151, 34951, 34951),
    "cascade: core.depset": (0, 0, 0, 0),
    "cascade: core.fossil": (68, 68, 46, 46),
    "cascade: runtime.engine": (130364, 130364, 126114, 126114),
    "cascade: runtime.replay": (47799, 47799, 47799, 47799),
    "cascade: runtime.resilience": (0, 0, 0, 0),
    "cascade: durable": (0, 0, 0, 0),
    "cascade: observers": (35202, 35202, 35202, 35202),
    "cascade: workload": (36103, 36103, 36103, 36103),
    "cascade: other": (0, 0, 0, 0),
    "steady: sim.kernel": (28561, 28561, 28561, 28561),
    "steady: sim.process": (38773, 38773, 38773, 38773),
    "steady: sim.channel": (18661, 18661, 18661, 18634),
    "steady: sim.faults": (0, 0, 0, 0),
    "steady: core.machine": (43753, 43753, 43753, 43753),
    "steady: core.depset": (0, 0, 0, 0),
    "steady: core.fossil": (90, 90, 60, 60),
    "steady: runtime.engine": (85869, 85869, 85489, 85489),
    "steady: runtime.replay": (26235, 26235, 26235, 26235),
    "steady: runtime.resilience": (0, 0, 0, 0),
    "steady: durable": (0, 0, 0, 0),
    "steady: observers": (18917, 18917, 18917, 18917),
    "steady: workload": (18197, 18197, 18197, 18197),
    "steady: other": (0, 0, 0, 0),
    "durable: sim.kernel": (14178, 14178, 14178, 14178),
    "durable: sim.process": (19276, 19276, 19276, 19276),
    "durable: sim.channel": (9180, 9180, 9180, 9172),
    "durable: sim.faults": (0, 0, 0, 0),
    "durable: core.machine": (22325, 22325, 22325, 22325),
    "durable: core.depset": (0, 0, 0, 0),
    "durable: core.fossil": (42, 42, 28, 28),
    "durable: runtime.engine": (42710, 42710, 42522, 42522),
    "durable: runtime.replay": (20389, 20389, 20389, 20389),
    "durable: runtime.resilience": (0, 0, 0, 0),
    "durable: durable": (6073, 6073, 6024, 6024),
    "durable: observers": (9405, 9405, 9405, 9405),
    "durable: workload": (9040, 9040, 9040, 9040),
    "durable: other": (0, 0, 0, 0),
    "lossy: sim.kernel": (17409, 17409, 17405, 17405),
    "lossy: sim.process": (29830, 29830, 29830, 29830),
    "lossy: sim.channel": (11019, 11019, 11019, 10941),
    "lossy: sim.faults": (11387, 11387, 11386, 11386),
    "lossy: core.machine": (35594, 35594, 34900, 34900),
    "lossy: core.depset": (0, 0, 0, 0),
    "lossy: core.fossil": (96, 96, 64, 64),
    "lossy: runtime.engine": (51625, 51625, 51523, 51523),
    "lossy: runtime.replay": (18294, 18294, 18294, 18294),
    "lossy: runtime.resilience": (7810, 7810, 7809, 7809),
    "lossy: durable": (0, 0, 0, 0),
    "lossy: observers": (12004, 12004, 12004, 12004),
    "lossy: workload": (15147, 15147, 15147, 15147),
    "lossy: other": (0, 0, 0, 0),
    "TRACK: HOPE ping-pong": (11335, 11335, 11333, 11333),
    "TRACK: bare ping-pong": (11626, 11626, 11626, 11626),
    "METRICS: metered ping-pong": (15080, 15080, 14680, 14680),
    "METRICS: plain ping-pong": (14961, 14961, 14561, 14561),
    "EVSEC chain: calls": (4004, 4004, 4004, 4004),
    "EVSEC chain: events": (2000, 2000, 2000, 2000),
    "EVSEC fanout: calls": (4004, 4004, 4004, 4004),
    "EVSEC fanout: events": (2000, 2000, 2000, 2000),
    "EVSEC cancel: calls": (6004, 6004, 6004, 6004),
    "EVSEC cancel: events": (1000, 1000, 1000, 1000),
    "walk(wide): calls": (62388, 62388, 61339, 61339),
}

#: Ratio -> (numerator row, denominator row).
RATIOS = {
    "TRACK: HOPE ÷ bare calls": ("TRACK: HOPE ping-pong", "TRACK: bare ping-pong"),
    "METRICS: metered ÷ plain calls": ("METRICS: metered ping-pong",
                                       "METRICS: plain ping-pong"),
    "EVSEC chain: calls per event": ("EVSEC chain: calls", "EVSEC chain: events"),
    "EVSEC fanout: calls per event": ("EVSEC fanout: calls", "EVSEC fanout: events"),
    "EVSEC cancel: calls per event": ("EVSEC cancel: calls", "EVSEC cancel: events"),
}


def recorded(version: tuple = sys.version_info[:2]):
    """``{row: calls}`` of ``version``'s column, or None without one."""
    if version not in VERSIONS:
        return None
    column = VERSIONS.index(version)
    return {row: counts[column] for row, counts in CALLS.items()}


def drift(measured: dict, version: tuple = sys.version_info[:2]) -> list:
    """What keeps ``measured`` from ``version``'s column: a row above its
    recorded value, more than :data:`TOLERANCE` below it, or on one side
    only."""
    table = recorded(version)
    found = [f"{row}: measured, not recorded" for row in measured if row not in table]
    for row, value in table.items():
        count = measured.get(row)
        if count is None:
            found.append(f"{row}: recorded, not measured")
        elif count > value:
            found.append(f"{row}: {count} rose above {value}")
        elif count < value * (1 - TOLERANCE):
            found.append(f"{row}: {count} fell more than {TOLERANCE:.0%} below {value}")
    return found


def calls_markdown() -> str:
    """:data:`CALLS`, then :data:`RATIOS`, as the Markdown PERFORMANCE.md
    carries."""
    head = " | ".join("%d.%d" % v for v in VERSIONS)
    rule = "|---|" + "---|" * len(VERSIONS)
    lines = [f"| calls | {head} |", rule]
    lines += [f"| {row} | " + " | ".join(map(str, counts)) + " |"
              for row, counts in CALLS.items()]
    lines += ["", f"| ratio | {head} |", rule]
    for ratio, (top, bottom) in RATIOS.items():
        cells = (f"{t / b:.3f}" for t, b in zip(CALLS[top], CALLS[bottom]))
        lines.append(f"| {ratio} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


# ------------------------------------------------------------------ counting
def _layers():
    """The benchmark's ``layers`` module and its ``WORKLOADS``, read from
    ``benchmarks/e2e`` as they are (the census's process only)."""
    for path in (str(ROOT), str(ROOT / "benchmarks" / "e2e")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import layers
    from workloads import WORKLOADS

    return layers, WORKLOADS


def layer_calls(run: Callable[[], Any]) -> tuple:
    """``({layer: calls}, run())``: the calls of every layer's own
    functions while ``run()`` ran."""
    layers, _ = _layers()
    gc.collect()                    # earlier work's debris is not ours
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run()
    finally:
        profile.disable()
    calls = dict.fromkeys(layers.LAYERS, 0)
    for (filename, _line, _name), (_cc, count, *_) in pstats.Stats(profile).stats.items():
        layer = layers.layer_of(filename)
        if layer is not None:
            calls[layer] += count
    return calls, result


def total_calls(run: Callable[[], Any]) -> tuple:
    """``(calls, run())``: :func:`layer_calls` summed over the layers."""
    calls, result = layer_calls(run)
    return sum(calls.values()), result


def _workload_rows() -> dict:
    """The benchmark's six workloads, quick, seed 1: calls per layer."""
    _, workloads = _layers()
    rows = {}
    for name, cls in workloads.items():
        workload = cls(1, quick=True)
        with tempfile.TemporaryDirectory(prefix="hope-costs-") as root:
            durable_dir = os.path.join(root, "run") if name == "durable" else None
            calls, outcome = layer_calls(workload.start(durable_dir=durable_dir))
        if workload.failed_ops(outcome.ledger):
            raise AssertionError(f"{name} committed a wrong ledger")
        rows.update((f"{name}: {layer}", count) for layer, count in calls.items())
    return rows


# -------------------------------------------------------------- EVSEC shapes
#: Events each kernel shape schedules.
EVSEC_EVENTS = 2000


def _noop():
    pass


def _chain(sim, n: int) -> None:
    """Each event schedules its successor (deep, sparse queue)."""
    remaining = [n]

    def step() -> None:
        remaining[0] -= 1
        if remaining[0]:
            sim.schedule(0.37, step)

    sim.schedule(0.0, step)


def _fanout(sim, n: int) -> None:
    """All events scheduled up front across mixed timescales (wide queue)."""
    rng = random.Random(7)
    for _ in range(n):
        sim.schedule(rng.random() * rng.choice([1.0, 50.0, 3000.0]), _noop)


def _cancel(sim, n: int) -> None:
    """Schedule/cancel churn (lazy delete + compaction)."""
    rng = random.Random(11)
    handles = []
    for i in range(n):
        handles.append(sim.schedule(rng.random() * 100.0, _noop))
        if i % 2:
            handles.pop(rng.randrange(len(handles))).cancel()


SHAPES = {"chain": _chain, "fanout": _fanout, "cancel": _cancel}


def _shape(shape: str) -> int:
    """Schedule one shape and drain it: scheduling and cancelling are part
    of what an event costs.  Returns the events fired."""
    from repro.sim import Simulator

    sim = Simulator()
    SHAPES[shape](sim, EVSEC_EVENTS)
    sim.run()
    return sim.events_processed


# ------------------------------------------------------------ the wide walk
def _wide_receiver(p):
    for _ in range(3):
        yield p.emit((yield p.recv()).payload)


def _wide_sender(p, peer):
    for i in range(3):
        yield p.send(peer, (p.name, i))
        yield p.compute(1.0)


def _build_wide(system):
    """The crash sweep's wide shape (``tests/durable``): definite pairs
    that are only ever *changed*, more of them than a pass's allowance,
    plus the durable counter, whose finalizes fire the passes."""
    from repro.bench.workloads import build_durable_counter

    pairs = type(system)._PASS_ALLOWANCE + 6
    for i in range(pairs):
        system.spawn(f"r{i}", _wide_receiver)
    for i in range(pairs):
        system.spawn(f"s{i}", _wide_sender, f"r{i}")
    build_durable_counter(system, workers=3, rounds=3)


def _walk_wide():
    from repro.verify import Scenario, walk

    run = walk(Scenario("wide", _build_wide, None), seed=1)
    if not run.ok:
        raise AssertionError(f"walk(wide) failed: {run.failure}")


# -------------------------------------------------------------------- census
def census() -> dict:
    """Every row of :data:`CALLS`, counted in this process."""
    _layers()                       # the repo root and benchmarks/e2e on the path
    from experiments.test_tracking_overhead import bare_pingpong, hope_pingpong
    from repro.obs import MetricsRegistry

    rows = _workload_rows()
    rows["TRACK: HOPE ping-pong"] = total_calls(lambda: hope_pingpong(200, False))[0]
    rows["TRACK: bare ping-pong"] = total_calls(lambda: bare_pingpong(200))[0]
    rows["METRICS: metered ping-pong"] = total_calls(
        lambda: hope_pingpong(200, True, metrics=MetricsRegistry()))[0]
    rows["METRICS: plain ping-pong"] = total_calls(lambda: hope_pingpong(200, True))[0]
    for shape in SHAPES:
        calls, events = total_calls(lambda: _shape(shape))
        rows[f"EVSEC {shape}: calls"], rows[f"EVSEC {shape}: events"] = calls, events
    rows["walk(wide): calls"] = total_calls(_walk_wide)[0]
    return rows


def measure() -> dict:
    """:func:`census` in one fresh child process under ``PYTHONHASHSEED=0``."""
    import repro

    paths = [str(TESTS), str(Path(repro.__file__).resolve().parents[1])]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", "import json, costs; print(json.dumps(costs.census()))"],
        cwd=TESTS, env=env, capture_output=True, text=True, timeout=600,
    )
    if done.returncode:
        raise RuntimeError(f"the census failed:\n{done.stderr}")
    return json.loads(done.stdout)


if __name__ == "__main__":
    markdown = sys.argv[1:] == ["--markdown"]
    version = "%d.%d" % sys.version_info[:2]
    counts = measure()
    table = recorded() or {}
    if markdown:
        print(calls_markdown())
        print(f"\n| calls ({version}) | measured | recorded |\n|---|---|---|")
    for row, count in counts.items():
        was = table.get(row, "-")
        if markdown:
            print(f"| {row} | {count} | {was} |")
        else:
            print(f"{version} {row + ':':32} {count:8} (recorded {was})")
    if table:
        for line in drift(counts):
            print(f"drift: {line}")
