"""ASCII rendering of execution timelines.

Turns a :class:`repro.sim.Timeline` into a Gantt-style text chart — the
quickest way to *see* what optimism did: busy work (`#`), blocking (`.`),
and speculative work that was rolled back (`x`)::

    worker   |###xxxxxxx###....|
    verifier |...####..........|
             0                17.0

Used by examples and by humans debugging rollback storms; the benchmark
suite prefers numbers.
"""

from __future__ import annotations

from typing import Optional

from .timeline import Span, Timeline

#: span kind -> glyph
GLYPHS = {Span.BUSY: "#", Span.BLOCKED: ".", Span.WASTED: "x"}
IDLE = " "


def render_timeline(
    timeline: Timeline,
    horizon: Optional[float] = None,
    width: int = 64,
    processes: Optional[list] = None,
) -> str:
    """Render one row per process over ``[0, horizon]``.

    ``horizon`` defaults to the latest span end; ``width`` is the number
    of character cells the horizon maps onto.  When several span kinds
    fall into one cell, the most "interesting" wins (wasted > busy >
    blocked > idle).
    """
    names = processes if processes is not None else timeline.names()
    if horizon is None:
        horizon = 0.0
        for name in names:
            for span in timeline.process(name).spans:
                horizon = max(horizon, span.end)
    if horizon <= 0:
        horizon = 1.0
    priority = {IDLE: 0, GLYPHS[Span.BLOCKED]: 1, GLYPHS[Span.BUSY]: 2, GLYPHS[Span.WASTED]: 3}
    label_width = max((len(n) for n in names), default=0)
    lines = []
    for name in names:
        cells = [IDLE] * width
        tl = timeline.process(name)
        drawn = [(span.kind, span.start, span.end) for span in tl.spans]
        if tl.open_kind is not None:        # the open span runs to the horizon
            drawn.append((tl.open_kind, tl.open_start, horizon))
        for kind, start, end in drawn:
            # A span starting exactly at the horizon would map to
            # start_cell == width and fall off the chart; clamp so
            # boundary spans occupy the final cell.
            start_cell = min(int(start / horizon * width), width - 1)
            end_cell = max(start_cell + 1, int(end / horizon * width))
            glyph = GLYPHS.get(kind, "?")
            for cell in range(start_cell, min(end_cell, width)):
                if priority[glyph] > priority[cells[cell]]:
                    cells[cell] = glyph
        row = f"{name.ljust(label_width)} |{''.join(cells)}|"
        base = tl.base_totals()
        if base and not drawn:
            # All of this process's spans were folded into base totals by
            # compact_before(); without the annotation the row reads as
            # "did nothing", disagreeing with Timeline.names()/aggregate().
            folded = " ".join(
                f"{kind}={base[kind]:g}" for kind in sorted(base) if base[kind]
            )
            row += f" (compacted: {folded})"
        lines.append(row)
    footer = f"{' ' * label_width} 0{' ' * (width - len(f'{horizon:g}'))}{horizon:g}"
    lines.append(footer)
    legend = (
        f"{' ' * label_width} {GLYPHS[Span.BUSY]}=busy "
        f"{GLYPHS[Span.BLOCKED]}=blocked {GLYPHS[Span.WASTED]}=rolled-back"
    )
    lines.append(legend)
    return "\n".join(lines)


def render_utilization(timeline: Timeline, horizon: float) -> str:
    """One summary line per process: busy/blocked/wasted percentages."""
    lines = []
    label_width = max((len(n) for n in timeline.names()), default=0)
    for name in timeline.names():
        tl = timeline.process(name)
        busy = tl.total(Span.BUSY)
        blocked = tl.total(Span.BLOCKED)
        wasted = tl.total(Span.WASTED)
        lines.append(
            f"{name.ljust(label_width)}  busy {100 * busy / horizon:5.1f}%  "
            f"blocked {100 * blocked / horizon:5.1f}%  "
            f"rolled-back {100 * wasted / horizon:5.1f}%"
        )
    return "\n".join(lines)
