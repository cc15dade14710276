"""Inspection tools: dependency graphs and human-readable machine dumps.

The IDO/DOM bookkeeping is a bipartite graph between intervals and
assumption identifiers; seeing it is the fastest way to debug an
optimistic program.  :func:`dependency_graph` materializes it as plain
node and edge dicts (intervals → the AIDs they depend on; AIDs → the
interval that speculatively affirmed them), :func:`format_machine` prints
the whole machine state, and :func:`to_dot` renders Graphviz source.
"""

from __future__ import annotations

from typing import NamedTuple

from .aid import AssumptionId
from .interval import Interval
from .machine import Machine


class DependencyGraph(NamedTuple):
    """node → attributes, and (src, dst) → attributes grouped by src."""

    nodes: dict[str, dict]
    edges: dict[tuple[str, str], dict]


def dependency_graph(machine: Machine, include_dead: bool = False) -> DependencyGraph:
    """The live dependency graph.

    Nodes: ``aid:<key>`` (kind="aid", status=...) and ``interval:<label>``
    (kind="interval", state=..., pid=...).  Edges:

    * interval → aid, relation="depends_on"  (X ∈ A.IDO);
    * aid → interval, relation="affirmed_by" (speculative affirmer);
    * interval → aid, relation="parked_deny" (X ∈ A.IHD).
    """
    nodes: dict[str, dict] = {}
    succ: dict[str, dict[str, dict]] = {}

    def add_edge(src: str, dst: str, relation: str) -> None:
        nodes.setdefault(src, {})
        nodes.setdefault(dst, {})
        succ.setdefault(src, {})[dst] = {"relation": relation}

    for aid in machine.aids.values():
        nodes[f"aid:{aid.key}"] = {"kind": "aid", "status": aid.status.value}
    for record in machine.processes.values():
        for interval in record.intervals:
            if not include_dead and not interval.speculative:
                continue
            node = f"interval:{interval.label}"
            nodes[node] = {
                "kind": "interval", "state": interval.state.value, "pid": interval.pid
            }
            for aid in interval.ido:
                add_edge(node, f"aid:{aid.key}", "depends_on")
            for aid in interval.ihd:
                add_edge(node, f"aid:{aid.key}", "parked_deny")
    for aid in machine.aids.values():
        affirmer = aid.speculative_affirmer
        if affirmer is not None and (include_dead or affirmer.speculative):
            add_edge(f"aid:{aid.key}", f"interval:{affirmer.label}", "affirmed_by")
    edges = {(src, dst): d for src in nodes for dst, d in succ.get(src, {}).items()}
    return DependencyGraph(nodes, edges)


def transitive_dependencies(machine: Machine, pid: str) -> frozenset[str]:
    """Every AID key the process's fate transitively rides on.

    Follows depends_on edges through speculative affirmers — the closure
    Corollary 6.1 talks about.
    """
    record = machine.process(pid)
    if record.current is None:
        return frozenset()
    graph = dependency_graph(machine)
    start = f"interval:{record.current.label}"
    if start not in graph.nodes:
        return frozenset()
    succ: dict[str, list[str]] = {}
    for src, dst in graph.edges:
        succ.setdefault(src, []).append(dst)
    reached, frontier = {start}, [start]
    while frontier:
        for dst in succ.get(frontier.pop(), ()):
            if dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    return frozenset(
        node.split(":", 1)[1] for node in reached if node.startswith("aid:")
    )


def rollback_blast_radius(machine: Machine, aid: AssumptionId) -> frozenset[str]:
    """The process names a deny(aid) would roll back, right now."""
    victims = set()
    stack = list(aid.dom)
    seen: set[Interval] = set()
    while stack:
        interval = stack.pop()
        if interval in seen or not interval.speculative:
            continue
        seen.add(interval)
        victims.add(interval.pid)
        # rolling back an interval also discards later intervals of the
        # same process, whose own IDO members' other dependents are NOT
        # affected — DOM membership already covers everything reachable,
        # because tags gave receivers the full dependency set.
    return frozenset(victims)


def format_machine(machine: Machine, include_history: bool = False) -> str:
    """A readable dump of the whole machine state."""
    lines = [f"Machine: {len(machine.processes)} processes, {len(machine.aids)} AIDs"]
    for name in sorted(machine.processes):
        record = machine.processes[name]
        current = record.current.label if record.current is not None else "∅"
        lines.append(
            f"  process {name}: I={current} |IS|={len(record.speculative)} "
            f"G={record.g} rollbacks={record.rollback_count}"
        )
        for interval in record.intervals:
            if not interval.speculative:
                continue
            ido = ",".join(sorted(a.key for a in interval.ido)) or "∅"
            ihd = ",".join(sorted(a.key for a in interval.ihd))
            suffix = f" IHD={{{ihd}}}" if ihd else ""
            lines.append(f"    {interval.label}: IDO={{{ido}}}{suffix}")
        if include_history:
            for entry in record.history:
                lines.append(f"      {entry!r}")
    for key in sorted(machine.aids):
        aid = machine.aids[key]
        dom = ",".join(sorted(iv.label for iv in aid.dom)) or "∅"
        extra = ""
        if aid.speculative_affirmer is not None:
            extra = f" spec-affirmed-by={aid.speculative_affirmer.label}"
        lines.append(f"  aid {key}: {aid.status.value} DOM={{{dom}}}{extra}")
    return "\n".join(lines)


def to_dot(machine: Machine) -> str:
    """Graphviz source for the live dependency graph."""
    graph = dependency_graph(machine)
    lines = ["digraph hope {", "  rankdir=LR;"]
    for node, data in graph.nodes.items():
        label = node.split(":", 1)[1]
        if data["kind"] == "aid":
            shape = "ellipse"
            color = {"pending": "gray", "affirmed": "green", "denied": "red"}[
                data["status"]
            ]
        else:
            shape = "box"
            color = "lightblue"
        lines.append(
            f'  "{node}" [label="{label}", shape={shape}, color={color}];'
        )
    styles = {"depends_on": "solid", "affirmed_by": "dashed", "parked_deny": "dotted"}
    for (src, dst), data in graph.edges.items():
        style = styles[data["relation"]]
        lines.append(f'  "{src}" -> "{dst}" [style={style}];')
    lines.append("}")
    return "\n".join(lines)
