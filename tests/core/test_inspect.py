"""Tests for the dependency-graph and dump tooling."""

import subprocess
import sys
import textwrap
from pathlib import Path

from repro.core import Machine
from repro.core.inspect import (
    dependency_graph,
    format_machine,
    rollback_blast_radius,
    to_dot,
    transitive_dependencies,
)


def make_machine():
    machine = Machine()
    for name in ("p", "q", "r"):
        machine.create_process(name)
    return machine


def test_dependency_graph_nodes_and_edges():
    machine = make_machine()
    x = machine.aid_init("x")
    machine.guess("p", x)
    machine.guess_many("q", [x])
    graph = dependency_graph(machine)
    aid_nodes = [n for n, d in graph.nodes.items() if d["kind"] == "aid"]
    interval_nodes = [n for n, d in graph.nodes.items() if d["kind"] == "interval"]
    assert len(aid_nodes) == 1
    assert len(interval_nodes) == 2
    assert all(
        d["relation"] == "depends_on" for d in graph.edges.values()
    )


def test_dead_intervals_excluded_by_default():
    machine = make_machine()
    x = machine.aid_init("x")
    machine.guess("p", x)
    machine.deny("q", x)
    assert len(dependency_graph(machine).nodes) == 1        # just the AID
    assert len(dependency_graph(machine, include_dead=True).nodes) == 2


def test_speculative_affirmer_edge():
    machine = make_machine()
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    machine.guess("q", y)
    machine.affirm("q", x)
    graph = dependency_graph(machine)
    relations = {d["relation"] for d in graph.edges.values()}
    assert "affirmed_by" in relations


def test_transitive_dependencies_follow_affirmers():
    machine = make_machine()
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    z = machine.aid_init("z")
    machine.guess("p", x)
    machine.guess("q", y)
    machine.affirm("q", x)      # x rides on y (via Eq 12 merge, p now on y)
    machine.guess("r", z)
    deps_p = transitive_dependencies(machine, "p")
    assert y.key in deps_p
    assert z.key not in deps_p
    assert transitive_dependencies(machine, "q") == frozenset({y.key})


def test_transitive_dependencies_of_definite_process_empty():
    machine = make_machine()
    assert transitive_dependencies(machine, "p") == frozenset()


def test_rollback_blast_radius():
    machine = make_machine()
    x = machine.aid_init("x")
    machine.guess("p", x)
    machine.guess_many("q", [x])
    assert rollback_blast_radius(machine, x) == frozenset({"p", "q"})
    machine.affirm("r", x)
    assert rollback_blast_radius(machine, x) == frozenset()


def test_format_machine_mentions_everything():
    machine = make_machine()
    x = machine.aid_init("x")
    machine.guess("p", x)
    text = format_machine(machine)
    assert "process p" in text
    assert x.key in text
    assert "IDO" in text
    with_history = format_machine(machine, include_history=True)
    assert "guess" in with_history


def test_to_dot_is_valid_looking_graphviz():
    machine = make_machine()
    x = machine.aid_init("x")
    machine.guess("p", x)
    dot = to_dot(machine)
    assert dot.startswith("digraph hope {")
    assert dot.rstrip().endswith("}")
    assert "depends_on" not in dot          # relations become styles
    assert "solid" in dot
    assert x.key in dot


def test_parked_deny_edge_rendered():
    """A speculative deny parks in IHD (Eq 16) and shows as parked_deny."""
    machine = make_machine()
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)       # p speculative on x
    machine.deny("p", y)        # speculative deny: y parked in p's IHD
    graph = dependency_graph(machine)
    relations = {edge: d["relation"] for edge, d in graph.edges.items()}
    interval = machine.process("p").current
    assert relations[(f"interval:{interval.label}", f"aid:{y.key}")] == "parked_deny"
    # the dot rendering maps the relation to its dotted style
    assert "dotted" in to_dot(machine)


def test_include_dead_shows_rolled_back_intervals():
    machine = make_machine()
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("q", y)
    machine.guess("p", x)
    machine.affirm("q", x)      # speculative affirm: x now rides on y
    p_interval = machine.process("p").current
    q_interval = machine.process("q").current
    machine.deny("r", y)        # kills q's interval (and p's, via the merge)
    # the rollback also revoked the speculative affirm: x is pending
    # again and no affirmed_by edge survives, dead view included
    assert x.speculative_affirmer is None
    live = dependency_graph(machine)
    assert [n for n, d in live.nodes.items() if d["kind"] == "interval"] == []
    dead = dependency_graph(machine, include_dead=True)
    for interval in (p_interval, q_interval):
        node = f"interval:{interval.label}"
        assert dead.nodes[node]["state"] == "rolled_back"
        # dead intervals keep their recorded IDO edges
        assert (node, f"aid:{y.key}") in dead.edges
    assert all(
        d["relation"] != "affirmed_by" for d in dead.edges.values()
    )


def test_to_dot_status_colors():
    machine = make_machine()
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    z = machine.aid_init("z")
    machine.guess("p", x)       # x pending
    machine.affirm("q", y)      # y affirmed (definite)
    machine.deny("q", z)        # z denied (definite)
    dot = to_dot(machine)
    lines = {line for line in dot.splitlines()}
    assert any(x.key in l and "color=gray" in l for l in lines)
    assert any(y.key in l and "color=green" in l for l in lines)
    assert any(z.key in l and "color=red" in l for l in lines)
    # intervals are boxes, AIDs ellipses
    assert any("shape=box" in l for l in lines)
    assert any("shape=ellipse" in l for l in lines)


def test_blast_radius_spreads_through_implicit_guesses():
    """A tagged receive (guess_many) pulls the receiver into DOM, so the
    blast radius must include it — the cross-process cascade the span
    tree renders."""
    machine = make_machine()
    x = machine.aid_init("x")
    machine.guess("p", x)
    # q receives a message tagged {x}: implicit guess
    interval = machine.guess_many("q", [x])
    assert interval is not None and interval.aid is None
    # r receives a message from q, tagged with q's dependencies
    machine.guess_many("r", [x])
    assert rollback_blast_radius(machine, x) == frozenset({"p", "q", "r"})
    machine.deny("p", x)
    assert rollback_blast_radius(machine, x) == frozenset()


def test_guess_many_with_no_new_deps_creates_no_interval():
    machine = make_machine()
    x = machine.aid_init("x")
    machine.guess("p", x)
    before = machine.process("p").current
    assert machine.guess_many("p", [x]) is None
    assert machine.process("p").current is before


def test_graph_is_acyclic_for_plain_guesses():
    machine = make_machine()
    aids = [machine.aid_init(f"a{i}") for i in range(3)]
    for aid in aids:
        machine.guess("p", aid)
        machine.guess("q", aid)
    graph = dependency_graph(machine)
    # Kahn's algorithm: a graph is acyclic iff every node can be peeled
    indegree = dict.fromkeys(graph.nodes, 0)
    for _src, dst in graph.edges:
        indegree[dst] += 1
    ready = [node for node, n in indegree.items() if n == 0]
    peeled = 0
    while ready:
        node = ready.pop()
        peeled += 1
        for src, dst in graph.edges:
            if src == node:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
    assert peeled == len(graph.nodes)


def golden_machine():
    """All three edge kinds, a rolled-back process and every AID status.

    Every IDO and IHD holds one AID: a set of several iterates in address
    order, which no golden can pin.
    """
    machine = Machine()
    for name in ("p", "q", "r", "s", "t", "judge"):
        machine.create_process(name)
    x, y, z, w, u, v = (machine.aid_init(key) for key in "xyzwuv")
    machine.guess("p", x)
    machine.guess("q", y)
    machine.affirm("q", x)          # affirmed_by: x -> q's interval
    machine.guess_many("r", [z])
    machine.deny("r", w)            # parked_deny: r's interval -> w
    machine.guess("s", z)
    machine.guess("t", u)
    machine.deny("judge", u)        # t rolls back
    machine.affirm("judge", v)
    return machine


#: Recorded while dependency_graph was built on networkx.
GOLDEN_DOT = """\
digraph hope {
  rankdir=LR;
  "aid:x#1" [label="x#1", shape=ellipse, color=gray];
  "aid:y#2" [label="y#2", shape=ellipse, color=gray];
  "aid:z#3" [label="z#3", shape=ellipse, color=gray];
  "aid:w#4" [label="w#4", shape=ellipse, color=gray];
  "aid:u#5" [label="u#5", shape=ellipse, color=red];
  "aid:v#6" [label="v#6", shape=ellipse, color=green];
  "interval:p/I1(x#1)" [label="p/I1(x#1)", shape=box, color=lightblue];
  "interval:q/I2(y#2)" [label="q/I2(y#2)", shape=box, color=lightblue];
  "interval:r/I3(recv)" [label="r/I3(recv)", shape=box, color=lightblue];
  "interval:s/I4(z#3)" [label="s/I4(z#3)", shape=box, color=lightblue];
  "aid:x#1" -> "interval:q/I2(y#2)" [style=dashed];
  "interval:p/I1(x#1)" -> "aid:y#2" [style=solid];
  "interval:q/I2(y#2)" -> "aid:y#2" [style=solid];
  "interval:r/I3(recv)" -> "aid:z#3" [style=solid];
  "interval:r/I3(recv)" -> "aid:w#4" [style=dotted];
  "interval:s/I4(z#3)" -> "aid:z#3" [style=solid];
}"""

GOLDEN_DUMP = """\
Machine: 6 processes, 6 AIDs
  process judge: I=∅ |IS|=0 G=None rollbacks=0
  process p: I=p/I1(x#1) |IS|=1 G=True rollbacks=0
    p/I1(x#1): IDO={y#2}
  process q: I=q/I2(y#2) |IS|=1 G=True rollbacks=0
    q/I2(y#2): IDO={y#2}
  process r: I=r/I3(recv) |IS|=1 G=True rollbacks=0
    r/I3(recv): IDO={z#3} IHD={w#4}
  process s: I=s/I4(z#3) |IS|=1 G=True rollbacks=0
    s/I4(z#3): IDO={z#3}
  process t: I=∅ |IS|=0 G=False rollbacks=1
  aid u#5: denied DOM={∅}
  aid v#6: affirmed DOM={∅}
  aid w#4: pending DOM={∅}
  aid x#1: pending DOM={∅} spec-affirmed-by=q/I2(y#2)
  aid y#2: pending DOM={p/I1(x#1),q/I2(y#2)}
  aid z#3: pending DOM={r/I3(recv),s/I4(z#3)}"""


def test_to_dot_and_format_machine_golden():
    machine = golden_machine()
    assert to_dot(machine) == GOLDEN_DOT
    assert format_machine(machine) == GOLDEN_DUMP
    assert {pid: transitive_dependencies(machine, pid) for pid in "pqrst"} == {
        "p": {"y#2"}, "q": {"y#2"}, "r": {"w#4", "z#3"}, "s": {"z#3"}, "t": set(),
    }


_NO_NETWORKX = textwrap.dedent("""
    import sys

    class Refuse:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "networkx":
                raise ModuleNotFoundError(f"{name} refused")
            return None

    sys.meta_path.insert(0, Refuse())
    sys.modules.pop("networkx", None)
    import repro
    from repro.core import Machine, inspect

    machine = Machine()
    machine.create_process("p")
    x = machine.aid_init("x")
    machine.guess("p", x)
    inspect.dependency_graph(machine, include_dead=True)
    inspect.transitive_dependencies(machine, "p")
    inspect.rollback_blast_radius(machine, x)
    inspect.format_machine(machine, include_history=True)
    inspect.to_dot(machine)
    assert "networkx" not in sys.modules
""")


def test_inspect_needs_no_networkx():
    src = Path(__file__).resolve().parents[2] / "src"
    subprocess.run(
        [sys.executable, "-B", "-c", _NO_NETWORKX], check=True,
        env={"PYTHONPATH": str(src)},
    )
