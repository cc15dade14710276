"""Optimistic co-operative editing (§7 future work, ref [5]).

Cormack's "real-time distributed lock-free conference editing" is on the
paper's future-work list.  The optimistic shape: an editor applies its
own edit to the local replica *immediately* — assuming no concurrent edit
from another participant will be sequenced before it — while a sequencer
establishes the total order in the background.

* Each edit is guarded by an AID: "my edit lands at the position my
  replica predicts".  The editor appends locally, emits the predicted
  state, and keeps typing.
* The **sequencer** assigns global sequence numbers, broadcasts ordered
  edits, and affirms the AID when the assigned slot matches the editor's
  prediction — or denies it when a concurrent edit beat it there.
* A denial rolls the editor back to the guess: the re-execution takes the
  pessimistic branch (don't self-apply; the edit arrives via the ordered
  broadcast like everyone else's), and HOPE's cascade also unwinds the
  sequencer's speculative processing of any edits that were issued on top
  of the failed assumption.

Convergence criterion (checked by the tests): every replica's final
document equals the sequencer's committed order, and each editor's
committed apply-ledger *is* that order.

Run:  python examples/co_editing.py
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.runtime import HopeSystem
from repro.sim import TIMED_OUT, ConstantLatency, LatencyModel, Tracer


@dataclass(frozen=True)
class EditScript:
    """One editor's keystrokes: (think_time, text) pairs, in order."""

    edits: tuple


@dataclass(frozen=True)
class CoEditWorkload:
    scripts: tuple                    # one EditScript per editor
    latency: float = 5.0

    @property
    def n_editors(self) -> int:
        return len(self.scripts)

    @property
    def total_edits(self) -> int:
        return sum(len(s.edits) for s in self.scripts)


def editor(p, index: int, script: EditScript, total_edits: int):
    """Type the script optimistically while absorbing ordered broadcasts."""
    doc: list = []
    applied_globals = 0
    spec_serials: set = set()         # my optimistic, unconfirmed edits
    reorder_buffer: dict = {}         # seq -> (src, serial, text)

    def handle_broadcast(payload):
        nonlocal applied_globals
        _tag, seq, src, serial, text = payload
        # the network may reorder broadcasts: apply strictly in seq order
        reorder_buffer[seq] = (src, serial, text)
        while applied_globals in reorder_buffer:
            b_src, b_serial, b_text = reorder_buffer.pop(applied_globals)
            if b_src == index and b_serial in spec_serials:
                # my own optimistic append, confirmed in place
                spec_serials.discard(b_serial)
            else:
                doc.append(b_text)
            applied_globals += 1

    pending = list(script.edits)
    serial = 0
    while pending or applied_globals < total_edits:
        # drain any broadcasts that have already arrived
        while True:
            msg = yield p.recv(timeout=0.0)
            if msg is TIMED_OUT:
                break
            handle_broadcast(msg.payload)
            yield p.emit(("applied", applied_globals, tuple(doc)))
        if pending:
            think, text = pending.pop(0)
            yield p.compute(think)
            # absorb everything that arrived while thinking, so the
            # prediction reflects the freshest view of the global order
            while True:
                msg = yield p.recv(timeout=0.0)
                if msg is TIMED_OUT:
                    break
                handle_broadcast(msg.payload)
            serial += 1
            aid = yield p.aid_init(f"edit-{index}-{serial}")
            predicted = applied_globals + len(spec_serials)
            yield p.send("sequencer", ("op", index, serial, predicted, text, aid))
            if (yield p.guess(aid)):
                # optimistic: my edit is already where it will be sequenced
                doc.append(text)
                spec_serials.add(serial)
            # pessimistic branch: nothing — the edit arrives via broadcast
        elif applied_globals < total_edits:
            msg = yield p.recv()
            handle_broadcast(msg.payload)
            yield p.emit(("applied", applied_globals, tuple(doc)))
    return tuple(doc)


def sequencer(p, n_editors: int, total_edits: int):
    """Assign the total order; affirm accurate predictions, deny races."""
    count = 0
    while count < total_edits:
        msg = yield p.recv()
        _tag, src, serial, predicted, text, aid = msg.payload
        seq = count
        count += 1
        yield p.emit(("seq", seq, src, serial, text))
        for e in range(n_editors):
            yield p.send(f"editor-{e}", ("ordered", seq, src, serial, text))
        if seq == predicted:
            yield p.affirm(aid)
        else:
            yield p.deny(aid)
    return count


@dataclass
class CoEditResult:
    makespan: float
    documents: dict = field(default_factory=dict)   # editor index -> tuple
    order: list = field(default_factory=list)       # committed global order
    rollbacks: int = 0
    denials: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        docs = list(self.documents.values())
        reference = tuple(text for (_tag, _seq, _src, _serial, text) in self.order)
        return all(doc == reference for doc in docs)


def run_coedit(
    workload: CoEditWorkload,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    trace: Optional[Tracer] = None,
) -> CoEditResult:
    system = HopeSystem(
        seed=seed,
        latency=latency if latency is not None else ConstantLatency(workload.latency),
        trace=trace,
    )
    system.spawn("sequencer", sequencer, workload.n_editors, workload.total_edits)
    for index, script in enumerate(workload.scripts):
        system.spawn(f"editor-{index}", editor, index, script, workload.total_edits)
    makespan = system.run(max_events=5_000_000)
    documents = {
        index: system.result_of(f"editor-{index}")
        for index in range(workload.n_editors)
    }
    stats = system.stats()
    return CoEditResult(
        makespan=makespan,
        documents=documents,
        order=system.committed_outputs("sequencer"),
        rollbacks=stats["rollbacks"],
        denials=stats["denies"],
        stats=stats,
    )


def main() -> None:
    result = run_coedit(CoEditWorkload(
        scripts=(
            EditScript(((1.0, "left"), (4.0, "left-2"))),
            EditScript(((1.0, "right"), (4.0, "right-2"))),
        ),
        latency=3.0,
    ))
    print("two editors type at once; each predicts its edit lands first")
    print(f"  sequenced order : {[entry[4] for entry in result.order]}")
    for index, document in result.documents.items():
        print(f"  editor-{index}        : {list(document)}")
    print(f"  denials={result.denials} rollbacks={result.rollbacks} "
          f"converged: {result.converged}")


if __name__ == "__main__":
    main()
