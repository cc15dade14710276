"""DurableRecorder: what the engine persists, and how a run is rebuilt.

Only *committed* state goes to disk — exactly the prefix of each
process's effect log that the commit frontier has passed (PR 2,
Theorem 6.1: finalized state never rolls back) — and of that, only what a
resumed run can still reach.  The recoverable image is:

* per process, the committed log entries at or above the log ``base``,
  and the promoted rebase snapshot (``p.commit_point`` state) that stands
  in for everything below it;
* committed sends whose *receive* has not committed (destination and
  payload, to re-inject what the crash ate).  A committed send carries no
  tags: its interval finalized, so every assumption it was tagged with is
  definitely affirmed and resolves to nothing at delivery;
* the status of every assumption the machine has not retired, or that
  the image still names — definite statuses are stable (an
  AFFIRMED/DENIED assumption never reverts), so they are plain values.  A
  settled AID retires under live handles (they read it by object), so
  its row outlives it until an envelope's walk finds the image no longer
  names its key; a resume binds every handle it decodes to its row's AID;
* machine serial counters, the network message counter, and the clock.

Committed emitted outputs are the run's *product*, not recovery state:
they go to an append-only ledger, and the image holds only the
``[rows, digest]`` that seals it.

Speculative state is intentionally *not* persisted: a resumed run
replays the committed prefix (replay invokes no handlers) and then
re-executes the speculative frontier live, exactly as a rollback would.
That is the HOPE model's own crash story — optimism is free to die with
the world, commitments are not.

Write path: the engine calls ``note_send``/``note_resolution`` on the
hot path (cheap side-buffer appends).  A fossil-collection pass calls
``flush_proc`` once per changed process — after it has chosen the pass's
rebase promotion, so entries the promotion drops are never encoded — and
the *change* to that process's image becomes one WAL frame;
``end_pass`` seals the pass's frames under a batch marker (the
durability point).  Every ``snapshot_every``-th pass moves the output
rows since the last envelope into the ledger and writes the image — the
live state, not the history — as a new sealed envelope, rotating the WAL
so disk stays bounded like RAM.  The image in memory is only ever
changed by :meth:`DurableRecorder._apply`, and recovery rebuilds it by
applying the same frames.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..runtime.api import AidHandle, _set_aid
from ..runtime.messages import ReceivedMessage
from .codec import DurableError, decode_value, encode_value
from .store import DurableStore

IMAGE_VERSION = 2
#: Entry kinds whose commit changes the image beyond the entry itself.
_EFFECTFUL = frozenset({"send", "recv", "aid_init", "affirm", "deny", "free_of"})


class _ProcImage:
    """One process's slice of the recoverable image (encoded form), plus
    its output rows on their way to the ledger and the recorder's hot-path
    side buffers for it."""

    __slots__ = ("base", "entries", "rebase", "outputs", "send_extras", "res_extras")

    def __init__(self) -> None:
        self.base = 0
        self.entries: List[list] = []     # [kind, encoded_result] from ``base`` on
        self.rebase: Optional[list] = None  # [encoded_state, time]
        #: Output rows the WAL sealed since the last envelope, verbatim:
        #: the next envelope appends them to the ledger.
        self.outputs: List[list] = []
        # Hot-path side buffers, consumed in log order at flush time and
        # truncated on rollback exactly like the effect log itself.
        self.send_extras: List[tuple] = []  # (pos, msg_id, dst, payload)
        self.res_extras: List[tuple] = []   # (pos, AssumptionId)

    def doc(self) -> Dict[str, Any]:
        return {"base": self.base, "entries": self.entries, "rebase": self.rebase}


class DurableRecorder:
    """Engine-side durable persistence: WAL frames, the output ledger and
    sealed snapshot envelopes."""

    def __init__(self, system, root: str, *, seed: int,
                 opts: Optional[Dict[str, Any]] = None, crash=None) -> None:
        options = dict(opts or {})
        self._resuming = bool(options.pop("_resuming", False))
        self.snapshot_every = int(options.pop("snapshot_every", 4))
        retain = int(options.pop("retain", 2))
        if options:
            raise DurableError(
                f"unknown durable_opts key(s): {sorted(options)}; "
                "allowed: snapshot_every, retain"
            )
        if self.snapshot_every < 1:
            raise DurableError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        self.system = system
        self.seed = seed
        self.store = DurableStore(root, retain=retain, crash=crash)
        self.generation = 0
        self.prev_seal = ""
        self.batch_index = 0
        self.passes_since_snapshot = 0
        self._dirty_since_marker = False
        self._dirty_since_snapshot = False
        self.procs: Dict[str, _ProcImage] = {}
        self.registry: Dict[str, str] = {}        # live aid key -> status
        #: str(msg_id) -> [src, dst, encoded payload] of a committed send
        #: whose receive has not committed; ``None`` where the committed
        #: *receive* flushed first (possible: processes flush in spawn
        #: order within a pass, and the receiver may sit earlier in it) —
        #: the send's later flush removes the marker instead of opening an
        #: in-flight record that nothing would ever close.
        self.open_sends: Dict[str, Optional[list]] = {}
        self.stats: Dict[str, Any] = {
            "snapshots_written": 0,
            "wal_records": 0,
            "wal_bytes": 0,
            "wal_batches": 0,
            "envelopes_rejected": 0,
            "wal_records_discarded": 0,
            "frames_replayed": 0,
            "ledger_rows_verified": 0,
            "ledger_bytes_truncated": 0,
            "injected_messages": 0,
            "resumed": False,
            "resumed_generation": None,
        }
        if not self._resuming:
            if self.store.has_run_state():
                raise DurableError(
                    f"{root} already holds a durable run — reload it with "
                    "HopeSystem.resume(...) instead of starting a fresh one"
                )
            self.store.open_wal(0)
            self.store.open_ledger()

    # -- hot-path hooks (engine calls these; all O(1) appends) ---------------

    def _img(self, name: str) -> _ProcImage:
        img = self.procs.get(name)
        if img is None:
            img = self.procs[name] = _ProcImage()
        return img

    def note_send(self, name: str, pos: int, msg_id: int, dst: str,
                  payload: Any) -> None:
        self._img(name).send_extras.append((pos, msg_id, dst, payload))

    def note_resolution(self, name: str, pos: int, aid) -> None:
        self._img(name).res_extras.append((pos, aid))

    def on_rollback(self, name: str, index: int) -> None:
        """The effect log was truncated to ``index``; drop the speculative
        side-buffer suffix the same way.  ``index`` is always at or past
        the commit frontier, so flushed records are never affected."""
        img = self._img(name)
        for extras in (img.send_extras, img.res_extras):   # appended in log order
            cut = len(extras)
            while cut and extras[cut - 1][0] >= index:
                cut -= 1
            del extras[cut:]

    # -- fossil-pass flushing ------------------------------------------------

    def flush_proc(self, proc, target: int, passed, rebase=None) -> None:
        """Persist what this pass changes in ``proc``'s image: ``rebase``,
        the rebase point the pass is about to promote (None: the base
        stays); the committed log entries below the absolute position
        ``target`` (the commit frontier for this pass) that survive the
        promotion; and ``passed``, the output records the commit watermark
        — already advanced to ``target`` by the engine — has just passed.
        Entries the promotion drops only leave their side effects: a send
        opened or closed, an assumption's status."""
        name = proc.name
        img = self._img(name)
        frame: Dict[str, Any] = {}
        registry = self.registry
        aids = self.system.machine.aids
        statuses: Dict[str, str] = {}
        #: Handles this frame adds to the image (kept recv payloads, newly
        #: open sends, the rebase state), for the verdict rule below.
        named: list = []
        base = img.base
        if rebase is not None:
            base = rebase.log_index
            frame["b"] = base
            frame["rb"] = [encode_value(rebase.state), rebase.time]
            _collect_handles(rebase.state, named)
        cursor = img.base + len(img.entries)
        if target > cursor:
            kept: List[list] = []
            opened: Dict[str, Optional[list]] = {}
            closed: List[str] = []
            open_sends = self.open_sends
            sends = resolutions = 0
            pos = cursor
            for kind, result in proc.log.pairs(cursor, target):
                if kind in _EFFECTFUL:
                    if kind == "send":
                        at, msg_id, dst, payload = img.send_extras[sends]
                        sends += 1
                        if at != pos:
                            raise DurableError(
                                f"send side buffer of {name!r} names entry {at}, "
                                f"the log has the send at {pos}"
                            )
                        mid = str(msg_id)
                        if mid in open_sends:
                            closed.append(mid)
                        else:
                            opened[mid] = [name, dst, encode_value(payload)]
                            _collect_handles(payload, named)
                    elif kind == "recv":
                        if isinstance(result, ReceivedMessage):
                            mid = str(result.msg_id)
                            if mid in opened:
                                del opened[mid]
                            elif mid in open_sends:
                                closed.append(mid)
                            else:
                                opened[mid] = None
                            if pos >= base:
                                _collect_handles(result.payload, named)
                    elif kind == "aid_init":
                        # A live AID's row starts pending (its resolution
                        # entry brings the verdict).  Kept or not, the
                        # entry is where the row comes from: a recv entry
                        # elsewhere in the image may name the key.
                        key = result.key
                        if key not in registry:
                            if key in aids:
                                statuses.setdefault(key, "pending")
                            else:
                                named.append(result)
                    else:
                        aid = img.res_extras[resolutions][1]
                        resolutions += 1
                        key = aid.key
                        if kind != "free_of" and (key in aids or key in registry):
                            # A committed resolution implies the AID is
                            # definite (a speculative affirm inside a still-
                            # open interval blocks the frontier), and definite
                            # statuses never revert: the machine's answer is
                            # final, the entry's own direction the fallback.
                            if aid.affirmed or (kind == "affirm" and not aid.denied):
                                status = "affirmed"
                            else:
                                status = "denied"
                            if registry.get(key) != status:
                                statuses[key] = status
                if pos >= base:
                    kept.append([kind, encode_value(result)])
                pos += 1
            del img.send_extras[:sends]
            del img.res_extras[:resolutions]
            if kept:
                frame["i"] = target - len(kept)
                frame["e"] = kept
            if opened:
                frame["so"] = opened
            if closed:
                frame["sc"] = closed
        # A key the image names needs a row.  A live one gets it from its
        # creator's aid_init entry; one that settled and retired before
        # this flush — its row, if it had one, dropped by an envelope while
        # nothing in the image named it — gets its verdict from the bound
        # handle.
        for handle in named:
            key = handle.key
            if key not in registry and key not in aids and handle.aid is not None:
                statuses.setdefault(key, handle.aid.status.value)
        if statuses:
            frame["rg"] = statuses
        if passed:
            frame["o"] = [[encode_value(r.value), r.log_index, r.time] for r in passed]
        if frame:
            frame["t"] = "f"
            frame["p"] = name
            self._append(frame)
            self.stats["wal_records"] += (
                len(frame.get("e", ())) + len(frame.get("o", ()))
            )

    def end_pass(self, now: float, force_snapshot: bool = False) -> None:
        """Close the fossil pass: seal the WAL batch (durability point)
        and periodically consolidate into a fresh envelope — dropping,
        first, the rows of retired AIDs the image no longer names."""
        self.passes_since_snapshot += 1
        due = self.passes_since_snapshot >= self.snapshot_every or force_snapshot
        if due and self._dirty_since_snapshot:
            self._drop_unnamed_rows()
        if self._dirty_since_marker:
            self.batch_index += 1
            self.stats["wal_bytes"] += self.store.write_marker(self.batch_index)
            self.stats["wal_batches"] += 1
            self._dirty_since_marker = False
        if due and self._dirty_since_snapshot:
            self.write_snapshot(now)

    def _drop_unnamed_rows(self) -> None:
        """A row outlives its AID while the image names the key: a resumed
        run binds the handles it decodes to the rows' AIDs.  Once per
        envelope, the rows of retired keys are checked against one walk of
        the image, and the ones it no longer names leave in a frame."""
        aids = self.system.machine.aids
        retired = [key for key in self.registry if key not in aids]
        if retired:
            named = self.image_aid_keys()
            gone = sorted(key for key in retired if key not in named)
            if gone:
                self._append({"t": "r", "k": gone})

    def _append(self, rec: Dict[str, Any]) -> None:
        self._apply(rec)
        self.stats["wal_bytes"] += self.store.append_record(rec)
        self._dirty_since_marker = True
        self._dirty_since_snapshot = True

    def _apply(self, rec: Dict[str, Any]) -> None:
        """Fold one WAL record into the image: the only place the image
        changes, while recording and while recovering alike."""
        kind = rec.get("t")
        if kind == "r":
            for key in rec["k"]:
                del self.registry[key]
            return
        if kind != "f":
            raise DurableError(
                f"unsupported durable image version: WAL record type {kind!r} "
                f"(this build reads version {IMAGE_VERSION})"
            )
        name = rec["p"]
        img = self._img(name)
        base = rec.get("b")
        if base is not None:
            del img.entries[:base - img.base]
            img.base = base
            img.rebase = rec["rb"]
        kept = rec.get("e")
        if kept:
            expect = img.base + len(img.entries)
            if rec["i"] != expect:
                raise DurableError(
                    f"WAL gap for process {name!r}: found entry {rec['i']}, "
                    f"expected {expect} (store is inconsistent)"
                )
            img.entries.extend(kept)
        img.outputs.extend(rec.get("o", ()))
        self.open_sends.update(rec.get("so", ()))
        for mid in rec.get("sc", ()):
            del self.open_sends[mid]
        self.registry.update(rec.get("rg", ()))

    def write_snapshot(self, now: float) -> None:
        store = self.store
        for name, img in self.procs.items():
            if img.outputs:
                store.append_ledger(name, img.outputs)
                img.outputs = []
        machine = self.system.machine
        gen = self.generation + 1
        doc = {
            "v": IMAGE_VERSION,
            "gen": gen,
            "prev": self.prev_seal,
            "seed": self.seed,
            "time": now,
            "aid_serials": machine._aid_serials,
            "interval_serials": machine._interval_serials,
            "messages_sent": self.system.network.messages_sent,
            # The envelope may only name ledger rows that are on disk.
            "ledger": store.seal_ledger(),
            # Encoded in place: write_envelope serialises before returning.
            "aids": self.registry,
            "open_sends": self.open_sends,
            "procs": {name: img.doc() for name, img in self.procs.items()},
        }
        self.prev_seal = store.write_envelope(gen, doc)
        self.generation = gen
        self.batch_index = 0
        self.passes_since_snapshot = 0
        self._dirty_since_marker = False
        self._dirty_since_snapshot = False
        self.stats["snapshots_written"] += 1

    def begin_fresh(self) -> None:
        """Nothing was restorable: start recording as a fresh run, over
        whatever unsealed records the old WAL 0 holds (appended to, they
        would break the first marker's digest)."""
        self.store.open_wal(0, fresh=True)

    # -- recovery ------------------------------------------------------------

    def load_image(self) -> Optional[Dict[str, Any]]:
        """Rebuild the image from the newest restorable state on disk.

        Walks envelopes newest-first; a CRC/seal/chain failure rejects
        that generation (counted) and falls back one.  The ledger prefix
        the chosen envelope sealed must verify — there is no second copy
        of an output to fall back to — and anything past it is cut off
        (counted).  The envelope's WAL suffix is then applied, generation
        by generation, stopping at the first torn tail (discarded frames
        counted).  Returns the envelope's document with what else
        :meth:`restore` needs (the recovered clock, the ledger's
        ``outputs``, the chain position), or None when the directory
        holds no restorable state at all.
        """
        store = self.store
        env_gens = store.envelope_gens()
        doc: Optional[Dict[str, Any]] = None
        base_gen = 0
        base_seal = ""
        for g in sorted(env_gens, reverse=True):
            try:
                candidate, seal = store.load_envelope(g)
            except DurableError:
                self.stats["envelopes_rejected"] += 1
                continue
            if g - 1 in env_gens:
                try:
                    _, prev_seal = store.load_envelope(g - 1)
                except DurableError:
                    prev_seal = None
                if prev_seal is not None and candidate.get("prev") != prev_seal:
                    # A validly-sealed envelope that does not chain onto its
                    # predecessor: a stale or transplanted file.  Reject it.
                    self.stats["envelopes_rejected"] += 1
                    continue
            doc, base_gen, base_seal = candidate, g, seal
            break
        restorable = doc is not None
        if doc is None:
            doc = {
                "v": IMAGE_VERSION, "seed": self.seed, "time": 0.0,
                "aid_serials": 0, "interval_serials": 0, "messages_sent": 0,
                "ledger": (), "aids": {}, "open_sends": {}, "procs": {},
            }
        elif doc.get("v") != IMAGE_VERSION:
            raise DurableError(
                f"unsupported durable image version {doc.get('v')!r} "
                f"(this build reads version {IMAGE_VERSION})"
            )
        lines, truncated = store.open_ledger(*doc["ledger"])
        self.stats["ledger_rows_verified"] = store.ledger_rows
        self.stats["ledger_bytes_truncated"] = truncated
        self.registry = doc["aids"]
        self.open_sends = doc["open_sends"]
        for name, pdoc in doc["procs"].items():
            img = self._img(name)
            img.base, img.entries, img.rebase = (
                pdoc["base"], pdoc["entries"], pdoc["rebase"]
            )
        outputs: Dict[str, list] = {}
        for name, rows in lines:
            outputs.setdefault(name, []).extend(rows)
        now = doc["time"]
        wal_gens = store.wal_gens()
        g = base_gen
        while g in wal_gens:
            frames, discarded, clean = store.scan_wal(g)
            self.stats["wal_records_discarded"] += discarded
            self.stats["frames_replayed"] += len(frames)
            for frame in frames:
                self._apply(frame)
                rows = frame.get("o")
                if rows:
                    now = max(now, rows[-1][2])
            if not clean:
                break
            g += 1
        if not restorable and not self.stats["frames_replayed"]:
            return None
        doc.update(time=now, gen=base_gen, seal=base_seal, outputs=outputs,
                   maxgen=max(env_gens + wal_gens + [0]))
        return doc

    def restore(self, loaded: Dict[str, Any]) -> None:
        """Rebuild committed runtime state from the image
        :meth:`load_image` left in this recorder.  Called after ``build()``
        has spawned the process tree; the engine's ``_defer_start`` kept
        the initial tasks unscheduled so replay can start from the
        restored logs instead."""
        # Engine-module imports are deferred: repro.runtime imports
        # repro.durable, not the other way around at module load.
        from ..core.aid import AidStatus
        from ..runtime.replay import RebasePoint
        from ..sim.channel import Message, Network

        system = self.system
        if loaded["seed"] != self.seed:
            raise DurableError(
                f"seed mismatch: durable run was recorded with seed "
                f"{loaded['seed']!r}, resume constructed with {self.seed!r}"
            )
        missing = sorted(set(self.procs) - set(system.procs))
        if missing:
            raise DurableError(
                f"durable state names process(es) {missing} that build() did "
                "not spawn — the resume build must recreate the same tree"
            )
        self.check_image()

        machine = system.machine
        machine._aid_serials = max(machine._aid_serials, int(loaded["aid_serials"]))
        machine._interval_serials = max(
            machine._interval_serials, int(loaded["interval_serials"])
        )

        for key, status in self.registry.items():
            aid = machine.adopt_aid(key)
            # The envelope's counter predates the AIDs its WAL suffix
            # committed; a fresh aid_init must not mint one of their keys.
            machine._aid_serials = max(machine._aid_serials, aid.serial)
            if status == "affirmed" and not aid.affirmed:
                aid.status = AidStatus.AFFIRMED
                aid.resolved_by = aid.resolved_by or "durable-resume"
            elif status == "denied" and not aid.denied:
                aid.status = AidStatus.DENIED
                aid.resolved_by = aid.resolved_by or "durable-resume"

        def bound(value):
            """``value`` with every handle in it bound to its adopted AID,
            and held while that AID is pending — per decoded object: two
            copies of one handle are two holds."""
            handles: list = []
            _collect_handles(value, handles)
            for handle in handles:
                if handle.aid is None:              # (met once per object)
                    aid = machine.aids[handle.key]  # check_image: it has a row
                    _set_aid(handle, aid)
                    if aid.pending:
                        machine.hold(aid, handle)
            return value

        for name, img in self.procs.items():
            proc = system.procs[name]
            proc.log.load(img.base, [
                (kind, bound(decode_value(enc))) for kind, enc in img.entries
            ])
            if img.rebase is not None and img.base > 0:
                proc.rebase = RebasePoint(
                    img.base, bound(decode_value(img.rebase[0])), img.rebase[1]
                )
            rows = loaded["outputs"].get(name, []) + img.outputs
            proc.committed = [decode_value(row[0]) for row in rows] or ()

        network = system.network
        in_flight = sorted(
            (int(mid), rec) for mid, rec in self.open_sends.items() if rec is not None
        )
        # Likewise the message counter: past every id the image still names.
        network.messages_sent = max(
            network.messages_sent, int(loaded["messages_sent"]),
            *map(int, self.open_sends),
        )
        # Re-inject committed sends whose receive had not committed: the
        # crash may have eaten the in-flight copy.  Base-class scheduling
        # on purpose — a FaultyNetwork must not re-judge a committed send.
        for mid, (src, dst, payload) in in_flight:
            message = Message(
                src, dst, bound(decode_value(payload)), frozenset(), system.sim.now, mid,
            )
            delay = network.latency.sample(src, dst)
            Network._schedule_delivery(network, network.mailbox(dst), message, delay)
            self.stats["injected_messages"] += 1

        for name in system.procs:
            system._start_task(system.procs[name], delay=0.0)

        self.generation = loaded["maxgen"]
        self.prev_seal = loaded["seal"]
        self.stats["resumed"] = True
        self.stats["resumed_generation"] = loaded["gen"]
        self._dirty_since_snapshot = True
        self.write_snapshot(system.sim.now)

    # -- the image invariant -------------------------------------------------

    def image_aid_keys(self) -> set:
        """Every AID key the persisted image can reach: handles inside
        retained entry results, open-send payloads and rebase states."""
        handles: list = []
        for img in self.procs.values():
            for _kind, enc in img.entries:
                if type(enc) is dict:               # pickled: may hold one
                    _collect_handles(decode_value(enc), handles)
            if img.rebase is not None:
                _collect_handles(decode_value(img.rebase[0]), handles)
        for rec in self.open_sends.values():
            if rec is not None:
                _collect_handles(decode_value(rec[2]), handles)
        return {handle.key for handle in handles}

    def check_image(self) -> None:
        """The registry forgets a retired AID once the image no longer
        names it; that is only sound if nothing a resumed run would replay
        or re-inject can still name the AID.  Raises :class:`DurableError`
        otherwise."""
        missing = sorted(self.image_aid_keys() - self.registry.keys())
        if missing:
            raise DurableError(
                f"durable image names assumption(s) {missing} that have no "
                "registry row — a resumed run could not resolve them"
            )

    # -- reporting -----------------------------------------------------------

    def stats_entries(self) -> Dict[str, Any]:
        out = dict(self.stats)
        out["generation"] = self.generation
        out["envelope_bytes"] = self.store.envelope_bytes
        out["ledger_rows"] = self.store.ledger_rows
        return out

    def observe_gauges(self, registry) -> None:
        g = registry.gauge
        g("hope_durable_snapshots_total",
          "Sealed snapshot envelopes written").set(self.stats["snapshots_written"])
        g("hope_durable_wal_records_total",
          "Committed effect-WAL records written").set(self.stats["wal_records"])
        g("hope_durable_wal_bytes_total",
          "Bytes appended to the effect WAL").set(self.stats["wal_bytes"])
        g("hope_durable_envelope_bytes",
          "Size of the newest sealed envelope").set(self.store.envelope_bytes)
        g("hope_durable_ledger_rows_total",
          "Committed output rows in the ledger").set(self.store.ledger_rows)
        g("hope_durable_envelopes_rejected_total",
          "Envelopes rejected at recovery (CRC/seal/chain)").set(
              self.stats["envelopes_rejected"])
        g("hope_durable_wal_records_discarded_total",
          "Torn-tail WAL records discarded at recovery").set(
              self.stats["wal_records_discarded"])
        g("hope_durable_injected_messages_total",
          "Committed in-flight sends re-injected at resume").set(
              self.stats["injected_messages"])


_SCALARS = (type(None), bool, int, float, str, bytes)


def _collect_handles(value: Any, out: list, seen: Optional[set] = None) -> None:
    """Append every :class:`AidHandle` reachable from ``value`` through
    containers, instance dicts and ``__slots__`` — the state pickling
    writes — to ``out``."""
    if type(value) in _SCALARS:
        return
    if isinstance(value, AidHandle):
        out.append(value)
        return
    if seen is None:
        seen = set()
    elif id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, dict):
        for key, item in value.items():
            _collect_handles(key, out, seen)
            _collect_handles(item, out, seen)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            _collect_handles(item, out, seen)
    elif not isinstance(value, type):
        state = getattr(value, "__dict__", None)
        if state is not None:
            _collect_handles(state, out, seen)
        for cls in type(value).__mro__:
            slots = cls.__dict__.get("__slots__", ())
            for slot in (slots,) if isinstance(slots, str) else slots:
                if slot not in ("__dict__", "__weakref__"):
                    _collect_handles(getattr(value, slot, None), out, seen)
