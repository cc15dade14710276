"""DurableRecorder: what the engine persists, and how a run is rebuilt.

Only *committed* state goes to disk — exactly the prefix of each
process's effect log that the commit frontier has passed (PR 2,
Theorem 6.1: finalized state never rolls back), plus the metadata needed
to make that prefix replayable in a fresh process tree:

* per-process committed log entries, with enough send-side detail
  (destination, payload, tags) to re-inject messages whose *receive*
  had not committed by the crash;
* promoted rebase snapshots (``p.commit_point`` states) and the log
  ``base`` they anchor, so fossil-collected prefixes stay restorable;
* committed emitted outputs (the run's observable product);
* the committed slice of the AID registry — key, name, and definite
  status.  Definite statuses are stable (an AFFIRMED/DENIED assumption
  never reverts), so they can be snapshotted as plain values;
* machine serial counters, the network message counter, and the clock.

Speculative state is intentionally *not* persisted: a resumed run
replays the committed prefix (replay invokes no handlers) and then
re-executes the speculative frontier live, exactly as a rollback would.
That is the HOPE model's own crash story — optimism is free to die with
the world, commitments are not.

Write path: the engine calls ``note_send``/``note_resolution`` on the
hot path (cheap side-buffer appends), ``flush_proc`` + ``end_pass`` from
the fossil-collection pass (committed entries become WAL records, a
sealed batch marker makes them durable), and every ``snapshot_every``-th
pass consolidates into a new sealed envelope, rotating the WAL so disk
stays bounded like RAM.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..runtime.messages import ReceivedMessage
from .codec import DurableError, decode_value, encode_value
from .store import DurableStore

_RESOLUTION_KINDS = ("affirm", "deny", "free_of")


def _fresh_proc_doc() -> Dict[str, Any]:
    return {"base": 0, "entries": [], "outputs": [], "rebase": None}


class _ProcImage:
    """In-memory mirror of one process's persisted slice (encoded form)."""

    __slots__ = ("base", "entries", "outputs", "rebase",
                 "send_extras", "res_extras")

    def __init__(self) -> None:
        self.base = 0
        self.entries: List[list] = []     # [kind, encoded_result, extra|None]
        #: [encoded_value, log_index, time] for every flushed output — the
        #: whole committed ledger, so its length is also how far into
        #: ``proc.outputs`` this image has read.
        self.outputs: List[list] = []
        self.rebase: Optional[list] = None  # [encoded_state, time]
        # Hot-path side buffers, folded into WAL records at flush time and
        # truncated on rollback exactly like the effect log itself.
        self.send_extras: List[tuple] = []  # (pos, msg_id, dst, payload, tags)
        self.res_extras: List[tuple] = []   # (pos, aid_key)

    @property
    def cursor(self) -> int:
        return self.base + len(self.entries)


class DurableRecorder:
    """Engine-side durable persistence: WAL + sealed snapshot envelopes."""

    def __init__(self, system, root: str, *, seed: int,
                 opts: Optional[Dict[str, Any]] = None) -> None:
        options = dict(opts or {})
        self._resuming = bool(options.pop("_resuming", False))
        self.snapshot_every = int(options.pop("snapshot_every", 4))
        retain = int(options.pop("retain", 2))
        fsync = bool(options.pop("fsync", True))
        if options:
            raise DurableError(
                f"unknown durable_opts key(s): {sorted(options)}; "
                "allowed: snapshot_every, retain, fsync"
            )
        if self.snapshot_every < 1:
            raise DurableError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        self.system = system
        self.seed = seed
        self.store = DurableStore(root, fsync=fsync, retain=retain)
        self.generation = 0
        self.prev_seal = ""
        self.batch_index = 0
        self.passes_since_snapshot = 0
        self._dirty_since_marker = False
        self._dirty_since_snapshot = False
        self.procs: Dict[str, _ProcImage] = {}
        self.registry: Dict[str, list] = {}       # aid key -> [name, status]
        self.open_sends: Dict[str, dict] = {}     # str(msg_id) -> send record
        #: msg_ids whose committed *receive* flushed before the matching
        #: committed send did (possible: processes flush in spawn order
        #: within a pass, and the receiver may sit earlier in it).  The
        #: send's later flush consumes the marker instead of opening an
        #: in-flight record that nothing would ever close.
        self.consumed: set = set()
        self.stats: Dict[str, Any] = {
            "snapshots_written": 0,
            "wal_records": 0,
            "wal_bytes": 0,
            "wal_batches": 0,
            "envelopes_rejected": 0,
            "wal_records_discarded": 0,
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

    # -- hot-path hooks (engine calls these; all O(1) appends) ---------------

    def _img(self, name: str) -> _ProcImage:
        img = self.procs.get(name)
        if img is None:
            img = self.procs[name] = _ProcImage()
        return img

    def note_send(self, name: str, pos: int, msg_id: int, dst: str,
                  payload: Any, tags) -> None:
        self._img(name).send_extras.append(
            (pos, msg_id, dst, payload, tuple(tags or ()))
        )

    def note_resolution(self, name: str, pos: int, aid_key: str) -> None:
        self._img(name).res_extras.append((pos, aid_key))

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

    def flush_proc(self, proc, target: int) -> None:
        """Persist ``proc``'s committed log entries below the absolute
        position ``target`` (the commit frontier for this pass) and the
        outputs its commit watermark — already advanced to ``target`` by
        the engine — has passed since the last flush."""
        img = self._img(proc.name)
        cursor = img.cursor
        if target > cursor:
            send_x = {e[0]: e for e in img.send_extras if e[0] < target}
            res_x = {e[0]: e[1] for e in img.res_extras if e[0] < target}
            for pos in range(cursor, target):
                entry = proc.log.entry_at(pos)
                kind = entry.kind
                enc = encode_value(entry.result)
                extra = None
                if kind == "send":
                    _, msg_id, dst, payload, tags = send_x[pos]
                    extra = {"d": dst, "pl": encode_value(payload), "g": list(tags)}
                    if msg_id in self.consumed:
                        self.consumed.discard(msg_id)
                    else:
                        self.open_sends[str(msg_id)] = {
                            "s": proc.name, "d": dst, "pl": extra["pl"],
                            "g": extra["g"], "m": msg_id,
                        }
                elif kind in _RESOLUTION_KINDS:
                    key = res_x[pos]
                    extra = {"a": key}
                    if kind != "free_of":
                        status = self._definite_status(key, kind)
                        extra["st"] = status
                        ent = self.registry.setdefault(
                            key, [key.rpartition("#")[0], "pending"]
                        )
                        ent[1] = status
                elif kind == "recv":
                    result = entry.result
                    if isinstance(result, ReceivedMessage):
                        if str(result.msg_id) in self.open_sends:
                            del self.open_sends[str(result.msg_id)]
                        else:
                            self.consumed.add(result.msg_id)
                elif kind == "aid_init":
                    handle = entry.result
                    self.registry.setdefault(handle.key, [handle.name, "pending"])
                rec = {"t": "e", "p": proc.name, "i": pos, "k": kind, "r": enc}
                if extra is not None:
                    rec["x"] = extra
                self._append(rec)
                img.entries.append([kind, enc, extra])
            img.send_extras = [e for e in img.send_extras if e[0] >= target]
            img.res_extras = [e for e in img.res_extras if e[0] >= target]
        for record in proc.outputs[len(img.outputs):proc.committed_count]:
            enc = encode_value(record.value)
            self._append({"t": "o", "p": proc.name, "i": record.log_index,
                          "v": enc, "tm": record.time})
            img.outputs.append([enc, record.log_index, record.time])

    def _definite_status(self, key: str, kind: str) -> str:
        """Status to persist for a committed affirm/deny.  A committed
        resolution entry implies the AID is definite (a speculative affirm
        inside a still-open interval blocks the frontier), and definite
        statuses never revert — so the machine's live answer is final.
        The entry's own direction is the fallback once the AID has been
        fossil-retired."""
        aid = self.system.machine.aids.get(key)
        if aid is not None:
            if aid.affirmed:
                return "affirmed"
            if aid.denied:
                return "denied"
        return "affirmed" if kind == "affirm" else "denied"

    def note_promotion(self, proc) -> None:
        """Fossil collection promoted a rebase point: trim the persisted
        image below the new base and capture the promoted state."""
        img = self._img(proc.name)
        new_base = proc.log.base
        if new_base > img.base:
            img.entries = img.entries[new_base - img.base:]
            img.base = new_base
        if proc.rebase is not None:
            img.rebase = [encode_value(proc.rebase.state), proc.rebase.time]
        self._dirty_since_snapshot = True

    def end_pass(self, now: float, force_snapshot: bool = False) -> None:
        """Close the fossil pass: seal the WAL batch (durability point) and
        periodically consolidate into a fresh envelope."""
        if self._dirty_since_marker:
            self.batch_index += 1
            self.stats["wal_bytes"] += self.store.write_marker(self.batch_index)
            self.stats["wal_batches"] += 1
            self._dirty_since_marker = False
        self.passes_since_snapshot += 1
        due = self.passes_since_snapshot >= self.snapshot_every
        if (due or force_snapshot) and self._dirty_since_snapshot:
            self.write_snapshot(now)

    def _append(self, rec: Dict[str, Any]) -> None:
        self.stats["wal_bytes"] += self.store.append_record(rec)
        self.stats["wal_records"] += 1
        self._dirty_since_marker = True
        self._dirty_since_snapshot = True

    def write_snapshot(self, now: float) -> None:
        machine = self.system.machine
        gen = self.generation + 1
        doc = {
            "v": 1,
            "gen": gen,
            "prev": self.prev_seal,
            "seed": self.seed,
            "time": now,
            "aid_serials": machine._aid_serials,
            "interval_serials": machine._interval_serials,
            "messages_sent": self.system.network.messages_sent,
            # Encoded in place: write_envelope serialises before returning.
            "aids": self.registry,
            "open_sends": self.open_sends,
            "consumed": sorted(self.consumed),
            "procs": {
                name: {
                    "base": img.base,
                    "entries": img.entries,
                    "outputs": img.outputs,
                    "rebase": img.rebase,
                }
                for name, img in self.procs.items()
            },
        }
        self.prev_seal = self.store.write_envelope(gen, doc)
        self.generation = gen
        self.batch_index = 0
        self.passes_since_snapshot = 0
        self._dirty_since_marker = False
        self._dirty_since_snapshot = False
        self.stats["snapshots_written"] += 1

    def begin_fresh(self) -> None:
        """Resume target was empty: start recording as a fresh run."""
        self.store.open_wal(0)

    # -- recovery ------------------------------------------------------------

    def load_image(self) -> Optional[Dict[str, Any]]:
        """Scan the run directory for the newest restorable state.

        Walks envelopes newest-first; a CRC/seal/chain failure rejects
        that generation (counted) and falls back one.  The chosen
        envelope's WAL suffix is then applied, generation by generation,
        stopping at the first torn tail (discarded records counted).
        Returns the merged image, or None when the directory holds no
        restorable state at all.
        """
        store = self.store
        env_gens = store.envelope_gens()
        base_doc: Optional[Dict[str, Any]] = None
        base_gen = 0
        base_seal = ""
        for g in sorted(env_gens, reverse=True):
            try:
                doc, seal = store.load_envelope(g)
            except DurableError:
                self.stats["envelopes_rejected"] += 1
                continue
            if g - 1 in env_gens:
                try:
                    _, prev_seal = store.load_envelope(g - 1)
                except DurableError:
                    prev_seal = None
                if prev_seal is not None and doc.get("prev") != prev_seal:
                    # A validly-sealed envelope that does not chain onto its
                    # predecessor: a stale or transplanted file.  Reject it.
                    self.stats["envelopes_rejected"] += 1
                    continue
            base_doc, base_gen, base_seal = doc, g, seal
            break
        if base_doc is None:
            image: Dict[str, Any] = {
                "v": 1, "gen": 0, "seed": self.seed, "time": 0.0,
                "aid_serials": 0, "interval_serials": 0, "messages_sent": 0,
                "aids": {}, "open_sends": {}, "consumed": [], "procs": {},
            }
        else:
            image = base_doc
        wal_gens = store.wal_gens()
        applied_any = False
        g = base_gen
        while g in wal_gens:
            records, discarded, clean = store.scan_wal(g)
            self.stats["wal_records_discarded"] += discarded
            if records:
                self._apply_wal(image, records)
                applied_any = True
            if not clean:
                break
            g += 1
        image["_seal"] = base_seal
        image["_maxgen"] = max(env_gens + wal_gens + [0])
        if base_doc is None and not applied_any:
            return None
        return image

    def _apply_wal(self, image: Dict[str, Any], records: List[dict]) -> None:
        procs = image["procs"]
        for rec in records:
            t = rec.get("t")
            if t == "e":
                p = procs.setdefault(rec["p"], _fresh_proc_doc())
                pos = rec["i"]
                expect = p["base"] + len(p["entries"])
                if pos != expect:
                    raise DurableError(
                        f"WAL gap for process {rec['p']!r}: found entry "
                        f"{pos}, expected {expect} (store is inconsistent)"
                    )
                extra = rec.get("x")
                kind = rec["k"]
                p["entries"].append([kind, rec["r"], extra])
                if kind == "send":
                    msg_id = rec["r"]
                    consumed = image.setdefault("consumed", [])
                    if msg_id in consumed:
                        consumed.remove(msg_id)
                    else:
                        image["open_sends"][str(msg_id)] = {
                            "s": rec["p"], "d": extra["d"], "pl": extra["pl"],
                            "g": extra["g"], "m": msg_id,
                        }
                elif kind == "recv":
                    result = decode_value(rec["r"])
                    if isinstance(result, ReceivedMessage):
                        if str(result.msg_id) in image["open_sends"]:
                            del image["open_sends"][str(result.msg_id)]
                        else:
                            image.setdefault("consumed", []).append(result.msg_id)
                elif kind == "aid_init":
                    handle = decode_value(rec["r"])
                    image["aids"].setdefault(handle.key, [handle.name, "pending"])
                elif kind in ("affirm", "deny") and extra:
                    key = extra.get("a")
                    status = extra.get("st")
                    if key and status:
                        ent = image["aids"].setdefault(
                            key, [key.rpartition("#")[0], "pending"]
                        )
                        ent[1] = status
            elif t == "o":
                p = procs.setdefault(rec["p"], _fresh_proc_doc())
                p["outputs"].append([rec["v"], rec["i"], rec["tm"]])
                tm = rec.get("tm")
                if tm is not None:
                    image["time"] = max(image.get("time", 0.0), tm)

    def restore(self, image: Dict[str, Any]) -> None:
        """Rebuild committed runtime state from a loaded image.  Called
        after ``build()`` has spawned the process tree; the engine's
        ``_defer_start`` kept the initial tasks unscheduled so replay can
        start from the restored logs instead."""
        # Engine-module imports are deferred: repro.runtime imports
        # repro.durable, not the other way around at module load.
        from ..core.aid import AidStatus
        from ..runtime.engine import OutputRecord
        from ..runtime.replay import RebasePoint, _make_entry
        from ..sim.channel import Message, Network

        system = self.system
        if image.get("v") != 1:
            raise DurableError(f"unsupported durable image version {image.get('v')!r}")
        if image.get("seed") != self.seed:
            raise DurableError(
                f"seed mismatch: durable run was recorded with seed "
                f"{image.get('seed')!r}, resume constructed with {self.seed!r}"
            )
        missing = sorted(set(image["procs"]) - set(system.procs))
        if missing:
            raise DurableError(
                f"durable state names process(es) {missing} that build() did "
                "not spawn — the resume build must recreate the same tree"
            )

        machine = system.machine
        machine._aid_serials = max(machine._aid_serials, int(image["aid_serials"]))
        machine._interval_serials = max(
            machine._interval_serials, int(image["interval_serials"])
        )

        for name, pdoc in image["procs"].items():
            proc = system.procs[name]
            img = self._img(name)
            img.base = int(pdoc["base"])
            img.entries = [list(e) for e in pdoc["entries"]]
            img.outputs = [list(o) for o in pdoc["outputs"]]
            img.rebase = list(pdoc["rebase"]) if pdoc.get("rebase") else None
            entries = []
            for kind, enc, _extra in img.entries:
                result = decode_value(enc)
                if kind == "aid_init":
                    # Re-pin the handle: the log entry holds the strong
                    # reference, the weak map gives tags a way back to it.
                    system._handles[result.key] = result
                entries.append(_make_entry((kind, result)))
            log = proc.log
            log.base = img.base
            log.entries = entries
            log.cursor = img.cursor
            log.pending = 0
            if img.rebase is not None and img.base > 0:
                proc.rebase = RebasePoint(
                    img.base, decode_value(img.rebase[0]), img.rebase[1]
                )
            proc.outputs = [
                OutputRecord(decode_value(v), int(i), None, tm)
                for v, i, tm in img.outputs
            ]
            proc.committed_count = len(proc.outputs)

        for key, (aid_name, status) in image["aids"].items():
            aid = machine.adopt_aid(key)
            if status == "affirmed" and not aid.affirmed:
                aid.status = AidStatus.AFFIRMED
                aid.resolved_by = aid.resolved_by or "durable-resume"
            elif status == "denied" and not aid.denied:
                aid.status = AidStatus.DENIED
                aid.resolved_by = aid.resolved_by or "durable-resume"
            self.registry[key] = [aid_name, status]

        network = system.network
        self.open_sends = {k: dict(v) for k, v in image["open_sends"].items()}
        self.consumed = set(image.get("consumed", ()))
        max_msg = int(image["messages_sent"])
        for rec in self.open_sends.values():
            max_msg = max(max_msg, int(rec["m"]))
        network.messages_sent = max(network.messages_sent, max_msg)
        # Re-inject committed sends whose receive had not committed: the
        # crash may have eaten the in-flight copy.  Base-class scheduling
        # on purpose — a FaultyNetwork must not re-judge a committed send.
        for rec in sorted(self.open_sends.values(), key=lambda r: int(r["m"])):
            box = network.mailbox(rec["d"])
            message = Message(
                rec["s"], rec["d"], decode_value(rec["pl"]),
                frozenset(rec["g"]), system.sim.now, int(rec["m"]),
            )
            delay = network.latency.sample(rec["s"], rec["d"])
            Network._schedule_delivery(network, box, message, delay)
            self.stats["injected_messages"] += 1

        for name in system.procs:
            system._start_task(system.procs[name], delay=0.0)

        self.generation = int(image.get("_maxgen", image.get("gen", 0)))
        self.prev_seal = image.get("_seal", "")
        self.stats["resumed"] = True
        self.stats["resumed_generation"] = int(image.get("gen", 0))
        self._dirty_since_snapshot = True
        self.write_snapshot(system.sim.now)

    # -- reporting -----------------------------------------------------------

    def stats_entries(self) -> Dict[str, Any]:
        out = dict(self.stats)
        out["generation"] = self.generation
        return out

    def observe_gauges(self, registry) -> None:
        g = registry.gauge
        g("hope_durable_snapshots_total",
          "Sealed snapshot envelopes written").set(self.stats["snapshots_written"])
        g("hope_durable_wal_records_total",
          "Committed effect-WAL records written").set(self.stats["wal_records"])
        g("hope_durable_wal_bytes_total",
          "Bytes appended to the effect WAL").set(self.stats["wal_bytes"])
        g("hope_durable_envelopes_rejected_total",
          "Envelopes rejected at recovery (CRC/seal/chain)").set(
              self.stats["envelopes_rejected"])
        g("hope_durable_wal_records_discarded_total",
          "Torn-tail WAL records discarded at recovery").set(
              self.stats["wal_records_discarded"])
        g("hope_durable_injected_messages_total",
          "Committed in-flight sends re-injected at resume").set(
              self.stats["injected_messages"])
