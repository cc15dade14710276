"""On-disk layout for durable runs: sealed envelopes + effect WALs.

A run directory holds::

    key.bin             per-run HMAC key (32 random bytes, created once)
    snap-<gen>.env      sealed snapshot envelope, generation ``gen``
    wal-<gen>.jsonl     effect WAL with the frames written *after*
                        envelope ``gen`` (gen 0: before any envelope)
    ledger.jsonl        every committed output row, append-only; never
                        pruned (it is the run's product, not recovery state)

Envelope file format — a header line then the JSON body::

    HOPEENV1 <gen> <crc32-of-body> <hmac-sha256-of-body>\\n
    {...body...}

The body carries ``prev``: the seal of generation ``gen - 1`` (empty for
the first), chaining generations so a stale sealed envelope cannot be
swapped in unnoticed.  Envelopes are written via temp file + fsync +
atomic rename (+ directory fsync), so a crash mid-write leaves either
the old generation or the new one, never a torn file.

WAL records are one compact JSON object per line with a trailing CRC32::

    {"e":[...],"i":7,"o":[...],"p":"w0","t":"f"} <crc32>\\n

Records become durable in *batches*: a marker record (``"t":"m"``)
closes each batch with an HMAC over the batch's rolling SHA-256 digest,
and the file is flushed (+fsynced) at markers only.  Recovery discards
any suffix after the last valid marker — a torn tail is detected and
counted, never silently applied.

Ledger lines have the same ``<json> <crc32>`` shape, one line per process
per envelope: ``{"p":"w0","r":[[value, log_index, time], ...]}``.  The
lines are chained by one rolling SHA-256 over their bodies, and each
envelope seals ``[rows, digest]`` of the prefix it covers after that
prefix was fsynced — so a byte changed inside a sealed prefix is always
found, and bytes past it (an envelope that never landed) are cut off.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any, Dict, List, Optional, Tuple

from .codec import DurableError, crc_hex, seal_hex, seals_match

_ENV_MAGIC = "HOPEENV1"
_ENV_RE = re.compile(r"^snap-(\d{8})\.env$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.jsonl$")
KEY_FILE = "key.bin"
LEDGER_FILE = "ledger.jsonl"


def _env_name(gen: int) -> str:
    return f"snap-{gen:08d}.env"


def _wal_name(gen: int) -> str:
    return f"wal-{gen:08d}.jsonl"


#: One canonical encoder: ``json.dumps`` with non-default options builds a
#: fresh ``JSONEncoder`` per call, and a run encodes a record per WAL line.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_bytes(doc: Any) -> bytes:
    return _ENCODER.encode(doc).encode("utf-8")


def _line(body: bytes) -> bytes:
    """One WAL / ledger line: the JSON body and its CRC32."""
    return body + b" " + crc_hex(body).encode("ascii") + b"\n"


def _checked_body(raw_line: bytes) -> Optional[bytes]:
    """The body of a line :func:`_line` wrote, None if torn or corrupt."""
    body, _, crc = raw_line.rstrip(b"\n").rpartition(b" ")
    if not body or crc.decode("ascii", "replace") != crc_hex(body):
        return None
    return body


class DurableStore:
    """File-level half of the durable subsystem: envelopes, WALs, the key.

    Owns no runtime state — the :class:`~repro.durable.recorder.DurableRecorder`
    decides *what* to persist; this class decides *how it lands on disk*.
    """

    def __init__(self, root: str, *, fsync: bool = True, retain: int = 2) -> None:
        if retain < 1:
            raise DurableError(f"retain must be >= 1, got {retain}")
        self.root = root
        self.fsync = fsync
        self.retain = retain
        os.makedirs(root, exist_ok=True)
        self.key = self._load_or_create_key()
        self._wal_fh = None
        self._wal_gen: Optional[int] = None
        # Rolling digest + count of record lines since the last marker,
        # mirrored by scan_wal during recovery.
        self._batch_digest = hashlib.sha256()
        self._batch_records = 0
        self._ledger_fh = None
        self._ledger_digest = hashlib.sha256()
        self._ledger_unsynced = False
        #: Output rows in the ledger, and the size of the newest envelope.
        self.ledger_rows = 0
        self.envelope_bytes = 0

    # -- key ----------------------------------------------------------------

    def _load_or_create_key(self) -> bytes:
        path = os.path.join(self.root, KEY_FILE)
        try:
            with open(path, "rb") as fh:
                key = fh.read()
            if len(key) < 16:
                raise DurableError(f"{path}: seal key too short ({len(key)} bytes)")
            return key
        except FileNotFoundError:
            key = os.urandom(32)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            try:
                os.write(fd, key)
                if self.fsync:
                    os.fsync(fd)
            finally:
                os.close(fd)
            return key

    # -- layout queries ------------------------------------------------------

    def has_run_state(self) -> bool:
        """Any envelope, WAL or ledger present (i.e. a run already lives here)?"""
        return bool(
            self.envelope_gens() or self.wal_gens()
            or os.path.exists(os.path.join(self.root, LEDGER_FILE))
        )

    def envelope_gens(self) -> List[int]:
        return self._gens(_ENV_RE)

    def wal_gens(self) -> List[int]:
        return self._gens(_WAL_RE)

    def _gens(self, pattern) -> List[int]:
        return sorted(_gens_in(self.root, pattern))

    def _dir_fsync(self) -> None:
        if not self.fsync or not hasattr(os, "O_DIRECTORY"):
            return
        fd = os.open(self.root, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- WAL writing ---------------------------------------------------------

    def open_wal(self, gen: int) -> None:
        """Start (or append to) the WAL for generation ``gen``."""
        self._close_wal()
        path = os.path.join(self.root, _wal_name(gen))
        self._wal_fh = open(path, "ab")
        self._wal_gen = gen
        self._batch_digest = hashlib.sha256()
        self._batch_records = 0

    def append_record(self, rec: Dict[str, Any]) -> int:
        """Write one WAL record line (buffered; durable at the next marker).
        Returns the encoded size in bytes."""
        if self._wal_fh is None:
            raise DurableError("no WAL open — open_wal() first")
        body = _json_bytes(rec)
        self._batch_digest.update(body)
        self._batch_records += 1
        return self._wal_fh.write(_line(body))

    def write_marker(self, batch_index: int) -> int:
        """Seal the current batch with an HMAC marker and flush to disk."""
        if self._wal_fh is None:
            raise DurableError("no WAL open — open_wal() first")
        digest = self._batch_digest.hexdigest()
        mac = seal_hex(self.key, f"{self._wal_gen}:{batch_index}:{digest}".encode())
        size = self._wal_fh.write(
            _line(_json_bytes({"t": "m", "n": batch_index, "h": mac}))
        )
        self._wal_fh.flush()
        if self.fsync:
            os.fsync(self._wal_fh.fileno())
        self._batch_digest = hashlib.sha256()
        self._batch_records = 0
        return size

    def _close_wal(self) -> None:
        if self._wal_fh is not None:
            self._wal_fh.flush()
            self._wal_fh.close()
            self._wal_fh = None
            self._wal_gen = None

    def close(self) -> None:
        self._close_wal()
        if self._ledger_fh is not None:
            self._ledger_fh.close()
            self._ledger_fh = None

    # -- the output ledger ---------------------------------------------------

    def open_ledger(self, rows: int = 0, digest: Optional[str] = None
                    ) -> Tuple[List[Tuple[str, list]], int]:
        """Verify the ledger prefix an envelope sealed as ``[rows, digest]``
        (nothing, for a run with no envelope yet), cut off whatever follows
        it, and leave the file open for appending.

        Returns ``(lines, truncated)``: the prefix as ``(process, rows)``
        pairs and how many bytes past it were dropped.  Raises
        :class:`DurableError` when the prefix itself does not verify —
        committed outputs exist nowhere else, so there is nothing to fall
        back to.
        """
        path = os.path.join(self.root, LEDGER_FILE)
        lines: List[Tuple[str, list]] = []
        hasher = hashlib.sha256()
        seen = end = 0
        if rows:
            try:
                fh = open(path, "rb")
            except OSError as exc:
                raise DurableError(f"ledger: unreadable ({exc})")
            with fh:
                for raw_line in fh:
                    body = _checked_body(raw_line)
                    if body is None:
                        raise DurableError(
                            f"ledger: CRC mismatch at byte {end}, inside the "
                            f"{rows} rows the envelope sealed"
                        )
                    doc = json.loads(body)
                    lines.append((doc["p"], doc["r"]))
                    hasher.update(body)
                    seen += len(doc["r"])
                    end += len(raw_line)
                    if seen >= rows:
                        break
            if seen != rows:
                raise DurableError(
                    f"ledger: holds {seen} rows where the envelope sealed {rows}"
                )
        if hasher.hexdigest() != (digest or hashlib.sha256().hexdigest()):
            raise DurableError(
                f"ledger: digest of the first {rows} rows does not match the "
                "envelope's seal"
            )
        if self._ledger_fh is not None:
            self._ledger_fh.close()
        self._ledger_fh = open(path, "ab")
        truncated = os.fstat(self._ledger_fh.fileno()).st_size - end
        if truncated:
            self._ledger_fh.truncate(end)
        self._ledger_digest = hasher
        self._ledger_unsynced = False
        self.ledger_rows = rows
        return lines, truncated

    def append_ledger(self, name: str, rows: list) -> None:
        """Append one process's newly committed output rows (buffered; they
        count once :meth:`seal_ledger` has run)."""
        body = _json_bytes({"p": name, "r": rows})
        self._ledger_digest.update(body)
        self._ledger_fh.write(_line(body))
        self._ledger_unsynced = True
        self.ledger_rows += len(rows)

    def seal_ledger(self) -> Tuple[int, str]:
        """Make everything appended durable; returns the ``(rows, digest)``
        pair the next envelope seals."""
        if self._ledger_unsynced:
            self._ledger_fh.flush()
            if self.fsync:
                os.fsync(self._ledger_fh.fileno())
            self._ledger_unsynced = False
        return self.ledger_rows, self._ledger_digest.hexdigest()

    # -- envelope writing ----------------------------------------------------

    def write_envelope(self, gen: int, doc: Dict[str, Any]) -> str:
        """Atomically persist envelope ``gen``; rotate the WAL to ``gen``;
        prune generations older than the retention window.  Returns the
        envelope's seal (callers chain it into the *next* envelope)."""
        body = _json_bytes(doc)
        seal = seal_hex(self.key, body)
        header = f"{_ENV_MAGIC} {gen} {crc_hex(body)} {seal}\n"
        path = os.path.join(self.root, _env_name(gen))
        tmp = os.path.join(self.root, f".snap-{gen:08d}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(header.encode("utf-8"))
            fh.write(body)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._dir_fsync()
        self.envelope_bytes = len(header) + len(body)
        self.open_wal(gen)
        self._prune(gen)
        return seal

    def _prune(self, gen: int) -> None:
        floor = gen - (self.retain - 1)
        for g in self.envelope_gens():
            if g < floor:
                self._unlink(_env_name(g))
        for g in self.wal_gens():
            if g < floor and g != self._wal_gen:
                self._unlink(_wal_name(g))

    def _unlink(self, name: str) -> None:
        try:
            os.unlink(os.path.join(self.root, name))
        except OSError:
            pass

    # -- reading / verification ----------------------------------------------

    def load_envelope(self, gen: int) -> Tuple[Dict[str, Any], str]:
        """Load and verify envelope ``gen``; raises DurableError on any
        integrity failure (missing, torn, CRC or seal mismatch)."""
        path = os.path.join(self.root, _env_name(gen))
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise DurableError(f"envelope {gen}: unreadable ({exc})")
        nl = raw.find(b"\n")
        if nl < 0:
            raise DurableError(f"envelope {gen}: truncated header")
        parts = raw[:nl].decode("utf-8", "replace").split()
        body = raw[nl + 1:]
        if len(parts) != 4 or parts[0] != _ENV_MAGIC:
            raise DurableError(f"envelope {gen}: bad header {parts!r}")
        if int(parts[1]) != gen:
            raise DurableError(f"envelope {gen}: header names generation {parts[1]}")
        if parts[2] != crc_hex(body):
            raise DurableError(f"envelope {gen}: CRC mismatch (torn or corrupt)")
        if not seals_match(parts[3], seal_hex(self.key, body)):
            raise DurableError(f"envelope {gen}: seal verification failed")
        try:
            doc = json.loads(body)
        except ValueError as exc:
            raise DurableError(f"envelope {gen}: body is not JSON ({exc})")
        return doc, parts[3]

    def scan_wal(self, gen: int) -> Tuple[List[Dict[str, Any]], int, bool]:
        """Read WAL ``gen``, honoring batch markers.

        Returns ``(records, discarded, clean)``: the records covered by
        valid markers, how many record lines had to be discarded (torn
        tail, bad CRC, or an invalid marker), and whether the file ended
        exactly at a valid marker (``clean`` — recovery only chains into
        the *next* generation's WAL when this one ended cleanly).
        """
        path = os.path.join(self.root, _wal_name(gen))
        try:
            fh = open(path, "rb")
        except OSError:
            return [], 0, True
        records: List[Dict[str, Any]] = []
        pending: List[Dict[str, Any]] = []
        digest = hashlib.sha256()
        discarded = 0
        broken = False
        with fh:
            for raw_line in fh:
                if raw_line == b"\n":
                    continue
                body = _checked_body(raw_line)
                try:
                    rec = json.loads(body) if body is not None else None
                except ValueError:
                    rec = None
                if rec is None:
                    broken = True
                    break
                if rec.get("t") == "m":
                    expect = seal_hex(
                        self.key, f"{gen}:{rec.get('n')}:{digest.hexdigest()}".encode()
                    )
                    if not seals_match(str(rec.get("h", "")), expect):
                        broken = True
                        break
                    records.extend(pending)
                    pending = []
                    digest = hashlib.sha256()
                else:
                    pending.append(rec)
                    digest.update(body)
        discarded += len(pending)
        clean = not broken and not pending
        return records, discarded, clean


# -- chaos corruption helpers (used by repro.chaos and the tests) ------------


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


def _gens_in(root: str, pattern) -> List[int]:
    return [int(m.group(1)) for name in os.listdir(root) if (m := pattern.match(name))]


def corrupt_latest_envelope(root: str) -> Optional[str]:
    """Flip one byte in the newest envelope's body.  Returns the path, or
    None when no envelope exists yet."""
    gens = _gens_in(root, _ENV_RE)
    if not gens:
        return None
    path = os.path.join(root, _env_name(max(gens)))
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        header_end = fh.read().find(b"\n")
    _flip_byte(path, header_end + 1 + max(0, (size - header_end) // 2))
    return path


def corrupt_wal_tail(root: str) -> Optional[str]:
    """Flip one byte in the last line of the newest non-empty WAL *on the
    replay path* — recovery only reads WAL generations at or after the
    newest envelope, so damaging an older (already-consolidated) WAL
    would never be noticed.  Returns the path, or None when there is
    nothing recovery would read."""
    floor = max(_gens_in(root, _ENV_RE), default=0)
    candidates = [
        gen for gen in _gens_in(root, _WAL_RE)
        if gen >= floor and os.path.getsize(os.path.join(root, _wal_name(gen))) > 0
    ]
    if not candidates:
        return None
    path = os.path.join(root, _wal_name(max(candidates)))
    with open(path, "rb") as fh:
        raw = fh.read()
    stripped = raw.rstrip(b"\n")
    if not stripped:
        return None
    start = stripped.rfind(b"\n") + 1
    _flip_byte(path, start + (len(stripped) - start) // 2)
    return path


def corrupt_ledger(root: str) -> Optional[str]:
    """Flip one byte in the ledger's first line — inside the prefix every
    envelope that sealed any row covers.  Returns the path, or None when
    no envelope has sealed a row yet."""
    path = os.path.join(root, LEDGER_FILE)
    gens = _gens_in(root, _ENV_RE)
    if not gens or not os.path.exists(path):
        return None
    with open(os.path.join(root, _env_name(max(gens))), "rb") as fh:
        fh.readline()
        try:
            sealed_rows = json.loads(fh.read())["ledger"][0]
        except (ValueError, LookupError, TypeError):
            return None
    with open(path, "rb") as fh:
        first = fh.readline()
    if not sealed_rows or not first:
        return None
    _flip_byte(path, len(first) // 2)
    return path
