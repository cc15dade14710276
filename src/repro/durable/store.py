"""On-disk layout for durable runs: sealed envelopes + effect WALs.

A run directory holds::

    key.bin             per-run HMAC key (32 random bytes, created once)
    snap-<gen>.env      sealed snapshot envelope, generation ``gen``
    wal-<gen>.jsonl     effect WAL with the records written *after*
                        envelope ``gen`` (gen 0: before any envelope)

Envelope file format — a header line then the JSON body::

    HOPEENV1 <gen> <crc32-of-body> <hmac-sha256-of-body>\\n
    {...body...}

The body carries ``prev``: the seal of generation ``gen - 1`` (empty for
the first), chaining generations so a stale sealed envelope cannot be
swapped in unnoticed.  Envelopes are written via temp file + fsync +
atomic rename (+ directory fsync), so a crash mid-write leaves either
the old generation or the new one, never a torn file.

WAL records are one compact JSON object per line with a trailing CRC32::

    {"i":7,"k":"send","p":"w0",...} <crc32>\\n

Records become durable in *batches*: a marker record (``"t":"m"``)
closes each batch with an HMAC over the batch's rolling SHA-256 digest,
and the file is flushed (+fsynced) at markers only.  Recovery discards
any suffix after the last valid marker — a torn tail is detected and
counted, never silently applied.
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


def _env_name(gen: int) -> str:
    return f"snap-{gen:08d}.env"


def _wal_name(gen: int) -> str:
    return f"wal-{gen:08d}.jsonl"


#: One canonical encoder: ``json.dumps`` with non-default options builds a
#: fresh ``JSONEncoder`` per call, and a run encodes a record per WAL line.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_bytes(doc: Any) -> bytes:
    return _ENCODER.encode(doc).encode("utf-8")


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
        """Any envelope or WAL present (i.e. a run already lives here)?"""
        return bool(self.envelope_gens() or self.wal_gens())

    def envelope_gens(self) -> List[int]:
        return self._gens(_ENV_RE)

    def wal_gens(self) -> List[int]:
        return self._gens(_WAL_RE)

    def _gens(self, pattern) -> List[int]:
        gens = []
        for name in os.listdir(self.root):
            m = pattern.match(name)
            if m:
                gens.append(int(m.group(1)))
        gens.sort()
        return gens

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
        self.close()
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
        return self._write_line(body)

    def _write_line(self, body: bytes) -> int:
        line = body + b" " + crc_hex(body).encode("ascii") + b"\n"
        self._wal_fh.write(line)
        return len(line)

    def write_marker(self, batch_index: int) -> int:
        """Seal the current batch with an HMAC marker and flush to disk."""
        if self._wal_fh is None:
            raise DurableError("no WAL open — open_wal() first")
        digest = self._batch_digest.hexdigest()
        mac = seal_hex(self.key, f"{self._wal_gen}:{batch_index}:{digest}".encode())
        size = self._write_line(_json_bytes({"t": "m", "n": batch_index, "h": mac}))
        self._wal_fh.flush()
        if self.fsync:
            os.fsync(self._wal_fh.fileno())
        self._batch_digest = hashlib.sha256()
        self._batch_records = 0
        return size

    def close(self) -> None:
        if self._wal_fh is not None:
            self._wal_fh.flush()
            self._wal_fh.close()
            self._wal_fh = None
            self._wal_gen = None

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
                line = raw_line.rstrip(b"\n")
                if not line:
                    continue
                sp = line.rfind(b" ")
                if sp < 0:
                    broken = True
                    break
                body, crc = line[:sp], line[sp + 1:]
                if crc.decode("ascii", "replace") != crc_hex(body):
                    broken = True
                    break
                try:
                    rec = json.loads(body)
                except ValueError:
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


def corrupt_latest_envelope(root: str) -> Optional[str]:
    """Flip one byte in the newest envelope's body.  Returns the path, or
    None when no envelope exists yet."""
    gens = []
    for name in os.listdir(root):
        m = _ENV_RE.match(name)
        if m:
            gens.append(int(m.group(1)))
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
    env_gens = [
        int(m.group(1))
        for name in os.listdir(root)
        if (m := _ENV_RE.match(name))
    ]
    floor = max(env_gens) if env_gens else 0
    candidates = []
    for name in os.listdir(root):
        m = _WAL_RE.match(name)
        if (
            m
            and int(m.group(1)) >= floor
            and os.path.getsize(os.path.join(root, name)) > 0
        ):
            candidates.append(int(m.group(1)))
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
