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
the old generation or the new one, never a torn file.  Creating a WAL
fsyncs the directory too: what its markers seal keeps its name.

WAL records are one compact JSON object per line with a trailing CRC32::

    {"e":[...],"i":7,"o":[...],"p":"w0","t":"f"} <crc32>\\n

Records become durable in *batches*: a marker record (``"t":"m"``)
closes each batch with an HMAC over the batch's rolling SHA-256 digest,
and the file is flushed (+fsynced) at markers only.  Recovery discards
any suffix after the last valid marker — a torn tail is detected and
counted, never silently applied.

Every operation that hands bytes or a name to the file system goes
through :meth:`DurableStore._io`, a crash point under
:func:`repro.verify.sweep` (docs/DURABILITY.md §6).

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
from typing import Any, Callable, Dict, List, Optional, Tuple

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


class HostCrash(BaseException):
    """The host died before a store operation (:meth:`DurableStore._io`);
    nothing between the store and the run that chose it may handle it."""


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
    ``crash(op, name, arg, sealed)`` is asked before every file operation
    (:meth:`_io`); ``sealed`` is the ``(gen, frames)`` of the newest batch
    whose marker fsync has completed.
    """

    def __init__(self, root: str, *, retain: int = 2,
                 crash: Optional[Callable[..., bool]] = None) -> None:
        if retain < 1:
            raise DurableError(f"retain must be >= 1, got {retain}")
        self.root = root
        self.retain = retain
        self.crash = crash
        self.sealed: Optional[Tuple[int, int]] = None
        try:
            os.makedirs(root, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise DurableError(f"durable root {root!r} is not a directory") from None
        self.key = self._load_or_create_key()
        self._wal_fh = None
        self._wal_gen: Optional[int] = None
        # Rolling digest + lines of the records since the last marker
        # (the digest is mirrored by scan_wal during recovery).
        self._batch_digest = hashlib.sha256()
        self._batch: List[bytes] = []
        self._wal_frames = 0
        self._ledger_fh = None
        self._ledger_digest = hashlib.sha256()
        self._ledger_lines: List[bytes] = []
        #: Output rows in the ledger, and the size of the newest envelope.
        self.ledger_rows = 0
        self.envelope_bytes = 0

    # -- the seam -------------------------------------------------------------

    def _io(self, op: str, name: str, arg: Any, call: Callable, *args: Any) -> Any:
        """``call(*args)``, unless the ``crash`` hook ends the host first:
        ``op`` ``name`` (relative to the root) is ``open`` (``arg`` ``"a"``
        or ``"w"``), ``write`` (``arg``: the bytes), ``flush``, ``fsync``,
        ``truncate`` / ``replace`` (to ``arg``), ``unlink`` or ``dirsync``."""
        if self.crash is not None and self.crash(op, name, arg, self.sealed):
            raise HostCrash(f"host crash before {op} {name}")
        return call(*args)

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    # -- key ----------------------------------------------------------------

    def _load_or_create_key(self) -> bytes:
        path = self._path(KEY_FILE)
        try:
            with open(path, "rb") as fh:
                key = fh.read()
            if len(key) < 16:
                raise DurableError(f"{path}: seal key too short ({len(key)} bytes)")
            return key
        except FileNotFoundError:
            # Through a renamed temp file: a crash never leaves a short key.
            key = os.urandom(32)
            self._replace(KEY_FILE, key)
            return key

    def _replace(self, name: str, *chunks: bytes) -> None:
        """Write ``name`` atomically: a private temp file, fsynced, renamed
        over it (the next directory fsync makes the name durable)."""
        tmp = f".{name}.tmp"
        with self._io("open", tmp, "w", _open_private, self._path(tmp)) as fh:
            self._write_lines(fh, tmp, list(chunks))
            self._flush(fh, tmp)
        self._io("replace", tmp, name, os.replace, self._path(tmp), self._path(name))

    # -- layout queries ------------------------------------------------------

    def has_run_state(self) -> bool:
        """Any envelope, WAL or ledger present (i.e. a run already lives here)?"""
        return bool(
            self.envelope_gens() or self.wal_gens()
            or os.path.exists(self._path(LEDGER_FILE))
        )

    def envelope_gens(self) -> List[int]:
        return self._gens(_ENV_RE)

    def wal_gens(self) -> List[int]:
        return self._gens(_WAL_RE)

    def _gens(self, pattern) -> List[int]:
        return sorted(_gens_in(self.root, pattern))

    def _dir_fsync(self) -> None:
        if hasattr(os, "O_DIRECTORY"):
            self._io("dirsync", ".", None, _fsync_dir, self.root)

    # -- WAL writing ---------------------------------------------------------

    def open_wal(self, gen: int, fresh: bool = False) -> None:
        """Start (or append to) the WAL for generation ``gen``; ``fresh``
        empties it first.  Creating the file fsyncs the directory: the
        markers it will hold are durable only if its name is."""
        self._close_wal()
        name, mode = _wal_name(gen), "w" if fresh else "a"
        created = fresh or not os.path.exists(self._path(name))
        self._wal_fh = self._io("open", name, mode, open, self._path(name), mode + "b")
        if created:
            self._dir_fsync()
        self._wal_gen = gen
        self._wal_frames = 0        # every WAL is opened new (or ``fresh``)
        self._batch_digest = hashlib.sha256()
        self._batch = []

    def append_record(self, rec: Dict[str, Any]) -> int:
        """Add one WAL record line to the batch (written with its marker).
        Returns the encoded size in bytes."""
        if self._wal_fh is None:
            raise DurableError("no WAL open — open_wal() first")
        body = _json_bytes(rec)
        self._batch_digest.update(body)
        line = _line(body)
        self._batch.append(line)
        return len(line)

    def _flush(self, fh, name: str, sync: bool = True) -> None:
        self._io("flush", name, None, fh.flush)
        if sync:
            self._io("fsync", name, None, os.fsync, fh.fileno())

    def write_marker(self, batch_index: int) -> int:
        """Seal the current batch with an HMAC marker and flush to disk."""
        if self._wal_fh is None:
            raise DurableError("no WAL open — open_wal() first")
        digest = self._batch_digest.hexdigest()
        mac = seal_hex(self.key, f"{self._wal_gen}:{batch_index}:{digest}".encode())
        marker = _line(_json_bytes({"t": "m", "n": batch_index, "h": mac}))
        self._wal_frames += len(self._batch)
        self._batch.append(marker)
        name = _wal_name(self._wal_gen)
        self._write_lines(self._wal_fh, name, self._batch)
        self._flush(self._wal_fh, name)
        self.sealed = (self._wal_gen, self._wal_frames)
        self._batch_digest = hashlib.sha256()
        return len(marker)

    def _write_lines(self, fh, name: str, lines: List[bytes]) -> None:
        """Hand the pending ``lines`` to the file system in one write."""
        if lines:
            data = b"".join(lines)
            self._io("write", name, data, fh.write, data)
            lines.clear()

    def _close_wal(self) -> None:
        if self._wal_fh is not None:
            name = _wal_name(self._wal_gen)
            self._write_lines(self._wal_fh, name, self._batch)  # an unsealed tail lands too
            self._flush(self._wal_fh, name, sync=False)
            self._wal_fh.close()
            self._wal_fh = None
            self._wal_gen = None

    def close(self) -> None:
        self._close_wal()
        if self._ledger_fh is not None:
            self._write_lines(self._ledger_fh, LEDGER_FILE, self._ledger_lines)
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
        path = self._path(LEDGER_FILE)
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
        self._ledger_fh = self._io("open", LEDGER_FILE, "a", open, path, "ab")
        truncated = os.fstat(self._ledger_fh.fileno()).st_size - end
        if truncated:
            self._io("truncate", LEDGER_FILE, end, self._ledger_fh.truncate, end)
        self._ledger_digest = hasher
        self._ledger_lines = []
        self.ledger_rows = rows
        return lines, truncated

    def append_ledger(self, name: str, rows: list) -> None:
        """Append one process's newly committed output rows (written by
        :meth:`seal_ledger`, and they count once it has run)."""
        body = _json_bytes({"p": name, "r": rows})
        self._ledger_digest.update(body)
        self._ledger_lines.append(_line(body))
        self.ledger_rows += len(rows)

    def seal_ledger(self) -> Tuple[int, str]:
        """Write and fsync everything appended; returns the ``(rows,
        digest)`` pair the next envelope seals."""
        if self._ledger_lines:
            self._write_lines(self._ledger_fh, LEDGER_FILE, self._ledger_lines)
            self._flush(self._ledger_fh, LEDGER_FILE)
        return self.ledger_rows, self._ledger_digest.hexdigest()

    # -- envelope writing ----------------------------------------------------

    def write_envelope(self, gen: int, doc: Dict[str, Any]) -> str:
        """Atomically persist envelope ``gen``; rotate the WAL to ``gen``;
        prune generations older than the retention window.  Returns the
        envelope's seal (callers chain it into the *next* envelope)."""
        body = _json_bytes(doc)
        seal = seal_hex(self.key, body)
        header = f"{_ENV_MAGIC} {gen} {crc_hex(body)} {seal}\n"
        self._replace(_env_name(gen), header.encode("utf-8"), body)
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
            self._io("unlink", name, None, os.unlink, self._path(name))
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


def _open_private(path: str):
    return open(path, "wb", opener=lambda p, flags: os.open(p, flags, 0o600))


def _fsync_dir(root: str) -> None:
    fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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
