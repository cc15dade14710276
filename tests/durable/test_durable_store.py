"""The file layer of durable runs: codec, envelopes, WALs, ledger, corruption.

Everything here is below the runtime — pure bytes-on-disk contracts:
values survive the codec (including ``TIMED_OUT``'s identity), envelopes
verify or fail loudly, WAL recovery honors batch markers, the output
ledger verifies the prefix an envelope sealed and drops what follows it,
retention prunes everything but the ledger, and the chaos corruption
helpers damage exactly what recovery would read.
"""

import os

import pytest

from repro.durable import (
    DurableError,
    DurableStore,
    corrupt_latest_envelope,
    corrupt_ledger,
    corrupt_wal_tail,
    decode_value,
    encode_value,
)
from repro.sim.process import TIMED_OUT


# ------------------------------------------------------------------- codec
class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -7, 3.25, "", "hop", 10**30],
    )
    def test_scalars_roundtrip_as_plain_json(self, value):
        encoded = encode_value(value)
        assert encoded == value            # no wrapping for JSON scalars
        assert decode_value(encoded) == value
        assert type(decode_value(encoded)) is type(value)

    @pytest.mark.parametrize(
        "value",
        [(1, 2), ["a", ("b",)], {"k": frozenset({"x"})}, b"\x00bytes"],
    )
    def test_structures_roundtrip_via_pickle_wrapper(self, value):
        encoded = encode_value(value)
        assert isinstance(encoded, dict) and "~pkl" in encoded
        assert decode_value(encoded) == value

    def test_timed_out_keeps_identity(self):
        """recv timeouts are compared with ``is TIMED_OUT`` — the sentinel
        must come back as the module singleton, not a copy."""
        assert decode_value(encode_value(TIMED_OUT)) is TIMED_OUT
        assert decode_value(encode_value((TIMED_OUT, 1)))[0] is TIMED_OUT

    def test_bool_not_confused_with_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True


# --------------------------------------------------------------- envelopes
class TestEnvelopes:
    def test_write_load_roundtrip(self, tmp_path):
        store = DurableStore(str(tmp_path))
        doc = {"v": 1, "gen": 1, "prev": "", "data": [1, 2, 3]}
        seal = store.write_envelope(1, doc)
        loaded, loaded_seal = store.load_envelope(1)
        assert loaded == doc
        assert loaded_seal == seal

    def test_generation_chain_carries_prev_seal(self, tmp_path):
        store = DurableStore(str(tmp_path), retain=5)
        seal1 = store.write_envelope(1, {"gen": 1, "prev": ""})
        store.write_envelope(2, {"gen": 2, "prev": seal1})
        doc2, _ = store.load_envelope(2)
        assert doc2["prev"] == seal1

    def test_tampered_body_is_rejected(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.write_envelope(1, {"gen": 1, "payload": "x" * 200})
        assert corrupt_latest_envelope(str(tmp_path)) is not None
        with pytest.raises(DurableError, match="CRC|seal"):
            store.load_envelope(1)

    def test_wrong_key_fails_the_seal(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.write_envelope(1, {"gen": 1})
        # Re-key the directory: the CRC still matches, the seal must not.
        with open(tmp_path / "key.bin", "wb") as fh:
            fh.write(b"k" * 32)
        fresh = DurableStore(str(tmp_path))
        with pytest.raises(DurableError, match="seal"):
            fresh.load_envelope(1)

    def test_missing_envelope_raises(self, tmp_path):
        store = DurableStore(str(tmp_path))
        with pytest.raises(DurableError, match="unreadable"):
            store.load_envelope(9)

    def test_retention_prunes_old_generations(self, tmp_path):
        store = DurableStore(str(tmp_path), retain=2)
        for gen in range(1, 6):
            store.write_envelope(gen, {"gen": gen})
        assert store.envelope_gens() == [4, 5]
        # WALs below the retention floor go with their envelopes.
        assert min(store.wal_gens()) >= 4


# --------------------------------------------------------------------- WAL
class TestWal:
    def test_marked_batches_replay_cleanly(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.open_wal(0)
        store.append_record({"i": 1})
        store.append_record({"i": 2})
        store.write_marker(0)
        store.append_record({"i": 3})
        store.write_marker(1)
        records, discarded, clean = store.scan_wal(0)
        assert [r["i"] for r in records] == [1, 2, 3]
        assert discarded == 0 and clean

    def test_unmarked_tail_is_discarded_not_applied(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.open_wal(0)
        store.append_record({"i": 1})
        store.write_marker(0)
        store.append_record({"i": 2})   # never marked: crash before fsync
        store.close()
        records, discarded, clean = store.scan_wal(0)
        assert [r["i"] for r in records] == [1]
        assert discarded == 1 and not clean

    def test_corrupt_line_truncates_from_there(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.open_wal(0)
        store.append_record({"i": 1})
        store.write_marker(0)
        store.append_record({"i": 2})
        store.write_marker(1)
        store.close()
        assert corrupt_wal_tail(str(tmp_path)) is not None
        records, discarded, clean = store.scan_wal(0)
        # The damaged final marker voids its whole batch, the first
        # batch survives.
        assert [r["i"] for r in records] == [1]
        assert discarded == 1 and not clean

    def test_tampered_marker_hmac_voids_the_batch(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.open_wal(0)
        store.append_record({"i": 1})
        store.write_marker(0)
        store.close()
        path = tmp_path / "wal-00000000.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        # Forge the marker's MAC but fix up its CRC so only the HMAC check
        # can catch it.
        import json

        from repro.durable.codec import crc_hex

        body, _ = lines[1].rsplit(b" ", 1)
        doc = json.loads(body)
        doc["h"] = "0" * 64
        forged = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
        lines[1] = forged + b" " + crc_hex(forged).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        records, discarded, clean = store.scan_wal(0)
        assert records == [] and discarded == 1 and not clean

    def test_missing_wal_is_empty_and_clean(self, tmp_path):
        store = DurableStore(str(tmp_path))
        assert store.scan_wal(3) == ([], 0, True)


# ------------------------------------------------------------------ ledger
def _sealed_ledger(tmp_path, retain=2):
    """Two sealed batches of rows, the second named by envelope 1."""
    store = DurableStore(str(tmp_path), retain=retain)
    store.open_ledger()
    store.append_ledger("c0", [["a", 1, 0.5], ["b", 2, 1.5]])
    store.append_ledger("judge", [["j", 1, 1.0]])
    first = store.seal_ledger()
    store.append_ledger("c0", [["c", 3, 2.5]])
    sealed = store.seal_ledger()
    store.write_envelope(1, {"v": 2, "gen": 1, "ledger": sealed})
    return store, first, sealed


class TestLedger:
    def test_sealed_prefix_reads_back(self, tmp_path):
        store, first, sealed = _sealed_ledger(tmp_path)
        assert first[0] == 3 and sealed[0] == 4 and first[1] != sealed[1]
        store.close()
        again = DurableStore(str(tmp_path))
        lines, truncated = again.open_ledger(*sealed)
        assert lines == [("c0", [["a", 1, 0.5], ["b", 2, 1.5]]),
                         ("judge", [["j", 1, 1.0]]),
                         ("c0", [["c", 3, 2.5]])]
        assert truncated == 0 and again.ledger_rows == 4
        # the chain continues from the verified prefix
        again.append_ledger("c0", [["d", 4, 3.5]])
        rows, digest = again.seal_ledger()
        again.close()
        assert rows == 5
        assert DurableStore(str(tmp_path)).open_ledger(rows, digest)[1] == 0

    def test_bytes_past_the_sealed_prefix_are_cut_and_counted(self, tmp_path):
        store, first, sealed = _sealed_ledger(tmp_path)
        store.append_ledger("c0", [["never sealed", 9, 9.0]])
        store.close()
        path = tmp_path / "ledger.jsonl"
        full = path.stat().st_size
        again = DurableStore(str(tmp_path))
        lines, truncated = again.open_ledger(*sealed)
        assert len(lines) == 3 and truncated > 0
        assert path.stat().st_size == full - truncated
        # an older envelope's shorter seal verifies too, and cuts more
        lines, more = again.open_ledger(*first)
        assert len(lines) == 2 and more > 0 and again.ledger_rows == 3
        # no envelope at all: nothing is sealed, nothing survives
        lines, rest = again.open_ledger()
        assert lines == [] and rest > 0 and path.stat().st_size == 0

    def test_flipped_byte_inside_the_sealed_prefix_is_named(self, tmp_path):
        store, _first, sealed = _sealed_ledger(tmp_path)
        store.close()
        assert corrupt_ledger(str(tmp_path)).endswith("ledger.jsonl")
        with pytest.raises(DurableError, match="ledger"):
            DurableStore(str(tmp_path)).open_ledger(*sealed)

    def test_wrong_seal_or_short_file_is_refused(self, tmp_path):
        store, first, sealed = _sealed_ledger(tmp_path)
        store.close()
        fresh = DurableStore(str(tmp_path))
        with pytest.raises(DurableError, match="ledger.*digest"):
            fresh.open_ledger(sealed[0], first[1])
        with pytest.raises(DurableError, match="ledger.*rows"):
            fresh.open_ledger(sealed[0] + 1, sealed[1])
        with pytest.raises(DurableError, match="ledger.*rows"):
            fresh.open_ledger(1, sealed[1])      # a seal never splits a line

    def test_retention_never_prunes_the_ledger(self, tmp_path):
        store, _first, sealed = _sealed_ledger(tmp_path, retain=1)
        for gen in range(2, 6):
            store.write_envelope(gen, {"v": 2, "gen": gen, "ledger": sealed})
        store.close()
        assert store.envelope_gens() == [5]
        assert DurableStore(str(tmp_path)).open_ledger(*sealed)[1] == 0


# ------------------------------------------------- chaos corruption helpers
class TestCorruptionHelpers:
    def test_nothing_to_corrupt_returns_none(self, tmp_path):
        store = DurableStore(str(tmp_path))   # just the key file
        assert corrupt_latest_envelope(str(tmp_path)) is None
        assert corrupt_wal_tail(str(tmp_path)) is None
        assert corrupt_ledger(str(tmp_path)) is None
        # rows no envelope has sealed are not on the recovery path either
        store.open_ledger()
        store.append_ledger("c0", [["a", 1, 0.5]])
        store.seal_ledger()
        assert corrupt_ledger(str(tmp_path)) is None

    def test_wal_helper_only_touches_the_replay_path(self, tmp_path):
        """WALs already consolidated into a newer envelope are invisible
        to recovery — damaging them must not count as coverage."""
        store = DurableStore(str(tmp_path), retain=5)
        store.open_wal(0)
        store.append_record({"i": 1})
        store.write_marker(0)
        store.write_envelope(1, {"gen": 1})   # wal-0 now pre-envelope
        store.close()
        assert corrupt_wal_tail(str(tmp_path)) is None
        # ... until the replay-path WAL has content of its own.
        store.open_wal(1)
        store.append_record({"i": 2})
        store.write_marker(0)
        store.close()
        path = corrupt_wal_tail(str(tmp_path))
        assert path is not None and path.endswith("wal-00000001.jsonl")

    def test_key_file_is_created_once_and_private(self, tmp_path):
        store = DurableStore(str(tmp_path))
        again = DurableStore(str(tmp_path))
        assert store.key == again.key
        mode = os.stat(tmp_path / "key.bin").st_mode & 0o777
        assert mode == 0o600
