"""repro.durable — sealed snapshot + effect-WAL persistence for HOPE runs.

The commit frontier (PR 2) already proves which state can never roll
back; this package makes exactly that state survive a host crash.  See
docs/DURABILITY.md for the envelope format, the recovery contract, and
what is deliberately *not* persisted.

Entry points:

* ``HopeSystem(durable_dir="run/")`` — record a run durably.
* ``HopeSystem.resume("run/", build)`` — reload the newest verifiable
  snapshot, verify the output ledger it seals, replay the WAL suffix,
  and continue.
* ``repro.verify.sweep`` — crash a durable run before every file
  operation of its store and require every crash state to resume to an
  uninterrupted twin's committed state.
"""

from .codec import DurableError, decode_value, encode_value
from .recorder import DurableRecorder
from .store import (
    DurableStore,
    corrupt_latest_envelope,
    corrupt_ledger,
    corrupt_wal_tail,
)

__all__ = [
    "DurableError",
    "DurableRecorder",
    "DurableStore",
    "corrupt_latest_envelope",
    "corrupt_ledger",
    "corrupt_wal_tail",
    "decode_value",
    "encode_value",
]
