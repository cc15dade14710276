"""The paper's experiments (EXPERIMENTS.md), one tier-1 test module each.

Every module rebuilds its tables, asserts the shape the paper predicts,
and compares each table byte for byte with the committed
``experiments/results/<name>.txt`` through :func:`check_table`.  The
tables are deterministic (seeded simulation, no wall-clock columns), so
a difference is a behaviour change.  After an intended one, rewrite
them with::

    HOPE_WRITE_TABLES=1 PYTHONPATH=src python -m pytest experiments -q
"""

import difflib
import os
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def check_table(name: str, text: str) -> None:
    """Assert ``text`` is the committed table ``results/<name>.txt``, or
    rewrite that file when ``HOPE_WRITE_TABLES`` is set."""
    path = RESULTS / f"{name}.txt"
    text += "\n"
    if os.environ.get("HOPE_WRITE_TABLES"):
        path.write_text(text, encoding="utf-8")
    committed = path.read_text(encoding="utf-8")
    diff = "".join(difflib.unified_diff(
        committed.splitlines(True), text.splitlines(True),
        f"committed {path.name}", "rebuilt",
    ))
    assert not diff, "\n" + diff
