"""The call table is the gate on what work costs, and PERFORMANCE.md
carries it.

``CALLS`` in ``tests/costs.py`` records, per interpreter, the exact
number of calls each layer of the benchmark's six quick workloads makes,
and the rows the TRACK, METRICS, EVSEC and wide-walk ratios are read
from.  The running interpreter's column is held to a fresh census: a row
that rises fails (the work grew), and so does one that falls more than
1 % (a saving nobody recorded — tighten the row with the change that
made it).  The doc is compared with the table as ``tests/costs.py
--markdown`` prints it, and cannot go stale.
"""

import sys
from pathlib import Path

import pytest

from ..costs import VERSIONS, calls_markdown, drift, measure

DOC = Path(__file__).resolve().parents[2] / "docs" / "PERFORMANCE.md"
BEGIN, END = "<!-- call table: begin -->", "<!-- call table: end -->"


def test_performance_md_carries_the_generated_call_table():
    text = DOC.read_text(encoding="utf-8")
    table = text[text.index(BEGIN) + len(BEGIN):text.index(END)]
    assert table.strip() == calls_markdown()


@pytest.mark.skipif(sys.version_info[:2] not in VERSIONS,
                    reason="no call column for this interpreter")
def test_no_row_rose_and_none_fell_unrecorded():
    found = drift(measure())
    assert not found, "call rows moved from CALLS:\n" + "\n".join(found)
