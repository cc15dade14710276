"""PERFORMANCE.md's footprint budget table is the one the tests apply.

The budgets are a constant table (``BUDGETS`` in ``tests/footprint.py``),
so the doc is compared with it as ``tests/footprint.py --markdown``
prints it, and cannot go stale.
"""

from pathlib import Path

from ..footprint import budget_markdown

DOC = Path(__file__).resolve().parents[2] / "docs" / "PERFORMANCE.md"
BEGIN, END = "<!-- footprint budgets: begin -->", "<!-- footprint budgets: end -->"


def test_performance_md_carries_the_generated_budget_table():
    text = DOC.read_text(encoding="utf-8")
    table = text[text.index(BEGIN) + len(BEGIN):text.index(END)]
    assert table.strip() == budget_markdown()
