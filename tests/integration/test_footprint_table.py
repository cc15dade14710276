"""PERFORMANCE.md's footprint budget table is the one the tests apply,
and no budget in it is looser than its rule.

The budgets are a constant table (``BUDGETS`` in ``tests/footprint.py``),
so the doc is compared with it as ``tests/footprint.py --markdown``
prints it, and cannot go stale.  Each budget is its figure + 10 %,
rounded up (``ceiling``), and the running interpreter's column is held
to the figures a fresh interpreter measures — the ones the script
prints (a census inside the suite, after other tests, can read a
little less) — so a change that cuts a figure and leaves its
row behind fails on every interpreter the table has a column for.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from ..footprint import BUDGETS, budget_markdown, ceiling

TESTS = Path(__file__).resolve().parents[1]
DOC = TESTS.parent / "docs" / "PERFORMANCE.md"
BEGIN, END = "<!-- footprint budgets: begin -->", "<!-- footprint budgets: end -->"


def test_performance_md_carries_the_generated_budget_table():
    text = DOC.read_text(encoding="utf-8")
    table = text[text.index(BEGIN) + len(BEGIN):text.index(END)]
    assert table.strip() == budget_markdown()


@pytest.mark.skipif(any(sys.version_info[:2] not in table for table in BUDGETS.values()),
                    reason="no budget column for this interpreter")
def test_no_budget_is_looser_than_its_figure_plus_ten_percent():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    script = ("import json, footprint\n"
              "print(json.dumps({s: c()[-2:] for s, c in footprint.CENSUS.items()}))")
    done = subprocess.run([sys.executable, "-c", script], cwd=TESTS, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    loose = []
    for shape, figures in json.loads(done.stdout).items():
        for unit, budget, figure in zip(("B", "blocks"), BUDGETS[shape][sys.version_info[:2]],
                                        figures):
            if budget > ceiling(figure):
                loose.append(f"{shape}: {budget:g} {unit} for {figure:.1f} measured "
                             f"(at most {ceiling(figure):g})")
    assert not loose, "budgets looser than measured + 10 %: " + "; ".join(loose)
