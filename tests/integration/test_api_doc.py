"""docs/API.md's `HopeSystem(...)` row names the constructor's keywords."""

import inspect
import re
from pathlib import Path

from repro import HopeSystem

API = Path(__file__).resolve().parents[2] / "docs" / "API.md"


def test_hope_system_row_lists_the_signature_in_order():
    rows = re.findall(r"^\| `HopeSystem\(([^)]*)\)` \|", API.read_text(), re.M)
    assert len(rows) == 1, "expected one HopeSystem(...) row in docs/API.md"
    documented = [name.strip() for name in rows[0].split(",")]
    assert documented == list(inspect.signature(HopeSystem).parameters)
