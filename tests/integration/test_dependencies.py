"""``repro`` declares no runtime dependency (``pyproject.toml``): it
imports and runs with ``numpy`` refused, so no stray import of it can
come back unnoticed."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_NUMPY_REFUSED = textwrap.dedent("""
    import importlib
    import pkgutil
    import sys

    class Refuse:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "numpy":
                raise ModuleNotFoundError(f"{name} refused")
            return None

    sys.meta_path.insert(0, Refuse())
    sys.modules.pop("numpy", None)
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)

    sys.path.insert(0, sys.argv[1])
    from workloads import WORKLOADS

    stream = WORKLOADS["stream"](seed=5, quick=True)
    assert stream.start()().ledger == stream.expected()
    assert "numpy" not in sys.modules
""")


def test_repro_runs_with_numpy_refused():
    """Every ``repro`` module imports, and the benchmark's ``stream``
    workload (``--quick`` size) commits its closed-form ledger."""
    subprocess.run(
        [sys.executable, "-B", "-c", _NUMPY_REFUSED, str(ROOT / "benchmarks" / "e2e")],
        check=True, env={"PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
