"""Load a script under ``examples/`` as a module, so a test can call
what it defines (the scripts are not a package)."""

import importlib.util
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def load_example(name: str):
    """``examples/<name>.py`` as a module, executed once per session."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module      # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]
