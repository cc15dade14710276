"""A run imports what it runs: ``repro.apps`` loads an application on
first use (PEP 562), so reaching one of them — ``call_streaming`` from
the benchmark's workloads, ``repro.bench.workloads``,
``repro.baselines.static_scope`` — does not pay for ``numerics``'
``numpy`` (0.15 s and 11 MiB in every child process)."""

import os
import subprocess
import sys

import repro


def _python(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(repro.__file__)), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_reaching_one_app_does_not_import_numpy():
    assert _python(
        "import sys, repro\n"
        "from repro.apps import call_streaming\n"
        "import repro.bench.workloads, repro.baselines.static_scope\n"
        "print('numpy' in sys.modules, 'repro.apps.numerics' in sys.modules)"
    ) == "False False"


def test_every_spelling_of_an_app_import_still_works():
    assert _python(
        "import sys\n"
        "import repro.apps as apps\n"
        "assert 'repro.apps.numerics' not in sys.modules\n"
        "first = apps.numerics\n"
        "from repro.apps import numerics, tms\n"
        "import repro.apps.coedit\n"
        "assert first is numerics is sys.modules['repro.apps.numerics']\n"
        "assert 'numpy' in sys.modules\n"
        "from repro.apps import *\n"
        "assert set(apps.__all__) <= set(globals())\n"
        "try:\n"
        "    apps.no_such_app\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    ) == "module 'repro.apps' has no attribute 'no_such_app'"
