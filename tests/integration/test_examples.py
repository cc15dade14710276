"""Every example script must run to completion and tell a coherent story."""

import io
import runpy
from contextlib import redirect_stdout

from ..examples import EXAMPLES


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return buffer.getvalue()


def test_quickstart():
    out = run_example("quickstart.py")
    assert "fast path" in out
    assert "slow path" in out
    assert "rollbacks=1" in out


def test_call_streaming_example():
    out = run_example("call_streaming.py")
    assert out.count("ledgers identical    : True") == 4
    assert "order race" in out


def test_replication_example():
    out = run_example("optimistic_replication.py")
    assert "final cells agree: True" in out
    assert "exactly once: True" in out


def test_recovery_example():
    out = run_example("optimistic_recovery.py")
    assert out.count("exactly-once     : True") == 4


def test_timewarp_example():
    out = run_example("timewarp_demo.py")
    assert "all three agree: True" in out


def test_lang_example():
    out = run_example("lang_demo.py")
    assert "'print', 'Total is', 10" in out.replace('("', "('")
    assert "newpage" in out


def test_two_phase_commit_example():
    out = run_example("two_phase_commit.py")
    assert "'commit', 'ABORT', 'commit'" in out
    assert "final balance (100 per commit): 200" in out
    assert "cascading speculation" in out


#: The example's whole output: three charts, finished at t=12, 23 and 19.
TIMELINE = """
=== speculation, assumption holds (finished at t=12) ===
verifier |...............##############################...............|
worker   |############################################################|
         0                                                          12
         #=busy .=blocked x=rolled-back
verifier  busy  50.0%  blocked  50.0%  rolled-back   0.0%
worker    busy 100.0%  blocked   0.0%  rolled-back   0.0%

=== speculation, assumption fails (x = rolled-back work) (finished at t=23) ===
verifier |.......################.....................................|
worker   |#####xxxxxxxxxxxxxxxxxx#####################################|
         0                                                          23
         #=busy .=blocked x=rolled-back
verifier  busy  26.1%  blocked  73.9%  rolled-back   0.0%
worker    busy  69.6%  blocked   0.0%  rolled-back  30.4%

=== blocking mode: no speculation, just waiting (finished at t=19) ===
verifier |.........###################................................|
worker   |######......................################################|
         0                                                          19
         #=busy .=blocked x=rolled-back
verifier  busy  31.6%  blocked  68.4%  rolled-back   0.0%
worker    busy  63.2%  blocked  36.8%  rolled-back   0.0%
"""


def test_timeline_example():
    assert run_example("timeline_visualization.py") == TIMELINE


def test_numerics_example():
    out = run_example("optimistic_numerics.py")
    assert "optimistic 48, pessimistic 329" in out
    assert "rollbacks : 12, blocks: 13" in out
    assert out.count("distance from Gaussian elimination") == 2


def test_co_editing_example():
    out = run_example("co_editing.py")
    assert "sequenced order : ['left', 'right', 'left-2', 'right-2']" in out
    assert out.count("['left', 'right', 'left-2', 'right-2']") == 3
    assert "converged: True" in out


def test_truth_maintenance_example():
    out = run_example("truth_maintenance.py")
    assert "model      : {'a': False, 'b': True, 'c': True}" in out
    assert "equals the true-first DFS: True" in out
