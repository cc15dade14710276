"""Experiment THM: the paper's theorems, checked over randomized runs.

The §5–6 proofs are verified three ways in this repo: unit tests on the
abstract machine, hypothesis property tests, and this experiment — a
model-checking campaign over randomized schedules that must find zero
violations while exercising a healthy number of rollbacks.  The table
keeps the campaign honest: it reports how much behaviour was covered.
"""

from repro.bench import format_table
from repro.verify import explore

from . import check_table


def run_campaign(n_runs: int, root_seed: int, shuffle: bool = False):
    report = explore(n_runs=n_runs, root_seed=root_seed, shuffle_ties=shuffle)
    rollbacks = sum(run.rollbacks for run in report.runs)
    return report, rollbacks


def test_model_check_campaign():
    rows = []
    for label, shuffle in (("registry", False), ("registry+shuffle", True)):
        report, rollbacks = run_campaign(80, 23, shuffle)
        assert report.ok, report.summary()
        rows.append(
            [label, len(report.runs), len(report.failures), rollbacks]
        )
    check_table(
        "model_check",
        format_table(
            "THM — randomized model-checking campaign (80 runs per mode)",
            ["mode", "runs", "violations", "rollbacks exercised"],
            rows,
        ),
    )
