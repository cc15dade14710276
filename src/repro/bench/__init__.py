"""Benchmark support: workload generators, sweeps, tables, statistics."""

from .reporting import format_table
from .stats import find_crossover, speedup
from .sweeps import SweepResult, sweep
from .workloads import (
    build_tw_ring,
    counting_ring_handler,
    probabilistic_config,
    streaming_config,
    vt_workload,
)

__all__ = [
    "sweep",
    "SweepResult",
    "format_table",
    "speedup",
    "find_crossover",
    "streaming_config",
    "probabilistic_config",
    "vt_workload",
    "build_tw_ring",
    "counting_ring_handler",
]
