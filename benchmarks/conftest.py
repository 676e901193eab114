"""Benchmark-suite configuration.

Environment knobs:

* ``REPRO_FULL=1`` — run every circuit of every table (the paper's full
  sweeps; expect tens of minutes). Without it each table runs a
  representative subset so ``pytest benchmarks/ --benchmark-only``
  completes in a few minutes.
* ``REPRO_BENCH_FAST=1`` — CI smoke mode: the fleet benchmark runs a
  short trace at 1 and 2 workers and the multi-minute ablations are
  skipped.
* ``REPRO_SEED`` — master seed (default 0).

Each benchmark body runs its harness once (``rounds=1``): these are
table-regeneration drivers, not micro-benchmarks, and the paper's own CPU
columns are single measurements. The regenerated tables are printed at the
end of the session so the run doubles as the reproduction record.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List

import pytest

from repro.experiments import ExperimentConfig

FULL = os.environ.get("REPRO_FULL", "") == "1"
FAST = os.environ.get("REPRO_BENCH_FAST", "") == "1"
SEED = int(os.environ.get("REPRO_SEED", "0"))

#: Circuits per table when not running the full sweep.
QUICK_TABLE2 = ["apte", "hp", "ami33"]
FULL_TABLE2_CBL = ["apte", "xerox", "hp", "ami33", "ami49", "playout"]
FULL_TABLE2_RANDOM = ["ac3", "xc5", "hc7", "a9c3"]
QUICK_TABLE3 = ["apte", "hp"]
FULL_TABLE3 = ["apte", "xerox", "hp", "ami33", "ami49", "playout"]
QUICK_TABLE4 = {"apte": [(10, 11), (20, 22), (30, 33)]}
FULL_TABLE4 = {"apte": None, "ami49": None, "playout": None}  # None = all grids
QUICK_TABLE5 = ["apte", "hp", "ami33"]
FULL_TABLE5 = FULL_TABLE2_CBL + FULL_TABLE2_RANDOM

_collected: Dict[str, List[str]] = {}


def experiment_config() -> ExperimentConfig:
    return ExperimentConfig(seed=SEED, stage4_iterations=2 if FULL else 1)


def record_table(table: str, text: str) -> None:
    """Stash a rendered table for the end-of-session report."""
    _collected.setdefault(table, []).append(text)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if not _collected:
        return
    terminalreporter.write_sep("=", "regenerated paper tables")
    for table in sorted(_collected):
        terminalreporter.write_sep("-", table)
        for text in _collected[table]:
            terminalreporter.write_line(text)
