"""Run reports: which gates a run passed, where it stopped, and how many
identity-test trials it spent.

A report records only while it is active: ``with RunReport(seed) as
report:`` makes it the current report for the block, held in a
``contextvars.ContextVar``, and restores the previous one on exit.  Library
code calls ``passed(gate)`` and ``reject(gate)`` at its gates, and
``poly.pit_equal`` calls ``add_pit_trials``; with no active report all three
do nothing.
"""

from __future__ import annotations

import time
from contextvars import ContextVar

_active: ContextVar[RunReport | None] = ContextVar("trimmeq_run_report", default=None)


class RunReport:
    """Gate names and PIT trials of the runs inside its ``with`` block."""

    def __init__(self, seed=None):
        self.seed = seed
        self.gates_passed: list[str] = []
        self.failed_gate: str | None = None
        self.pit_trials = 0
        self.wall_time = 0.0

    def __enter__(self) -> "RunReport":
        self._token = _active.set(self)
        self._t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.wall_time = time.monotonic() - self._t0
        _active.reset(self._token)

    def to_dict(self):
        return {
            "seed": self.seed,
            "gates_passed": self.gates_passed,
            "failed_gate": self.failed_gate,
            "pit_trials": self.pit_trials,
            "wall_time_s": round(self.wall_time, 3),
        }


def passed(gate: str):
    """Record that the run got through ``gate``; a later gate may still stop it."""
    report = _active.get()
    if report is not None:
        report.gates_passed.append(gate)
        report.failed_gate = None


def reject(gate: str) -> None:
    """Record that the run stopped at ``gate``; returns None, the "No" answer."""
    report = _active.get()
    if report is not None:
        report.failed_gate = gate


def add_pit_trials(trials: int):
    """Count an identity test's trials toward the active report."""
    report = _active.get()
    if report is not None:
        report.pit_trials += trials
