"""Experiment suite regenerating every quantitative claim of the paper.

``python -m repro list`` prints the experiment index, and the engine
coverage matrix of ``docs/ENGINE.md`` lists each experiment's engines.
Experiments are registered under short identifiers (E1..E14, F1) and run
through :func:`run_experiment` / :func:`run_all`.
"""

from .registry import (
    ExperimentResult,
    ExperimentSpec,
    get_experiment,
    list_experiments,
    run_experiment,
)
from .reporting import render_markdown_table, render_table
from .runner import render_markdown_report, render_report, run_all

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "render_markdown_table",
    "render_table",
    "render_markdown_report",
    "render_report",
    "run_all",
]
