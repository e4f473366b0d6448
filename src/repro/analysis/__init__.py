"""Analysis utilities: expansion measurements, experiment sweeps,
statistics."""

from repro.analysis.experiments import Row, Table, sweep
from repro.analysis.expansion import (
    ExpansionSample,
    bfs_tree_is_unique,
    lemma12_bound,
    lemma14_bound,
    lemma15_bound,
    measure_expansion,
)
from repro.analysis.stats import fit_against, loglog_slope, mean, median, stdev

__all__ = [
    "Row",
    "Table",
    "sweep",
    "ExpansionSample",
    "measure_expansion",
    "bfs_tree_is_unique",
    "lemma15_bound",
    "lemma12_bound",
    "lemma14_bound",
    "mean",
    "median",
    "stdev",
    "loglog_slope",
    "fit_against",
]
