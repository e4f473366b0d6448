"""The layer phases' rounds, read as the paper's cost terms.

Rounds are a pure function of (graph, seed, config), so these are exact.
With the deterministic list engine, every nonempty layer costs the Linial
palette (one class-sweep round per base color), so a layer phase charges
``linial_palette × layers``:

* Theorem 4 (``deterministic``): ``3:color-layers`` over the ruling
  forest's ``num_layers`` layers beyond B0;
* Theorem 1 (``randomized-small``): ``7:c-layers`` over all ``c_layers``
  happiness layers (C_0 included), and ``8:b-layers`` over the B-layers
  beyond B0, counted in the state saved after phase (3).

Phase (3) caps the B-layers at depth ``4·r_dcc + 2``, so the B-layer
count is at most that.  The rows are rrg / girth-9 cubic graphs of graph
seed 1, solved with seed 1.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.api import solve
from repro.core.randomized import RANDOMIZED_PHASES, RandomizedState, small_delta_params
from repro.graphs.generators import high_girth_regular_graph, random_regular_graph
from repro.local.rounds import run_phases

GRAPHS = {
    "rrg512d3": lambda: random_regular_graph(512, 3, seed=1),
    "rrg2048d3": lambda: random_regular_graph(2048, 3, seed=1),
    "rrg1024d8": lambda: random_regular_graph(1024, 8, seed=1),
    "girth9-2048": lambda: high_girth_regular_graph(2048, 3, 9, seed=1),
}


@functools.lru_cache(maxsize=None)
def _graph(name):
    return GRAPHS[name]()


@functools.lru_cache(maxsize=None)
def _solve(name, algorithm):
    return solve(_graph(name), algorithm=algorithm, seed=1)


def _b_layers_beyond_b0(name) -> tuple[int, int]:
    """(B-layers beyond B0, r_dcc), from the state saved after phase (3)."""
    graph = _graph(name)
    params = small_delta_params(graph, 1, False, None)
    state = RandomizedState(graph, params.strict, random.Random(params.seed), params=params)
    run_phases(state, RANDOMIZED_PHASES[:4])
    return max(0, len(state.b_layers) - 1), params.dcc_radius


@pytest.mark.parametrize("name,palette,layers", [
    ("rrg512d3", 49, 10),
    ("rrg2048d3", 49, 13),
    ("rrg1024d8", 289, 5),
])
def test_deterministic_color_layers(name, palette, layers):
    result = _solve(name, "deterministic")
    stats = result.phase_stats
    assert stats["0:linial"]["linial_palette"] == palette
    assert stats["2:layers"]["num_layers"] == layers
    assert result.phase_rounds["3:color-layers"] == palette * layers


def test_randomized_small_c_layers():
    result = _solve("girth9-2048", "randomized-small")
    stats = result.phase_stats
    assert stats["0:linial"]["linial_palette"] == 49
    assert stats["5:happiness-layers"]["c_layers"] == 13
    assert result.phase_rounds["7:c-layers"] == 49 * 13


def test_randomized_small_b_layers():
    result = _solve("rrg512d3", "randomized-small")
    b_layers, r_dcc = _b_layers_beyond_b0("rrg512d3")
    assert b_layers == 7
    assert b_layers <= 4 * r_dcc + 2
    assert result.phase_rounds["8:b-layers"] == 49 * b_layers


@pytest.mark.parametrize("name", ["rrg512d3", "rrg2048d3", "girth9-2048"])
def test_randomized_small_identities_hold(name):
    result = _solve(name, "randomized-small")
    palette = result.phase_stats["0:linial"]["linial_palette"]
    c_layers = result.phase_stats["5:happiness-layers"]["c_layers"]
    b_layers, r_dcc = _b_layers_beyond_b0(name)
    assert result.phase_rounds.get("7:c-layers", 0) == palette * c_layers
    assert result.phase_rounds.get("8:b-layers", 0) == palette * b_layers
    assert b_layers <= 4 * r_dcc + 2
