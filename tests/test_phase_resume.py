"""Engines are phase lists over a state that can be saved and resumed.

For every phase-list engine (both randomized presets, Theorem 4 and the
Panconesi–Srinivasan baseline), the state is saved at every phase
boundary while one solve runs, and the remaining phases are run from a
copy of each saved state.  Every resumed run must give the full solve's
content digest and rounds — including the boundary between phases (8)
and (9) of the randomized pipeline, where the state holds the open color
workspace (its int32 mirror when the kernel is loaded, ``colors`` itself
without it; ``make test-no-cc`` runs the second case).
"""

from __future__ import annotations

import random

import pytest

from repro import native
from repro.api import ColoringResult, solve
from repro.baselines.panconesi_srinivasan import PS_PHASES
from repro.core.deterministic import DETERMINISTIC_PHASES, LayeredState
from repro.core.randomized import (
    RANDOMIZED_PHASES,
    RandomizedState,
    large_delta_params,
    small_delta_params,
)
from repro.graphs.generators import (
    high_girth_regular_graph,
    hypercube,
    random_regular_graph,
    torus_grid,
)
from repro.local.rounds import EngineRun, run_phases

SEED = 3


def _randomized(preset):
    def start(graph):
        params = preset(graph, SEED, False, None)
        state = RandomizedState(graph, params.strict, random.Random(params.seed), params=params)
        return state, RANDOMIZED_PHASES, params.seed
    return start


ENGINES = {
    "randomized-small": _randomized(small_delta_params),
    "randomized-large": _randomized(large_delta_params),
    "deterministic": lambda graph: (LayeredState(graph), DETERMINISTIC_PHASES, None),
    "ps": lambda graph: (
        LayeredState(graph, False, random.Random(SEED)), PS_PHASES, None
    ),
}

GRAPHS = {
    "randomized-small": [
        ("rrg512d3", lambda: random_regular_graph(512, 3, seed=1)),
        ("girth9-256", lambda: high_girth_regular_graph(256, 3, 9, seed=2)),
    ],
    "randomized-large": [
        ("rrg300d6", lambda: random_regular_graph(300, 6, seed=4)),
        ("torus8x9", lambda: torus_grid(8, 9)),
    ],
    "deterministic": [
        ("rrg200d4", lambda: random_regular_graph(200, 4, seed=3)),
        ("hypercube5", lambda: hypercube(5)),
    ],
    "ps": [
        ("rrg200d5", lambda: random_regular_graph(200, 5, seed=6)),
        ("torus7x7", lambda: torus_grid(7, 7)),
    ],
}

CASES = [
    pytest.param(algorithm, make, id=f"{algorithm}-{name}")
    for algorithm, graphs in GRAPHS.items()
    for name, make in graphs
]


def _digest(run: EngineRun, graph) -> str:
    """The content digest ``solve`` gives the run (it packs, never changes)."""
    return ColoringResult(
        algorithm=run.algorithm, n=graph.n, delta=run.delta, palette=run.palette,
        colors=tuple(run.colors), rounds=run.rounds, phase_rounds=run.phase_rounds,
        phase_stats=run.phase_stats, stats=run.stats,
        seed=run.seed_used if run.seed_used is not None else SEED,
    ).content_digest()


@pytest.mark.parametrize("algorithm,make", CASES)
def test_resume_from_every_boundary(algorithm, make):
    graph = make()
    full = solve(graph, algorithm=algorithm, seed=SEED)
    state, phases, seed_used = ENGINES[algorithm](graph)
    saved = [state.copy()]
    for phase in phases:
        run_phases(state, [phase])
        saved.append(state.copy())
    whole = EngineRun.from_state(algorithm, state, seed_used)
    assert _digest(whole, graph) == full.content_digest()

    for k, boundary in enumerate(saved):
        resumed = run_phases(boundary.copy(), phases[k:])
        run = EngineRun.from_state(algorithm, resumed, seed_used)
        assert _digest(run, graph) == full.content_digest(), (algorithm, k)
        assert run.rounds == full.rounds
        assert list(run.phase_stats) == list(full.phase_stats)
        if resumed.rng is not None:
            assert resumed.rng.getstate() == state.rng.getstate()


def test_saved_workspace_is_independent():
    """The state saved between phases (8) and (9) holds the open
    workspace; its copy owns its own colors and view, so finishing the
    copy leaves the saved state as it was."""
    graph = random_regular_graph(512, 3, seed=1)
    state, phases, _ = ENGINES["randomized-small"](graph)
    run_phases(state, phases[:9])
    assert state.workspace is not None and state.workspace.colors is state.colors
    saved = state.copy()
    before = list(saved.workspace.view)
    assert saved.workspace.colors is saved.colors
    mirrored = native.kernel("degree_list_surplus") is not None
    assert (saved.workspace.view is not saved.colors) == mirrored
    assert (state.workspace.view is not state.colors) == mirrored

    run_phases(saved.copy(), phases[9:])
    assert list(saved.workspace.view) == before
    run_phases(state, phases[9:])
    assert state.workspace is None
    assert state.colors == list(solve(graph, algorithm="randomized-small", seed=SEED).colors)
