"""Golden table: :meth:`ColoringResult.content_digest` of every registered
algorithm on a fixed instance set, plus the Theorem 1 shattering path
(marking, happiness layers, C-layers) on girth-9 cubic graphs.

The digest covers the whole ``r1:`` result content — colors, palette,
rounds, the phase-round decomposition, stats and per-phase stats (timing
fields stripped) — so a refactor of the engines or the facade that is
meant to be behaviour-preserving must reproduce every entry bit for bit.
An engine that rejects an instance is pinned by its error type instead.

Regenerate (only for a change that legitimately alters behaviour, and say
why in the commit message) with::

    PYTHONPATH=src python tests/test_golden_solve.py
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.analysis.harness import carve_matching
from repro.api import SolverConfig, solve
from repro.core.randomized import RandomizedParams
from repro.errors import ReproError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    high_girth_regular_graph,
    hypercube,
    path_graph,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.graph import Graph
from repro.graphs.named import petersen_graph

ALGORITHMS = (
    "auto", "randomized", "randomized-small", "randomized-large",
    "deterministic", "slocal", "ps", "greedy", "components",
)
# Engines that accept any graph also run on the non-nice instances.
ANY_GRAPH = ("auto", "components", "greedy")

NICE = {
    "petersen": petersen_graph,
    "torus_6x7": lambda: torus_grid(6, 7),
    "hypercube_4": lambda: hypercube(4),
    "rrg_64_5_s3": lambda: random_regular_graph(64, 5, seed=3),
    "rrg_40_3_s1": lambda: random_regular_graph(40, 3, seed=1),
}
NOT_NICE = {
    "K4": lambda: complete_graph(4),
    "C5": lambda: cycle_graph(5),
    "C6": lambda: cycle_graph(6),
    "P5": lambda: path_graph(5),
    "union": lambda: disjoint_union([
        torus_grid(4, 4), complete_graph(5), cycle_graph(5),
        random_regular_graph(40, 3, seed=1),
    ]),
    # The trivial graphs pin that a one-phase engine keeps its phase key
    # when it charges 0 rounds.
    "empty": lambda: Graph(0, []),
    "K1": lambda: Graph(1, []),
}


@functools.lru_cache(maxsize=None)
def _girth9():
    """A girth-9 cubic graph has no DCCs, so all of it is H: phases 4-7
    (marking, happiness layers, C-layers) color every node."""
    return high_girth_regular_graph(2048, 3, 9, seed=1)


@functools.lru_cache(maxsize=None)
def _girth9_carved():
    """The same graph minus a 64-edge matching: 128 boundary nodes, so
    the boundary rule of phase 5 uncolors marks near them."""
    graph = _girth9()
    return graph.apply_updates(removed=carve_matching(graph, 64))


# Theorem 1 instances: name -> (graph, selection_p override or None).
# At p = 0.01 (the preset is ≈0.0068) about 26 nodes are selected and
# 4-5 of them survive the backoff.
SHATTER = {
    "girth9_2048": (_girth9, None),
    "girth9_2048_carved": (_girth9_carved, None),
    "girth9_2048_p0.01": (_girth9, 0.01),
}
SHATTER_ALGORITHMS = ("auto", "randomized", "randomized-small")
GRAPHS = {**NICE, **NOT_NICE, **{name: make for name, (make, _) in SHATTER.items()}}


def _cases():
    for algorithm in ALGORITHMS:
        names = list(NICE) + (list(NOT_NICE) if algorithm in ANY_GRAPH else [])
        for name in names:
            for seed in (0, 1):
                yield algorithm, name, seed
    for algorithm in SHATTER_ALGORITHMS:
        for name in SHATTER:
            for seed in (0, 1):
                yield algorithm, name, seed


def _solve(algorithm: str, name: str, seed: int):
    graph = GRAPHS[name]()
    params = None
    selection_p = SHATTER.get(name, (None, None))[1]
    if selection_p is not None:
        preset = RandomizedParams.small_delta(graph.n, graph.max_degree(), seed=seed)
        params = dataclasses.replace(preset, selection_p=selection_p)
    return solve(graph, SolverConfig(algorithm=algorithm, seed=seed, params=params))


def _outcome(algorithm: str, name: str, seed: int) -> str:
    """First 16 hex digits of the content digest, or the error type."""
    try:
        result = _solve(algorithm, name, seed)
    except ReproError as exc:
        return type(exc).__name__
    return result.content_digest()[:16]


# (algorithm, graph, seed) -> digest prefix or error type name.
GOLDEN = {
    ('auto', 'petersen', 0): '3e59931855d59bad',
    ('auto', 'petersen', 1): 'b0d1cf7ef6cd5dca',
    ('auto', 'torus_6x7', 0): 'e694e132cf1a0093',
    ('auto', 'torus_6x7', 1): 'ef5b87577861f2ac',
    ('auto', 'hypercube_4', 0): '52ec645c50fd3c2f',
    ('auto', 'hypercube_4', 1): '192e81e9a8ef6f3e',
    ('auto', 'rrg_64_5_s3', 0): 'e9ff0f951a4f1c72',
    ('auto', 'rrg_64_5_s3', 1): '00bcec21e652b36f',
    ('auto', 'rrg_40_3_s1', 0): 'dfc79fda2fa31579',
    ('auto', 'rrg_40_3_s1', 1): 'cfbb471c93f08486',
    ('auto', 'K4', 0): '7c0b932d451b61f0',
    ('auto', 'K4', 1): '486bcb1341039730',
    ('auto', 'C5', 0): '2872cd8c2b8d49b4',
    ('auto', 'C5', 1): 'bcc941df8b26be99',
    ('auto', 'C6', 0): 'a5914f8d965e882a',
    ('auto', 'C6', 1): 'c857dafb11f67130',
    ('auto', 'P5', 0): 'f80fcb8dfc427422',
    ('auto', 'P5', 1): '472cc6567e766bfa',
    ('auto', 'union', 0): '6a73b60f4945a593',
    ('auto', 'union', 1): '82bcaf4c95c9b4cd',
    ('auto', 'empty', 0): '45e60dcb01487be6',
    ('auto', 'empty', 1): '495533064792cf06',
    ('auto', 'K1', 0): '9b820b16c004b828',
    ('auto', 'K1', 1): 'b6c34868f0ce34a2',
    ('randomized', 'petersen', 0): '3e59931855d59bad',
    ('randomized', 'petersen', 1): 'b0d1cf7ef6cd5dca',
    ('randomized', 'torus_6x7', 0): 'e694e132cf1a0093',
    ('randomized', 'torus_6x7', 1): 'ef5b87577861f2ac',
    ('randomized', 'hypercube_4', 0): '52ec645c50fd3c2f',
    ('randomized', 'hypercube_4', 1): '192e81e9a8ef6f3e',
    ('randomized', 'rrg_64_5_s3', 0): 'e9ff0f951a4f1c72',
    ('randomized', 'rrg_64_5_s3', 1): '00bcec21e652b36f',
    ('randomized', 'rrg_40_3_s1', 0): 'dfc79fda2fa31579',
    ('randomized', 'rrg_40_3_s1', 1): 'cfbb471c93f08486',
    ('randomized-small', 'petersen', 0): '3e59931855d59bad',
    ('randomized-small', 'petersen', 1): 'b0d1cf7ef6cd5dca',
    ('randomized-small', 'torus_6x7', 0): '04665b9b88a521a2',
    ('randomized-small', 'torus_6x7', 1): '8cdf83d91a95fdeb',
    ('randomized-small', 'hypercube_4', 0): 'eb514b0cba9c75b5',
    ('randomized-small', 'hypercube_4', 1): 'da5aa98f2813b6d0',
    ('randomized-small', 'rrg_64_5_s3', 0): 'bfc1a68320aedd91',
    ('randomized-small', 'rrg_64_5_s3', 1): 'c4586186ae597955',
    ('randomized-small', 'rrg_40_3_s1', 0): 'dfc79fda2fa31579',
    ('randomized-small', 'rrg_40_3_s1', 1): 'cfbb471c93f08486',
    ('randomized-large', 'petersen', 0): 'AlgorithmContractError',
    ('randomized-large', 'petersen', 1): 'AlgorithmContractError',
    ('randomized-large', 'torus_6x7', 0): 'e694e132cf1a0093',
    ('randomized-large', 'torus_6x7', 1): 'ef5b87577861f2ac',
    ('randomized-large', 'hypercube_4', 0): '52ec645c50fd3c2f',
    ('randomized-large', 'hypercube_4', 1): '192e81e9a8ef6f3e',
    ('randomized-large', 'rrg_64_5_s3', 0): 'e9ff0f951a4f1c72',
    ('randomized-large', 'rrg_64_5_s3', 1): '00bcec21e652b36f',
    ('randomized-large', 'rrg_40_3_s1', 0): 'AlgorithmContractError',
    ('randomized-large', 'rrg_40_3_s1', 1): 'AlgorithmContractError',
    ('deterministic', 'petersen', 0): '44e51dbb6c3b81a5',
    ('deterministic', 'petersen', 1): '1f599991150414f8',
    ('deterministic', 'torus_6x7', 0): '08fb6c2b7ed36464',
    ('deterministic', 'torus_6x7', 1): '02dbb737064d10d6',
    ('deterministic', 'hypercube_4', 0): '9b0f7b8a9941cb1c',
    ('deterministic', 'hypercube_4', 1): 'c13c161fb58d838c',
    ('deterministic', 'rrg_64_5_s3', 0): '71951ac64735a7ac',
    ('deterministic', 'rrg_64_5_s3', 1): 'ebcb00762e6c259c',
    ('deterministic', 'rrg_40_3_s1', 0): 'e2f185c692da042e',
    ('deterministic', 'rrg_40_3_s1', 1): 'cee895ac210cf3c1',
    ('slocal', 'petersen', 0): 'f83093bba910247d',
    ('slocal', 'petersen', 1): '006807ff15048301',
    ('slocal', 'torus_6x7', 0): '944518bb55fe73bd',
    ('slocal', 'torus_6x7', 1): '9c81ce1c63fcc4a5',
    ('slocal', 'hypercube_4', 0): 'c05f04c4d039ec19',
    ('slocal', 'hypercube_4', 1): 'cb4fc7c3470aefd5',
    ('slocal', 'rrg_64_5_s3', 0): 'ba51109e76a700a5',
    ('slocal', 'rrg_64_5_s3', 1): 'babd0698cdc504af',
    ('slocal', 'rrg_40_3_s1', 0): '4e440cf808cf8d95',
    ('slocal', 'rrg_40_3_s1', 1): '6fb0e73f0ec3203c',
    ('ps', 'petersen', 0): '44aa2a298af97fe6',
    ('ps', 'petersen', 1): 'f0be142ac42f947f',
    ('ps', 'torus_6x7', 0): '5ce5a4765484e009',
    ('ps', 'torus_6x7', 1): 'ddfe762d60fc5643',
    ('ps', 'hypercube_4', 0): '8b8f18cdd0aacdb7',
    ('ps', 'hypercube_4', 1): 'c96fe6cb70ab8c0b',
    ('ps', 'rrg_64_5_s3', 0): 'cfdfdf874ac56db8',
    ('ps', 'rrg_64_5_s3', 1): '36231c3030b70c00',
    ('ps', 'rrg_40_3_s1', 0): '8bfeedf33a5d9f9c',
    ('ps', 'rrg_40_3_s1', 1): 'b97d1cc6446705a9',
    ('greedy', 'petersen', 0): '76f7f09ecde0b9fc',
    ('greedy', 'petersen', 1): 'de4b986ed3a27eb0',
    ('greedy', 'torus_6x7', 0): 'ddeee20ee5650378',
    ('greedy', 'torus_6x7', 1): '64e4a9638fc9f11c',
    ('greedy', 'hypercube_4', 0): '3ecccdff1a0c63fe',
    ('greedy', 'hypercube_4', 1): '2c552fd4b9038e48',
    ('greedy', 'rrg_64_5_s3', 0): 'd33246bd8d126725',
    ('greedy', 'rrg_64_5_s3', 1): '3ce5809f4f4396a5',
    ('greedy', 'rrg_40_3_s1', 0): 'bda478ae31a55304',
    ('greedy', 'rrg_40_3_s1', 1): 'dae26353d350aa53',
    ('greedy', 'K4', 0): '56247275072a39f5',
    ('greedy', 'K4', 1): '885496104258e3bd',
    ('greedy', 'C5', 0): 'a5bb92e8334ff04d',
    ('greedy', 'C5', 1): '644985fe83adefe2',
    ('greedy', 'C6', 0): '7bd83488dd3236d1',
    ('greedy', 'C6', 1): '03b3a0fa79013843',
    ('greedy', 'P5', 0): 'fe0c9795af9cd708',
    ('greedy', 'P5', 1): '562707754b5c594c',
    ('greedy', 'union', 0): '1718714c08aa9430',
    ('greedy', 'union', 1): '5088231b030d0b18',
    ('greedy', 'empty', 0): '2e057e6404113aa9',
    ('greedy', 'empty', 1): '5251904d18a8f9b1',
    ('greedy', 'K1', 0): '8c046cc1fce2ec3d',
    ('greedy', 'K1', 1): '78739ef8ce6c3bbd',
    ('components', 'petersen', 0): '00f76ba8c6841a4f',
    ('components', 'petersen', 1): '8ad287fc20ffc582',
    ('components', 'torus_6x7', 0): '99f02ffb91c60722',
    ('components', 'torus_6x7', 1): '78726633eb734dd2',
    ('components', 'hypercube_4', 0): '5a2dade18a1ab9f7',
    ('components', 'hypercube_4', 1): '985814ddeaf5184c',
    ('components', 'rrg_64_5_s3', 0): '43f452d5babe37fc',
    ('components', 'rrg_64_5_s3', 1): '404eb5892c411fcb',
    ('components', 'rrg_40_3_s1', 0): '93d76873af3d107d',
    ('components', 'rrg_40_3_s1', 1): '977726102a55bc9b',
    ('components', 'K4', 0): '7c0b932d451b61f0',
    ('components', 'K4', 1): '486bcb1341039730',
    ('components', 'C5', 0): '2872cd8c2b8d49b4',
    ('components', 'C5', 1): 'bcc941df8b26be99',
    ('components', 'C6', 0): 'a5914f8d965e882a',
    ('components', 'C6', 1): 'c857dafb11f67130',
    ('components', 'P5', 0): 'f80fcb8dfc427422',
    ('components', 'P5', 1): '472cc6567e766bfa',
    ('components', 'union', 0): '6a73b60f4945a593',
    ('components', 'union', 1): '82bcaf4c95c9b4cd',
    ('components', 'empty', 0): '45e60dcb01487be6',
    ('components', 'empty', 1): '495533064792cf06',
    ('components', 'K1', 0): '9b820b16c004b828',
    ('components', 'K1', 1): 'b6c34868f0ce34a2',
    ('auto', 'girth9_2048', 0): '6d6568015a553136',
    ('auto', 'girth9_2048', 1): '36777eb836e8920e',
    ('auto', 'girth9_2048_carved', 0): '80192d3c702a8b22',
    ('auto', 'girth9_2048_carved', 1): '03b04f3a429a489e',
    ('auto', 'girth9_2048_p0.01', 0): 'f76ad2e01d18d6b2',
    ('auto', 'girth9_2048_p0.01', 1): '78bf5edce5621f1e',
    ('randomized', 'girth9_2048', 0): '6d6568015a553136',
    ('randomized', 'girth9_2048', 1): '36777eb836e8920e',
    ('randomized', 'girth9_2048_carved', 0): '80192d3c702a8b22',
    ('randomized', 'girth9_2048_carved', 1): '03b04f3a429a489e',
    ('randomized', 'girth9_2048_p0.01', 0): 'f76ad2e01d18d6b2',
    ('randomized', 'girth9_2048_p0.01', 1): '78bf5edce5621f1e',
    ('randomized-small', 'girth9_2048', 0): '6d6568015a553136',
    ('randomized-small', 'girth9_2048', 1): '36777eb836e8920e',
    ('randomized-small', 'girth9_2048_carved', 0): '80192d3c702a8b22',
    ('randomized-small', 'girth9_2048_carved', 1): '03b04f3a429a489e',
    ('randomized-small', 'girth9_2048_p0.01', 0): 'd55bf433f01b63bc',
    ('randomized-small', 'girth9_2048_p0.01', 1): '8414350e072fe60f',
}


@pytest.mark.parametrize(
    "algorithm,name,seed", sorted(GOLDEN), ids=lambda p: str(p)
)
def test_golden_solve(algorithm, name, seed):
    assert _outcome(algorithm, name, seed) == GOLDEN[(algorithm, name, seed)]


def test_table_covers_every_case():
    assert set(GOLDEN) == set(_cases())


@pytest.mark.parametrize(
    "algorithm,name,seed", sorted(GOLDEN), ids=lambda p: str(p)
)
def test_every_phase_reports_through_the_ledger(algorithm, name, seed):
    """Every engine's phases come out of ``run_phases``: each
    ``phase_stats`` entry carries the phase's wall seconds, and every
    phase that charged rounds has an entry."""
    try:
        result = _solve(algorithm, name, seed)
    except ReproError:
        return  # pinned by its error type above
    for phase, stats in result.phase_stats.items():
        assert type(stats["wall_s"]) is float and stats["wall_s"] >= 0, phase
    assert set(result.phase_rounds) <= set(result.phase_stats)


@pytest.mark.parametrize("name", sorted(SHATTER))
@pytest.mark.parametrize("seed", (0, 1))
def test_shatter_instances_exercise_phases_4_to_7(name, seed):
    """The Theorem 1 digests pin marking, happiness and C-layers only if
    those phases do work: some selected nodes back off, some survive as
    T-nodes, and C-layers color all of H."""
    stats = _solve("auto", name, seed).stats
    assert stats["h_size"] == 2048
    assert stats["backed_off"] > 0
    assert stats["t_nodes"] > 0
    assert stats["c_layers"] > 0
    assert stats["leftover_nodes"] == 0
    if name == "girth9_2048_carved":
        assert stats["uncolored_marks"] > 0


if __name__ == "__main__":  # regenerate the golden table
    for case in _cases():
        print(f"    {case!r}: {_outcome(*case)!r},")
