"""Golden-seed regression tests: exact colorings and round counts.

Performance refactors of the graph core and the hot algorithm loops must
not silently change *algorithm behaviour*.  These tests freeze the output
of fixed-seed ``solve(graph, algorithm="randomized", seed=...)`` runs
(Theorem 1 for Δ = 3, Theorem 3 for Δ >= 4) on four named instances: the
full color vector (as a SHA-256 digest, plus the literal vector for the
smallest graph) and the exact LOCAL round total.  The constants predate
the facade: they were captured from the ``delta_color`` wrapper this
call replaced, and it reproduces them bit for bit.

If a change legitimately alters the random execution path (e.g. a new
phase, a different tie-break rule), regenerate the constants with::

    PYTHONPATH=src python tests/test_golden_seed.py

and justify the behaviour change in the commit message.  A refactor that
is supposed to be behaviour-preserving must reproduce them bit for bit —
the CSR rewrite of the graph core did.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import solve
from repro.graphs.generators import hypercube, random_regular_graph, torus_grid
from repro.graphs.named import petersen_graph
from repro.graphs.validation import validate_coloring


def _colors_digest(colors: list[int]) -> str:
    return hashlib.sha256(",".join(map(str, colors)).encode()).hexdigest()[:16]


def _graphs():
    return {
        "petersen": petersen_graph(),
        "torus_6x7": torus_grid(6, 7),
        "hypercube_4": hypercube(4),
        "rrg_64_5_s3": random_regular_graph(64, 5, seed=3),
    }


def _solve(graph, seed):
    return solve(graph, algorithm="randomized", seed=seed)


# (graph, seed) -> (rounds, colors digest).  Captured from the seed
# revision of this repository; regenerated for PR 5, whose batched
# randomness scheme (one randbytes draw per trial round / generator
# pairing instead of per-node randrange calls) legitimately moved the
# fixed-seed executions — outputs remain valid Δ-colorings, and the
# vectorized and pure-Python paths still reproduce each digest
# bit-for-bit (see tests/test_csr_equivalence.py).
GOLDEN = {
    ("petersen", 0): (74, "a0f687786434f188"),
    ("petersen", 1): (74, "a0f687786434f188"),
    ("torus_6x7", 0): (76, "7c98187d32601726"),
    ("torus_6x7", 1): (75, "b31fff3ccbb649ea"),
    ("hypercube_4", 0): (70, "dcb764b8792e5099"),
    ("hypercube_4", 1): (70, "3c051ad063a1528e"),
    ("rrg_64_5_s3", 0): (72, "4c7e6408f2414511"),
    ("rrg_64_5_s3", 1): (72, "81316e56c9eec9a0"),
}

# The smallest instance is additionally pinned as a literal vector so a
# digest-algorithm slip cannot mask a behaviour change.
PETERSEN_COLORS_SEED0 = [3, 2, 2, 1, 3, 3, 1, 2, 1, 1]


@pytest.mark.parametrize("name,seed", sorted(GOLDEN), ids=lambda p: str(p))
def test_golden_coloring(name, seed):
    graph = _graphs()[name]
    result = _solve(graph, seed)
    validate_coloring(graph, result.colors, max_colors=graph.max_degree())
    expected_rounds, expected_digest = GOLDEN[(name, seed)]
    assert result.rounds == expected_rounds, (
        f"{name} seed={seed}: round count drifted "
        f"({result.rounds} != {expected_rounds})"
    )
    assert _colors_digest(result.colors) == expected_digest, (
        f"{name} seed={seed}: coloring changed"
    )


def test_petersen_exact_vector():
    result = _solve(petersen_graph(), 0)
    assert list(result.colors) == PETERSEN_COLORS_SEED0


def test_same_seed_same_output():
    """A randomized solve is a pure function of (graph, seed)."""
    graph = _graphs()["torus_6x7"]
    first = _solve(graph, 5)
    second = _solve(graph, 5)
    assert first.colors == second.colors
    assert first.rounds == second.rounds
    assert first.phase_rounds == second.phase_rounds


if __name__ == "__main__":  # regenerate the golden table
    for (name, seed) in sorted({key for key in GOLDEN}):
        graph = _graphs()[name]
        result = _solve(graph, seed)
        print(
            f'    ("{name}", {seed}): '
            f'({result.rounds}, "{_colors_digest(result.colors)}"),'
        )
