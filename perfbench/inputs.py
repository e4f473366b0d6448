"""Seeded workload inputs.

Every instance a workload sends is a pure function of the workload seed
(:func:`common.derive_seed`); the program only ever receives these
generated graphs.  Instances cross process boundaries as ``.npy`` edge
arrays, so a fresh process loads them without regenerating.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from common import SPEC, derive_seed, use_src

use_src()

from repro.analysis.harness import carve_matching  # noqa: E402
from repro.graphs.generators import (  # noqa: E402
    high_girth_regular_graph,
    random_regular_graph,
)
from repro.graphs.graph import Graph  # noqa: E402


def save_graph(graph: Graph, path: Path) -> Path:
    np.save(path, np.asarray(list(graph.edges()), dtype=np.int32).reshape(-1, 2))
    return path


def load_graph(path: Path | str, n: int) -> Graph:
    """The checked construction a library user runs on an edge list."""
    return Graph(n, [(u, v) for u, v in np.load(path).tolist()])


def edge_arrays(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint columns for vectorised coloring checks."""
    edges = np.asarray(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    return edges[:, 0], edges[:, 1]


def solve_graphs(workload: str, seed: int) -> list[Graph]:
    """The instances of ``solve-dcc`` / ``solve-shatter``."""
    spec = SPEC["workloads"][workload]
    if "girth" in spec:
        return [
            high_girth_regular_graph(
                spec["n"], spec["delta"], spec["girth"],
                seed=derive_seed(seed, workload, i),
            )
            for i in range(spec["graphs"])
        ]
    return [
        random_regular_graph(spec["n"], spec["delta"], seed=derive_seed(seed, workload, i))
        for i in range(spec["graphs"])
    ]


class ReadMix:
    """The ``serve-read`` traffic: request ``i`` is a miss when it is the
    seeded slot of its block of ``miss_every`` (exactly one miss per
    block, so p95 always lands on the miss path), else a repeat of one of
    the warmed instances.

    Misses cycle through a pool of ``miss_pool`` instances built up front,
    so no instance is generated inside a timed region however many
    requests a run sends.  Each pass over the pool uses another config
    seed, which keeps every miss fresh for the server's cache."""

    def __init__(self, seed: int):
        spec = SPEC["workloads"]["serve-read"]
        self.every = spec["miss_every"]
        self._config_seed = derive_seed(seed, "read-config") % 1000
        self.config = self.miss_config(-1)
        self.hits = [
            random_regular_graph(spec["hit_n"], spec["delta"], seed=derive_seed(seed, "hit", i))
            for i in range(spec["hits"])
        ]
        self.pool = [
            random_regular_graph(spec["miss_n"], spec["delta"], seed=derive_seed(seed, "miss", k))
            for k in range(spec["miss_pool"])
        ]
        self._seed = seed

    def miss_config(self, lap: int) -> dict:
        """The config of the hits (``lap`` -1) and of the misses of one
        pass over the pool."""
        return {"algorithm": "auto", "seed": self._config_seed + 1 + lap}

    def is_miss(self, i: int) -> bool:
        slot = derive_seed(self._seed, "slot", i // self.every) % self.every
        return i % self.every == slot

    def hit_index(self, i: int) -> int:
        return derive_seed(self._seed, "pick", i) % len(self.hits)

    def request(self, i: int) -> tuple[Graph, dict]:
        """Request ``i``'s graph and config."""
        if not self.is_miss(i):
            return self.hits[self.hit_index(i)], self.config
        lap, k = divmod(i // self.every, len(self.pool))  # one miss per block
        return self.pool[k], self.miss_config(lap)


class Chain:
    """One update chain: a Δ-regular base minus a carved
    matching; op ``2k`` re-inserts matching edge ``k`` and op ``2k+1``
    removes it again, so Δ never changes."""

    def __init__(self, full: Graph, matching_size: int):
        self.matching = carve_matching(full, matching_size)
        self.base = full.apply_updates(removed=self.matching)
        self.us, self.vs = edge_arrays(self.base)
        self.head: str | None = None
        self.step = 0

    def delta(self, step: int) -> tuple[list, list]:
        edge = list(self.matching[(step // 2) % len(self.matching)])
        return ([edge], []) if step % 2 == 0 else ([], [edge])

    def coloring_ok(self, step: int, colors: np.ndarray, delta: int) -> bool:
        """Is ``colors`` a proper Δ-coloring of the graph after op ``step``?"""
        if len(colors) != self.base.n or colors.min() < 1 or colors.max() > delta:
            return False
        if np.any(colors[self.us] == colors[self.vs]):
            return False
        if step % 2 == 0:
            u, v = self.matching[(step // 2) % len(self.matching)]
            return bool(colors[u] != colors[v])
        return True


def write_chains(seed: int) -> list[Chain]:
    spec = SPEC["updates"]
    return [
        Chain(
            random_regular_graph(spec["n"], spec["delta"], seed=derive_seed(seed, "chain", c)),
            spec["matching"],
        )
        for c in range(spec["chains"])
    ]
