"""SolverPool lifecycle coverage.

The serving gateway solves in its own worker thread and holds no pool.
A pool serves ``solve_many`` batches: sweeps and perfbench's pooled runs
keep one warmed pool alive across many batches and keep dispatching
through it after a batch fails, so the pool's lifecycle contracts are
load-bearing: a worker exception must not poison the pool, ``close``
must be idempotent, and the context manager must behave like ``close``.
"""

from __future__ import annotations

import pytest

from repro.api import SolverConfig, SolverPool, solve, solve_many
from repro.errors import NotNiceGraphError, ReproError
from repro.graphs.generators import complete_graph, random_regular_graph


@pytest.fixture(scope="module")
def graphs():
    return [random_regular_graph(48, 4, seed=s) for s in range(3)]


class TestSolverPoolLifecycle:
    def test_reuse_after_worker_exception(self, graphs):
        """A bad request (non-nice graph on a needs_nice algorithm) fails
        its batch but leaves the pool serving subsequent batches."""
        config = SolverConfig(algorithm="randomized", seed=1)
        bad = complete_graph(5)
        with SolverPool(workers=2) as pool:
            pool.warm()
            with pytest.raises(NotNiceGraphError):
                pool.solve_many([graphs[0], bad, graphs[1]], config)
            results = pool.solve_many(graphs, config)
            assert len(results) == len(graphs)
            expected = [solve(g, config) for g in graphs]
            assert [r.colors for r in results] == [r.colors for r in expected]

    def test_exception_type_crosses_the_pool_boundary(self, graphs):
        """The engine's own error type survives pickling back to the parent
        (the gateway maps ReproError subclasses to protocol error kinds)."""
        with SolverPool(workers=2) as pool:
            with pytest.raises(ReproError):
                pool.solve_many(
                    [complete_graph(4)], SolverConfig(algorithm="deterministic")
                )

    def test_close_is_idempotent(self, graphs):
        pool = SolverPool(workers=2)
        assert pool.solve_many(graphs[:1], SolverConfig())  # lazily spawns
        pool.close()
        pool.close()  # second close is a no-op, not an error

    def test_close_without_use_is_a_noop(self):
        pool = SolverPool(workers=2)
        pool.close()  # never spawned

    def test_usable_again_after_close(self, graphs):
        """Closing drops the executor; the next use respawns it."""
        pool = SolverPool(workers=2)
        first = pool.solve_many(graphs[:2], SolverConfig(seed=3))
        pool.close()
        second = pool.solve_many(graphs[:2], SolverConfig(seed=3))
        pool.close()
        assert [r.colors for r in first] == [r.colors for r in second]

    def test_context_manager_closes(self, graphs):
        with SolverPool(workers=2) as pool:
            pool.solve_many(graphs[:1], SolverConfig())
            assert pool._executor is not None
        assert pool._executor is None

    def test_context_manager_closes_on_error(self, graphs):
        with pytest.raises(RuntimeError):
            with SolverPool(workers=2) as pool:
                pool.solve_many(graphs[:1], SolverConfig())
                raise RuntimeError("caller bug")
        assert pool._executor is None

    def test_warm_spawns_workers(self):
        pool = SolverPool(workers=2)
        assert pool._executor is None
        try:
            assert pool.warm() is pool
            assert pool._executor is not None
        finally:
            pool.close()

    def test_solve_many_via_closed_then_reopened_pool_matches_inline(self, graphs):
        """solve_many(pool=...) after a close/respawn cycle still equals the
        single-process reference, bit for bit."""
        config = SolverConfig(algorithm="auto", seed=7)
        reference = solve_many(graphs, config, workers=1)
        pool = SolverPool(workers=2)
        pool.close()
        try:
            pooled = solve_many(graphs, config, pool=pool)
        finally:
            pool.close()
        # content digests ignore wall_time_s, the only run-to-run noise
        assert [r.content_digest() for r in pooled] == [
            r.content_digest() for r in reference
        ]
