"""Tests for the unified solver facade (:mod:`repro.api`).

Covers the acceptance criteria of the facade PR: registry completeness
(every registered name solves a smoke graph), ``solve()`` bit-identical
to the legacy entry points on the golden fixed seeds, ``solve_many``
determinism across worker counts (and >1.5× throughput when the machine
actually has spare cores), the JSON round-trip of
:class:`repro.api.ColoringResult`, and the ``on_phase`` observer.
"""

from __future__ import annotations

import json

import pytest

from repro import delta_color
from repro.api import (
    AlgorithmSpec,
    ColoringResult,
    SolverConfig,
    SolverPool,
    get_algorithm,
    list_algorithms,
    register_algorithm,
    solve,
    solve_many,
)
from repro.api.registry import EngineRun
from repro.baselines.panconesi_srinivasan import ps_delta_coloring
from repro.core.deterministic import delta_coloring_deterministic
from repro.core.randomized import (
    RandomizedParams,
    delta_coloring_large_delta,
    delta_coloring_randomized,
    delta_coloring_small_delta,
)
from repro.core.slocal_coloring import slocal_delta_coloring
from repro.core.special_cases import color_graph
from repro.errors import NotNiceGraphError, ReproError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    hypercube,
    path_graph,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.named import petersen_graph
from repro.graphs.properties import assert_nice
from repro.graphs.validation import validate_coloring

EXPECTED_NAMES = {
    "auto",
    "randomized",
    "randomized-small",
    "randomized-large",
    "deterministic",
    "slocal",
    "ps",
    "greedy",
    "components",
}

# The golden-seed instance set of tests/test_golden_seed.py.
GOLDEN_GRAPHS = {
    "petersen": petersen_graph,
    "torus_6x7": lambda: torus_grid(6, 7),
    "hypercube_4": lambda: hypercube(4),
    "rrg_64_5_s3": lambda: random_regular_graph(64, 5, seed=3),
}


class TestRegistry:
    def test_expected_names_registered(self):
        assert set(list_algorithms()) == EXPECTED_NAMES

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_every_registered_name_solves_a_smoke_graph(self, name):
        graph = random_regular_graph(48, 4, seed=9)  # nice, Δ = 4
        result = solve(graph, algorithm=name, seed=1)
        assert result.n == graph.n
        assert len(result.colors) == graph.n
        validate_coloring(graph, list(result.colors), max_colors=result.palette)
        assert result.algorithm in EXPECTED_NAMES
        assert result.rounds >= 0
        assert result.wall_time_s >= 0

    def test_capability_metadata(self):
        assert get_algorithm("deterministic").deterministic
        assert get_algorithm("slocal").deterministic
        assert not get_algorithm("randomized").deterministic
        assert get_algorithm("randomized").needs_nice
        assert not get_algorithm("auto").needs_nice
        assert not get_algorithm("greedy").needs_nice
        assert get_algorithm("randomized").palette_bound == "Δ"
        assert get_algorithm("greedy").palette_bound == "Δ+1"

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(ReproError, match="unknown algorithm 'nope'"):
            solve(random_regular_graph(16, 3, seed=0), algorithm="nope")
        with pytest.raises(ReproError, match="randomized-large"):
            get_algorithm("nope")

    def test_duplicate_registration_rejected(self):
        spec = get_algorithm("greedy")
        with pytest.raises(ReproError, match="already registered"):
            register_algorithm(spec)

    def test_third_party_engine_plugs_in(self):
        def run_stub(graph, config):
            colors = [1 + (v % 2) for v in range(graph.n)]
            return EngineRun(
                algorithm="stub", colors=colors, delta=graph.max_degree(),
                palette=2, rounds=0,
            )

        register_algorithm(AlgorithmSpec(
            name="stub", summary="test stub", needs_nice=False,
            deterministic=True, palette_bound="2", run=run_stub,
        ))
        try:
            result = solve(path_graph(4), algorithm="stub")
            assert result.algorithm == "stub"
            assert result.palette == 2
        finally:
            from repro.api import registry

            del registry._REGISTRY["stub"]

    def test_nice_graph_required_by_paper_algorithms(self):
        for name in ("randomized", "deterministic", "ps", "slocal"):
            with pytest.raises(NotNiceGraphError):
                solve(cycle_graph(8), algorithm=name)

    def test_auto_policy_picks_by_instance(self):
        assert solve(torus_grid(6, 7), seed=0).algorithm == "randomized-large"
        assert (
            solve(random_regular_graph(40, 3, seed=1), seed=0).algorithm
            == "randomized-small"
        )
        clique = solve(complete_graph(5))
        assert clique.algorithm == "components"
        assert clique.palette == 5
        assert clique.stats["component_families"] == {"clique": 1}


class TestChecksOncePerSolve:
    """The registry path checks niceness once and validates once."""

    NOT_NICE = {
        "disconnected": lambda: disjoint_union([torus_grid(4, 4), torus_grid(4, 5)]),
        "clique": lambda: complete_graph(5),
        "cycle": lambda: cycle_graph(8),
        "path": lambda: path_graph(6),
    }

    @pytest.mark.parametrize("name", sorted(NOT_NICE))
    def test_not_nice_error_and_message_unchanged(self, name):
        graph = self.NOT_NICE[name]()
        with pytest.raises(NotNiceGraphError) as direct:
            assert_nice(graph)
        with pytest.raises(NotNiceGraphError) as facade:
            solve(graph, algorithm="randomized")
        with pytest.raises(NotNiceGraphError) as engine:
            delta_coloring_randomized(graph, RandomizedParams())
        assert str(facade.value) == str(direct.value) == str(engine.value)

    def test_one_connectivity_scan_and_one_validation(self, monkeypatch):
        import repro.api.registry as registry_mod
        import repro.api.solver as solver_mod
        import repro.core.randomized as randomized_mod
        from repro.graphs.graph import Graph

        graph = torus_grid(6, 7)
        calls = {"connected": 0, "validate": 0}
        real_connected = Graph.is_connected
        real_validate = validate_coloring

        def counting_connected(self):
            calls["connected"] += self is graph
            return real_connected(self)

        def counting_validate(target, *args, **kwargs):
            calls["validate"] += target is graph
            return real_validate(target, *args, **kwargs)

        monkeypatch.setattr(Graph, "is_connected", counting_connected)
        for module in (solver_mod, registry_mod, randomized_mod):
            monkeypatch.setattr(module, "validate_coloring", counting_validate)
        for algorithm in ("auto", "randomized", "randomized-large"):
            for validate in (True, False):
                calls.update(connected=0, validate=0)
                solve(graph, algorithm=algorithm, seed=0, validate=validate)
                assert calls == {"connected": 1, "validate": 1}, (algorithm, validate)
        calls.update(connected=0, validate=0)
        delta_coloring_large_delta(graph, seed=0)
        assert calls == {"connected": 1, "validate": 1}


class TestSolveMatchesLegacy:
    """solve() is bit-identical to the pre-facade entry points."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_randomized_golden_seeds(self, name, seed):
        graph = GOLDEN_GRAPHS[name]()
        facade = solve(graph, algorithm="randomized", seed=seed)
        legacy = delta_color(graph, seed=seed)
        assert list(facade.colors) == legacy.colors
        assert facade.rounds == legacy.rounds
        assert facade.phase_rounds == legacy.phase_rounds

    def test_small_and_large_presets(self):
        cubic = random_regular_graph(80, 3, seed=2)
        facade = solve(cubic, algorithm="randomized-small", seed=2)
        legacy = delta_coloring_small_delta(cubic, seed=2)
        assert list(facade.colors) == legacy.colors

        dense = random_regular_graph(80, 6, seed=2)
        facade = solve(dense, algorithm="randomized-large", seed=2)
        legacy = delta_coloring_large_delta(dense, seed=2)
        assert list(facade.colors) == legacy.colors

    def test_params_override(self):
        graph = random_regular_graph(80, 3, seed=5)
        params = RandomizedParams(dcc_radius=3, seed=5, engine="hybrid")
        facade = solve(graph, SolverConfig(algorithm="randomized", params=params))
        legacy = delta_coloring_randomized(graph, params)
        assert list(facade.colors) == legacy.colors
        assert facade.seed == 5  # recorded from the params, not the config

    def test_deterministic_and_ps(self):
        graph = random_regular_graph(80, 4, seed=3)
        assert (
            list(solve(graph, algorithm="deterministic").colors)
            == delta_coloring_deterministic(graph).colors
        )
        assert (
            list(solve(graph, algorithm="ps", seed=4).colors)
            == ps_delta_coloring(graph, seed=4).colors
        )

    def test_slocal(self):
        graph = random_regular_graph(60, 4, seed=6)
        order = list(reversed(range(graph.n)))
        facade = solve(graph, algorithm="slocal", order=order)
        legacy_colors, legacy_run = slocal_delta_coloring(graph, order=order)
        assert list(facade.colors) == legacy_colors
        assert facade.stats["write_radius"] == legacy_run.write_radius

    def test_components(self):
        graph = complete_graph(4)
        facade = solve(graph, algorithm="components", seed=0)
        legacy = color_graph(graph, seed=0)
        assert list(facade.colors) == legacy.colors
        assert facade.palette == legacy.num_colors


class TestSolveMany:
    def _batch(self):
        return [
            random_regular_graph(48, 4, seed=s) for s in range(6)
        ] + [torus_grid(6, 7)]

    def test_workers_do_not_change_results(self):
        graphs = self._batch()
        config = SolverConfig(algorithm="auto", seed=1)
        serial = solve_many(graphs, config, workers=1)
        parallel = solve_many(graphs, config, workers=4)
        assert len(serial) == len(parallel) == len(graphs)
        for a, b in zip(serial, parallel):
            assert a.colors == b.colors
            assert a.rounds == b.rounds
            assert a.algorithm == b.algorithm
            assert a.phase_rounds == b.phase_rounds

    def test_pool_reuse_matches_transient(self):
        graphs = self._batch()[:3]
        config = SolverConfig(algorithm="ps", seed=2)
        with SolverPool(workers=2) as pool:
            first = solve_many(graphs, config, pool=pool)
            second = pool.solve_many(graphs, config)
        serial = solve_many(graphs, config)
        for a, b, c in zip(first, second, serial):
            assert a.colors == b.colors == c.colors

    def test_results_in_input_order(self):
        graphs = [random_regular_graph(n, 4, seed=1) for n in (24, 48, 96)]
        results = solve_many(graphs, SolverConfig(seed=0), workers=2)
        assert [r.n for r in results] == [24, 48, 96]

    def test_observer_replays_in_parent(self):
        graphs = self._batch()[:2]
        seen: list[tuple[int, str]] = []
        calls: list[int] = [0]

        def on_phase(name, rounds, stats):
            seen.append((calls[0], name))

        config = SolverConfig(algorithm="randomized", seed=1, on_phase=on_phase)
        results = solve_many(graphs, config, workers=2)
        assert seen, "observer must fire even for pooled runs"
        phase_names = {name for _, name in seen}
        assert phase_names == set().union(
            *(set(r.phase_rounds) for r in results)
        )

    def test_throughput_speedup_on_e2b_shapes(self):
        """A warmed 4-worker pool returns the serial results bit for bit
        on the E2b quick-sweep shapes.  How much faster it is belongs to
        a benchmark, not to tier-1: perfbench's ``batch_solves_per_s``
        measures pooled throughput."""
        graphs = [
            random_regular_graph(n, 8, seed=s)
            for s in range(2)
            for n in (512, 2048)
        ]
        config = SolverConfig(algorithm="randomized-large", seed=0, validate=False)
        with SolverPool(workers=4) as pool:
            pool.warm()
            parallel = solve_many(graphs, config, pool=pool)
        serial = solve_many(graphs, config)
        assert [r.colors for r in parallel] == [r.colors for r in serial]
        assert [r.content_digest() for r in parallel] == [
            r.content_digest() for r in serial
        ]


class TestColoringResult:
    def _result(self):
        return solve(random_regular_graph(48, 4, seed=7), seed=7)

    def test_frozen_and_immutable_colors(self):
        result = self._result()
        assert isinstance(result.colors, tuple)
        with pytest.raises(AttributeError):
            result.rounds = 0

    def test_json_round_trip(self):
        result = self._result()
        payload = json.dumps(result.as_dict())
        rebuilt = ColoringResult.from_dict(json.loads(payload))
        assert rebuilt == result

    def test_as_dict_schema(self):
        data = self._result().as_dict()
        expected_keys = {
            "algorithm", "n", "delta", "palette", "colors", "rounds",
            "phase_rounds", "phase_stats", "stats", "seed", "wall_time_s",
        }
        assert set(data) == expected_keys
        assert data["rounds"] == sum(data["phase_rounds"].values())
        assert data["palette"] == data["delta"] == 4
        assert data["seed"] == 7

    def test_num_colors_used(self):
        result = self._result()
        assert result.num_colors_used == len(set(result.colors))
        assert result.num_colors_used <= result.palette


class TestObserver:
    def test_phases_replayed_in_order_with_stats(self):
        events: list[tuple[str, int, dict]] = []
        config = SolverConfig(
            algorithm="randomized",
            seed=0,
            on_phase=lambda name, rounds, stats: events.append(
                (name, rounds, stats)
            ),
        )
        result = solve(torus_grid(6, 7), config)
        assert [name for name, _, _ in events] == list(result.phase_rounds)
        assert {name: rounds for name, rounds, _ in events} == result.phase_rounds
        by_name = {name: stats for name, _, stats in events}
        # Structural stats arrive attributed to the phase that produced them.
        assert by_name["1:dcc-detect"]["num_dccs"] == result.stats["num_dccs"]
        assert by_name["4:marking"]["t_nodes"] == result.stats["t_nodes"]

    def test_harness_uses_observer_not_internals(self):
        from repro.analysis.harness import delta_coloring_sweep

        phases: list[str] = []
        points = delta_coloring_sweep(
            [64], delta=4, seed=0, warmup=1, repeats=2,
            on_phase=lambda name, rounds, stats: phases.append(name),
        )
        assert len(points) == 1
        assert "4:marking" in phases and "9:b0" in phases
        # Exactly one event per phase per size point — warmup and repeat
        # runs must not duplicate the replay.
        assert len(phases) == len(set(phases))


class TestSolverConfig:
    def test_overrides_compose_with_config(self):
        graph = random_regular_graph(48, 4, seed=1)
        base = SolverConfig(algorithm="ps", seed=1)
        a = solve(graph, base)
        b = solve(graph, base.replace(seed=1))
        assert a.colors == b.colors
        c = solve(graph, base, seed=2)
        assert c.seed == 2

    def test_strict_is_honoured_alongside_params(self):
        """strict=True folds into an explicit params override (it only
        adds contract checks, so colors stay bit-identical)."""
        graph = random_regular_graph(60, 3, seed=4)
        params = RandomizedParams(dcc_radius=2, seed=4, engine="hybrid")
        loose = solve(graph, SolverConfig(algorithm="randomized", params=params))
        strict = solve(
            graph,
            SolverConfig(algorithm="randomized", params=params, strict=True),
        )
        assert loose.colors == strict.colors

    def test_validate_toggle(self):
        graph = random_regular_graph(48, 4, seed=1)
        # Both paths must succeed; validate=False just skips the facade
        # re-check (the engines still validate internally).
        assert solve(graph, validate=False).colors == solve(graph).colors

    def test_as_dict_omits_observer(self):
        config = SolverConfig(on_phase=lambda *a: None)
        data = config.as_dict()
        assert "on_phase" not in data
        json.dumps(data)  # JSON-safe

    def test_without_observer_is_picklable(self):
        import pickle

        config = SolverConfig(on_phase=lambda *a: None)
        pickle.dumps(config.without_observer())
