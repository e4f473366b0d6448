"""Unit tests for BFS utilities (distances, balls, layers)."""

from repro.graphs.bfs import (
    bfs_ball,
    bfs_distances,
    bfs_levels,
    bfs_tree,
    distance_layers,
)
from repro.graphs.generators import cycle_graph, path_graph, torus_grid


class TestDistances:
    def test_single_source_path(self):
        g = path_graph(5)
        assert bfs_distances(g, [0]) == [0, 1, 2, 3, 4]

    def test_multi_source(self):
        g = path_graph(5)
        assert bfs_distances(g, [0, 4]) == [0, 1, 2, 1, 0]

    def test_max_depth_truncates(self):
        g = path_graph(5)
        assert bfs_distances(g, [0], max_depth=2) == [0, 1, 2, -1, -1]

    def test_allowed_set_blocks_traversal(self):
        g = path_graph(5)
        dist = bfs_distances(g, [0], allowed={0, 1, 3, 4})
        assert dist == [0, 1, -1, -1, -1]

    def test_allowed_predicate(self):
        g = path_graph(5)
        dist = bfs_distances(g, [0], allowed=lambda v: v != 2)
        assert dist[4] == -1

    def test_disallowed_source_is_skipped(self):
        g = path_graph(3)
        assert bfs_distances(g, [0], allowed={1, 2}) == [-1, -1, -1]


class TestBallsAndLevels:
    def test_ball_radius_zero(self):
        g = cycle_graph(6)
        assert bfs_ball(g, 0, 0) == [0]

    def test_ball_radius_one(self):
        g = cycle_graph(6)
        assert sorted(bfs_ball(g, 0, 1)) == [0, 1, 5]

    def test_ball_covers_graph(self):
        g = cycle_graph(6)
        assert sorted(bfs_ball(g, 0, 3)) == list(range(6))

    def test_levels_shape(self):
        g = cycle_graph(8)
        levels = bfs_levels(g, 0, 5)
        assert len(levels) == 6
        assert levels[0] == [0]
        assert len(levels[4]) == 1  # antipode
        assert levels[5] == []  # preserved trailing empty level

    def test_levels_sizes_on_torus(self):
        g = torus_grid(9, 9)
        levels = bfs_levels(g, 0, 2)
        assert len(levels[1]) == 4
        assert len(levels[2]) == 8


class TestBfsTree:
    def test_parent_structure(self):
        g = path_graph(4)
        parent, level = bfs_tree(g, 0, 3)
        assert parent[0] == 0
        assert parent[3] == 2
        assert level == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_truncation(self):
        g = path_graph(6)
        _parent, level = bfs_tree(g, 0, 2)
        assert set(level) == {0, 1, 2}


class TestLayersAndAssignment:
    def test_distance_layers_partition(self):
        g = torus_grid(7, 7)
        layers = distance_layers(g, [0])
        seen = [v for layer in layers for v in layer]
        assert sorted(seen) == list(range(g.n))
        assert layers[0] == [0]

    def test_distance_layers_max_depth(self):
        g = path_graph(10)
        layers = distance_layers(g, [0], max_depth=3)
        assert len(layers) == 4
