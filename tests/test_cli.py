"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import load_edge_list, main
from repro.errors import GraphConstructionError
from repro.graphs.generators import random_regular_graph
from repro.graphs.validation import validate_coloring


@pytest.fixture
def edge_file(tmp_path):
    graph = random_regular_graph(60, 3, seed=4)
    path = tmp_path / "edges.txt"
    path.write_text(
        "# a comment line\n"
        + "\n".join(f"{u} {v}" for u, v in graph.edges())
        + "\n"
    )
    return path, graph


class TestLoadEdgeList:
    def test_roundtrip(self, edge_file):
        path, graph = edge_file
        loaded, original_ids = load_edge_list(str(path))
        assert loaded.n == graph.n
        assert loaded.num_edges == graph.num_edges
        assert original_ids == list(range(graph.n))

    def test_arbitrary_ids_compacted(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("100 200\n200 300\n300 100\n")
        graph, original_ids = load_edge_list(str(path))
        assert graph.n == 3 and graph.num_edges == 3
        assert original_ids == [100, 200, 300]

    def test_trailing_comment_allowed(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1  # the first edge\n1 2\n\n# done\n")
        graph, _ = load_edge_list(str(path))
        assert graph.n == 3 and graph.num_edges == 2

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 1\n")
        with pytest.raises(GraphConstructionError, match=r"edges.txt:2: self-loop"):
            load_edge_list(str(path))

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        # Reversed orientation is still the same undirected edge.
        path.write_text("0 1\n1 2\n1 0\n")
        with pytest.raises(
            GraphConstructionError, match=r"edges.txt:3: duplicate edge 1 0"
        ):
            load_edge_list(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(GraphConstructionError, match=r"expected 'u v'"):
            load_edge_list(str(path))

    def test_non_integer_ids_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphConstructionError, match="must be integers"):
            load_edge_list(str(path))

    def test_main_reports_bad_file_as_exit_2(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        path.write_text("3 3\n")
        assert main(["color", str(path)]) == 2
        assert "self-loop" in capsys.readouterr().err


class TestColorCommand:
    def _read_colors(self, output_path, graph):
        colors = [0] * graph.n
        for line in output_path.read_text().splitlines():
            node, color = map(int, line.split())
            colors[node] = color
        return colors

    def test_auto(self, edge_file, tmp_path):
        path, graph = edge_file
        out = tmp_path / "colors.txt"
        assert main(["color", str(path), "-o", str(out)]) == 0
        colors = self._read_colors(out, graph)
        validate_coloring(graph, colors, max_colors=3)

    @pytest.mark.parametrize(
        "algorithm",
        ["randomized", "randomized-small", "deterministic", "ps", "slocal"],
    )
    def test_explicit_algorithms(self, edge_file, tmp_path, algorithm):
        path, graph = edge_file
        out = tmp_path / "colors.txt"
        assert main(["color", str(path), "--algorithm", algorithm, "-o", str(out)]) == 0
        colors = self._read_colors(out, graph)
        validate_coloring(graph, colors, max_colors=3)

    def test_greedy_uses_at_most_delta_plus_one(self, edge_file, tmp_path):
        path, graph = edge_file
        out = tmp_path / "colors.txt"
        assert main(["color", str(path), "--algorithm", "greedy", "-o", str(out)]) == 0
        colors = self._read_colors(out, graph)
        validate_coloring(graph, colors, max_colors=4)

    def test_stdout_output(self, edge_file, capsys):
        path, graph = edge_file
        assert main(["color", str(path)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == graph.n

    def test_json_output(self, edge_file, tmp_path):
        path, graph = edge_file
        out = tmp_path / "result.json"
        assert main(
            ["color", str(path), "--json", "--seed", "3", "-o", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == graph.n
        assert payload["algorithm"] == "randomized-small"
        assert payload["seed"] == 3
        assert payload["palette"] == 3
        assert payload["node_ids"] == list(range(graph.n))
        assert len(payload["colors"]) == graph.n
        validate_coloring(graph, payload["colors"], max_colors=3)
        assert payload["rounds"] == sum(payload["phase_rounds"].values())
        assert payload["wall_time_s"] >= 0

    def test_json_matches_library_result(self, edge_file, capsys):
        """--json is ColoringResult.as_dict(), not a bespoke schema."""
        from repro.api import solve

        path, graph = edge_file
        assert main(["color", str(path), "--json", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = solve(graph, algorithm="auto", seed=1).as_dict()
        for key in ("algorithm", "colors", "rounds", "palette", "phase_rounds"):
            assert payload[key] == expected[key]


class TestInfoCommand:
    def test_profile(self, edge_file, capsys):
        path, _graph = edge_file
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "max degree Δ : 3" in out
        assert "nice         : True" in out


class TestServeArguments:
    @pytest.mark.parametrize("value", ["0", "-1", "many"])
    def test_max_cost_below_one_is_an_argument_error(self, value, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--max-cost", value])
        assert exited.value.code == 2
        assert "--max-cost" in capsys.readouterr().err

    def test_max_cost_unset_means_the_gateway_default(self, monkeypatch):
        import repro.service.server as server_module
        from repro.service.batcher import DEFAULT_MAX_COST

        built = {}

        class Stop(Exception):
            pass

        def fake_server(**kwargs):
            built.update(kwargs)
            raise Stop

        monkeypatch.setattr(server_module, "ColoringServer", fake_server)
        for argv, expected in (([], DEFAULT_MAX_COST), (["--max-cost", "1"], 1)):
            with pytest.raises(Stop):
                main(["serve", "--port", "0", *argv])
            assert built["max_cost"] == expected
