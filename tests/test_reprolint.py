"""Tests for reprolint, the repo-contract static-analysis pass.

Every rule gets a deliberately-seeded violation (the true positive), a
known-good idiom it must NOT flag (the false-positive guard), and the
module-scoping check.  The framework tests cover suppression comments,
the content-keyed baseline round-trip, and the CLI exit codes.
"""

import io
import json
import textwrap
from pathlib import Path

from repro.devtools import main as lint_main
from repro.devtools.baseline import (
    apply_baseline,
    baseline_key,
    load_baseline,
    save_baseline,
)
from repro.devtools.config import LintConfig
from repro.devtools.framework import (
    Finding,
    module_name_for,
    parse_suppressions,
    suppressed_lines,
)
from repro.devtools.runner import lint_file, lint_paths


def run_lint(tmp_path, rel, source):
    """Lint ``source`` placed at ``rel`` inside a fixture tree.

    The path's ``repro/...`` components give the file its module name
    (module_name_for anchors on the ``repro`` path component), so rules
    scoped to e.g. ``repro.service`` see fixture files as in-repo code.
    """
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    config = LintConfig(root=tmp_path, baseline_path=tmp_path / "baseline.json")
    return lint_file(path, config)


def codes(findings):
    return [f.code for f in findings]


class TestRPL001BlockingInAsync:
    def test_time_sleep_in_async_def_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/gateway.py",
            """
            import time

            async def handle(request):
                time.sleep(0.1)
                return request
            """,
        )
        assert codes(findings) == ["RPL001"]
        assert "time.sleep" in findings[0].message

    def test_direct_solve_and_open_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/server.py",
            """
            from repro.api import solve

            async def handle(graph, config):
                result = solve(graph, config)
                with open("log.txt") as fh:
                    fh.read()
                return result
            """,
        )
        assert sorted(codes(findings)) == ["RPL001", "RPL001"]

    def test_awaited_calls_and_executor_helpers_not_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/gateway.py",
            """
            import asyncio
            import time

            async def handle(loop, graph, config):
                await asyncio.sleep(0)

                def _apply():
                    time.sleep(1)  # runs on the executor thread, not the loop
                    return 1

                return await loop.run_in_executor(None, _apply)
            """,
        )
        assert findings == []

    def test_blocking_argument_of_awaited_call_still_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/gateway.py",
            """
            import time

            async def handle(submit):
                return await submit(time.sleep(1))
            """,
        )
        assert codes(findings) == ["RPL001"]

    def test_engine_code_out_of_scope(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/core/worker.py",
            """
            import time

            async def helper():
                time.sleep(1)
            """,
        )
        assert findings == []


class TestRPL002SeededRandomness:
    def test_global_generator_and_unseeded_random_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/core/engine.py",
            """
            import random

            def shatter(nodes):
                rng = random.Random()
                random.shuffle(nodes)
                return rng.random()
            """,
        )
        assert sorted(codes(findings)) == ["RPL002", "RPL002"]

    def test_seeded_rng_not_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/primitives/mis.py",
            """
            import random

            def luby(seed):
                rng = random.Random(seed)
                return rng.random()
            """,
        )
        assert findings == []

    def test_numpy_global_state_flagged_seeded_default_rng_ok(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/graphs/generators.py",
            """
            try:
                import numpy as np
            except Exception:
                np = None

            def sample(n, seed):
                good = np.random.default_rng(seed)
                bad = np.random.rand(n)
                return good, bad
            """,
        )
        assert codes(findings) == ["RPL002"]
        assert "numpy.random.rand" in findings[0].message

    def test_service_tier_out_of_scope(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/jitter.py",
            """
            import random

            def backoff_jitter():
                return random.random()
            """,
        )
        assert findings == []


class TestRPL003GuardedNumericImport:
    def test_bare_top_level_numpy_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/core/kernels.py",
            """
            import numpy as np
            from scipy import sparse
            """,
        )
        assert sorted(codes(findings)) == ["RPL003", "RPL003"]

    def test_guarded_and_lazy_imports_not_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/core/kernels.py",
            """
            from typing import TYPE_CHECKING

            try:
                import numpy as np
            except Exception:
                np = None

            if TYPE_CHECKING:
                import numpy.typing

            def dense(graph):
                import scipy.sparse as sp
                return sp.csr_matrix(graph)
            """,
        )
        assert findings == []


class TestRPL004WallClockInFingerprint:
    def test_clock_read_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/fingerprint.py",
            """
            import time

            def request_fingerprint(graph, config):
                stamp = time.time()
                return hash((graph, config, stamp))
            """,
        )
        assert codes(findings) == ["RPL004"]

    def test_clock_fine_outside_fingerprint_module(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/metrics.py",
            """
            import time

            def observe():
                return time.monotonic()
            """,
        )
        assert findings == []


class TestRPL005TypedExceptInStorage:
    def test_bare_and_broad_excepts_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/storage/journal.py",
            """
            def read_tail(fh):
                try:
                    return fh.read()
                except Exception:
                    return None

            def scan(fh):
                try:
                    return fh.read()
                except:
                    return None
            """,
        )
        assert sorted(codes(findings)) == ["RPL005", "RPL005"]

    def test_typed_handlers_not_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/storage/wal.py",
            """
            def decode(blob):
                try:
                    return blob.decode("utf-8")
                except (OSError, UnicodeDecodeError, ValueError):
                    return None
            """,
        )
        assert findings == []

    def test_broad_except_outside_storage_out_of_scope(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/gateway.py",
            """
            def shield(fn):
                try:
                    return fn()
                except Exception:
                    return None
            """,
        )
        assert findings == []


class TestRPL006ValidatedWireAccess:
    def test_raw_subscript_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/server.py",
            """
            def dispatch(request):
                return request["op"]
            """,
        )
        assert codes(findings) == ["RPL006"]
        assert "request['op']" in findings[0].message

    def test_get_and_membership_guard_not_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/server.py",
            """
            def dispatch(request):
                op = request.get("op")
                if "graph" in request and op is not None:
                    return request["graph"], op
                return None
            """,
        )
        assert findings == []

    def test_guard_does_not_leak_to_else_branch(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/server.py",
            """
            def dispatch(request):
                if "op" in request:
                    return request["op"]
                else:
                    return request["fallback"]
            """,
        )
        assert codes(findings) == ["RPL006"]
        assert "fallback" in findings[0].message

    def test_client_module_in_scope(self, tmp_path):
        # replies are decoded wire dicts too: a raw read of a missing
        # field is a KeyError where the client owes ServiceProtocolError
        findings, _ = run_lint(
            tmp_path,
            "repro/service/client.py",
            """
            def parse(reply):
                return reply["result"]
            """,
        )
        assert codes(findings) == ["RPL006"]
        assert "reply['result']" in findings[0].message

    def test_other_modules_out_of_scope(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/cache.py",
            """
            def probe(request):
                return request["digest"]
            """,
        )
        assert findings == []


class TestRPL007FallbackPair:
    def test_missing_twin_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/core/kernels.py",
            """
            def _ball_blocks_vectorized(graph):
                return None
            """,
        )
        assert codes(findings) == ["RPL007"]
        assert "no pure-Python twin" in findings[0].message

    def test_undispatched_twin_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/core/kernels.py",
            """
            def _ball_blocks_vectorized(graph):
                return None

            def _ball_blocks_python(graph):
                return None
            """,
        )
        assert codes(findings) == ["RPL007"]
        assert "never" in findings[0].message

    def test_dispatched_twin_clean(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/core/kernels.py",
            """
            np = None

            def _ball_blocks_vectorized(graph):
                return None

            def _ball_blocks_python(graph):
                return None

            def ball_blocks(graph):
                if np is None:
                    return _ball_blocks_python(graph)
                return _ball_blocks_vectorized(graph)
            """,
        )
        assert findings == []


class TestRPL008NoTimingAssertInTests:
    def test_ratio_of_durations_flagged(self, tmp_path):
        # The shape of the pooled-throughput assert that went red on a
        # 2-CPU box: durations bound to names, then compared as a ratio.
        findings, _ = run_lint(
            tmp_path,
            "tests/test_pool.py",
            """
            import time

            def test_speedup(run_parallel, run_serial):
                t0 = time.perf_counter()
                run_parallel()
                parallel_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                run_serial()
                serial_s = time.perf_counter() - t0
                assert serial_s / parallel_s > 1.5
            """,
        )
        assert codes(findings) == ["RPL008"]
        assert "benchmark" in findings[0].message

    def test_inline_difference_and_aliases_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "tests/test_latency.py",
            """
            import time as clock
            from time import monotonic as mono, perf_counter_ns

            def test_fast(work):
                start = clock.time()
                work()
                assert clock.time() - start < 0.5

            def test_faster(work):
                begin = mono()
                work()
                elapsed = mono() - begin
                budget = elapsed * 2
                assert budget < 1.0

            def test_fastest(work):
                samples = []
                for _ in range(3):
                    t = perf_counter_ns()
                    work()
                    samples.append(perf_counter_ns() - t)
                first = perf_counter_ns()
                assert max(perf_counter_ns() - first for _ in range(2)) < 10**6
            """,
        )
        assert codes(findings) == ["RPL008", "RPL008", "RPL008"]

    def test_deadlines_and_plain_ratios_not_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "tests/test_waits.py",
            """
            import time

            def test_waits_for_worker(spy, hits, total):
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline and not spy.updates:
                    time.sleep(0.05)
                assert time.monotonic() < deadline
                assert hits / total > 0.9
                t0 = 3
                assert (t0 - 1) / 2 == 1

            def test_other_scope():
                t0 = time.perf_counter()
                return t0
            """,
        )
        assert findings == []

    def test_source_files_out_of_scope(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/analysis/timing.py",
            """
            import time

            def measure(work):
                t0 = time.perf_counter()
                work()
                elapsed = time.perf_counter() - t0
                assert elapsed >= 0
                return elapsed
            """,
        )
        assert findings == []

    def test_suppression_with_reason(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "tests/test_budget.py",
            """
            import time

            def test_budget(work):
                t0 = time.perf_counter()
                work()
                assert time.perf_counter() - t0 < 60  # reprolint: disable=RPL008 -- hang guard
            """,
        )
        assert findings == []


class TestRPL009CsrRowsInSolver:
    def test_adj_and_adjacency_sets_reads_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/core/marking.py",
            """
            def _pick(graph, v):
                adj = graph.adj
                sets = graph.adjacency_sets()
                return adj[v], sets[v]
            """,
        )
        assert codes(findings) == ["RPL009", "RPL009"]

    def test_csr_rows_and_python_twins_clean(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/core/marking.py",
            """
            def _pick(graph, v):
                offsets, indices = graph.csr()
                return indices[offsets[v] : offsets[v + 1]], graph.neighbors_csr(v)

            def _pick_python(graph, v):
                return graph.adj[v]
            """,
        )
        assert findings == []

    def test_modules_outside_the_engines_not_scoped(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/core/deterministic.py",
            """
            def _halo(graph, u):
                return graph.adj[u]
            """,
        )
        assert findings == []


class TestSuppressions:
    VIOLATION = """
    import time

    async def handle():
        time.sleep(1){inline}
    """

    def test_inline_suppression(self, tmp_path):
        src = self.VIOLATION.format(
            inline="  # reprolint: disable=RPL001 -- warmup happens pre-serve"
        )
        findings, suppressed = run_lint(tmp_path, "repro/service/a.py", src)
        assert findings == []
        assert suppressed == 1

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        findings, suppressed = run_lint(
            tmp_path,
            "repro/service/b.py",
            """
            import time

            async def handle():
                # reprolint: disable=RPL001 -- measured, loop is idle here
                time.sleep(1)
            """,
        )
        assert findings == []
        assert suppressed == 1

    def test_wrong_code_does_not_suppress(self, tmp_path):
        src = self.VIOLATION.format(inline="  # reprolint: disable=RPL002")
        findings, suppressed = run_lint(tmp_path, "repro/service/c.py", src)
        assert codes(findings) == ["RPL001"]
        assert suppressed == 0

    def test_hash_inside_string_is_not_a_suppression(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "repro/service/d.py",
            """
            import time

            async def handle():
                note = "# reprolint: disable=RPL001"
                time.sleep(1)
                return note
            """,
        )
        assert codes(findings) == ["RPL001"]

    def test_parse_extracts_codes_and_reason(self):
        sups = parse_suppressions(
            "x = 1  # reprolint: disable=RPL001,RPL005 -- chaos test needs both\n"
        )
        assert len(sups) == 1
        assert sups[0].codes == ("RPL001", "RPL005")
        assert sups[0].reason == "chaos test needs both"
        assert not sups[0].standalone
        covered = suppressed_lines(sups)
        assert covered[1] == {"RPL001", "RPL005"}


class TestModuleNames:
    def test_src_layout(self):
        assert (
            module_name_for(Path("src/repro/service/storage/journal.py"))
            == "repro.service.storage.journal"
        )

    def test_repro_anchor_without_src(self):
        assert module_name_for(Path("/tmp/x/repro/core/dcc.py")) == "repro.core.dcc"

    def test_init_maps_to_package(self):
        assert module_name_for(Path("src/repro/obs/__init__.py")) == "repro.obs"

    def test_outside_any_package(self):
        assert module_name_for(Path("benchmarks/common.py")) is None


class TestBaseline:
    def _finding(self, source="time.sleep(1)", line=4):
        return Finding(
            path="repro/service/a.py",
            line=line,
            col=4,
            code="RPL001",
            message="blocking call",
            source=source,
        )

    def test_round_trip(self, tmp_path):
        findings = [self._finding(), self._finding(source="time.sleep(2)", line=9)]
        path = tmp_path / "baseline.json"
        save_baseline(path, findings)
        entries = load_baseline(path)
        result = apply_baseline(findings, entries)
        assert result.new == []
        assert len(result.baselined) == 2
        assert result.stale == []

    def test_key_survives_line_drift_but_not_edits(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(path, [self._finding(line=4)])
        entries = load_baseline(path)
        drifted = apply_baseline([self._finding(line=40)], entries)
        assert drifted.new == [] and len(drifted.baselined) == 1
        edited = apply_baseline([self._finding(source="time.sleep(9)")], entries)
        assert len(edited.new) == 1 and len(edited.stale) == 1

    def test_occurrence_index_disambiguates_identical_lines(self):
        first, second = self._finding(line=4), self._finding(line=8)
        entries = {baseline_key(first, 0)}  # only the first occurrence tolerated
        result = apply_baseline([first, second], entries)
        assert len(result.baselined) == 1
        assert len(result.new) == 1

    def test_unreadable_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        try:
            load_baseline(path)
        except ValueError as exc:
            assert "unreadable baseline" in str(exc)
        else:
            raise AssertionError("expected ValueError")


class TestRunnerAndCLI:
    def _fixture_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "service"
        pkg.mkdir(parents=True)
        (pkg / "gateway.py").write_text(
            textwrap.dedent(
                """
                import time

                async def handle():
                    time.sleep(1)
                """
            )
        )
        return tmp_path

    def test_syntax_error_becomes_rpl000_finding(self, tmp_path):
        findings, _ = run_lint(tmp_path, "repro/core/broken.py", "def f(:\n")
        assert codes(findings) == ["RPL000"]

    def test_lint_paths_reports_and_counts(self, tmp_path):
        root = self._fixture_tree(tmp_path)
        config = LintConfig(root=root, baseline_path=root / "baseline.json")
        report = lint_paths([root], config)
        assert report.files_scanned == 1
        assert len(report.rules_run) >= 7
        assert [f.code for f in report.new] == ["RPL001"]
        assert report.exit_code == 1
        totals = report.findings_total()
        assert totals["RPL001"] == 1
        assert totals["RPL007"] == 0  # every run rule appears, even at zero

    def test_cli_baseline_lifecycle(self, tmp_path):
        root = self._fixture_tree(tmp_path)
        baseline = root / "baseline.json"
        argv = [str(root), "--baseline", str(baseline)]
        out = io.StringIO()
        assert lint_main(argv, out=out) == 1  # new finding, no baseline yet
        assert lint_main(argv + ["--update-baseline"], out=io.StringIO()) == 0
        assert baseline.is_file()
        assert lint_main(argv, out=io.StringIO()) == 0  # baselined now
        assert lint_main(argv + ["--no-baseline"], out=io.StringIO()) == 1

    def test_cli_json_report(self, tmp_path):
        root = self._fixture_tree(tmp_path)
        out = io.StringIO()
        code = lint_main(
            [str(root), "--baseline", str(root / "baseline.json"), "--json"], out=out
        )
        payload = json.loads(out.getvalue())
        assert code == 1 and payload["exit_code"] == 1
        assert payload["summary"]["repro_lint_findings_total"]["RPL001"] == 1
        assert payload["new"][0]["code"] == "RPL001"

    def test_cli_list_rules(self, tmp_path):
        out = io.StringIO()
        assert lint_main(["--list-rules"], out=out) == 0
        listing = out.getvalue()
        for code in (
            "RPL001", "RPL002", "RPL003", "RPL004",
            "RPL005", "RPL006", "RPL007", "RPL008", "RPL009",
        ):
            assert code in listing

    def test_cli_missing_path_is_usage_error(self, tmp_path):
        assert lint_main([str(tmp_path / "nope")]) == 2

    def test_repo_itself_lints_clean(self):
        repo = Path(__file__).resolve().parent.parent
        out = io.StringIO()
        code = lint_main(
            [
                str(repo / "src"), str(repo / "scripts"),
                str(repo / "benchmarks"), str(repo / "tests"),
            ],
            out=out,
        )
        assert code == 0, out.getvalue()
