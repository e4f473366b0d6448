"""The A/B gate's summary and verdicts (``scripts/ab.py``), on synthetic
samples: no subprocess, no clock."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def pairs(parent, change):
    return list(zip(parent, change))


class TestJudge:
    def test_lower_better_within_bound_is_ok(self):
        entry = ab.judge(pairs([1.0] * 6, [1.2] * 6), "lower", 0.25)
        assert entry["verdict"] == "ok"
        assert entry["wins"] == 0 and entry["pairs"] == 6
        assert entry["parent_median"] == 1.0 and entry["change_median"] == 1.2

    def test_lower_better_faster_change_wins_every_pair(self):
        entry = ab.judge(pairs([1.0] * 6, [0.5] * 6), "lower", 0.25)
        assert entry["verdict"] == "ok"
        assert entry["wins"] == 6
        assert entry["worse_by"] == -0.5

    def test_higher_better_drop_past_bound_is_worse(self):
        entry = ab.judge(pairs([100.0] * 6, [70.0] * 6), "higher", 0.25)
        assert entry["verdict"] == "worse"
        assert entry["wins"] == 0

    def test_higher_better_rise_is_a_win(self):
        entry = ab.judge(pairs([100.0] * 6, [130.0] * 6), "higher", 0.25)
        assert entry["verdict"] == "ok"
        assert entry["wins"] == 6

    @pytest.mark.parametrize(
        "better, parent, at_bound, past_bound",
        [("lower", 1.0, 1.25, 1.2501), ("higher", 100.0, 75.0, 74.99)],
    )
    def test_exactly_at_the_bound_is_ok_just_past_is_worse(
        self, better, parent, at_bound, past_bound
    ):
        at = ab.judge(pairs([parent] * 6, [at_bound] * 6), better, 0.25)
        past = ab.judge(pairs([parent] * 6, [past_bound] * 6), better, 0.25)
        assert at["verdict"] == "ok"
        assert past["verdict"] == "worse"

    def test_parent_spread_wider_than_bound_is_unresolved(self):
        parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]  # median 1.5, IQR 1.0
        entry = ab.judge(pairs(parent, [3.0] * 6), "lower", 0.25)
        assert entry["parent_iqr"] == 1.0
        assert entry["verdict"] == "unresolved"

    def test_narrow_parent_spread_makes_the_same_change_worse(self):
        parent = [1.4, 1.6, 1.5, 1.5, 1.45, 1.55]
        entry = ab.judge(pairs(parent, [3.0] * 6), "lower", 0.25)
        assert entry["verdict"] == "worse"

    def test_ties_count_for_neither_side(self):
        entry = ab.judge(pairs([5.0, 5.0], [5.0, 4.0]), "lower", 0.1)
        assert entry["wins"] == 1


SPECS = {
    "perfbench": {"solve-dcc.solve_p50_s": ("lower", 0.25)},
    "s2-incremental": {"sustained.ops_per_sec": ("higher", 1 - 1 / 1.5)},
}


def run(pair, side, source, metrics, *, returncode=0, correct=True):
    return {
        "pair": pair, "side": side, "source": source,
        "returncode": returncode, "correct": correct, "metrics": metrics,
    }


def both_sides(pair, parent_value, change_value, **change_kwargs):
    key = "solve-dcc.solve_p50_s"
    return [
        run(pair, "parent", "perfbench", {key: parent_value, "solve-dcc.unjudged": 1.0}),
        run(pair, "change", "perfbench", {key: change_value}, **change_kwargs),
    ]


class TestSummarize:
    def test_all_ok_passes_and_nests_by_source_workload_metric(self):
        runs = both_sides(0, 1.0, 1.1) + both_sides(1, 1.0, 0.9) + [
            run(0, "parent", "s2-incremental", {"sustained.ops_per_sec": 50_000.0}),
            run(0, "change", "s2-incremental", {"sustained.ops_per_sec": 40_000.0}),
        ]
        summary = ab.summarize(runs, SPECS)
        assert summary["passed"] and summary["failed_runs"] == []
        entry = summary["results"]["perfbench"]["solve-dcc"]["solve_p50_s"]
        assert entry["pairs"] == 2 and entry["wins"] == 1
        assert "unjudged" not in summary["results"]["perfbench"]["solve-dcc"]
        s2 = summary["results"]["s2-incremental"]["sustained"]["ops_per_sec"]
        assert s2["verdict"] == "ok"

    def test_a_worse_metric_fails(self):
        summary = ab.summarize(both_sides(0, 1.0, 2.0) + both_sides(1, 1.0, 2.0), SPECS)
        assert not summary["passed"]
        entry = summary["results"]["perfbench"]["solve-dcc"]["solve_p50_s"]
        assert entry["verdict"] == "worse"

    def test_a_run_reporting_correct_false_fails(self):
        runs = both_sides(0, 1.0, 1.0) + both_sides(1, 1.0, 50.0, correct=False)
        summary = ab.summarize(runs, SPECS)
        assert not summary["passed"]
        assert summary["failed_runs"] == [
            {"pair": 1, "side": "change", "source": "perfbench",
             "returncode": 0, "correct": False}
        ]
        # the failed run's figures are not judged
        entry = summary["results"]["perfbench"]["solve-dcc"]["solve_p50_s"]
        assert entry["pairs"] == 1 and entry["verdict"] == "ok"

    def test_a_run_exiting_non_zero_fails(self):
        runs = both_sides(0, 1.0, 1.0, returncode=1)
        summary = ab.summarize(runs, SPECS)
        assert not summary["passed"]
        assert summary["failed_runs"][0]["returncode"] == 1
        assert summary["results"] == {}
