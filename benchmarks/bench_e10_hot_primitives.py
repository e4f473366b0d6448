"""E10 — hot-primitive microbenchmarks: generation and trial rounds.

The two rng-stream-bound primitives the large-Δ pipeline leans on:
configuration-model generation
(:func:`repro.graphs.generators.random_regular_graph`, pure Python: one
``randbytes`` draw and one stable sort per pairing step, its output
pinned by hash in ``tests/test_generators.py``) and the randomized
(deg+1)-list trial rounds
(:func:`repro.primitives.list_coloring.list_coloring_random`, which runs
each round in the native kernel's ``trial_round`` when ``repro/kernel.c``
loads, with a bit-identical pure-Python twin).  This bench prints their
wall clock, so either path rotting back toward per-stub / per-node
Python shows in its tables.

* **E10a** — ``random_regular_graph`` wall clock per (n, Δ), plus a
  regularity check (the repair loop must not silently degrade).
* **E10b** — one whole-graph (deg+1)-list instance per (n, Δ): trial
  rounds to completion with a Δ+1 palette, validity-asserted.
* **E10c** — phase (1), :func:`repro.core.dcc.detect_dccs` at r=2 on
  rrg Δ=8: wall clock and DCC count.  The sparse rows (n >= 32768, about
  a quarter of the nodes on a cycle of length <= 5) run the kernel's
  short-cycle prefilter; the dense rows (n=1024, 4096: more than half
  the nodes on such cycles) trip its guard and collect every ball, so
  the guard's cost stays visible.
* **E10d** — phase (9) alone: one solve-dcc-sized B0 (rrg Δ=8, DCCs at
  r=2 and the virtual ruling set's pick) against the colors of a solve
  with those nodes cleared.  ``ColorWorkspace.degree_list`` (the
  kernel's ``degree_list_surplus``, on an open workspace) vs the twin
  loop of ``color_against_outside``: wall clock of each, the component
  count and how many components the kernel handed back.
* **E10e** — phase (2) alone: the virtual ruling set of the DCCs phase
  (1) finds on rrg Δ=8 at r=2.  :func:`repro.core.dcc.virtual_graph_ruling_set`
  (one call of the kernel's ``virtual_ruling_set`` per Luby iteration)
  vs its twin ``_ruling_set_python``, from the same seed: wall clock of
  each, the DCC count, the iterations and the chosen count.

Unlike the E-series experiment tables this is not a paper-claim probe —
it deliberately isolates primitives whose cost the end-to-end benchmark
(perfbench/README.md) only shows folded into whole solves.
"""

from __future__ import annotations

import random
import time

from common import emit, sizes
from repro.analysis.experiments import Row, Table
from repro.api import solve
from repro.core.dcc import (
    DCCScratch,
    _ruling_set_python,
    detect_dccs,
    virtual_graph_ruling_set,
)
from repro.core.degree_choosable import color_against_outside
from repro.graphs.generators import random_regular_graph
from repro.graphs.validation import UNCOLORED, validate_coloring
from repro.local.rounds import RoundLedger
from repro.primitives.list_coloring import ColorWorkspace, list_coloring_random


def build_generator_table():
    table = Table(title="E10a: random_regular_graph wall clock")
    for n in sizes([4096], [4096, 32768, 131072]):
        for delta in (3, 8):
            best = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                graph = random_regular_graph(n, delta, seed=1)
                best = min(best, time.perf_counter() - started)
            assert all(graph.degree(v) == delta for v in range(n))
            table.rows.append(Row(
                params={"n": n, "delta": delta},
                values={"gen_ms": round(1000 * best, 1),
                        "edges": graph.num_edges},
            ))
    table.notes.append(
        "pure-Python pairing and conflict repair over one randbytes-keyed "
        "stable sort per step; output pinned by CSR hash"
    )
    return emit(table, "e10a_generator")


def build_trial_rounds_table():
    table = Table(title="E10b: randomized (deg+1)-list trial rounds to completion")
    for n in sizes([4096], [4096, 32768, 131072]):
        for delta in (4, 8):
            graph = random_regular_graph(n, delta, seed=2)
            best = float("inf")
            iterations = 0
            for _ in range(2):
                colors = [UNCOLORED] * n
                started = time.perf_counter()
                stats = list_coloring_random(
                    graph, colors, set(range(n)), delta + 1,
                    RoundLedger(), random.Random(3),
                )
                best = min(best, time.perf_counter() - started)
                iterations = stats.iterations
            validate_coloring(graph, colors, max_colors=delta + 1)
            table.rows.append(Row(
                params={"n": n, "delta": delta},
                values={"trials_ms": round(1000 * best, 1),
                        "rounds": iterations},
            ))
    table.notes.append(
        "one rng draw per round; proposals + conflict resolution run "
        "vectorized over the CSR buffers"
    )
    return emit(table, "e10b_trial_rounds")


def build_dcc_detection_table():
    table = Table(title="E10c: detect_dccs wall clock (rrg Δ=8, r=2)")
    for family, ns in (
        ("sparse", sizes([32768], [32768, 131072])),
        ("dense", sizes([1024], [1024, 4096])),
    ):
        for n in ns:
            graph = random_regular_graph(n, 8, seed=4)
            scratch = DCCScratch(n)
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                detection = detect_dccs(graph, 2, scratch=scratch)
                best = min(best, time.perf_counter() - started)
            table.rows.append(Row(
                params={"family": family, "n": n},
                values={"detect_ms": round(1000 * best, 2),
                        "dccs": len(detection.dccs)},
            ))
    table.notes.append(
        "kernel prefilter: balls are collected only for nodes on a cycle of "
        "length <= 2r+1, unless more than half the nodes are"
    )
    return emit(table, "e10c_dcc_detection")


def build_b0_table():
    table = Table(title="E10d: phase (9) on one B0 (rrg Δ=8, r=2)")
    for n in sizes([4096, 32768], [32768, 131072]):
        graph = random_regular_graph(n, 8, seed=5)
        dccs = detect_dccs(graph, 2).dccs
        chosen, _ = virtual_graph_ruling_set(
            graph, dccs, rounds_per_virtual=5, rng=random.Random(1)
        )
        components = [dccs[i] for i in chosen]
        colors = list(solve(graph, seed=1).colors)
        for v in {v for component in components for v in component}:
            colors[v] = UNCOLORED
        kernel_best = twin_best = float("inf")
        for _ in range(3):
            native_colors = list(colors)
            with ColorWorkspace(graph, native_colors, n) as work:
                started = time.perf_counter()
                handed_back = work.degree_list(components, 8)
                kernel_best = min(kernel_best, time.perf_counter() - started)
            twin_colors = list(colors)
            started = time.perf_counter()
            for component in components:
                color_against_outside(graph, twin_colors, component, 8)
            twin_best = min(twin_best, time.perf_counter() - started)
        assert native_colors == twin_colors
        validate_coloring(graph, twin_colors, max_colors=8)
        table.rows.append(Row(
            params={"n": n},
            values={"kernel_ms": round(1000 * kernel_best, 2),
                    "twin_ms": round(1000 * twin_best, 2),
                    "components": len(components),
                    "hand_backs": len(handed_back)},
        ))
    table.notes.append(
        "kernel_ms excludes the int32 mirror, which phase (9) shares with "
        "phase (8); without a compiler both columns run the twin"
    )
    return emit(table, "e10d_b0")


def build_ruling_set_table():
    table = Table(title="E10e: phase (2) virtual ruling set (rrg Δ=8, r=2)")
    for n in sizes([4096, 32768], [32768, 131072]):
        graph = random_regular_graph(n, 8, seed=5)
        dccs = detect_dccs(graph, 2).dccs
        kernel_best = twin_best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            chosen = virtual_graph_ruling_set(graph, dccs, 5, rng=random.Random(1))
            kernel_best = min(kernel_best, time.perf_counter() - started)
            started = time.perf_counter()
            twin = _ruling_set_python(graph, dccs, 5, RoundLedger(), random.Random(1), None)
            twin_best = min(twin_best, time.perf_counter() - started)
        assert chosen == twin
        table.rows.append(Row(
            params={"n": n},
            values={"kernel_ms": round(1000 * kernel_best, 2),
                    "twin_ms": round(1000 * twin_best, 2),
                    "dccs": len(dccs),
                    "iterations": chosen[1],
                    "chosen": len(chosen[0])},
        ))
    table.notes.append(
        "kernel_ms is the whole call (packing, one kernel call per Luby "
        "iteration); without a compiler both columns run the twin"
    )
    return emit(table, "e10e_ruling_set")


if __name__ == "__main__":
    build_generator_table()
    build_trial_rounds_table()
    build_dcc_detection_table()
    build_b0_table()
    build_ruling_set_table()
