"""The native kernel's loader: cache, refusals and typed, visible
fallbacks.

Every way the kernel can fail to load — no compiler, a compiler that
fails, a cache directory other users can write to — must leave solver
output unchanged (the Python twins run), log one warning per process,
and show up in ``python -m repro info``.  A load binds every entry point
or none.
"""

from __future__ import annotations

import logging
import os
import shutil

import pytest

import repro.core.dcc as dcc_mod
from repro.api import solve
from repro.cli import main
from repro import native
from repro.graphs.generators import torus_grid

CC = shutil.which("cc")
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler on this box")


def test_missing_compiler_is_reported(tmp_path):
    status = native.load(None, tmp_path / "cache")
    assert status.functions == {}
    assert "no C compiler" in status.reason
    assert "not loaded" in status.describe()


def test_bogus_compiler_is_reported(tmp_path):
    status = native.load(str(tmp_path / "no-such-cc"), tmp_path / "cache")
    assert status.functions == {}
    assert "failed" in status.reason
    assert not list((tmp_path / "cache").iterdir())  # no temp file left behind


def test_failing_compiler_is_reported(tmp_path):
    compiler = tmp_path / "cc"
    compiler.write_text("#!/bin/sh\necho 'cc: fatal error: boom' >&2\nexit 1\n")
    compiler.chmod(0o755)
    status = native.load(str(compiler), tmp_path / "cache")
    assert status.functions == {}
    assert "failed (1): cc: fatal error: boom" in status.reason
    assert not list((tmp_path / "cache").iterdir())


@needs_cc
def test_cache_is_built_once_then_reused(tmp_path):
    root = tmp_path / "cache"
    first = native.load(CC, root)
    assert set(first.functions) == set(native.ENTRY_POINTS) and first.reason is None
    assert os.stat(root).st_mode & 0o777 == 0o700
    (built,) = root.iterdir()
    assert built.name.startswith("kernel-") and built.suffix == ".so"
    stamp = built.stat().st_mtime_ns
    second = native.load(CC, root)
    assert second.path == first.path and built.stat().st_mtime_ns == stamp


@needs_cc
def test_group_writable_cache_dir_is_refused(tmp_path):
    root = tmp_path / "shared"
    root.mkdir()
    root.chmod(0o775)
    status = native.load(CC, root)
    assert "group- or world-writable" in status.reason
    # Built privately instead: it still loads, and nothing lands in root.
    assert set(status.functions) == set(native.ENTRY_POINTS)
    assert not os.path.exists(status.path)
    assert not list(root.iterdir())


@needs_cc
def test_cached_object_writable_by_others_is_refused(tmp_path):
    root = tmp_path / "cache"
    built = native.load(CC, root).path
    os.chmod(built, 0o666)
    status = native.load(CC, root)
    assert status.functions == {}
    assert "writable by other users" in status.reason


def test_fallback_is_identical_and_warns_once(tmp_path, monkeypatch, caplog, capsys):
    graph = torus_grid(12, 14)
    expected = dcc_mod.detect_dccs(graph, 3)
    solved = {
        name: solve(graph, algorithm=name, seed=3).content_digest()
        for name in ("randomized-small", "randomized-large", "deterministic", "ps")
    }
    monkeypatch.setattr(native, "_status", None)
    monkeypatch.setenv("PATH", str(tmp_path))  # no cc
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        first = dcc_mod.detect_dccs(graph, 3)
        second = dcc_mod.detect_dccs(graph, 3, active=set(range(graph.n)))
        for name, digest in solved.items():
            assert solve(graph, algorithm=name, seed=3).content_digest() == digest
    for got in (first, second):
        assert got.dccs == expected.dccs
        assert got.selected_by == expected.selected_by
        assert got.nodes_in_dccs == expected.nodes_in_dccs
    warnings = [r for r in caplog.records if r.name == native.__name__]
    assert len(warnings) == 1
    assert "no C compiler" in warnings[0].getMessage()
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n")
    assert main(["info", str(edges)]) == 0
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("native kernel")]
    assert "not loaded (no C compiler (cc) on PATH)" in line


@needs_cc
def test_info_names_the_loaded_kernel(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(native, "_status", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n")
    assert main(["info", str(edges)]) == 0
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("native kernel")]
    assert f"loaded ({tmp_path / 'repro'}" in line
    assert line.endswith(": " + ", ".join(native.ENTRY_POINTS))


@needs_cc
def test_missing_entry_point_binds_nothing(tmp_path, monkeypatch):
    # An object that lacks one entry point must not load half-way: every
    # caller then runs its twin, never a mix of old and new kernels.
    source = tmp_path / "kernel.c"
    source.write_text("int dcc_detect(void) { return 0; }\n")
    monkeypatch.setattr(native, "SOURCE", source)
    status = native.load(CC, tmp_path / "cache")
    assert status.functions == {}
    assert "class_sweep" in status.reason
