"""Build-on-first-use loader for the solver's C kernel.

``kernel.c`` (next to this module) holds the native inner loops: DCC
detection (``dcc_detect``, all of phase (1), behind its prefilter
``short_cycles``), the two (deg+1)-list coloring engines' sweeps
(``class_sweep``, ``pending_nodes`` and ``trial_round``), phase (9)'s
degree-list instances in their surplus case (``degree_list_surplus``),
phase (4)'s selection and backoff (``marking_select``),
Linial's reduction round (``linial_round``), the multi-source level BFS
(``level_bfs``), coloring validation (``validate``), phase (5)'s
H-boundary (``h_boundary``), the edge listing (``edge_pairs``), the
sorted packed edge keys behind every graph fingerprint (``edge_keys``)
and the row tables a ``DynamicGraph`` adopts (``adopt_rows``).  It is
compiled by the system C compiler (``cc`` on ``PATH``) into one shared
object and called through :mod:`ctypes`; no numpy, scipy or cffi is
involved.  The object is cached under ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``) as ``kernel-<hash>.so``, the hash covering
the C source, the compiler path, the flags and the platform tag, so an
edit to any of them builds a new file.  A build writes a temporary name
and ``os.replace``-s it in, so concurrent first uses never load a
half-written file.  The cache is used only when the directory is owned
by the current user and is not group- or world-writable; otherwise the
kernel is built in a private ``mkdtemp()`` directory, loaded, and the
directory removed.

Every entry point binds or none does.  Any failure (no compiler, a
failed build, a refused cache, a failed ``dlopen``, a missing symbol)
leaves :func:`kernel` returning ``None`` for every name: each caller then
runs its pure-Python twin, which gives identical output.  The reason is
logged once per process as a warning and shown by ``python -m repro
info``.  A warmed cache costs one ``dlopen`` (≈0.2 ms) per process; a
build costs ≈0.35 s (gcc 12, 2-CPU box).

This module imports nothing from the rest of the package, so any layer
(``repro.core``, ``repro.primitives``) can use it without an import
cycle.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import stat
import subprocess
import sysconfig
import tempfile
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path

__all__ = ["ENTRY_POINTS", "KernelStatus", "address", "kernel", "kernel_status"]

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("kernel.c")
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")

_P, _I = ctypes.c_void_p, ctypes.c_int

#: Argument types of every entry point of ``kernel.c``, by name; each
#: returns a C ``int``.  The comments name the C parameters.
ENTRY_POINTS: dict[str, list] = {
    "dcc_detect": [
        _P, _P, _I, _I,  # offsets, indices, n, radius
        _P, _P, _I, _I, _P,  # active, nodes, count, start, cyclic
        _P, _P, _P, _P, _I,  # mask, zeroed, work, selected_by, base
        _P, _I, _P, _I,  # sizes, size_cap, members, member_cap
        ctypes.POINTER(_I),  # emitted
    ],
    "class_sweep": [
        _P, _P, _I, _P,  # offsets, indices, n, colors
        _I, _P, _I,  # max_colors, base, palette
        _P, _P, _I,  # nodes, ends, layers
        _P, _P, ctypes.POINTER(_I),  # order, worn, failure
    ],
    "pending_nodes": [_P, _I, _P, _I],  # colors, n, nodes, count
    "trial_round": [
        _P, _P, _P, _I,  # offsets, indices, colors, max_colors
        _P, _I, _P,  # live, count, keys
        _P, _P,  # props, worn
    ],
    "linial_round": [
        _P, _P, _I, _P,  # offsets, indices, n, colors
        _I, _I, _P, _P,  # d, q, out, digits
    ],
    "level_bfs": [
        _P, _P, _I,  # offsets, indices, n
        _P, _I, _I, _P,  # sources, count, max_depth, allowed
        _P, _P, _P, _I,  # dist, order, ends, sorted
    ],
    "validate": [
        _P, _P, _I, _P,  # offsets, indices, n, colors
        _I, _I,  # max_colors, allow_partial
    ],
    "h_boundary": [
        _P, _P, _I,  # offsets, indices, n
        _P, _P, _I, _I, _P,  # mask, nodes, count, delta, out
    ],
    "edge_pairs": [_P, _P, _I, _P, _I],  # offsets, indices, n, pairs, cap
    "edge_keys": [_P, _I, ctypes.c_longlong, _P, _P],  # pairs, m, n, keys, scratch
    "adopt_rows": [_P, _I, _P, _P, _P, _I],  # offsets, n, starts, lens, hist, cap
    "short_cycles": [
        _P, _P, _I, _I,  # offsets, indices, n, radius
        _P, _P, _I,  # active, nodes, count
        _P, _P, _P, _P,  # mask, zeroed, work, cyclic
    ],
    "degree_list_surplus": [
        _P, _P, _I, _P, _I,  # offsets, indices, n, colors, max_colors
        _P, _P, _I, _I,  # members, ends, count, start
        _P, _P, _P,  # local, work, worn
    ],
    "marking_select": [
        _P, _P, _I, _P,  # offsets, indices, n, colors
        _P, _I, _P, ctypes.c_double, _I,  # nodes, count, block, p, backoff
        _P, _P, _P, ctypes.POINTER(_I),  # mask, queue, out, selected
    ],
}


@dataclass(frozen=True)
class KernelStatus:
    """Outcome of loading the kernel: every bound entry point by name
    (empty when it did not load) or why not."""

    functions: dict[str, object]
    path: str | None
    reason: str | None

    def describe(self) -> str:
        if self.functions:
            note = f"; {self.reason}" if self.reason else ""
            names = ", ".join(self.functions)
            return f"native kernel loaded ({self.path}{note}): {names}"
        return f"native kernel not loaded ({self.reason}); pure-Python path"


_status: KernelStatus | None = None
_status_lock = threading.Lock()


def kernel(name: str):
    """The bound ctypes entry point ``name`` of ``kernel.c``, or ``None``
    when the kernel did not load (the caller runs its Python twin)."""
    return kernel_status().functions.get(name)


def address(buffer: array) -> int:
    """The address of an ``array``'s first item, to pass as a pointer
    (valid while the array lives and is not resized)."""
    return buffer.buffer_info()[0]


def kernel_status() -> KernelStatus:
    """Load the kernel once per process; warn once if it cannot be."""
    global _status
    with _status_lock:
        if _status is None:
            _status = load(shutil.which("cc"), _cache_root())
            if _status.reason is not None:
                log.warning("native kernel: %s", _status.reason)
        return _status


def _cache_root() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


class _Refused(Exception):
    pass


def _private_dir(path: Path) -> None:
    """Create ``path`` (0700) and refuse it unless this user alone can
    write to it."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = os.lstat(path)
    except OSError as error:
        raise _Refused(f"cache dir {path} unusable: {error}") from error
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid():
        raise _Refused(f"cache dir {path} is not a directory owned by this user")
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise _Refused(f"cache dir {path} is group- or world-writable")


def load(compiler: str | None, root: Path) -> KernelStatus:
    """Find or build the shared object for ``compiler`` under ``root``
    and bind every entry point.  ``reason`` is set on failure, and also
    when the kernel loaded from a private build because ``root`` was
    refused."""
    if compiler is None:
        return _failed("no C compiler (cc) on PATH")
    try:
        source = SOURCE.read_bytes()
    except OSError as error:
        return _failed(f"kernel source unreadable: {error}")
    digest = hashlib.sha256(
        b"\0".join(
            [source, compiler.encode(), " ".join(FLAGS).encode(),
             sysconfig.get_platform().encode()]
        )
    ).hexdigest()[:16]
    name = f"kernel-{digest}.so"
    try:
        _private_dir(root)
    except _Refused as refused:
        private = tempfile.mkdtemp(prefix="repro-kernel-")
        try:
            status = _build_and_bind(compiler, Path(private) / name)
        finally:
            shutil.rmtree(private, ignore_errors=True)
        note = f"{refused}; built privately for this process"
        if not status.functions:
            note = f"{refused}; private build failed: {status.reason}"
        return KernelStatus(status.functions, status.path, note)
    return _build_and_bind(compiler, root / name)


def _build_and_bind(compiler: str, target: Path) -> KernelStatus:
    if not target.exists():
        fd, temp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
        os.close(fd)
        try:
            done = subprocess.run(
                [compiler, *FLAGS, "-o", temp, str(SOURCE)],
                capture_output=True, text=True, timeout=120,
            )
            if done.returncode != 0:
                detail = (done.stderr.strip().splitlines() or ["no output"])[-1]
                return _failed(f"{compiler} failed ({done.returncode}): {detail}")
            os.replace(temp, target)
        except (OSError, subprocess.SubprocessError) as error:
            return _failed(f"building with {compiler} failed: {error}")
        finally:
            if os.path.exists(temp):
                os.unlink(temp)
    try:
        info = os.lstat(target)
        if info.st_uid != os.getuid() or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
            return _failed(f"{target} is writable by other users")
        library = ctypes.CDLL(str(target))
        functions = {name: getattr(library, name) for name in ENTRY_POINTS}
    except (OSError, AttributeError) as error:
        return _failed(f"loading {target} failed: {error}")
    for name, function in functions.items():
        function.restype = ctypes.c_int
        function.argtypes = ENTRY_POINTS[name]
    return KernelStatus(functions, str(target), None)


def _failed(reason: str) -> KernelStatus:
    return KernelStatus({}, None, reason)
