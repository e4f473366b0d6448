"""Build-on-first-use loader for the C kernel of DCC detection.

``dcc_kernel.c`` (next to this module) runs all of phase (1): ball,
peel, block selection and adoption.  It is compiled by the system C
compiler (``cc`` on ``PATH``) into a shared object and called through
:mod:`ctypes`; no numpy, scipy or cffi is involved.  The object is cached
under ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``) as
``dcc_kernel-<hash>.so``, the hash covering the C source, the compiler
path, the flags and the platform tag, so an edit to any of them builds a
new file.  A build writes a temporary name and ``os.replace``-s it in, so
concurrent first uses never load a half-written file.  The cache is used
only when the directory is owned by the current user and is not group-
or world-writable; otherwise the kernel is built in a private
``mkdtemp()`` directory, loaded, and the directory removed.

Any failure (no compiler, a failed build, a refused cache, a failed
``dlopen``) leaves :func:`dcc_kernel` returning ``None``: detection then
runs its pure-Python twin, which gives identical output.  The reason is
logged once per process as a warning and shown by ``python -m repro
info``.  A warmed cache costs one ``dlopen`` (≈0.2 ms) per process; a
build costs ≈0.1 s.
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
from dataclasses import dataclass
from pathlib import Path

__all__ = ["KernelStatus", "dcc_kernel", "kernel_status"]

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("dcc_kernel.c")
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")


@dataclass(frozen=True)
class KernelStatus:
    """Outcome of loading the kernel: the bound function or why not."""

    function: object | None
    path: str | None
    reason: str | None

    def describe(self) -> str:
        if self.function is not None:
            note = f"; {self.reason}" if self.reason else ""
            return f"native kernel loaded ({self.path}{note})"
        return f"native kernel not loaded ({self.reason}); pure-Python path"


_status: KernelStatus | None = None
_status_lock = threading.Lock()


def dcc_kernel():
    """The ctypes ``dcc_detect`` function, or ``None`` (Python path)."""
    return kernel_status().function


def kernel_status() -> KernelStatus:
    """Load the kernel once per process; warn once if it cannot be."""
    global _status
    with _status_lock:
        if _status is None:
            _status = load(shutil.which("cc"), _cache_root())
            if _status.reason is not None:
                log.warning("dcc detection: %s", _status.reason)
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
    and bind ``dcc_detect``.  ``reason`` is set on failure, and also when
    the kernel loaded from a private build because ``root`` was refused."""
    if compiler is None:
        return KernelStatus(None, None, "no C compiler (cc) on PATH")
    try:
        source = SOURCE.read_bytes()
    except OSError as error:
        return KernelStatus(None, None, f"kernel source unreadable: {error}")
    digest = hashlib.sha256(
        b"\0".join(
            [source, compiler.encode(), " ".join(FLAGS).encode(),
             sysconfig.get_platform().encode()]
        )
    ).hexdigest()[:16]
    name = f"dcc_kernel-{digest}.so"
    try:
        _private_dir(root)
    except _Refused as refused:
        private = tempfile.mkdtemp(prefix="repro-kernel-")
        try:
            status = _build_and_bind(compiler, Path(private) / name)
        finally:
            shutil.rmtree(private, ignore_errors=True)
        note = f"{refused}; built privately for this process"
        if status.function is None:
            note = f"{refused}; private build failed: {status.reason}"
        return KernelStatus(status.function, status.path, note)
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
                return KernelStatus(
                    None, None, f"{compiler} failed ({done.returncode}): {detail}"
                )
            os.replace(temp, target)
        except (OSError, subprocess.SubprocessError) as error:
            return KernelStatus(None, None, f"building with {compiler} failed: {error}")
        finally:
            if os.path.exists(temp):
                os.unlink(temp)
    try:
        info = os.lstat(target)
        if info.st_uid != os.getuid() or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
            return KernelStatus(None, None, f"{target} is writable by other users")
        function = ctypes.CDLL(str(target)).dcc_detect
    except (OSError, AttributeError) as error:
        return KernelStatus(None, None, f"loading {target} failed: {error}")
    function.restype = ctypes.c_int
    pointer, integer = ctypes.c_void_p, ctypes.c_int
    function.argtypes = [
        pointer, pointer, integer, integer,  # offsets, indices, n, radius
        pointer, pointer, integer, integer,  # active, nodes, count, start
        pointer, pointer, pointer, pointer, integer,  # mask, zeroed, work, selected_by, base
        pointer, integer, pointer, integer,  # sizes, size_cap, members, member_cap
        ctypes.POINTER(ctypes.c_int),  # emitted
    ]
    return KernelStatus(function, str(target), None)
