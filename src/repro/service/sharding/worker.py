"""One shard = today's single-process server, run as a supervised child.

:class:`ShardWorker` wraps ``python -m repro serve`` (the full
:class:`repro.service.server.ColoringServer` + gateway stack, untouched)
in a child process and owns its lifecycle:

* **spawn** — the child binds an ephemeral port and publishes it through
  a ``--port-file`` handshake (the parent polls the file while checking
  the process is still alive, so a crash during boot fails fast instead
  of hanging the fleet bring-up);
* **health** — :meth:`alive` is the cheap process-level check (used by
  the supervisor's poll loop), :meth:`ping` a real protocol round-trip;
* **restart with bounded backoff** — consecutive restarts back off
  exponentially (``backoff_base_s * 2^k``, capped), and more than
  ``max_restarts`` restarts within ``restart_window_s`` marks the worker
  failed (:class:`repro.errors.ShardFailedError`) instead of
  crash-looping; a worker that stays up resets the backoff.

The worker keeps its stable ``shard_id`` across restarts, so its hash
ring arc — and therefore the digest keyspace it caches — survives the
restart.  Without a durable store the cache is lost with the process
(content-addressed keys mean it simply re-warms); with a fleet
``store-dir`` the worker rewrites it to ``<store-dir>/<shard_id>`` —
each shard persists exactly its ≈1/N keyspace partition, and a restarted
replacement replays its predecessor's store instead of re-solving (see
docs/STORAGE.md).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ServiceProtocolError, ShardFailedError

__all__ = ["ShardWorker"]


def _repro_src_root() -> str:
    """The directory to put on the child's PYTHONPATH (…/src)."""
    import repro

    return str(Path(repro.__file__).resolve().parents[1])


class ShardWorker:
    """A supervised ``repro serve`` child process.

    Parameters
    ----------
    shard_id:
        Stable name (``"shard-0"``, …); determines the ring arc.
    host:
        Interface the child binds (always with ``--port 0``; the real
        port arrives through the port file).
    serve_args:
        Extra ``repro serve`` flags as a ``{"max-queue": 16, ...}``
        mapping (dashes as in the CLI; values stringified).
    boot_timeout_s:
        How long one spawn may take to publish its port.
    max_restarts / restart_window_s:
        The restart budget: more than ``max_restarts`` restarts within
        the trailing window raises :class:`ShardFailedError`.
    backoff_base_s / backoff_cap_s:
        Exponential-backoff schedule for consecutive restarts.
    """

    def __init__(
        self,
        shard_id: str,
        *,
        host: str = "127.0.0.1",
        serve_args: Mapping[str, Any] | None = None,
        boot_timeout_s: float = 30.0,
        max_restarts: int = 5,
        restart_window_s: float = 60.0,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 5.0,
    ):
        self.shard_id = str(shard_id)
        self.host = host
        self.port: int | None = None
        self.serve_args = dict(serve_args or {})
        self.boot_timeout_s = boot_timeout_s
        self.max_restarts = max_restarts
        self.restart_window_s = restart_window_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.process: subprocess.Popen | None = None
        self.restarts = 0
        self.failed = False
        self._restart_times: list[float] = []
        self._consecutive_restarts = 0
        self._spawn_count = 0
        self._tmpdir = tempfile.TemporaryDirectory(prefix=f"repro-{self.shard_id}-")

    # -- lifecycle ---------------------------------------------------------

    def command(self, port_file: Path) -> list[str]:
        """The child's argv (exposed for tests)."""
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host,
            "--port", "0",
            "--port-file", str(port_file),
        ]
        for flag, value in self.serve_args.items():
            if flag == "store-dir":
                # Per-shard partition of the fleet store directory: the
                # stable shard_id makes it survive restarts (and keeps
                # single-writer journals single-writer).
                value = str(Path(value) / self.shard_id)
            cmd.extend([f"--{flag}", str(value)])
        return cmd

    def start(self) -> tuple[str, int]:
        """Spawn the child and wait for its port handshake.

        Returns the bound ``(host, port)``.  Raises
        :class:`ShardFailedError` if the child dies or stays silent past
        ``boot_timeout_s`` (the corpse is reaped either way).
        """
        if self.failed:
            raise ShardFailedError(
                f"{self.shard_id} exhausted its restart budget "
                f"({self.max_restarts} within {self.restart_window_s:g}s)"
            )
        self._spawn_count += 1
        # A fresh file per spawn: a stale port published by the previous
        # incarnation must never be mistaken for the new one's.
        port_file = Path(self._tmpdir.name) / f"port-{self._spawn_count}"
        env = dict(os.environ)
        src_root = _repro_src_root()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else os.pathsep.join([src_root, existing])
        )
        self.process = subprocess.Popen(
            self.command(port_file),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        deadline = time.monotonic() + self.boot_timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise ShardFailedError(
                    f"{self.shard_id} exited with code "
                    f"{self.process.returncode} before publishing its port"
                )
            try:
                text = port_file.read_text()
            except OSError:
                text = ""
            if text.endswith("\n"):  # the child writes atomically-enough: one line
                host, port = text.split()
                self.port = int(port)
                self.host = host
                return self.host, self.port
            time.sleep(0.01)
        self.stop(deadline_s=1.0)
        raise ShardFailedError(
            f"{self.shard_id} did not publish a port within "
            f"{self.boot_timeout_s:g}s"
        )

    def alive(self) -> bool:
        """Process-level liveness (no I/O)."""
        return self.process is not None and self.process.poll() is None

    def ping(self, timeout_s: float = 2.0) -> bool:
        """Protocol-level health check: one ``ping`` round-trip.  A refused,
        timed-out, dropped or garbled exchange is ``False``."""
        if not self.alive() or self.port is None:
            return False
        from repro.service.client import ColoringClient

        try:
            with ColoringClient(self.host, self.port, timeout=timeout_s) as client:
                return client.ping()
        except (OSError, ServiceProtocolError):
            return False

    # -- restart policy ----------------------------------------------------

    def next_backoff_s(self) -> float:
        """Delay before the *next* restart attempt (consecutive-crash
        exponential, capped)."""
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * (2 ** self._consecutive_restarts),
        )

    def note_healthy(self) -> None:
        """The worker has been observed healthy: reset the consecutive-
        crash backoff (the windowed restart budget still applies)."""
        self._consecutive_restarts = 0

    def restart(self) -> tuple[str, int]:
        """Reap the dead child and spawn a fresh one under the budget.

        Raises :class:`ShardFailedError` (and marks the worker failed)
        when the trailing-window budget is exhausted — a crash-looping
        shard must degrade to an unavailable arc, not eat the host.
        """
        now = time.monotonic()
        self._restart_times = [
            t for t in self._restart_times if now - t < self.restart_window_s
        ]
        if len(self._restart_times) >= self.max_restarts:
            self.failed = True
            raise ShardFailedError(
                f"{self.shard_id} exhausted its restart budget "
                f"({self.max_restarts} within {self.restart_window_s:g}s)"
            )
        self._restart_times.append(now)
        self.restarts += 1
        self._consecutive_restarts += 1
        if self.process is not None and self.process.poll() is None:
            self.stop(deadline_s=2.0)
        return self.start()

    def stop(self, deadline_s: float = 5.0) -> None:
        """Terminate the child: SIGTERM (which the serve loop turns into
        a graceful drain), then SIGKILL past the deadline."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=max(0.1, deadline_s))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)

    def close(self) -> None:
        """Stop the child and release the port-file scratch directory."""
        self.stop()
        self._tmpdir.cleanup()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = (
            "failed" if self.failed
            else "up" if self.alive()
            else "down"
        )
        return (
            f"ShardWorker({self.shard_id}, {self.host}:{self.port}, "
            f"{state}, restarts={self.restarts})"
        )
