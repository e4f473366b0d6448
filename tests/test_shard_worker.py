"""ShardWorker / ShardSupervisor process-lifecycle tests.

The policy pieces (argv construction, backoff schedule, restart budget)
are tested without spawning anything; one class then exercises the real
thing — ``python -m repro serve`` children booted through the port-file
handshake, killed mid-run, and restarted by the supervisor's monitor
loop.
"""

from __future__ import annotations

import asyncio
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ShardFailedError
from repro.graphs.generators import random_regular_graph
from repro.service import ColoringClient, ShardSupervisor, ShardWorker


class TestPolicyWithoutProcesses:
    def test_command_construction(self):
        worker = ShardWorker(
            "shard-3", host="10.0.0.1", serve_args={"max-queue": 16, "max-batch": 2}
        )
        try:
            cmd = worker.command(Path("/tmp/pf"))
            assert cmd[:4] == [sys.executable, "-m", "repro", "serve"]
            assert cmd[cmd.index("--host") + 1] == "10.0.0.1"
            assert cmd[cmd.index("--port") + 1] == "0"
            assert cmd[cmd.index("--port-file") + 1] == "/tmp/pf"
            assert cmd[cmd.index("--max-queue") + 1] == "16"
            assert cmd[cmd.index("--max-batch") + 1] == "2"
        finally:
            worker.close()

    def test_backoff_doubles_and_caps(self):
        worker = ShardWorker(
            "shard-0", backoff_base_s=0.25, backoff_cap_s=5.0
        )
        try:
            observed = []
            for _ in range(6):
                observed.append(worker.next_backoff_s())
                worker._consecutive_restarts += 1
            assert observed == [0.25, 0.5, 1.0, 2.0, 4.0, 5.0]
            worker.note_healthy()
            assert worker.next_backoff_s() == 0.25
        finally:
            worker.close()

    def test_restart_budget_marks_worker_failed(self):
        worker = ShardWorker(
            "shard-0", max_restarts=3, restart_window_s=60.0,
            backoff_base_s=0.0,
        )
        # stub out the process work: only the budget logic runs
        worker.start = lambda: ("127.0.0.1", 1)  # type: ignore[method-assign]
        worker.stop = lambda deadline_s=5.0: None  # type: ignore[method-assign]
        try:
            for _ in range(3):
                assert worker.restart() == ("127.0.0.1", 1)
            with pytest.raises(ShardFailedError):
                worker.restart()
            assert worker.failed
            # a failed worker refuses further restarts immediately
            with pytest.raises(ShardFailedError):
                worker.restart()
        finally:
            worker._tmpdir.cleanup()

    def test_restart_budget_window_slides(self):
        worker = ShardWorker("shard-0", max_restarts=2, restart_window_s=0.05)
        worker.start = lambda: ("127.0.0.1", 1)  # type: ignore[method-assign]
        worker.stop = lambda deadline_s=5.0: None  # type: ignore[method-assign]
        try:
            worker.restart()
            worker.restart()
            time.sleep(0.06)  # the earlier restarts age out of the window
            worker.restart()
            assert not worker.failed
        finally:
            worker._tmpdir.cleanup()

    def test_supervisor_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardSupervisor(0)
        with pytest.raises(ValueError):
            ShardSupervisor([])


class TestRealProcesses:
    """Spawns real ``repro serve`` children (a few seconds each)."""

    def test_worker_boot_failure_is_typed_and_reaped(self):
        class Doomed(ShardWorker):
            def command(self, port_file):
                return [sys.executable, "-c", "import sys; sys.exit(3)"]

        worker = Doomed("shard-0", boot_timeout_s=20.0)
        try:
            with pytest.raises(ShardFailedError, match="exited with code 3"):
                worker.start()
            assert not worker.alive()
        finally:
            worker.close()

    def test_fleet_serves_and_survives_a_kill(self):
        graph = random_regular_graph(32, 3, seed=0)
        supervisor = ShardSupervisor(
            1,
            poll_interval_s=0.05,
            boot_timeout_s=60.0,
            backoff_base_s=0.0,
        )

        class RouterSpy:
            def __init__(self):
                self.updates = []

            def update_shard(self, index, address):
                self.updates.append((index, address))

        spy = RouterSpy()

        async def drive():
            loop = asyncio.get_running_loop()
            addresses = await loop.run_in_executor(None, supervisor.start)
            worker = supervisor.workers[0]
            host, port = addresses[0]

            def solve_once(h, p):
                with ColoringClient(h, p, timeout=30.0) as client:
                    assert client.ping()
                    return client.solve(graph, seed=1)

            first = await loop.run_in_executor(None, solve_once, host, port)
            assert first.result.palette >= 1
            assert worker.ping()

            stop = asyncio.Event()
            monitor = loop.create_task(supervisor.monitor(spy, stop=stop))
            try:
                # murder the child; the monitor must bring it back
                worker.process.kill()
                deadline = time.monotonic() + 60.0
                # the router push is the last step of a restart — once
                # the spy hears it, the whole cycle completed
                while time.monotonic() < deadline and not spy.updates:
                    await asyncio.sleep(0.05)
                assert spy.updates and spy.updates[-1][0] == 0
                assert worker.restarts >= 1 and worker.alive()
                new_host, new_port = spy.updates[-1][1]
                again = await loop.run_in_executor(
                    None, solve_once, new_host, new_port
                )
                # fresh process, cold cache — same request still served
                assert not again.cached
                assert again.fingerprint == first.fingerprint
            finally:
                stop.set()
                await monitor

        try:
            asyncio.run(drive())
        finally:
            supervisor.stop(drain_s=2.0)

    def test_sigterm_drains_to_clean_exit(self):
        supervisor = ShardSupervisor(
            1, boot_timeout_s=60.0
        )
        try:
            supervisor.start()
            worker = supervisor.workers[0]
            process = worker.process
            worker.stop(deadline_s=10.0)
            # SIGTERM → graceful drain → clean exit, not a kill
            assert process.returncode == 0
        finally:
            supervisor.stop(drain_s=2.0)
