"""Round accounting for the LOCAL model.

The complexity measure of everything in the paper is the number of
synchronous communication rounds.  Every algorithm in this package charges
its rounds to a :class:`RoundLedger`, which supports *phases* mirroring the
paper's own cost decomposition (phases (1)-(9) of the randomized algorithm,
the steps of the deterministic one, ...), so that benchmark tables can
report exactly the terms the theorems bound.

Two charging styles coexist, both exact LOCAL semantics:

* per-round loops (``charge(1)`` per iteration of Luby/Ghaffari/Linial), and
* ball collection (``charge(r)`` for "gather the radius-r neighbourhood and
  decide locally" — messages are unbounded in LOCAL, so collecting a ball
  of radius r costs exactly r rounds).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

__all__ = ["RoundLedger", "PhaseBreakdown", "EngineRun"]


@dataclass
class PhaseBreakdown:
    """Per-phase round totals, in first-charged order."""

    phases: dict[str, int] = field(default_factory=dict)

    def add(self, phase: str, rounds: int) -> None:
        self.phases[phase] = self.phases.get(phase, 0) + rounds

    def total(self) -> int:
        return sum(self.phases.values())

    def as_table(self) -> str:
        """Human-readable phase table used by examples and benchmarks."""
        if not self.phases:
            return "(no rounds charged)"
        width = max(len(name) for name in self.phases)
        lines = [f"{name:<{width}}  {rounds:>8}" for name, rounds in self.phases.items()]
        lines.append(f"{'TOTAL':<{width}}  {self.total():>8}")
        return "\n".join(lines)


class RoundLedger:
    """Accumulates LOCAL rounds, attributed to nested phases.

    Usage::

        ledger = RoundLedger()
        with ledger.phase("1:dcc-detection"):
            ledger.charge(2 * r)          # collect radius-2r balls
        with ledger.phase("4:marking"):
            ledger.charge(1)              # one exchange
        ledger.total_rounds               # -> 2*r + 1

    Phases nest; rounds are attributed to the innermost phase name joined
    with ``/``.  Parallel composition (phases that the paper runs on
    disjoint node sets simultaneously) can be expressed with
    :meth:`charge_max`, which records the maximum of several candidate
    costs — LOCAL rounds are global, so independent regional procedures run
    concurrently and cost their maximum, not their sum.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.total_rounds = 0
        self.breakdown = PhaseBreakdown()
        self._stack: list[str] = []
        self._clock = clock
        self._wall: dict[str, float] = {}

    # -- phase management --------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Context manager attributing charges to ``name`` (nestable).

        Also accumulates the phase's wall-clock seconds, keyed by the same
        ``/``-joined name the round breakdown uses — the source of the
        reserved ``wall_s`` entries in ``ColoringResult.phase_stats``.
        """
        self._stack.append(name)
        joined = self._current_phase()
        started = self._clock()
        try:
            yield self
        finally:
            elapsed = self._clock() - started
            self._wall[joined] = self._wall.get(joined, 0.0) + elapsed
            self._stack.pop()

    def _current_phase(self) -> str:
        return "/".join(self._stack) if self._stack else "(toplevel)"

    # -- charging ----------------------------------------------------------

    def charge(self, rounds: int) -> None:
        """Charge ``rounds`` synchronous rounds to the current phase."""
        if rounds < 0:
            raise ValueError(f"cannot charge negative rounds: {rounds}")
        self.total_rounds += rounds
        self.breakdown.add(self._current_phase(), rounds)

    def charge_max(self, candidate_rounds: list[int]) -> None:
        """Charge the maximum of several concurrent regional costs.

        Used when disjoint regions run local procedures in parallel (e.g.
        phase (9) brute-forces all base-layer components independently):
        the global round cost is the slowest region.
        """
        if candidate_rounds:
            self.charge(max(candidate_rounds))

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """Copy of the per-phase totals."""
        return dict(self.breakdown.phases)

    def wall_snapshot(self) -> dict[str, float]:
        """Per-phase wall-clock seconds, keyed like :meth:`snapshot`.

        A nested phase's time is counted under its own joined name only;
        the enclosing phase's entry includes it (wall time, unlike rounds,
        is measured around the ``with`` block rather than charged once).
        """
        return dict(self._wall)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RoundLedger(total={self.total_rounds})"


@dataclass
class EngineRun:
    """What one engine run hands back to the solver facade.

    Every registered engine returns one; :func:`repro.api.solve` checks
    it (proper coloring within ``palette`` colors) and packs it into the
    public :class:`repro.api.ColoringResult`.
    """

    algorithm: str
    colors: list[int]
    delta: int
    palette: int
    rounds: int
    phase_rounds: dict[str, int] = field(default_factory=dict)
    phase_stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)
    seed_used: int | None = None

    @classmethod
    def from_ledger(
        cls,
        algorithm: str,
        colors: list[int],
        delta: int,
        ledger: RoundLedger,
        stats: dict[str, Any],
        phase_keys: dict[str, tuple[str, ...]],
        seed_used: int | None = None,
    ) -> "EngineRun":
        """A Δ-palette run whose rounds, phase rounds and phase walls
        come from ``ledger``.

        ``phase_keys`` names the stats keys each phase produced; they are
        copied into that phase's ``phase_stats`` entry.  Each phase's
        wall-clock seconds land under the reserved ``wall_s`` key, and
        nested ledger phases absent from ``phase_keys`` get an entry of
        their own, so the timing decomposition is complete even where no
        stats were attributed.  ``wall_s`` is stripped from content
        digests, so two runs of equal coloring content stay digest-equal
        across machines.
        """
        phase_stats = {
            phase: {k: stats[k] for k in keys if k in stats}
            for phase, keys in phase_keys.items()
        }
        for phase, wall in ledger.wall_snapshot().items():
            phase_stats.setdefault(phase, {})["wall_s"] = round(wall, 6)
        return cls(
            algorithm=algorithm,
            colors=colors,
            delta=delta,
            palette=delta,
            rounds=ledger.total_rounds,
            phase_rounds=ledger.snapshot(),
            phase_stats=phase_stats,
            stats=stats,
            seed_used=seed_used,
        )
