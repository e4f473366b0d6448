"""Round accounting for the LOCAL model.

The complexity measure of everything in the paper is the number of
synchronous communication rounds.  Every algorithm in this package charges
its rounds to a :class:`RoundLedger`, which supports *phases* mirroring the
paper's own cost decomposition (phases (1)-(9) of the randomized algorithm,
the steps of the deterministic one, ...), so that benchmark tables can
report exactly the terms the theorems bound.

Two charging styles coexist, both exact LOCAL semantics:

* per-round loops (``charge(1)`` per iteration of Luby/Linial), and
* ball collection (``charge(r)`` for "gather the radius-r neighbourhood and
  decide locally" — messages are unbounded in LOCAL, so collecting a ball
  of radius r costs exactly r rounds).

An engine is a list of :data:`Phase` entries over a
:class:`PipelineState`, run by :func:`run_phases`.
"""

from __future__ import annotations

import copy
import random
import time
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED

__all__ = ["RoundLedger", "PhaseBreakdown", "EngineRun", "Phase", "PipelineState", "run_phases"]


@dataclass
class PhaseBreakdown:
    """Per-phase round totals, in first-charged order."""

    phases: dict[str, int] = field(default_factory=dict)

    def add(self, phase: str, rounds: int) -> None:
        self.phases[phase] = self.phases.get(phase, 0) + rounds

    def total(self) -> int:
        return sum(self.phases.values())


class RoundLedger:
    """Accumulates LOCAL rounds, attributed to nested phases.

    An engine's phases are opened by :func:`run_phases`, one ledger
    phase per pipeline phase, and the update ladder's by
    :meth:`repro.core.incremental.UpdateOutcome.rung`, one per rung;
    inside it, a phase that collects radius-2r balls calls
    ``ledger.charge(2 * r)`` and one exchange costs ``ledger.charge(1)``.

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
    def from_state(
        cls,
        algorithm: str,
        state: PipelineState,
        seed_used: int | None = None,
        *,
        palette: int | None = None,
        stats: dict[str, Any] | None = None,
    ) -> EngineRun:
        """The run of the phases :func:`run_phases` ran on ``state``.

        Rounds come from its ledger.  Each phase's ``phase_stats`` entry is
        the stats it returned plus its wall seconds under the reserved
        ``wall_s`` key (stripped from content digests); ``stats`` merges
        the returned stats in phase order, then ``stats``.  The palette
        is Δ unless ``palette`` says otherwise.
        """
        walls = state.ledger.wall_snapshot()
        phase_stats: dict[str, dict[str, Any]] = {}
        merged: dict[str, Any] = {}
        for phase, recorded in state.phase_stats.items():
            merged.update(recorded)
            phase_stats[phase] = {**recorded, "wall_s": round(walls[phase], 6)}
        merged.update(stats or {})
        return cls(
            algorithm=algorithm,
            colors=state.colors,
            delta=state.delta,
            palette=state.delta if palette is None else palette,
            rounds=state.ledger.total_rounds,
            phase_rounds=state.ledger.snapshot(),
            phase_stats=phase_stats,
            stats=merged,
            seed_used=seed_used,
        )


@dataclass
class PipelineState:
    """What the phases of one engine run hand to each other: the coloring,
    the ledger, the coins and (in an engine's subclass) whatever a later
    phase reads.  Between phases it is a plain value: running the
    remaining phases on a :meth:`copy` finishes the solve as the
    uninterrupted run does.
    """

    graph: Graph
    strict: bool = False
    rng: random.Random | None = None
    delta: int = field(init=False)
    colors: list[int] = field(init=False)
    ledger: RoundLedger = field(init=False, default_factory=RoundLedger)
    phase_stats: dict[str, dict[str, Any]] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.delta = self.graph.max_degree()
        self.colors = [UNCOLORED] * self.graph.n

    def copy(self: S) -> S:
        """An independent copy; only the graph, which no phase writes, is shared."""
        return copy.deepcopy(self, {id(self.graph): self.graph})


S = TypeVar("S", bound=PipelineState)

# A pipeline phase: its ledger name and a function from the state to the
# stats it produced.
Phase = tuple[str, Callable[[Any], dict[str, Any]]]


def run_phases(state: S, phases: Iterable[Phase]) -> S:
    """Run ``phases`` in order on ``state``, each in its own ledger phase
    (the only place an engine opens one), recording the stats each returns
    as its ``phase_stats`` entry."""
    for name, step in phases:
        with state.ledger.phase(name):
            stats = step(state)
        state.phase_stats[name] = stats
    return state
