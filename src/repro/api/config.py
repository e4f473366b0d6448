"""`SolverConfig` — one place for every knob the solver facade accepts.

Consolidates the kwargs that used to be scattered per entry point
(``seed=`` here, ``strict=`` there, a ``RandomizedParams`` object for the
randomized family, ``ruling_k`` for the deterministic ablations, an
``order`` list for SLOCAL, a ``validate`` toggle in the harness) into a
single dataclass that :func:`repro.api.solve` and
:func:`repro.api.solve_many` take.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.randomized import RandomizedParams

__all__ = ["SolverConfig", "PhaseObserver"]

# on_phase(name, rounds, stats) — called once per pipeline phase, in
# execution order, after the run completes (the engines are black boxes;
# the facade replays the ledger rather than interleaving callbacks with
# the hot loops).
PhaseObserver = Callable[[str, int, dict[str, Any]], None]


@dataclass
class SolverConfig:
    """Configuration for one solver run (or a whole batch).

    Attributes
    ----------
    algorithm:
        A registry name (see :func:`repro.api.list_algorithms`); the
        default ``"auto"`` picks per instance by (n, Δ, graph class).
    seed:
        Seed for the randomized pipelines (ignored by deterministic ones,
        recorded in the result either way).
    strict:
        Enable the per-phase contract checks of the pipelines.
    validate:
        Validate the returned coloring at the facade level against the
        algorithm's palette bound.  The randomized family validates once
        per solve either way (here, or inside its registry adapter when
        this is off); the other engines also validate internally, so
        turning this off skips their extra O(n+m) pass in throughput runs.
    params:
        Full override of the randomized pipeline's knobs; when set, the
        randomized algorithms run with these parameters instead of the
        per-Δ presets.  ``params.seed`` then takes precedence over
        ``seed`` (and is what the result records); ``strict=True`` on
        the config is still honoured — it is folded into the params.
    ruling_k:
        Override of the deterministic pipeline's ruling distance R
        (the A3-style ablations).
    order:
        Processing order for ``algorithm="slocal"`` (default: by id).
    on_phase:
        Observer replayed once per phase after each solve; not part of
        equality/serialisation and stripped before results are shipped to
        process-pool workers (the parent replays it from the result).
    """

    algorithm: str = "auto"
    seed: int = 0
    strict: bool = False
    validate: bool = True
    params: RandomizedParams | None = None
    ruling_k: int | None = None
    order: list[int] | None = None
    on_phase: PhaseObserver | None = field(
        default=None, repr=False, compare=False
    )

    def replace(self, **changes: Any) -> "SolverConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def without_observer(self) -> "SolverConfig":
        """A picklable copy (observers cannot cross process boundaries)."""
        if self.on_phase is None:
            return self
        return self.replace(on_phase=None)

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly view (omits the observer callable)."""
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "strict": self.strict,
            "validate": self.validate,
            "params": dataclasses.asdict(self.params) if self.params else None,
            "ruling_k": self.ruling_k,
            "order": list(self.order) if self.order is not None else None,
        }

    def fingerprint_payload(self) -> dict[str, Any]:
        """The *result-affecting* fields, canonically ordered.

        This is the config half of a request fingerprint
        (:func:`repro.service.fingerprint.request_fingerprint`): two
        configs with equal payloads produce bit-identical colorings on
        the same graph.  ``validate`` and ``on_phase`` are deliberately
        excluded — they never change the colors — and so is ``strict``
        (both the config flag and the field inside ``params``): strict
        mode only adds contract assertions without touching the rng
        stream (see :func:`repro.api.registry._effective_params`), so it
        must not fragment a result cache.
        """
        params = dataclasses.asdict(self.params) if self.params else None
        if params is not None:
            params.pop("strict", None)
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "params": params,
            "ruling_k": self.ruling_k,
            "order": list(self.order) if self.order is not None else None,
        }
