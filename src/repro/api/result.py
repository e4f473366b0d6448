"""The one result type every solver entry point returns.

Every engine hands :func:`repro.api.solve` one
:class:`repro.local.rounds.EngineRun`; the facade checks it and packs
it into :class:`ColoringResult`, the single, frozen,
JSON-round-trippable record that every caller — CLI, service,
benchmarks, examples — reads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["ColoringResult"]

#: Timing keys reserved inside ``phase_stats``/``stats`` values.  They are
#: measurement noise, not solve content, so :meth:`ColoringResult.
#: content_digest` strips them — a pooled worker's solve and an in-process
#: solve of the same request must stay digest-equal.
_TIMING_KEYS = frozenset({"wall_s", "wall_time_s", "rung_wall_s"})


def _strip_timing(value: Any) -> Any:
    """Recursively drop reserved timing keys from a jsonable structure."""
    if isinstance(value, dict):
        return {
            k: _strip_timing(v)
            for k, v in value.items()
            if k not in _TIMING_KEYS
        }
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def _jsonable(value: Any) -> Any:
    """Coerce a stats value into a JSON-serialisable structure."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


@dataclass(frozen=True)
class ColoringResult:
    """Outcome of one :func:`repro.api.solve` run.

    Attributes
    ----------
    algorithm:
        The *resolved* registry name that actually ran (``"auto"`` never
        appears here — the policy records what it picked).
    n, delta:
        Instance size and maximum degree.
    palette:
        The guaranteed palette size: colors are drawn from
        ``{1..palette}`` (Δ for the paper's algorithms, χ per component
        for the special families, ≤ Δ+1 for greedy).
    colors:
        The color vector, immutable, indexed by node id.
    rounds:
        Total LOCAL rounds charged (for ``slocal`` this is the certified
        SLOCAL locality radius instead — see ``stats["model"]``).
    phase_rounds:
        The per-phase round decomposition, in execution order.
    phase_stats:
        Per-phase structural statistics (subset of ``stats`` attributed
        to the phase that produced it); what :func:`repro.api.solve`
        replays through the ``on_phase`` observer.
    stats:
        All structural statistics of the run, unattributed.
    seed:
        The seed the run was configured with (recorded even for
        deterministic algorithms, which ignore it).
    wall_time_s:
        Wall-clock seconds spent inside the engine (excludes the
        facade's niceness check and validation).
    """

    algorithm: str
    n: int
    delta: int
    palette: int
    colors: tuple[int, ...]
    rounds: int
    phase_rounds: dict[str, int] = field(default_factory=dict)
    phase_stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    wall_time_s: float = 0.0

    @property
    def num_colors_used(self) -> int:
        """Distinct colors actually present (≤ ``palette``)."""
        return len(set(self.colors))

    def content_digest(self) -> str:
        """SHA-256 over the canonical JSON of :meth:`as_dict` minus
        every timing field (top-level ``wall_time_s`` plus the reserved
        ``wall_s``/``wall_time_s``/``rung_wall_s`` keys nested inside
        ``phase_stats``/``stats``).

        Two results are *the same solve outcome* iff their digests match;
        wall time is excluded because it is measurement noise, not
        content.  The result cache uses this to assert that a cached
        result is bit-identical to a fresh solve of the same request.
        """
        payload = _strip_timing(self.as_dict())
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def as_dict(self) -> dict[str, Any]:
        """A JSON-serialisable dict; inverse of :meth:`from_dict`."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "delta": self.delta,
            "palette": self.palette,
            "colors": list(self.colors),
            "rounds": self.rounds,
            "phase_rounds": dict(self.phase_rounds),
            "phase_stats": _jsonable(self.phase_stats),
            "stats": _jsonable(self.stats),
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ColoringResult":
        """Rebuild a result from :meth:`as_dict` output (or parsed JSON)."""
        return cls(
            algorithm=data["algorithm"],
            n=data["n"],
            delta=data["delta"],
            palette=data["palette"],
            colors=tuple(data["colors"]),
            rounds=data["rounds"],
            phase_rounds=dict(data.get("phase_rounds", {})),
            phase_stats={k: dict(v) for k, v in data.get("phase_stats", {}).items()},
            stats=dict(data.get("stats", {})),
            seed=data.get("seed"),
            wall_time_s=data.get("wall_time_s", 0.0),
        )
