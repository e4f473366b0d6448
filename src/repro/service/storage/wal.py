"""The update write-ahead log: every applied delta, durably, in order.

The ``update`` verb mutates state the result store cannot capture: a
chain-head :class:`~repro.core.incremental.IncrementalColoring` engine
living in the :class:`~repro.service.storage.memory.MemoryStore`.  Results
are content-addressed and re-derivable; a live engine is neither — it
is the *product* of a specific sequence of deltas applied to a specific
base solve.  :class:`UpdateWAL` records exactly that sequence: one
record per successfully applied update, carrying the parent and child
digests, the edge delta and the result-affecting config payload.
Records written before the update path was unified also carry a
``"backend"`` field; replay ignores it.

Replay (:mod:`repro.service.storage.replay`) walks these records
child→parent back to a base ``r1:`` solve whose graph and result the
:class:`~repro.service.storage.durable.DurableStore` holds, rebuilds the
engine, and reapplies the deltas — deterministic repair means the
replayed chain head is bit-identical to the one the dead process held.

The WAL is written *after* an update succeeds (it logs facts, not
intents): a crash between the apply and the append loses only that
delta's chain-head — the next update on it degrades to the
:class:`~repro.errors.StaleParentError` → full-solve fallback clients
already handle.  Torn tails truncate on open like every journal.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator

from repro.api.config import SolverConfig
from repro.service.storage.journal import Journal

__all__ = ["UpdateWAL", "update_record", "config_from_payload"]

_KIND_WAL = "wal"


def update_record(
    parent_digest: str,
    child_digest: str,
    edges_added: Any,
    edges_removed: Any,
    config: SolverConfig,
    backend: str | None = None,
) -> dict[str, Any]:
    """The canonical WAL payload for one applied update.

    ``backend`` is accepted for compatibility and ignored: there is one
    update path, so records no longer carry it.
    """
    return {
        "parent": parent_digest,
        "child": child_digest,
        "added": [[int(u), int(v)] for u, v in edges_added],
        "removed": [[int(u), int(v)] for u, v in edges_removed],
        "config": config.without_observer().as_dict(),
    }


def config_from_payload(payload: dict[str, Any] | None) -> SolverConfig:
    """Rebuild a :class:`SolverConfig` from its ``as_dict()`` form."""
    if not payload:
        return SolverConfig()
    params = payload.get("params")
    if params is not None:
        from repro.core.randomized import RandomizedParams

        params = RandomizedParams(**params)
    return SolverConfig(
        algorithm=payload.get("algorithm", "auto"),
        seed=payload.get("seed", 0),
        strict=payload.get("strict", False),
        validate=payload.get("validate", True),
        params=params,
        ruling_k=payload.get("ruling_k"),
        order=payload.get("order"),
    )


class UpdateWAL:
    """An append-only log of update deltas over one :class:`Journal`.

    Satisfies the :class:`~repro.service.storage.api.WriteAheadLog`
    protocol.  Single-writer like every journal; the gateway appends
    from its event loop only.
    """

    def __init__(
        self,
        path: str | Path,
        fsync: str = "batch",
        meters: Any | None = None,
    ):
        self._journal = Journal(path, fsync=fsync)
        self._meters = meters
        self.path = self._journal.path

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one delta record (see :func:`update_record`)."""
        fsyncs_before = self._journal.fsyncs
        _, length = self._journal.append(record)
        if self._meters is not None:
            self._meters.append(_KIND_WAL, length)
            self._meters.fsync(self._journal.fsyncs - fsyncs_before)

    def replay(self) -> Iterator[dict[str, Any]]:
        """Every intact record in append order.

        Records missing the digest fields are skipped (defensively —
        nothing writes them), and the scan stops at the first torn
        record like every journal read.
        """
        for _, _, payload in self._journal.scan():
            if isinstance(payload.get("parent"), str) and isinstance(
                payload.get("child"), str
            ):
                yield payload

    def sync(self) -> None:
        self._journal.sync()

    def close(self) -> None:
        self._journal.close()

    def stats(self) -> dict[str, Any]:
        return {
            "bytes": self._journal.size,
            "appends": self._journal.appends,
            "fsyncs": self._journal.fsyncs,
            "torn_records": self._journal.torn_records,
            "fsync": self._journal.policy.mode,
        }

    def __enter__(self) -> "UpdateWAL":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
