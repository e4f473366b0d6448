"""Consistent hashing with virtual nodes over the request-digest keyspace.

The service's request fingerprints (``r1:…`` solve keys, ``u1:…`` update
keys — :mod:`repro.service.fingerprint`) are content addresses: a digest
fully determines its result, independent of *where* it is computed.
That makes the serving layer shardable with no coordination at all —
each digest just needs a stable owner, and each shard's ``MemoryStore``
then holds exactly the keys of its arc.

:class:`HashRing` provides that ownership map the classic way:

* every shard contributes ``vnodes`` points on a 64-bit ring, derived
  by hashing ``"vn:{shard_id}:{i}"`` — many small arcs per shard smooth
  out the variance one arc per shard would have (±20% balance at 128
  vnodes is the tested contract);
* a key hashes to one point and is owned by the first shard point at or
  clockwise after it;
* adding or removing a shard moves only the arcs adjacent to *its*
  points — an expected ``1/N`` fraction of the keyspace — so N-1 of N
  shards keep their caches warm through membership changes.

Hashes are sha256-based and versioned by the ``vn:``/``key:`` domain
tags, so placement is stable across processes, machines and Python
versions (``hash()`` randomization never enters).  Pure data structure:
no I/O, no clock — the router and supervisor own liveness.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Iterable

__all__ = ["HashRing", "DEFAULT_VNODES"]

#: Virtual nodes per shard: enough for ±20% arc balance, small enough
#: that ring rebuilds (rare: membership changes only) stay trivial.
DEFAULT_VNODES = 128


def _point(label: str) -> int:
    """A stable 64-bit ring coordinate for a label."""
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent-hash ownership of digest strings over named shards.

    Parameters
    ----------
    shard_ids:
        Initial members (any hashable, stringified into vnode labels —
        the router uses ``"shard-0"``-style stable names so a restarted
        worker keeps its arc).
    vnodes:
        Ring points per shard (≥ 1).
    """

    def __init__(
        self,
        shard_ids: Iterable[Hashable] = (),
        vnodes: int = DEFAULT_VNODES,
    ):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._members: dict[Hashable, list[int]] = {}
        # Sorted ring of (point, tiebreak, shard_id); the stringified
        # tiebreak keeps tuple comparison total even if two shards'
        # points ever collide (and regardless of shard-id types).
        self._ring: list[tuple[int, str, Hashable]] = []
        self._points: list[int] = []
        for shard_id in shard_ids:
            self.add(shard_id)

    # -- membership --------------------------------------------------------

    def add(self, shard_id: Hashable) -> None:
        """Join ``shard_id``, claiming its ``vnodes`` arcs."""
        if shard_id in self._members:
            raise ValueError(f"shard {shard_id!r} is already on the ring")
        points = [
            _point(f"vn:{shard_id}:{i}") for i in range(self.vnodes)
        ]
        self._members[shard_id] = points
        tag = str(shard_id)
        for p in points:
            bisect.insort(self._ring, (p, tag, shard_id))
        self._points = [entry[0] for entry in self._ring]

    def remove(self, shard_id: Hashable) -> None:
        """Leave the ring; ``shard_id``'s arcs fall to their successors."""
        if shard_id not in self._members:
            raise ValueError(f"shard {shard_id!r} is not on the ring")
        del self._members[shard_id]
        self._ring = [e for e in self._ring if e[2] != shard_id]
        self._points = [entry[0] for entry in self._ring]

    # -- lookup ------------------------------------------------------------

    def owner(self, digest: str) -> Hashable:
        """The shard owning ``digest`` (first point clockwise from its
        coordinate).  Raises :class:`ValueError` on an empty ring."""
        if not self._ring:
            raise ValueError("cannot route on an empty hash ring")
        coordinate = _point(f"key:{digest}")
        index = bisect.bisect_right(self._points, coordinate)
        if index == len(self._points):  # wrap past 12 o'clock
            index = 0
        return self._ring[index][2]

    def spread(self, digests: Iterable[str]) -> dict[Hashable, int]:
        """Owner histogram over ``digests`` (balance diagnostics/tests)."""
        counts: dict[Hashable, int] = {shard: 0 for shard in self._members}
        for digest in digests:
            counts[self.owner(digest)] += 1
        return counts

    # -- views -------------------------------------------------------------

    @property
    def shards(self) -> list[Hashable]:
        """Current members, in join order."""
        return list(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, shard_id: Hashable) -> bool:
        return shard_id in self._members

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"HashRing(shards={len(self._members)}, vnodes={self.vnodes}, "
            f"points={len(self._ring)})"
        )
