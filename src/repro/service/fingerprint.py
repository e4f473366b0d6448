"""Content-addressed request fingerprints for the coloring service.

A *request* is a pair ``(graph, config)``.  The service recognises a
repeated request — and serves it from the result cache — by hashing a
canonical byte encoding of both halves:

* **Graph half** — the sorted multiset of packed edge keys
  ``(min(u,v) << 32) | max(u,v)`` plus the node count, so the
  fingerprint is invariant under edge order and edge orientation in the
  request payload.  Payload node ids are compacted to ``0..n-1`` in
  ascending id order before hashing (the same normalisation
  :func:`repro.cli.load_edge_list` applies), so any *order-preserving*
  relabeling of the ids — shifting, scaling, sparse ids — maps to the
  same fingerprint.  Arbitrary isomorphism is **not** attempted
  (canonical labeling is graph-isomorphism-hard); a permutation that
  reorders nodes is a different instance and solves fresh.

  The encoding is computable from a raw request payload *without*
  constructing a :class:`Graph` — that is what lets the server answer
  cache hits without paying graph construction and validation.  One
  path serves both: :func:`edge_keys` turns a flat buffer of
  interleaved endpoint pairs (a decoded payload's, or a graph's
  :meth:`~repro.graphs.graph.Graph.edge_pairs`) into the sorted keys,
  and :func:`edge_keys_fingerprint` hashes them.  Payloads with
  self-loops or duplicate edges hash to keys no valid graph can
  produce, so they can never collide with a cached result.
* **Config half** — :meth:`repro.api.SolverConfig.fingerprint_payload`,
  the result-affecting fields only (``validate``/``on_phase``/``strict``
  never change the colors and are excluded, so observability settings
  don't fragment the cache).

Determinism contract: every registered solve is a pure function of
``(graph, config)`` (see docs/API.md), so equal fingerprints imply
bit-identical :class:`repro.api.ColoringResult` contents — which is what
makes serving from the cache semantically invisible.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections.abc import Iterable

from repro import native
from repro.api.config import SolverConfig
from repro.errors import ServiceProtocolError
from repro.graphs.graph import Graph
from repro.native import address

# Ids must pack into (u << 32) | v edge keys (and 'i' CSR buffers); the
# same bound the server enforces on solve payloads (_MAX_NODE there).
_MAX_PACKED_ID = 2**31

__all__ = [
    "SortedKeys",
    "edge_keys",
    "graph_fingerprint",
    "edge_keys_fingerprint",
    "config_fingerprint",
    "request_fingerprint",
    "combine_fingerprints",
    "update_fingerprint",
]


class SortedKeys(array):
    """An ``array('q')`` of packed edge keys in ascending order, as
    :func:`edge_keys` returns them: :func:`edge_keys_fingerprint` hashes
    one as it stands instead of sorting it again (do not mutate it)."""

    __slots__ = ()


def _edge_keys_python(n: int, pairs: array) -> SortedKeys:
    """Reference twin of the kernel's ``edge_keys``: the range check, the
    per-pair packing and a sort, in Python."""
    if len(pairs) and not (0 <= min(pairs) and max(pairs) < n):
        raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
    keys = sorted(
        (u << 32) | v if u < v else (v << 32) | u
        for u, v in zip(pairs[0::2], pairs[1::2])
    )
    return SortedKeys("q", keys)


def edge_keys(n: int, pairs: array) -> SortedKeys:
    """The sorted packed keys ``(min(u,v) << 32) | max(u,v)`` of the
    interleaved endpoint pairs ``u0 v0 u1 v1 …`` in ``pairs`` (an
    ``array('i')``), by the kernel's ``edge_keys`` when it is loaded.

    ``n`` may be as large as ``2**31``.  Raises :class:`ValueError` when
    an endpoint lies outside ``0..n-1``, and :class:`TypeError` when
    ``pairs`` is not an even-length ``array('i')``.
    """
    if not isinstance(pairs, array) or pairs.typecode != "i" or len(pairs) % 2:
        raise TypeError("pairs must be an array('i') of interleaved endpoint pairs")
    kernel = native.kernel("edge_keys")
    if kernel is None:
        return _edge_keys_python(n, pairs)
    m = len(pairs) // 2
    keys = SortedKeys("q", bytes(8 * m))
    scratch = array("q", bytes(8 * m))
    if kernel(address(pairs), m, n, address(keys), address(scratch)):
        raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
    return keys


def edge_keys_fingerprint(n: int, edge_keys: Iterable[int]) -> str:
    """SHA-256 of ``n`` plus the sorted packed-edge-key multiset.

    ``edge_keys`` are ``(min(u,v) << 32) | max(u,v)`` packed ints with
    ``0 <= u, v < 2**31``.  Callers may pass keys in any order: anything
    but a :class:`SortedKeys` is sorted here.  Duplicates are hashed
    as-is (a payload with a duplicate edge therefore cannot collide with
    any simple graph).
    """
    keys = edge_keys if isinstance(edge_keys, SortedKeys) else array("q", sorted(edge_keys))
    hasher = hashlib.sha256()
    hasher.update(b"g2:")  # encoding version tag
    hasher.update(n.to_bytes(8, "little"))
    hasher.update(keys)
    return hasher.hexdigest()


def graph_fingerprint(graph: Graph) -> str:
    """Canonical content hash of a constructed :class:`Graph`.

    Identical to what :func:`edge_keys_fingerprint` produces for the
    graph's edge multiset — the server relies on this equivalence to
    hash raw payloads without building the graph first.  Both take their
    keys from :func:`edge_keys`.
    """
    return edge_keys_fingerprint(graph.n, edge_keys(graph.n, graph.edge_pairs()))


def config_fingerprint(config: SolverConfig) -> str:
    """SHA-256 of the canonical JSON of the result-affecting config fields."""
    payload = config.fingerprint_payload()
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(b"c1:" + canonical.encode("utf-8")).hexdigest()


def combine_fingerprints(graph_digest: str, config_digest: str) -> str:
    """The cache key built from the two halves' digests."""
    combined = f"r1:{graph_digest}:{config_digest}"
    return hashlib.sha256(combined.encode("ascii")).hexdigest()


def request_fingerprint(graph: Graph, config: SolverConfig) -> str:
    """The cache key for one solve request: hash of both halves."""
    return combine_fingerprints(
        graph_fingerprint(graph), config_fingerprint(config)
    )


def update_fingerprint(
    parent_digest: str,
    added: Iterable[tuple[int, int]],
    removed: Iterable[tuple[int, int]],
    config_digest: str,
) -> str:
    """The version-chained cache key for one ``update`` request.

    A hash chain over the lineage: ``H(parent_digest, sorted added keys,
    sorted removed keys, config_digest)``.  Replaying the same delta on
    the same parent therefore hits the cache, and the returned digest is
    itself a valid ``parent_digest`` for the next update — the cache
    chains versions.

    This keyspace (version tag ``u1:``) is deliberately disjoint from
    the content-addressed ``r1:`` solve keys: an incrementally repaired
    coloring is *valid* but not bit-identical to what a fresh solve of
    the child graph would produce, so it must never be served for a
    plain ``solve`` of that graph.  Within ``u1:`` the determinism
    contract is: equal keys imply the same parent, delta, and re-solve
    config — and the repair engine is deterministic in those — so equal
    keys still imply bit-identical cached results.

    Endpoints outside ``0 <= id < 2**31`` raise
    :class:`repro.errors.ServiceProtocolError` *before* hashing: the
    packed key ``(u << 32) | v`` is only injective inside that range, so
    unvalidated larger ids could collide with — and wrongly serve — a
    different delta's cached child (and ids ≥ 2³¹ would overflow the
    key array outright).  No valid parent can contain such nodes anyway
    (the solve path enforces the same bound on payloads).
    """
    def pack(pairs: Iterable[tuple[int, int]]) -> array:
        keys = []
        for u, v in pairs:
            if not (0 <= u < _MAX_PACKED_ID and 0 <= v < _MAX_PACKED_ID):
                raise ServiceProtocolError(
                    f"edge endpoint out of range in update delta: ({u}, {v})"
                )
            keys.append((u << 32) | v if u < v else (v << 32) | u)
        keys.sort()
        return array("q", keys)

    hasher = hashlib.sha256()
    hasher.update(b"u1:")
    hasher.update(parent_digest.encode("ascii"))
    added_keys = pack(added)
    hasher.update(len(added_keys).to_bytes(8, "little"))
    hasher.update(added_keys.tobytes())
    removed_keys = pack(removed)
    hasher.update(len(removed_keys).to_bytes(8, "little"))
    hasher.update(removed_keys.tobytes())
    hasher.update(config_digest.encode("ascii"))
    return hasher.hexdigest()
