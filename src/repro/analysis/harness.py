"""Benchmark workload helpers.

Wall-clock measurement lives in ``perfbench/`` (the end-to-end benchmark)
and ``scripts/ab.py`` (its A/B gate against a base commit); this module
keeps the instance builder that they, the benches and the tests share.
"""

from __future__ import annotations

__all__ = ["carve_matching"]


def carve_matching(graph, size: int) -> list[tuple[int, int]]:
    """``size`` pairwise-disjoint edges of ``graph`` (greedy matching).

    The canonical way to build an *updatable* benchmark instance: a
    Δ-regular graph minus a matching keeps Δ while giving every matched
    endpoint one unit of degree slack, so re-inserting matching edges is
    a Δ-preserving edit stream (inserting into a perfectly Δ-regular
    graph would raise Δ and force a full re-solve on every op).
    """
    matching: list[tuple[int, int]] = []
    used: set[int] = set()
    for u, v in graph.edges():
        if u not in used and v not in used:
            matching.append((u, v))
            used.add(u)
            used.add(v)
            if len(matching) == size:
                break
    if len(matching) < size:
        raise ValueError(
            f"graph has no matching of size {size} (found {len(matching)})"
        )
    return matching
