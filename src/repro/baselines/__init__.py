"""Baselines: the algorithms the paper improves on or is checked against.

The [PS95] baseline itself runs as ``solve(graph, algorithm="ps")``; its
engine lives in :mod:`repro.baselines.panconesi_srinivasan`.
"""

from repro.baselines.greedy import centralized_brooks, centralized_greedy

__all__ = ["centralized_brooks", "centralized_greedy"]
