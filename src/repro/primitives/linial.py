"""Linial's O(Δ²)-coloring in O(log* n) rounds [Lin92].

Both the deterministic Δ-coloring (Section 3) and the randomized algorithms
(Section 4) start by computing an O(Δ²) coloring "with Linial's algorithm",
used purely for symmetry breaking inside the list-coloring subroutines.

The implementation is the polynomial set-system reduction.  Given a proper
``k``-coloring, pick a degree ``d`` and prime ``q`` with

* ``q^(d+1) >= k``  (distinct colors map to distinct polynomials), and
* ``q >= d*Δ + 1``  (a conflict-free evaluation point always exists),

interpret each color as a polynomial ``p_v`` of degree <= d over GF(q)
(its base-q digits are the coefficients), exchange colors with neighbours
(one round), and let every node pick the smallest point ``x`` where its
polynomial differs from all neighbours' polynomials.  Two distinct
polynomials of degree <= d agree on at most d points, so at most ``d*Δ``
points are blocked and some ``x < q`` survives.  The new color is the pair
``(x, p_v(x))``, i.e. a palette of ``q²`` colors.

Each iteration costs one round and maps ``k -> q² ≈ max(d*Δ, k^{1/(d+1)})²``;
iterating reaches a fixed point of size O(Δ²) after O(log* k) rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.graph import Graph
from repro.local.rounds import RoundLedger
from repro.primitives.numbers import int_to_digits, next_prime

__all__ = ["LinialResult", "linial_coloring", "reduction_schedule"]


@dataclass
class LinialResult:
    """Output of :func:`linial_coloring`.

    ``colors[v]`` is a 0-based color < ``palette``; ``iterations`` is the
    number of reduction rounds executed (the O(log* n) quantity measured by
    experiment E9).
    """

    colors: list[int]
    palette: int
    iterations: int
    rounds: int


def _choose_parameters(k: int, delta: int, max_degree_d: int = 64) -> tuple[int, int]:
    """Pick ``(d, q)`` minimising the new palette ``q²`` for current size k."""
    best: tuple[int, int] | None = None
    for d in range(1, max_degree_d + 1):
        q = next_prime(d * delta + 1)
        # Raise q until polynomials can express all k colors.
        while q ** (d + 1) < k:
            q = next_prime(q + 1)
        if best is None or q < best[1]:
            best = (d, q)
        if q == d * delta + 1 or q <= delta + 2:
            # Larger d can no longer help: q is already at its floor.
            break
    assert best is not None
    return best


def reduction_schedule(n: int, delta: int) -> list[tuple[int, int, int]]:
    """The sequence of ``(k, d, q)`` reductions Linial performs from palette
    ``n`` down to its fixed point.  Exposed for tests and experiment E9
    (it determines the iteration count without touching a graph)."""
    schedule = []
    k = n
    while True:
        d, q = _choose_parameters(k, max(1, delta))
        if q * q >= k:
            break
        schedule.append((k, d, q))
        k = q * q
    return schedule


def _reduce_round_vectorized(graph: Graph, colors: list[int], d: int, q: int):
    """One Linial reduction round as numpy array arithmetic (or ``None``).

    Computes exactly what the scalar loop does — every node picks the
    smallest point ``x`` where its degree-``d`` polynomial over GF(q)
    differs from all its neighbours' — as a search over ``x = 0, 1, …``:
    at each point every polynomial is evaluated (Horner over the base-q
    digits, n-vector operations), the values are compared only on the
    edges of nodes still blocked, and nodes with no agreeing neighbour
    take ``x`` and leave the search along with their edges.  Two distinct
    polynomials agree on at most ``d`` points, so most nodes resolve at
    the first points and the compared edges shrink fast.  Falls back
    (returns ``None``) without numpy.
    """
    try:
        import numpy as np
    except Exception:  # pragma: no cover - numpy-free environments
        return None
    n = graph.n
    offsets, indices = graph.csr()
    # The edges of still-blocked nodes, as (owner, neighbour) pairs.
    owner = np.repeat(
        np.arange(n, dtype=np.int32), np.diff(np.frombuffer(offsets, dtype=np.int32))
    )
    other = np.frombuffer(indices, dtype=np.int32)
    # digits[j] = coefficient of x^j: base-q digit j of the color.
    rest = np.asarray(colors, dtype=np.int64)
    digits = []
    for _ in range(d + 1):
        digits.append(rest % q)
        rest //= q
    new_colors = np.empty(n, dtype=np.int64)
    pending = np.arange(n)
    blocked = np.zeros(n, dtype=bool)
    for x in range(q):
        value = digits[d]
        for j in range(d - 1, -1, -1):
            value = (value * x + digits[j]) % q
        blocked[:] = False
        blocked[owner[value[owner] == value[other]]] = True
        still = blocked[pending]
        done = pending[~still]
        new_colors[done] = x * q + value[done]
        pending = pending[still]
        if not len(pending):
            return new_colors.tolist()
        keep = blocked[owner]
        owner = owner[keep]
        other = other[keep]
    raise AssertionError("no free evaluation point; parameter bug")


def _reduce_round_python(graph: Graph, colors: list[int], d: int, q: int) -> list[int]:
    """One Linial reduction round, pure Python (reference semantics).

    The scalar twin of :func:`_reduce_round_vectorized`: same polynomial
    evaluation over GF(q), same smallest-free-point choice, bit-identical
    output — this is the path the numpy-free CI leg runs.
    """
    n = graph.n
    adj = graph.adj
    new_colors = [0] * n
    # Precompute digit vectors lazily per distinct color.
    digit_cache: dict[int, list[int]] = {}

    def digits_of(color: int) -> list[int]:
        cached = digit_cache.get(color)
        if cached is None:
            cached = int_to_digits(color, q, d + 1)
            digit_cache[color] = cached
        return cached

    eval_cache: dict[tuple[int, int], int] = {}

    def evaluate(color: int, x: int) -> int:
        key = (color, x)
        cached = eval_cache.get(key)
        if cached is None:
            acc = 0
            for coefficient in reversed(digits_of(color)):
                acc = (acc * x + coefficient) % q
            eval_cache[key] = acc
            cached = acc
        return cached

    for v in range(n):
        own_color = colors[v]
        # Distinct neighbour colors suffice (and shrink the inner
        # evaluation loop on graphs with repeated colors).
        neighbor_colors = {colors[u] for u in adj[v]}
        chosen_x = -1
        chosen_value = -1
        for x in range(q):
            own_value = evaluate(own_color, x)
            if all(evaluate(c, x) != own_value for c in neighbor_colors):
                chosen_x = x
                chosen_value = own_value
                break
        if chosen_x < 0:
            raise AssertionError("no free evaluation point; parameter bug")
        new_colors[v] = chosen_x * q + chosen_value
    return new_colors


def linial_coloring(
    graph: Graph,
    ledger: RoundLedger | None = None,
    max_iterations: int = 200,
) -> LinialResult:
    """Compute an O(Δ²) coloring of ``graph`` in O(log* n) rounds.

    The initial coloring is the identity (node ids), palette ``n``; each
    iteration performs one synchronous exchange of colors and reduces the
    palette as described in the module docstring.  The returned palette is
    the fixed point q² for the smallest usable prime q (for Δ >= 2 this is
    at most ``(2Δ + O(1))² = O(Δ²)``).  Rounds on graphs above a small size
    threshold run through the vectorized fast path (bit-identical output).
    """
    ledger = ledger if ledger is not None else RoundLedger()
    n = graph.n
    delta = max(1, graph.max_degree())
    colors = list(range(n))
    k = max(n, 2)
    iterations = 0
    while iterations < max_iterations:
        d, q = _choose_parameters(k, delta)
        if q * q >= k:
            break
        iterations += 1
        ledger.charge(1)  # exchange current colors with all neighbours
        if n >= 512:
            reduced = _reduce_round_vectorized(graph, colors, d, q)
            if reduced is not None:
                colors = reduced
                k = q * q
                continue
        colors = _reduce_round_python(graph, colors, d, q)
        k = q * q
    return LinialResult(colors=colors, palette=k, iterations=iterations, rounds=iterations)
