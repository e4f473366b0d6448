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

    Computes exactly what the scalar loop does — evaluate every node's
    degree-``d`` polynomial over GF(q) at all points, forbid points where a
    neighbour's polynomial agrees, pick the smallest free point — but as a
    handful of (n × q) array operations plus one CSR-aligned comparison
    over the edge endpoints, instead of ~n·q·Δ interpreted steps.  Falls
    back (returns ``None``) without numpy.

    The evaluation is a sum of per-digit table rows (``table_j[c, x] =
    c·x^j mod q``) with a single final reduction, in the narrowest dtype
    that holds it: GF(q) values take one byte whenever q <= 256 (both
    rounds at Δ = 8 use q = 29, then 17), so the (edges × q) comparison
    moves half the bytes of 16-bit values and an eighth of int64 ones.
    """
    try:
        import numpy as np
    except Exception:  # pragma: no cover - numpy-free environments
        return None
    n = graph.n
    offsets, indices = graph.csr()
    indptr = np.frombuffer(offsets, dtype=np.int32)
    dst = np.frombuffer(indices, dtype=np.int32)
    value_type = np.uint8 if q <= 256 else np.uint16
    # (d + 1) reduced terms, each < q, sum without overflow.
    acc_type = np.uint16 if (d + 1) * q < 2**16 else np.uint32
    rest = np.asarray(colors, dtype=np.int64)
    points = np.arange(q, dtype=np.int64)
    power = np.ones(q, dtype=np.int64)  # x^j mod q, for all points x
    values = np.zeros((n, q), dtype=acc_type)
    for _ in range(d + 1):
        table = (points[:, None] * power % q).astype(acc_type)
        values += table[rest % q]
        rest //= q
        power = power * points % q
    values %= acc_type(q)
    values = values.astype(value_type)
    # conflict[v, x] = some neighbour's polynomial agrees with v's at x.
    conflict = np.zeros(n * q, dtype=bool)
    m = len(dst)
    if m:
        degrees = np.diff(indptr)
        # Chunk by node ranges so the (edges × q) comparison stays bounded;
        # each node's edges are one contiguous CSR segment, so repeating
        # its value row lines it up with its neighbours' rows.
        rows_per_chunk = max(1, int(8_000_000 // max(1, q * max(1, m // n))))
        for start in range(0, n, rows_per_chunk):
            stop = min(n, start + rows_per_chunk)
            lo, hi = int(indptr[start]), int(indptr[stop])
            if lo == hi:
                continue
            counts = degrees[start:stop]
            equal = np.repeat(values[start:stop], counts, axis=0) == values[dst[lo:hi]]
            # Agreements are sparse (two distinct polynomials agree on at
            # most d points): scatter them instead of reducing every row.
            hits = np.flatnonzero(equal)
            edge = hits // q
            owner = np.repeat(np.arange(start, stop, dtype=np.int64), counts)
            conflict[owner[edge] * q + (hits - edge * q)] = True
    free = ~conflict.reshape(n, q)
    chosen_x = free.argmax(axis=1)
    rows = np.arange(n)
    if not free[rows, chosen_x].all():
        raise AssertionError("no free evaluation point; parameter bug")
    chosen_value = values[rows, chosen_x].astype(np.int64)
    return (chosen_x * q + chosen_value).tolist()


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
