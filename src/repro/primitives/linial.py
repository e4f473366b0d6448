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

The rounds run in the native kernel (``linial_round`` in
``repro/kernel.c``, loaded by :mod:`repro.native`): per node, the base-q
digits of every color once, then Horner evaluations at x = 0, 1, … until
no neighbour's polynomial agrees.  :func:`linial_coloring` keeps the
colorings in one int32 buffer across its rounds and starts from the
identity coloring without materializing it.  On a random 8-regular graph
at n=32768 (two rounds, 2-CPU box) a run takes ≈6 ms and the Python twin
≈0.9 s.  :func:`_reduce_round_python` is the bit-identical twin, run when
the kernel is not loaded.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro import native
from repro.graphs.graph import Graph
from repro.local.rounds import RoundLedger
from repro.native import address
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


def _reduce_round_python(graph: Graph, colors: list[int], d: int, q: int) -> list[int]:
    """One Linial reduction round, pure Python (reference semantics).

    The twin of the kernel's ``linial_round``: same polynomial evaluation
    over GF(q), same smallest-free-point choice, bit-identical output —
    this is the path a box without a C compiler runs.
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
    at most ``(2Δ + O(1))² = O(Δ²)``).  The rounds run in the native
    kernel when it is loaded (bit-identical output).
    """
    ledger = ledger if ledger is not None else RoundLedger()
    n = graph.n
    delta = max(1, graph.max_degree())
    steps: list[tuple[int, int]] = []
    k = max(n, 2)
    while len(steps) < max_iterations:
        d, q = _choose_parameters(k, delta)
        if q * q >= k:
            break
        ledger.charge(1)  # exchange current colors with all neighbours
        steps.append((d, q))
        k = q * q
    kernel = native.kernel("linial_round")
    if kernel is not None:
        colors = _reduce_rounds_native(kernel, graph, steps)
    else:
        colors = list(range(n))
        for d, q in steps:
            colors = _reduce_round_python(graph, colors, d, q)
    return LinialResult(colors=colors, palette=k, iterations=len(steps))


def _reduce_rounds_native(
    kernel, graph: Graph, steps: list[tuple[int, int]], colors: list[int] | None = None
) -> list[int]:
    """The reduction rounds ``steps`` (``(d, q)`` pairs) in the kernel's
    ``linial_round``, from ``colors`` or, by default, the identity
    coloring (which needs no buffer).  One int32 buffer holds two
    colorings: each round reads one half and writes the other."""
    n = graph.n
    if not steps:
        return list(range(n)) if colors is None else list(colors)
    offsets, indices = graph.csr()
    digits = array("i", bytes(4 * n * (1 + max(d for d, _ in steps))))
    halves = array("i", bytes(8 * n))
    start = address(halves)
    source = None
    if colors is not None:
        halves[n:] = array("i", colors)
        source = start + 4 * n
    for i, (d, q) in enumerate(steps):
        target = start + 4 * n * (i % 2)
        stuck = kernel(
            address(offsets), address(indices), n, source, d, q, target, address(digits)
        )
        if stuck >= 0:
            raise AssertionError(f"no free evaluation point for node {stuck}; parameter bug")
        source = target
    last = n * ((len(steps) - 1) % 2)
    return halves[last : last + n].tolist()
