"""Coloring validation: the single source of truth for output correctness.

Every end-to-end algorithm in this package funnels its output through
:func:`validate_coloring`; the test suite additionally calls it on every
intermediate partial coloring contract it checks.

Color conventions used throughout the package:

* Colors are integers ``1..k`` (the paper speaks of "color one" for marked
  nodes, so colors are 1-based).
* ``UNCOLORED`` (0) marks a node without a color; partial colorings are
  first-class citizens because the whole Δ-coloring machinery revolves
  around carefully staged partial colorings.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence

from repro import native
from repro.errors import ColoringError
from repro.graphs.graph import Graph
from repro.native import address

__all__ = [
    "UNCOLORED",
    "validate_coloring",
    "validate_coloring_region",
    "count_colors",
    "uncolored_nodes",
]

UNCOLORED = 0


def validate_coloring(
    graph: Graph,
    colors: Sequence[int],
    max_colors: int | None = None,
    allow_partial: bool = False,
    max_violations: int = 20,
) -> None:
    """Validate a (partial) coloring, raising :class:`ColoringError` on failure.

    Parameters
    ----------
    graph:
        The graph being colored.
    colors:
        ``colors[v]`` is the color of node ``v`` (1-based) or ``UNCOLORED``.
    max_colors:
        If given, every assigned color must lie in ``1..max_colors``
        (pass ``graph.max_degree()`` to check a Δ-coloring).
    allow_partial:
        If False, every node must be colored.
    max_violations:
        Cap on collected violation messages (errors can otherwise be huge).

    With the native kernel loaded the checks run in its ``validate``
    scan over the CSR buffers; only a coloring that fails there (or
    colors that are not all C ints) takes the Python pass, which is what
    words the violation messages, so they are identical either way.  An
    ``array('i')`` (such as a ``ColorStore``'s buffer) is scanned in
    place; any other sequence is copied into one.
    """
    if len(colors) != graph.n:
        raise ColoringError(
            f"coloring has {len(colors)} entries for a graph on {graph.n} nodes"
        )
    kernel = native.kernel("validate")
    if kernel is not None and _passes_kernel(kernel, graph, colors, max_colors, allow_partial):
        return
    _validate_coloring_python(graph, colors, max_colors, allow_partial, max_violations)


_INT_MAX = 2**31 - 1


def _passes_kernel(
    kernel,
    graph: Graph,
    colors: Sequence[int],
    max_colors: int | None,
    allow_partial: bool,
) -> bool:
    """True iff the kernel's ``validate`` passes the coloring; False when
    it fails a check, or when a color does not fit a C int or
    ``max_colors`` is not an int."""
    if max_colors is not None and not isinstance(max_colors, int):
        return False
    if isinstance(colors, array) and colors.typecode == "i":
        buffer = colors
    else:
        try:
            buffer = array("i", colors)
        except (OverflowError, TypeError):
            return False
    # No C int exceeds _INT_MAX, and none lies in 1..0.
    cap = _INT_MAX if max_colors is None else max(0, min(max_colors, _INT_MAX))
    offsets, indices = graph.csr()
    failed = kernel(
        address(offsets), address(indices), graph.n, address(buffer),
        cap, bool(allow_partial),
    )
    return failed < 0


def _validate_coloring_python(
    graph: Graph,
    colors: Sequence[int],
    max_colors: int | None,
    allow_partial: bool,
    max_violations: int,
) -> None:
    """The per-node/per-edge pass behind :func:`validate_coloring`
    (reference twin; the only place violation messages are worded)."""
    violations: list[str] = []
    for v in range(graph.n):
        c = colors[v]
        if c == UNCOLORED:
            if not allow_partial:
                violations.append(f"node {v} is uncolored")
        elif c < 1 or (max_colors is not None and c > max_colors):
            violations.append(f"node {v} has out-of-palette color {c}")
        if len(violations) >= max_violations:
            break
    if len(violations) < max_violations:
        offsets, indices = graph.csr()
        for u in range(graph.n):
            cu = colors[u]
            if cu == UNCOLORED:
                continue
            for v in indices[offsets[u] : offsets[u + 1]]:
                if u < v and colors[v] == cu:
                    violations.append(f"edge ({u}, {v}) is monochromatic (color {cu})")
                    if len(violations) >= max_violations:
                        break
            if len(violations) >= max_violations:
                break
    if violations:
        raise ColoringError(
            f"invalid coloring ({len(violations)}+ violations); first: {violations[0]}",
            violations,
        )


def validate_coloring_region(
    graph: Graph,
    colors: Sequence[int],
    nodes: Iterable[int],
    max_colors: int | None = None,
    allow_partial: bool = False,
    max_violations: int = 20,
) -> None:
    """Validate a coloring on the edges incident to ``nodes`` only.

    The dirty-region counterpart of :func:`validate_coloring`: instead of
    an O(n + m) full pass, only the given region — typically the nodes an
    incremental repair recolored plus the endpoints of inserted edges —
    and its incident edges are checked, an O(vol(region)) pass.

    **Soundness contract**: if the coloring was valid before a change and
    every node whose color changed (plus both endpoints of every added
    edge) is in ``nodes``, then this check accepts exactly when the full
    :func:`validate_coloring` accepts.  Corruption strictly *outside* the
    region is invisible here by design — callers that cannot bound where
    changes happened must use the full validator.

    Raises :class:`ColoringError` on failure, like the full validator.
    """
    if len(colors) != graph.n:
        raise ColoringError(
            f"coloring has {len(colors)} entries for a graph on {graph.n} nodes"
        )
    region_set = set(nodes)
    region = sorted(region_set)
    violations: list[str] = []
    # Read neighbour rows one node at a time (``neighbors_csr``):
    # touching ``graph.adj`` would lazily materialise all O(n + m)
    # adjacency lists on a fresh graph, and asking for the full
    # ``csr()`` pair would force a DynamicGraph to compact its padded
    # rows — both exactly the costs this validator exists to avoid on
    # the incremental path, whose graphs are fresh or streaming.
    for v in region:
        if not 0 <= v < graph.n:
            raise ColoringError(f"region node {v} out of range for n={graph.n}")
        c = colors[v]
        if c == UNCOLORED:
            if not allow_partial:
                violations.append(f"node {v} is uncolored")
        elif c < 1 or (max_colors is not None and c > max_colors):
            violations.append(f"node {v} has out-of-palette color {c}")
        else:
            for u in graph.neighbors_csr(v):
                if colors[u] == c:
                    # an edge with both endpoints in the region is
                    # visited twice; report it from the smaller one only
                    if u in region_set and u < v:
                        continue
                    a, b = (u, v) if u < v else (v, u)
                    violations.append(
                        f"edge ({a}, {b}) is monochromatic (color {c})"
                    )
                    if len(violations) >= max_violations:
                        break
        if len(violations) >= max_violations:
            break
    if violations:
        raise ColoringError(
            f"invalid coloring in region ({len(violations)}+ violations); "
            f"first: {violations[0]}",
            violations,
        )


def count_colors(colors: Sequence[int]) -> int:
    """Number of distinct colors used (ignoring uncolored nodes)."""
    return len({c for c in colors if c != UNCOLORED})


def uncolored_nodes(colors: Sequence[int]) -> list[int]:
    """Indices of all uncolored nodes."""
    return [v for v, c in enumerate(colors) if c == UNCOLORED]
