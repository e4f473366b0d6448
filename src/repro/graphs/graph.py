"""Core graph data structure for the LOCAL-model simulator.

The paper works with simple undirected graphs ``G = (V, E)`` where ``V`` is
identified with ``{0, .., n-1}``; the node index doubles as the unique
identifier that LOCAL-model algorithms may use for symmetry breaking.

The representation is a flat **compressed-sparse-row (CSR)** pair: one
``array('i')`` of neighbour indices plus one ``array('i')`` of per-node
offsets into it (``offsets[v] .. offsets[v+1]`` delimits the neighbours of
``v``).  Compared to the list-of-lists layout this package started with,
CSR keeps the whole adjacency structure in two contiguous native-int
buffers, which

* makes construction a pair of counting passes (no per-edge set hashing),
* gives O(1) ``degree`` / ``num_edges`` / cached ``max_degree``,
* shrinks memory by roughly an order of magnitude (two machine ints per
  directed edge instead of a PyObject pointer per neighbour plus per-node
  list headers), which is what lets million-edge instances fit and
  traverse quickly in pure Python, and
* lets :meth:`subgraph` build induced instances through an unchecked
  internal fast path (the remainder-graph / per-layer pattern of the
  paper's algorithms builds thousands of small subgraphs per run).

Compatibility: ``Graph.adj`` is still a list-of-lists — it is materialised
lazily from the CSR buffers on first access and cached, for the code
outside the solver engines that binds ``adj = graph.adj`` once (the
generators, the deterministic and ps engines, and the pure-Python twins
of the native kernel's entry points).  A solve never builds it: the
randomized pipeline and the facade's checks read CSR rows only, and the
per-row accessors (:meth:`Graph.neighbors`, :meth:`Graph.has_edge`,
:meth:`Graph.edges`) answer from the CSR row while the cache is cold.
A pickled graph carries its two CSR buffers, ``n`` and the edge count,
never the list or set caches, so a pooled task ships about 8 bytes per
directed edge.
Neighbour order is exactly the classic insertion order (for each input
edge ``(u, v)``: ``v`` is appended to ``u``'s row and ``u`` to ``v``'s), so
seeded algorithms behave identically to the historical representation,
and a CSR row lists its neighbours in ``adj`` order.

Two scaling helpers sit beside the class: :meth:`Graph.neighbors_csr`
(zero-copy memoryview of a neighbour row) and :class:`GraphBuilder`
(incremental construction for generators, with optional deduplication).

Graphs are immutable.  Edge deltas have one implementation, the
in-place :class:`repro.graphs.dynamic.DynamicGraph`, which adopts a
graph's CSR as-is; :meth:`Graph.apply_updates` is a thin front door to
it that returns the updated graph as a new immutable instance.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from operator import sub

from repro import native
from repro.errors import GraphError
from repro.native import address

__all__ = ["Graph", "GraphBuilder"]

def _edge_pairs_python(offsets: array, indices: array) -> array:
    """The row loop behind :meth:`Graph.edge_pairs` (reference twin of
    the kernel's ``edge_pairs``): one flat list of the indices, sliced
    per row."""
    flat = indices.tolist()
    pairs = array("i")
    for u in range(len(offsets) - 1):
        for v in flat[offsets[u] : offsets[u + 1]]:
            if u < v:
                pairs.append(u)
                pairs.append(v)
    return pairs


class Graph:
    """A simple undirected graph on nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < n`` and ``u != v``.
        Duplicate edges are rejected.

    Notes
    -----
    Instances are treated as immutable after construction; all algorithms
    derive new graphs via :meth:`subgraph` instead of mutating.  The
    ``adj`` attribute is a cached read-only view — do not mutate the lists
    it hands out.
    """

    __slots__ = (
        "n",
        "_offsets",
        "_indices",
        "_num_edges",
        "_adj",
        "_adj_sets",
        "_max_degree",
        "_min_degree",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        self.n = n
        edge_list = edges if isinstance(edges, (list, tuple)) else list(edges)
        # Pass 1: validate endpoints and count degrees.
        offsets = array("i", bytes(4 * (n + 1)))
        for u, v in edge_list:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at node {u} is not allowed")
            offsets[u + 1] += 1
            offsets[v + 1] += 1
        total = 0
        for i in range(1, n + 1):
            total += offsets[i]
            offsets[i] = total
        # Pass 2: fill neighbour rows in insertion order.
        indices = array("i", bytes(4 * total))
        cursor = array("i", offsets[:n])
        for u, v in edge_list:
            indices[cursor[u]] = v
            cursor[u] += 1
            indices[cursor[v]] = u
            cursor[v] += 1
        # Pass 3: duplicate detection by neighbour stamping (O(n + m), no
        # tuple-set hashing; ``stamp[w] == u + 1`` iff w was already seen in
        # u's row).
        stamp = array("i", bytes(4 * n))
        for u in range(n):
            mark = u + 1
            for w in indices[offsets[u] : offsets[u + 1]]:
                if stamp[w] == mark:
                    raise GraphError(f"duplicate edge ({u}, {w})")
                stamp[w] = mark
        self._adopt_csr(n, offsets, indices, len(edge_list))

    @classmethod
    def _from_csr(cls, n: int, offsets: array, indices: array, num_edges: int) -> "Graph":
        """Internal trusted constructor: adopt prebuilt CSR buffers.

        Callers guarantee simplicity (no loops/duplicates) and symmetry;
        used by :meth:`subgraph` and :class:`GraphBuilder` to skip the
        validation passes.
        """
        graph = cls.__new__(cls)
        graph._adopt_csr(n, offsets, indices, num_edges)
        return graph

    def _adopt_csr(self, n: int, offsets: array, indices: array, num_edges: int) -> None:
        """Take the CSR buffers as this graph's state, every cache cold."""
        self.n = n
        self._offsets = offsets
        self._indices = indices
        self._num_edges = num_edges
        self._adj: list[list[int]] | None = None
        self._adj_sets: list[set[int]] | None = None
        self._max_degree: int | None = None
        self._min_degree: int | None = None

    # -- pickling: the two CSR buffers only -----------------------------

    def __getstate__(self) -> tuple[int, array, array, int]:
        offsets, indices = self.csr()
        return self.n, offsets, indices, self._num_edges

    def __setstate__(self, state: tuple[int, array, array, int]) -> None:
        self._adopt_csr(*state)

    # -- factory helpers -------------------------------------------------

    @classmethod
    def from_edges_unchecked(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from an edge list that is *known* to be simple and in range.

        Skips the validation passes of ``Graph(n, edges)`` (endpoint
        checks, self-loop and duplicate detection) — two counting passes
        and nothing else.  For generator-internal use where simplicity
        holds by construction; untrusted input must go through the normal
        constructor.
        """
        edge_list = edges if isinstance(edges, (list, tuple)) else list(edges)
        offsets = array("i", bytes(4 * (n + 1)))
        for u, v in edge_list:
            offsets[u + 1] += 1
            offsets[v + 1] += 1
        total = 0
        for i in range(1, n + 1):
            total += offsets[i]
            offsets[i] = total
        indices = array("i", bytes(4 * total))
        cursor = array("i", offsets[:n])
        for u, v in edge_list:
            indices[cursor[u]] = v
            cursor[u] += 1
            indices[cursor[v]] = u
            cursor[v] += 1
        return cls._from_csr(n, offsets, indices, len(edge_list))

    @classmethod
    def from_adjacency(cls, adj: Sequence[Sequence[int]]) -> "Graph":
        """Build a graph from an adjacency-list structure.

        The adjacency lists must be symmetric (``v in adj[u]`` iff
        ``u in adj[v]``); this is validated in a single counting pass
        (historically this was an O(deg²) per-node ``sorted`` comparison).
        """
        n = len(adj)
        edges = []
        for u in range(n):
            for v in adj[u]:
                if u < v:
                    edges.append((u, v))
        graph = cls(n, edges)
        # The constructor consumed only the u < v half; symmetry holds iff
        # each input row is (as a multiset) exactly the reconstructed row.
        for u in range(n):
            if len(adj[u]) != graph.degree(u) or Counter(adj[u]) != Counter(
                graph.neighbors(u)
            ):
                raise GraphError(f"adjacency list of node {u} is not symmetric")
        return graph

    # -- basic queries ----------------------------------------------------

    @property
    def adj(self) -> list[list[int]]:
        """Adjacency lists, materialised lazily from CSR and cached."""
        cached = self._adj
        if cached is None:
            offsets = self._offsets
            flat = self._indices.tolist()
            cached = [flat[offsets[v] : offsets[v + 1]] for v in range(self.n)]
            self._adj = cached
        return cached

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def degree(self, v: int) -> int:
        """Degree of node ``v`` (O(1) from the CSR offsets)."""
        return self._offsets[v + 1] - self._offsets[v]

    def degrees(self) -> list[int]:
        """List of all node degrees, indexed by node."""
        offsets = self._offsets
        return list(map(sub, offsets[1:], offsets))

    def max_degree(self) -> int:
        """Maximum degree Δ of the graph (0 for the empty graph); cached.

        The first call is one pass over the CSR offsets.  The incremental
        engine does not pay it per update: its ``DynamicGraph`` keeps Δ
        in a degree histogram and hands it to every snapshot.
        """
        if self._max_degree is None:
            self._max_degree = max(self.degrees(), default=0)
        return self._max_degree

    def min_degree(self) -> int:
        """Minimum degree of the graph (0 for the empty graph); cached."""
        if self._min_degree is None:
            self._min_degree = min(self.degrees(), default=0)
        return self._min_degree

    def neighbors(self, v: int) -> list[int]:
        """The adjacency list of ``v`` (do not mutate); a fresh list from
        the CSR row while ``adj`` is not built."""
        adj = self._adj
        if adj is not None:
            return adj[v]
        return self.neighbors_csr(v).tolist()

    def neighbors_csr(self, v: int) -> memoryview:
        """Zero-copy view of ``v``'s neighbour row in the CSR buffer.

        Iterating the memoryview yields plain ints; use this in code that
        touches a few rows of a large graph without wanting the full
        ``adj`` materialisation.
        """
        return memoryview(self._indices)[self._offsets[v] : self._offsets[v + 1]]

    def csr(self) -> tuple[array, array]:
        """The raw ``(offsets, indices)`` CSR buffers (read-only by contract)."""
        return self._offsets, self._indices

    def adjacency_sets(self) -> list[set[int]]:
        """Set-of-neighbors view, built lazily and cached."""
        if self._adj_sets is None:
            self._adj_sets = [set(nbrs) for nbrs in self.adj]
        return self._adj_sets

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``{u, v}`` is an edge: a set probe once
        :meth:`adjacency_sets` is built, else a scan of the smaller CSR
        row."""
        sets = self._adj_sets
        if sets is not None:
            return v in sets[u]
        if self.degree(v) < self.degree(u):
            u, v = v, u
        return v in self.neighbors_csr(u)

    def edge_pairs(self) -> array:
        """Every undirected edge ``(u, v)`` with ``u < v``, row by row in
        CSR order, as one flat ``array('i')`` of interleaved pairs ``u0
        v0 u1 v1 …`` (listed by the kernel's ``edge_pairs`` when it is
        loaded).  The service's packed wire form is this buffer."""
        offsets, indices = self.csr()
        kernel = native.kernel("edge_pairs")
        if kernel is None:
            return _edge_pairs_python(offsets, indices)
        cap = len(indices) // 2
        pairs = array("i", bytes(8 * cap))
        found = kernel(address(offsets), address(indices), self.n, address(pairs), cap)
        if found != cap:  # not symmetric: only the twin lists it faithfully
            return _edge_pairs_python(offsets, indices)
        return pairs

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u < v``, row by
        row in CSR order: :meth:`edge_pairs`, sliced into tuples."""
        flat = self.edge_pairs().tolist()
        return zip(flat[0::2], flat[1::2])

    def nodes(self) -> range:
        """Range over all node indices."""
        return range(self.n)

    # -- connectivity -----------------------------------------------------

    def connected_components(self, members: set[int] | None = None) -> list[list[int]]:
        """Connected components as lists of nodes (each sorted ascending),
        in order of their smallest node; with ``members``, the components
        of the subgraph ``members`` induces.  Reads CSR rows only."""
        seen = bytearray(self.n)
        components: list[list[int]] = []
        for start in range(self.n) if members is None else sorted(members):
            if seen[start]:
                continue
            seen[start] = 1
            stack = [start]
            component = [start]
            while stack:
                u = stack.pop()
                for v in self.neighbors_csr(u):
                    if not seen[v] and (members is None or v in members):
                        seen[v] = 1
                        stack.append(v)
                        component.append(v)
            component.sort()
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """True iff the graph is connected (the empty graph counts as
        connected, single-node graphs too).

        One search from node 0 in the native kernel (``level_bfs``); the
        component scan is the twin when the kernel is not loaded.
        """
        if self.n <= 1:
            return True
        from repro.graphs.bfs import reached_count

        reached = reached_count(self, [0])
        if reached is None:
            return self._is_connected_python()
        return reached == self.n

    def _is_connected_python(self) -> bool:
        return len(self.connected_components()) == 1

    # -- derived graphs ---------------------------------------------------

    def subgraph(self, nodes: Iterable[int]) -> tuple["Graph", list[int]]:
        """Node-induced subgraph.

        Returns ``(H, originals)`` where ``H`` is the induced subgraph with
        nodes relabeled ``0..k-1`` and ``originals[i]`` is the original index
        of ``H``'s node ``i``.  Built through the unchecked CSR fast path
        from the members' CSR rows (a :class:`DynamicGraph` is read
        through its live rows, not compacted): the induced rows of a
        simple graph are simple, so no validation passes run.
        """
        originals = sorted(set(nodes))
        index = {v: i for i, v in enumerate(originals)}
        row = self.neighbors_csr
        offsets = array("i", [0])
        indices = array("i")
        for v in originals:
            indices.extend(index[w] for w in row(v) if w in index)
            offsets.append(len(indices))
        return Graph._from_csr(len(originals), offsets, indices, len(indices) // 2), originals

    def apply_updates(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> "Graph":
        """A new graph with ``added`` edges inserted and ``removed`` deleted.

        ``self`` is adopted by a :class:`repro.graphs.dynamic.DynamicGraph`
        (one copy of the indices buffer), the delta applies in place
        there, and the compacted snapshot comes back — the same update
        path the incremental engine runs.  ``self`` is not mutated; the
        node set is fixed (grow through :meth:`GraphBuilder.from_graph`).

        Validation (raises :class:`GraphError`, leaving ``self`` usable):
        endpoints in range, no self-loops, no edge repeated within the
        batch — including appearing in both lists at once (a
        remove-and-re-add is a no-op; spell it as two calls if the
        intermediate version matters) — every removed edge present and
        every added edge absent.

        Row order: every untouched row verbatim, every touched row in its
        old order minus removals with additions appended in batch order.
        """
        from repro.graphs.dynamic import DynamicGraph

        dyn = DynamicGraph.from_graph(self)
        dyn.apply_delta(added, removed)
        return dyn.snapshot()

    def validate_coloring_region(
        self,
        colors: Sequence[int],
        nodes: Iterable[int],
        max_colors: int | None = None,
        allow_partial: bool = False,
    ) -> None:
        """Validate ``colors`` on the edges incident to ``nodes`` only.

        Convenience front door to :func:`repro.graphs.validation.
        validate_coloring_region` — the O(vol(region)) dirty-region check
        the incremental engine uses instead of a full O(n + m) pass.  See
        that function for the soundness contract (every changed node must
        be inside ``nodes``).
        """
        from repro.graphs.validation import validate_coloring_region

        validate_coloring_region(
            self, colors, nodes, max_colors=max_colors, allow_partial=allow_partial
        )

    def complement_within(self, nodes: Sequence[int]) -> list[tuple[int, int]]:
        """Non-edges among ``nodes`` (pairs in original labels).

        Helper for picking two non-adjacent neighbours in the marking
        process; quadratic in ``len(nodes)``, which is at most Δ there, and
        it builds no graph-wide adjacency cache.
        """
        out = []
        node_list = list(nodes)
        for i, u in enumerate(node_list):
            adjacent = set(self.neighbors_csr(u))
            out.extend((u, v) for v in node_list[i + 1:] if v not in adjacent)
        return out

    # -- dunder -----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Graph(n={self.n}, m={self.num_edges}, Δ={self.max_degree()})"


class GraphBuilder:
    """Incremental graph construction for generators.

    Collects edges (optionally deduplicating on the fly) and emits a
    :class:`Graph` through the unchecked CSR fast path, skipping the
    validation passes that :class:`Graph` runs on untrusted input.

    Usage::

        builder = GraphBuilder(n)
        for u, v in stream:
            builder.add_edge(u, v)        # raises on loops/range errors
        graph = builder.build()
    """

    __slots__ = ("n", "_us", "_vs", "_seen", "_dedup")

    def __init__(self, n: int = 0, dedup: bool = False):
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        self.n = n
        self._us = array("i")
        self._vs = array("i")
        self._dedup = dedup
        self._seen: set[int] | None = set() if dedup else None

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        *,
        dedup: bool = False,
        skip_keys: "set[tuple[int, int]] | None" = None,
    ) -> "GraphBuilder":
        """A builder pre-loaded with ``graph``'s edges (insertion order).

        The escape hatch for updates that must grow the node set.
        ``skip_keys`` drops the given ``(min, max)`` edge keys while
        copying.
        """
        builder = cls(graph.n, dedup=dedup)
        us, vs, seen = builder._us, builder._vs, builder._seen
        for u, v in graph.edges():
            if skip_keys is not None and (u, v) in skip_keys:
                continue
            us.append(u)
            vs.append(v)
            if seen is not None:
                seen.add((u << 32) | v)
        return builder

    def ensure_node(self, v: int) -> None:
        """Grow the node range to include ``v``."""
        if v >= self.n:
            self.n = v + 1

    def add_edge(self, u: int, v: int) -> bool:
        """Record the edge ``{u, v}``.

        Returns False (instead of raising) for a duplicate when the builder
        was created with ``dedup=True``.  Raises :class:`GraphError` for
        self-loops and, without dedup, leaves duplicate detection to the
        caller's discipline (generators emit each edge once by
        construction).
        """
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")
        if u < 0 or v < 0:
            raise GraphError(f"edge ({u}, {v}) has a negative endpoint")
        if v >= self.n or u >= self.n:
            self.ensure_node(max(u, v))
        if self._seen is not None:
            key = (u << 32) | v if u < v else (v << 32) | u
            if key in self._seen:
                return False
            self._seen.add(key)
        self._us.append(u)
        self._vs.append(v)
        return True

    def has_edge(self, u: int, v: int) -> bool:
        """Membership probe; only available on deduplicating builders."""
        if self._seen is None:
            raise GraphError("has_edge requires GraphBuilder(dedup=True)")
        key = (u << 32) | v if u < v else (v << 32) | u
        return key in self._seen

    @property
    def num_edges(self) -> int:
        return len(self._us)

    def build(self) -> Graph:
        """Emit the accumulated graph via the unchecked CSR path."""
        n = self.n
        us, vs = self._us, self._vs
        m = len(us)
        offsets = array("i", bytes(4 * (n + 1)))
        for i in range(m):
            offsets[us[i] + 1] += 1
            offsets[vs[i] + 1] += 1
        total = 0
        for i in range(1, n + 1):
            total += offsets[i]
            offsets[i] = total
        indices = array("i", bytes(4 * total))
        cursor = array("i", offsets[:n])
        for i in range(m):
            u, v = us[i], vs[i]
            indices[cursor[u]] = v
            cursor[u] += 1
            indices[cursor[v]] = u
            cursor[v] += 1
        return Graph._from_csr(n, offsets, indices, m)
