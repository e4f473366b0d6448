"""Synchronous message-passing engine for the LOCAL model.

This is the faithful execution substrate: per-node state machines exchange
one message per neighbour per round, with unbounded message size and
unbounded local computation, exactly as in [Linial 92, Peleg 00].  The
node programs of :mod:`repro.primitives.programs` (Luby's MIS, randomized
list-coloring trials, layer discovery) run on it, and the tests pin the
engines' simulated rounds against them; the engines themselves charge
their rounds on the shared :class:`RoundLedger` directly.

The node program interface is deliberately tiny:

* ``start(ctx)`` — called once before round 1; may inspect ``ctx`` (own id,
  degree, ports) and set initial state.
* ``message(ctx, round_index)`` — the message broadcast to all neighbours
  this round (LOCAL algorithms in this paper never need port-specific
  messages, broadcast is standard), or ``None`` to stay silent.
* ``receive(ctx, round_index, inbox)`` — ``inbox`` maps neighbour id to the
  message it sent.  Returns True when the node has halted.

The engine stops when every node has halted or ``max_rounds`` is hit, and
charges every executed round to the ledger.

Scaling notes (CSR era): the communication topology sits in the
:class:`repro.graphs.graph.Graph` CSR buffers; the engine resolves the
*active-neighbour* lists (the paper constantly runs subroutines on a
remainder graph H or a single layer, so inactive neighbours must be
filtered out) **once in the constructor** instead of per ``run`` call.
When every node is active the engine hands out the graph's own adjacency
rows without copying; a masked filter pass builds the restricted rows
otherwise.  Repeated ``run`` invocations on one network — the dominant
pattern in the per-layer subroutines — therefore pay no per-run setup
proportional to the graph.  Node programs receive these shared lists in
``ctx.neighbors`` and must treat them as read-only (copy before mutating,
as ``LubyProgram`` does with its ``live_neighbors`` set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.graphs.graph import Graph
from repro.local.rounds import RoundLedger

__all__ = ["NodeContext", "NodeProgram", "SyncNetwork"]


@dataclass
class NodeContext:
    """Per-node view handed to the node program.

    ``node`` is the unique identifier (LOCAL gives nodes O(log n)-bit ids;
    we use the index).  ``state`` is free-form per-node storage owned by the
    program.  ``halted`` is managed by the engine.  ``neighbors`` is the
    engine-owned active-neighbour list — read-only by contract.
    """

    node: int
    neighbors: list[int]
    state: dict[str, Any] = field(default_factory=dict)
    halted: bool = False

    @property
    def degree(self) -> int:
        return len(self.neighbors)


class NodeProgram(Protocol):
    """Protocol for synchronous node programs (see module docstring)."""

    def start(self, ctx: NodeContext) -> None:
        ...

    def message(self, ctx: NodeContext, round_index: int) -> Any:
        ...

    def receive(self, ctx: NodeContext, round_index: int, inbox: dict[int, Any]) -> bool:
        ...


class SyncNetwork:
    """Synchronous executor of a :class:`NodeProgram` over a graph.

    Parameters
    ----------
    graph:
        Communication topology.
    ledger:
        Shared round ledger; every executed round charges 1.
    active:
        Optional subset of nodes participating (the paper constantly runs
        subroutines on a remainder graph H or a single layer); inactive
        nodes neither send nor receive, and messages to them are dropped —
        equivalent to running on the induced subgraph.

    The active-neighbour lists are precomputed once here (not per
    :meth:`run`): the full-graph case shares the CSR-backed adjacency rows
    outright, the restricted case filters through a byte mask.
    """

    def __init__(
        self,
        graph: Graph,
        ledger: RoundLedger | None = None,
        active: set[int] | None = None,
    ):
        self.graph = graph
        self.ledger = ledger if ledger is not None else RoundLedger()
        adj = graph.adj
        if active is None:
            self.active = set(range(graph.n))
            self._active_nodes = list(range(graph.n))
            self._neighbors: list[list[int]] = adj
        else:
            self.active = set(active)
            self._active_nodes = sorted(self.active)
            mask = bytearray(graph.n)
            for v in self._active_nodes:
                mask[v] = 1
            self._neighbors = [
                [u for u in adj[v] if mask[u]] if mask[v] else []
                for v in range(graph.n)
            ]
        self.contexts: dict[int, NodeContext] = {}

    def run(self, program: NodeProgram, max_rounds: int = 10_000) -> dict[int, NodeContext]:
        """Execute ``program`` until all active nodes halt.

        Returns the per-node contexts (whose ``state`` holds the outputs).
        Raises ``RuntimeError`` if ``max_rounds`` is exceeded — node
        programs in this package always halt, so hitting the cap indicates
        a bug rather than an unlucky run.
        """
        neighbors = self._neighbors
        self.contexts = {
            v: NodeContext(node=v, neighbors=neighbors[v]) for v in self._active_nodes
        }
        contexts = self.contexts
        for ctx in contexts.values():
            program.start(ctx)

        round_index = 0
        live = {v for v, ctx in contexts.items() if not ctx.halted}
        message = program.message
        receive = program.receive
        while live:
            round_index += 1
            if round_index > max_rounds:
                raise RuntimeError(
                    f"node program {type(program).__name__} exceeded {max_rounds} rounds"
                )
            outbox: dict[int, Any] = {}
            for v in live:
                msg = message(contexts[v], round_index)
                if msg is not None:
                    outbox[v] = msg
            newly_halted = []
            for v in live:
                ctx = contexts[v]
                inbox = {u: outbox[u] for u in ctx.neighbors if u in outbox}
                if receive(ctx, round_index, inbox):
                    ctx.halted = True
                    newly_halted.append(v)
            for v in newly_halted:
                live.discard(v)
            self.ledger.charge(1)
        return self.contexts

    def states(self, key: str) -> dict[int, Any]:
        """Extract ``state[key]`` from every context after a run."""
        return {v: ctx.state.get(key) for v, ctx in self.contexts.items()}
