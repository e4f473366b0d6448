"""Node programs for the faithful message-passing engine.

The vectorised primitives in this package simulate synchronous rounds
with global data structures for speed; these :class:`NodeProgram`
implementations run through the real per-node engine
(:class:`repro.local.network.SyncNetwork`).  The test suite pins the
coloring and layering programs against the fast path — same outputs
under the same randomness discipline, same rounds-per-iteration
accounting — which is the evidence that the fast path is a faithful
LOCAL simulation.  :class:`LubyProgram` pins the engine's own round
accounting (two rounds per MIS iteration).
"""

from __future__ import annotations

import random
from typing import Any

from repro.local.network import NodeContext

__all__ = ["LubyProgram", "TrialColoringProgram", "LayerDiscoveryProgram"]

UNDECIDED, IN_MIS, OUT = 0, 1, 2


class LubyProgram:
    """Luby's MIS as a :class:`NodeProgram` for the message-passing engine.

    Every iteration takes two engine rounds, so a run's ledger total is
    twice its iterations.  State protocol: phase alternates between "bid"
    (send priority) and "resolve" (send join/out decision).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def start(self, ctx: NodeContext) -> None:
        ctx.state["rng"] = random.Random((self.seed << 20) ^ ctx.node)
        ctx.state["status"] = UNDECIDED
        ctx.state["phase"] = "bid"
        ctx.state["live_neighbors"] = set(ctx.neighbors)

    def message(self, ctx: NodeContext, round_index: int):
        if ctx.state["phase"] == "bid":
            ctx.state["priority"] = (ctx.state["rng"].random(), ctx.node)
            return ("bid", ctx.state["priority"])
        return ("decision", ctx.state["status"])

    def receive(self, ctx: NodeContext, round_index: int, inbox) -> bool:
        if ctx.state["phase"] == "bid":
            mine = ctx.state["priority"]
            bids = [
                payload
                for sender, (kind, payload) in inbox.items()
                if kind == "bid" and sender in ctx.state["live_neighbors"]
            ]
            if all(mine > bid for bid in bids):
                ctx.state["status"] = IN_MIS
            ctx.state["phase"] = "resolve"
            return False
        # Resolve phase: a neighbour joining knocks this node out.
        for sender, (kind, payload) in inbox.items():
            if kind == "decision" and payload == IN_MIS:
                if ctx.state["status"] != IN_MIS:
                    ctx.state["status"] = OUT
            if kind == "decision" and payload in (IN_MIS, OUT):
                ctx.state["live_neighbors"].discard(sender)
        ctx.state["phase"] = "bid"
        return ctx.state["status"] != UNDECIDED

    @staticmethod
    def extract(contexts: dict[int, NodeContext]) -> set[int]:
        """Nodes that joined the MIS after a run."""
        return {v for v, ctx in contexts.items() if ctx.state["status"] == IN_MIS}


class TrialColoringProgram:
    """Randomized (deg+1)-list coloring as a genuine node program.

    Protocol per iteration (two engine rounds):
    ``propose``: every uncolored node broadcasts a uniformly random color
    from {1..max_colors} minus its neighbours' committed colors;
    ``resolve``: nodes whose proposal conflicts with no neighbour's
    proposal commit and broadcast the commitment.

    ``extract`` returns the committed colors; the engine's round count is
    2 × iterations, matching ``list_coloring_random``'s 1-round-per-trial
    accounting up to the constant the two protocols genuinely differ by
    (the vectorised engine piggybacks commitment on the next proposal).
    """

    def __init__(self, max_colors: int, seed: int = 0):
        self.max_colors = max_colors
        self.seed = seed

    def start(self, ctx: NodeContext) -> None:
        ctx.state["rng"] = random.Random((self.seed << 24) ^ (ctx.node * 2654435761 % (1 << 31)))
        ctx.state["color"] = 0
        ctx.state["neighbor_colors"] = {}
        ctx.state["phase"] = "propose"

    def message(self, ctx: NodeContext, round_index: int) -> Any:
        if ctx.state["phase"] == "propose":
            taken = set(ctx.state["neighbor_colors"].values())
            options = [c for c in range(1, self.max_colors + 1) if c not in taken]
            ctx.state["proposal"] = ctx.state["rng"].choice(options)
            return ("propose", ctx.state["proposal"])
        return ("commit", ctx.state["color"])

    def receive(self, ctx: NodeContext, round_index: int, inbox: dict[int, Any]) -> bool:
        if ctx.state["phase"] == "propose":
            mine = ctx.state["proposal"]
            conflict = any(
                kind == "propose" and value == mine for kind, value in inbox.values()
            )
            if not conflict:
                ctx.state["color"] = mine
            ctx.state["phase"] = "resolve"
            return False
        for sender, (kind, value) in inbox.items():
            if kind == "commit" and value:
                ctx.state["neighbor_colors"][sender] = value
        ctx.state["phase"] = "propose"
        return ctx.state["color"] != 0

    @staticmethod
    def extract(contexts: dict[int, NodeContext]) -> dict[int, int]:
        """Committed colors after a run."""
        return {v: ctx.state["color"] for v, ctx in contexts.items()}


class LayerDiscoveryProgram:
    """Distributed distance-layer computation (the layering technique's
    BFS, phase (3)/(5), as an actual flood).

    Base nodes start at distance 0; every node adopts 1 + min neighbour
    distance heard so far and halts once its value is stable for one
    round after its first assignment (BFS floods assign final values on
    first receipt in unweighted graphs).
    """

    def __init__(self, base: set[int]):
        self.base = base

    def start(self, ctx: NodeContext) -> None:
        ctx.state["dist"] = 0 if ctx.node in self.base else None
        ctx.state["announced"] = False

    def message(self, ctx: NodeContext, round_index: int) -> Any:
        if ctx.state["dist"] is not None and not ctx.state["announced"]:
            ctx.state["announced"] = True
            return ("dist", ctx.state["dist"])
        return None

    def receive(self, ctx: NodeContext, round_index: int, inbox: dict[int, Any]) -> bool:
        if ctx.state["dist"] is None:
            incoming = [value for kind, value in inbox.values() if kind == "dist"]
            if incoming:
                ctx.state["dist"] = min(incoming) + 1
            return False
        return ctx.state["announced"]

    @staticmethod
    def extract(contexts: dict[int, NodeContext]) -> dict[int, int | None]:
        """Distances after a run (None = unreached)."""
        return {v: ctx.state["dist"] for v, ctx in contexts.items()}
