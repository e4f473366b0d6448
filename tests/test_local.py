"""Tests for the LOCAL substrate: round ledger and synchronous engine."""

import pytest

from repro.graphs.generators import cycle_graph, random_regular_graph
from repro.local.network import NodeContext, SyncNetwork
from repro.local.rounds import RoundLedger
from repro.primitives.programs import LubyProgram


class TestRoundLedger:
    def test_simple_charge(self):
        ledger = RoundLedger()
        ledger.charge(5)
        assert ledger.total_rounds == 5

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            RoundLedger().charge(-1)

    def test_phases_attribute_rounds(self):
        ledger = RoundLedger()
        with ledger.phase("a"):
            ledger.charge(2)
            with ledger.phase("b"):
                ledger.charge(3)
        assert ledger.snapshot() == {"a": 2, "a/b": 3}
        assert ledger.total_rounds == 5

    def test_charge_max(self):
        ledger = RoundLedger()
        ledger.charge_max([3, 9, 1])
        assert ledger.total_rounds == 9

    def test_charge_max_empty(self):
        ledger = RoundLedger()
        ledger.charge_max([])
        assert ledger.total_rounds == 0

    def test_breakdown_table_contains_total(self):
        ledger = RoundLedger()
        with ledger.phase("x"):
            ledger.charge(4)
        assert "TOTAL" in ledger.breakdown.as_table()
        assert "x" in ledger.breakdown.as_table()


class _CountNeighborsProgram:
    """Tiny program: each node halts after learning its degree via one
    message exchange (sanity check of the engine plumbing)."""

    def start(self, ctx: NodeContext) -> None:
        ctx.state["heard"] = 0

    def message(self, ctx: NodeContext, round_index: int):
        return "ping"

    def receive(self, ctx: NodeContext, round_index: int, inbox) -> bool:
        ctx.state["heard"] = len(inbox)
        return True


class TestSyncNetwork:
    def test_one_round_degree_count(self):
        g = cycle_graph(5)
        net = SyncNetwork(g)
        contexts = net.run(_CountNeighborsProgram())
        assert all(ctx.state["heard"] == 2 for ctx in contexts.values())
        assert net.ledger.total_rounds == 1

    def test_active_subset_masks_messages(self):
        g = cycle_graph(6)
        net = SyncNetwork(g, active={0, 1, 2})
        contexts = net.run(_CountNeighborsProgram())
        assert contexts[1].state["heard"] == 2
        assert contexts[0].state["heard"] == 1  # neighbour 5 is inactive
        assert 5 not in contexts

    def test_max_rounds_guard(self):
        class NeverHalts:
            def start(self, ctx):
                pass

            def message(self, ctx, round_index):
                return "x"

            def receive(self, ctx, round_index, inbox):
                return False

        with pytest.raises(RuntimeError, match="exceeded"):
            SyncNetwork(cycle_graph(4)).run(NeverHalts(), max_rounds=10)

    def test_states_extraction(self):
        g = cycle_graph(4)
        net = SyncNetwork(g)
        net.run(_CountNeighborsProgram())
        assert net.states("heard") == {0: 2, 1: 2, 2: 2, 3: 2}


class TestLubyProgramOnEngine:
    @pytest.mark.parametrize("seed", range(5))
    def test_produces_valid_mis(self, seed):
        g = random_regular_graph(120, 4, seed=seed)
        net = SyncNetwork(g, RoundLedger())
        contexts = net.run(LubyProgram(seed=seed))
        in_set = LubyProgram.extract(contexts)
        for u, v in g.edges():
            assert not (u in in_set and v in in_set)
        for v in range(g.n):
            assert v in in_set or any(u in in_set for u in g.adj[v])

    def test_rounds_are_two_per_iteration(self):
        g = random_regular_graph(100, 3, seed=2)
        net = SyncNetwork(g, RoundLedger())
        net.run(LubyProgram(seed=2))
        assert net.ledger.total_rounds % 2 == 0
        assert net.ledger.total_rounds >= 2
