"""Tests for the LOCAL substrate's round ledger."""

import pytest

from repro.local.rounds import RoundLedger


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

    def test_breakdown_totals_each_phase(self):
        ledger = RoundLedger()
        with ledger.phase("x"):
            ledger.charge(4)
        with ledger.phase("y"):
            ledger.charge(1)
        with ledger.phase("x"):
            ledger.charge(2)
        assert ledger.breakdown.phases == {"x": 6, "y": 1}
        assert ledger.breakdown.total() == ledger.total_rounds == 7
