"""LOCAL model substrate: round accounting and the SLOCAL simulator.

Engines simulate synchronous rounds on arrays and charge them to a
:class:`RoundLedger`; there is no per-node message-passing engine.
"""

from repro.local.rounds import PhaseBreakdown, RoundLedger
from repro.local.slocal import SLocalRun, SLocalSimulator

__all__ = ["RoundLedger", "PhaseBreakdown", "SLocalRun", "SLocalSimulator"]
