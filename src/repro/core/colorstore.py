"""Array-backed color store with journaled transactions.

The incremental engine used to shuttle colorings around as Python lists:
``list(self._colors)`` at the top of every op, ``list(colors)`` again to
diff against, and a full ``zip(before, after)`` scan to discover what
changed — three O(n) passes per update even when the repair touched four
nodes.  :class:`ColorStore` replaces all of that:

* colors live in one ``array('i')``;
* :meth:`begin` opens a transaction: writes journal the **first** old
  value per node into a dict, so :meth:`rollback` is O(touched) and
  :meth:`commit` returns exactly the nodes whose final value differs
  from their pre-transaction value — no full-array diff;
* :attr:`buffer` hands the array itself to readers that scan all of it
  (the kernel's ``validate`` reads it in place);
* item access returns plain Python ints, so stored colorings round-trip
  through JSON and ``tuple(...)`` equality exactly as before.

Repair routines (:func:`repro.core.brooks.fix_uncolored_node`, the
greedy rung) mutate colorings only through ``colors[v]`` reads/writes,
so a store instance drops in wherever a list was passed.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator

__all__ = ["ColorStore"]


class ColorStore:
    """A flat color array with an optional first-write-wins journal.

    Parameters
    ----------
    colors:
        Initial coloring (any iterable of ints that fit a C int).
    """

    __slots__ = ("_buf", "_journal")

    def __init__(self, colors: Iterable[int]):
        self._buf = array("i", colors)
        self._journal: dict[int, int] | None = None

    # -- sequence protocol (what repair routines use) ----------------------

    def __len__(self) -> int:
        return len(self._buf)

    def __getitem__(self, v: int) -> int:
        return self._buf[v]

    def __setitem__(self, v: int, color: int) -> None:
        journal = self._journal
        if journal is not None and v not in journal:
            journal[v] = self._buf[v]
        self._buf[v] = color

    def __iter__(self) -> Iterator[int]:
        return iter(self._buf)

    # -- transactions ------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._journal is not None

    def begin(self) -> None:
        """Open a transaction; nested transactions are a bug."""
        if self._journal is not None:
            raise RuntimeError("ColorStore transaction already open")
        self._journal = {}

    def rollback(self) -> None:
        """Restore every journaled write and close the transaction."""
        journal = self._journal
        if journal is None:
            raise RuntimeError("no open ColorStore transaction")
        buf = self._buf
        for v, old in journal.items():
            buf[v] = old
        self._journal = None

    def commit(self) -> list[int]:
        """Close the transaction; the sorted nodes whose value actually
        changed (writes that restored the original value don't count)."""
        journal = self._journal
        if journal is None:
            raise RuntimeError("no open ColorStore transaction")
        buf = self._buf
        changed = sorted(v for v, old in journal.items() if buf[v] != old)
        self._journal = None
        return changed

    # -- bulk access -------------------------------------------------------

    @property
    def buffer(self) -> array:
        """The live ``array('i')`` itself, for whole-coloring scans; never
        write through it (writes would bypass the journal)."""
        return self._buf

    def to_list(self) -> list[int]:
        """A plain-list copy (O(n)); for API boundaries only."""
        return self._buf.tolist()

    def replace(self, colors: Iterable[int]) -> None:
        """Swap in a whole new coloring (full re-solve path); any open
        transaction is discarded — the caller owns the diff."""
        self._buf = array("i", colors)
        self._journal = None

    def diff_count(self, other: Iterable[int]) -> int:
        """How many positions differ from ``other``."""
        buf = self._buf
        return sum(1 for v, c in enumerate(other) if buf[v] != c)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ColorStore(n={len(self._buf)})"
