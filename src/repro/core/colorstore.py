"""Array-backed color store with journaled transactions.

The incremental engine used to shuttle colorings around as Python lists:
``list(self._colors)`` at the top of every op, ``list(colors)`` again to
diff against, and a full ``zip(before, after)`` scan to discover what
changed — three O(n) passes per update even when the repair touched four
nodes.  :class:`ColorStore` replaces all of that:

* colors live in one ``numpy`` int32 array (pure-Python ``array('i')``
  fallback, pinned behaviourally identical by ``tests/test_colorstore.py``);
* :meth:`begin` opens a transaction: writes journal the **first** old
  value per node into a dict, so :meth:`rollback` is O(touched) and
  :meth:`commit` returns exactly the nodes whose final value differs
  from their pre-transaction value — no full-array diff;
* :meth:`view` is a copy-on-read, read-only view for validators and
  fingerprinting (zero copies on the numpy path);
* item access returns plain Python ints, so stored colorings round-trip
  through JSON and ``tuple(...)`` equality exactly as before.

Repair routines (:func:`repro.core.brooks.fix_uncolored_node`, the
greedy rung) mutate colorings only through ``colors[v]`` reads/writes,
so a store instance drops in wherever a list was passed.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator

from repro import numeric

__all__ = ["ColorStore"]


class ColorStore:
    """A flat color array with an optional first-write-wins journal.

    Parameters
    ----------
    colors:
        Initial coloring (any iterable of ints).
    backend:
        ``"auto"`` (numpy when available), ``"numpy"``, or ``"python"``.
    """

    __slots__ = ("_buf", "_np", "_journal")

    def __init__(self, colors: Iterable[int], *, backend: str = "auto"):
        if backend not in ("auto", "numpy", "python"):
            raise ValueError(f"unknown ColorStore backend: {backend!r}")
        np = numeric.np
        use_np = np is not None and backend in ("auto", "numpy")
        if backend == "numpy" and np is None:
            raise RuntimeError("numpy backend requested but numpy is unavailable")
        if use_np:
            self._buf = np.asarray(list(colors), dtype=np.int32)
            self._np = True
        else:
            self._buf = array("i", colors)
            self._np = False
        self._journal: dict[int, int] | None = None

    # -- sequence protocol (what repair routines use) ----------------------

    def __len__(self) -> int:
        return len(self._buf)

    def __getitem__(self, v: int) -> int:
        return int(self._buf[v])

    def __setitem__(self, v: int, color: int) -> None:
        journal = self._journal
        if journal is not None and v not in journal:
            journal[v] = int(self._buf[v])
        self._buf[v] = color

    def __iter__(self) -> Iterator[int]:
        if self._np:
            return iter(self._buf.tolist())
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
        changed = sorted(v for v, old in journal.items() if int(buf[v]) != old)
        self._journal = None
        return changed

    # -- bulk access -------------------------------------------------------

    def view(self):
        """A read-only, zero-copy (numpy) or copying (fallback) view.

        Supports ``len``, indexing, and iteration — what the region
        validator and fingerprinting need.  Never write through it.
        """
        if self._np:
            out = self._buf.view()
            out.flags.writeable = False
            return out
        return tuple(self._buf)

    def to_list(self) -> list[int]:
        """A plain-list copy (O(n)); for API boundaries only."""
        if self._np:
            return self._buf.tolist()
        return list(self._buf)

    def replace(self, colors: Iterable[int]) -> None:
        """Swap in a whole new coloring (full re-solve path); any open
        transaction is discarded — the caller owns the diff."""
        if self._np:
            np = numeric.np
            self._buf = np.asarray(list(colors), dtype=np.int32)
        else:
            self._buf = array("i", colors)
        self._journal = None

    def diff_count(self, other: Iterable[int]) -> int:
        """How many positions differ from ``other`` (vectorized on numpy)."""
        if self._np:
            np = numeric.np
            arr = np.asarray(
                other if isinstance(other, np.ndarray) else list(other), dtype=np.int32
            )
            return int(np.count_nonzero(self._buf != arr))
        buf = self._buf
        return sum(1 for v, c in enumerate(other) if buf[v] != c)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        backend = "numpy" if self._np else "python"
        return f"ColorStore(n={len(self._buf)}, backend={backend})"
