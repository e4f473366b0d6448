"""Tests for the journaling color store (:class:`repro.core.ColorStore`).

The store is one ``array('i')``.  Every test runs twice, on colors that
arrive as a list and as a numpy int32 array (a caller's data; that half
skips where numpy is not installed): item access, transactions, the
buffer and diffing must behave identically, and hand out plain ints.
"""

from __future__ import annotations

import pytest

from repro.core.colorstore import ColorStore

try:
    import numpy as np
except Exception:  # pragma: no cover
    np = None


@pytest.fixture(params=["python", "numpy"])
def backend(request):
    """How the initial colors arrive: ``python`` a list, ``numpy`` an
    int32 array."""
    if request.param == "numpy" and np is None:
        pytest.skip("numpy unavailable")
    return request.param


def store_of(colors, backend):
    if backend == "numpy":
        return ColorStore(np.asarray(colors, dtype=np.int32))
    return ColorStore(colors)


class TestSequenceProtocol:
    def test_len_get_set_iter(self, backend):
        store = store_of([3, 1, 4, 1, 5], backend)
        assert len(store) == 5
        assert store[2] == 4
        store[2] = 9
        assert store[2] == 9
        assert list(store) == [3, 1, 9, 1, 5]

    def test_items_are_plain_python_ints(self, backend):
        # numpy scalars break JSON round-trips and tuple equality pins;
        # the store must never leak them.
        store = store_of([1, 2], backend)
        store[1] = np.int32(5) if backend == "numpy" else 5
        assert type(store[0]) is int and store[1] == 5
        assert all(type(c) is int for c in store)
        assert all(type(c) is int for c in store.to_list())

    def test_unknown_backend_rejected(self):
        # There is one storage, so the former backend= option is gone.
        with pytest.raises(TypeError):
            ColorStore([1], backend="fortran")


class TestTransactions:
    def test_commit_reports_only_net_changes(self, backend):
        store = store_of([1, 2, 3, 4], backend)
        store.begin()
        store[0] = 7
        store[1] = 9
        store[1] = 2  # restored: not a net change
        store[3] = 4  # written with its own value: not a change
        assert store.commit() == [0]
        assert store.to_list() == [7, 2, 3, 4]

    def test_rollback_restores_first_written_values(self, backend):
        store = store_of([1, 2, 3], backend)
        store.begin()
        store[0] = 5
        store[0] = 6  # journal keeps the first old value, 1
        store[2] = 8
        store.rollback()
        assert store.to_list() == [1, 2, 3]

    def test_transaction_misuse_raises(self, backend):
        store = store_of([1], backend)
        with pytest.raises(RuntimeError):
            store.commit()
        with pytest.raises(RuntimeError):
            store.rollback()
        store.begin()
        with pytest.raises(RuntimeError):
            store.begin()
        assert store.in_transaction
        store.commit()
        assert not store.in_transaction

    def test_writes_outside_transaction_do_not_journal(self, backend):
        store = store_of([1, 2], backend)
        store[0] = 9
        store.begin()
        assert store.commit() == []
        assert store.to_list() == [9, 2]


class TestBulkAccess:
    def test_view_reads_current_state(self, backend):
        # ``buffer`` is the store's one view: the live array, no copy.
        store = store_of([1, 2, 3], backend)
        buffer = store.buffer
        assert buffer.typecode == "i" and list(buffer) == [1, 2, 3]
        store[0] = 9
        assert buffer[0] == 9 and store.buffer is buffer

    def test_replace_swaps_whole_coloring(self, backend):
        store = store_of([1, 2, 3], backend)
        store.begin()
        store[0] = 9
        store.replace([4, 5, 6])
        assert not store.in_transaction
        assert store.to_list() == [4, 5, 6]

    def test_diff_count(self, backend):
        store = store_of([1, 2, 3, 4], backend)
        assert store.diff_count([1, 2, 3, 4]) == 0
        assert store.diff_count([1, 9, 3, 9]) == 2
        assert store.diff_count((9, 9, 9, 9)) == 4


def test_store_matches_a_list_model():
    """Drive a store and a plain list through one randomized script
    (writes, transactions, diffs) and compare every observable output,
    step for step."""
    import random

    rng = random.Random(0)
    model = [rng.randrange(1, 9) for _ in range(64)]
    store = ColorStore(model)
    journal: dict[int, int] | None = None
    for _ in range(200):
        action = rng.randrange(4)
        if action == 0:
            v, c = rng.randrange(64), rng.randrange(1, 9)
            if journal is not None:
                journal.setdefault(v, model[v])
            model[v] = c
            store[v] = c
        elif action == 1 and journal is None:
            journal = {}
            store.begin()
        elif action == 2 and journal is not None:
            changed = sorted(v for v, old in journal.items() if model[v] != old)
            assert store.commit() == changed
            journal = None
        elif action == 3 and journal is not None:
            for v, old in journal.items():
                model[v] = old
            store.rollback()
            journal = None
        assert store.to_list() == model and list(store) == model
        assert store.in_transaction == (journal is not None)
        other = [rng.randrange(1, 9) for _ in range(64)]
        assert store.diff_count(other) == sum(a != b for a, b in zip(model, other))
