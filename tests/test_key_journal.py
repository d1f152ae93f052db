"""Tests for the TCF key journal (``repro.core.tcf.lifecycle.KeyJournal``).

The journal must behave exactly like a dict of per-key lists popped LIFO:
each removal request drops the newest remaining copy of its key, requests
for absent keys are ignored, and a later re-add is never cancelled by an
earlier removal.  Surviving entries keep their insertion order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tcf import BulkTCF, PointTCF
from repro.core.tcf.lifecycle import KeyJournal

# A small key pool forces repeated keys; the extremes exercise the full
# uint64 range through the multiply-shift screen.
_KEYS = st.sampled_from([0, 1, 2, 3, 5, 8, 13, 2**63, 2**64 - 1])
_VALUES = st.integers(min_value=0, max_value=2**64 - 1)
_ADD = st.tuples(st.just("add"), st.lists(st.tuples(_KEYS, _VALUES), max_size=12))
_REMOVE = st.tuples(st.just("remove"), st.lists(_KEYS, max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_ADD, _REMOVE), max_size=25))
def test_matches_lifo_dict_of_lists(steps):
    journal = KeyJournal()
    # key -> [(insertion sequence number, value)], popped from the end.
    model: Dict[int, List[Tuple[int, int]]] = {}
    seq = 0
    for op, items in steps:
        if op == "add":
            keys = np.array([k for k, _ in items], dtype=np.uint64)
            values = np.array([v for _, v in items], dtype=np.uint64)
            journal.add(keys, values)
            for key, value in items:
                model.setdefault(key, []).append((seq, value))
                seq += 1
        else:
            journal.remove(np.array(items, dtype=np.uint64))
            for key in items:
                if model.get(key):
                    model[key].pop()
        expected = sorted((s, key, value) for key, stored in model.items() for s, value in stored)
        keys, values = journal.arrays()
        assert keys.dtype == np.uint64 and values.dtype == np.uint64
        # Equal lists: the same (key, value) multiset, in insertion order.
        assert list(zip(keys.tolist(), values.tolist())) == [
            (key, value) for _, key, value in expected
        ]
        assert len(journal) == len(expected)


def test_remove_prefers_newest_copy_and_ignores_absent_keys():
    journal = KeyJournal()
    journal.add(np.array([7, 9, 7, 7], dtype=np.uint64), np.array([1, 2, 3, 4], dtype=np.uint64))
    journal.remove(np.array([7, 7, 42], dtype=np.uint64))
    keys, values = journal.arrays()
    assert keys.tolist() == [7, 9] and values.tolist() == [1, 2]
    journal.remove(np.array([7, 7, 7], dtype=np.uint64))
    journal.add(np.array([7], dtype=np.uint64), np.array([5], dtype=np.uint64))
    keys, values = journal.arrays()
    assert keys.tolist() == [9, 7] and values.tolist() == [2, 5]


def test_arrays_are_copies():
    journal = KeyJournal()
    journal.add(np.array([1, 2], dtype=np.uint64), np.array([3, 4], dtype=np.uint64))
    keys, _ = journal.arrays()
    journal.remove(np.array([1], dtype=np.uint64))
    journal.add(np.array([5, 6, 7], dtype=np.uint64), np.zeros(3, dtype=np.uint64))
    assert keys.tolist() == [1, 2]


@pytest.mark.parametrize("cls", [BulkTCF, PointTCF])
def test_journaled_filter_delete_reinsert_expand(cls, tmp_path):
    rng = np.random.default_rng(5)
    keys = rng.integers(2, 2**63, size=600, dtype=np.uint64)
    values = rng.integers(0, 2**8, size=600, dtype=np.uint64)
    filt = cls(2_048, auto_resize=True)
    # Every key twice, with distinct values for the two copies.
    filt.bulk_insert(np.concatenate([keys, keys]), np.concatenate([values, values ^ 1]))
    live = {int(k): 2 for k in keys}

    def delete(batch):
        filt.bulk_delete(batch)
        for key in batch.tolist():
            live[key] -= 1

    # A large batch with duplicate requests, then a small one (25 keys),
    # also with a duplicate.
    delete(np.concatenate([keys[:100], keys[:50]]))
    delete(np.concatenate([keys[100:120], keys[100:105]]))
    assert filt.delete(int(keys[120]))
    live[int(keys[120])] -= 1
    # Re-add some fully deleted keys: earlier removals must not cancel them.
    filt.bulk_insert(keys[:40], values[:40])
    for key in keys[:40].tolist():
        live[key] += 1

    expected = sorted(key for key, n in live.items() for _ in range(n))
    journal_keys, journal_values = filt._journal.arrays()
    assert sorted(journal_keys.tolist()) == expected
    # The re-added copies carry their new values and sit at the end.
    assert journal_values[-40:].tolist() == values[:40].tolist()

    resizes = filt.n_resizes
    filt.grow()
    assert filt.n_resizes == resizes + 1
    alive = np.array([key for key, n in live.items() if n > 0], dtype=np.uint64)
    assert filt.bulk_query(alive).all()

    filt.save(tmp_path / "journaled.rpro")
    loaded = cls.load(tmp_path / "journaled.rpro")
    before, after = filt.snapshot_state(), loaded.snapshot_state()
    for name in ("journal_keys", "journal_values"):
        assert after[name].dtype == np.uint64
        assert np.array_equal(after[name], before[name]), name
    assert loaded.bulk_query(alive).all()
