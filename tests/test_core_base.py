"""Tests for the shared filter API (AbstractFilter / FilterCapabilities)."""

import numpy as np
import pytest

from repro.core.base import AbstractFilter, FilterCapabilities
from repro.core.exceptions import (
    CapacityLimitError,
    DeletionError,
    FilterError,
    FilterFullError,
    UnsupportedOperationError,
)


class TestFilterCapabilities:
    def test_as_row_columns(self):
        caps = FilterCapabilities(point_insert=True, bulk_query=True)
        row = caps.as_row()
        assert row["insert_point"] is True
        assert row["query_bulk"] is True
        assert row["count_point"] is False
        assert len(row) == 8

    def test_supports(self):
        caps = FilterCapabilities(point_insert=True, bulk_delete=True)
        assert caps.supports("insert", "point")
        assert caps.supports("delete", "bulk")
        assert not caps.supports("count", "point")
        with pytest.raises(ValueError):
            caps.supports("merge", "point")


class _ToyFilter(AbstractFilter):
    """Minimal concrete filter (exact set) used to test the default bulk API."""

    name = "toy"

    def __init__(self) -> None:
        super().__init__()
        self._items: dict[int, int] = {}
        self._capacity = 100

    @classmethod
    def capabilities(cls) -> FilterCapabilities:
        return FilterCapabilities(point_insert=True, point_query=True,
                                  point_delete=True, point_count=True)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def n_slots(self) -> int:
        return self._capacity

    @property
    def nbytes(self) -> int:
        return self._capacity * 8

    @property
    def n_items(self) -> int:
        return len(self._items)

    def insert(self, key: int, value: int = 0) -> bool:
        self._items[key] = self._items.get(key, 0) + 1
        return True

    def query(self, key: int) -> bool:
        return key in self._items

    def delete(self, key: int) -> bool:
        if key not in self._items:
            return False
        self._items[key] -= 1
        if self._items[key] == 0:
            del self._items[key]
        return True

    def count(self, key: int) -> int:
        return self._items.get(key, 0)


class TestAbstractFilterDefaults:
    def test_default_bulk_methods_loop_over_point_methods(self):
        filt = _ToyFilter()
        keys = np.arange(10, dtype=np.uint64)
        assert filt.bulk_insert(keys) == 10
        assert filt.bulk_query(keys).all()
        assert list(filt.bulk_count(keys)) == [1] * 10
        assert filt.bulk_delete(keys[:5]) == 5
        assert filt.n_items == 5

    def test_contains_and_len(self):
        filt = _ToyFilter()
        filt.insert(3)
        assert 3 in filt
        assert len(filt) == 1

    def test_load_factor_and_bits_per_item(self):
        filt = _ToyFilter()
        assert filt.load_factor == 0.0
        assert filt.bits_per_item == float("inf")
        filt.insert(1)
        assert filt.load_factor == pytest.approx(1 / 100)
        assert filt.bits_per_item == pytest.approx(800 * 8 / 1)


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc", [
        FilterFullError, CapacityLimitError, UnsupportedOperationError,
        DeletionError,
    ])
    def test_all_derive_from_filter_error(self, exc):
        assert issubclass(exc, FilterError)
        with pytest.raises(FilterError):
            raise exc("boom")
