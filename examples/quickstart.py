#!/usr/bin/env python
"""Quickstart: the two GPU filters of the paper, in five minutes.

The Two-Choice Filter (TCF) is the fast set-membership filter: inserts,
queries, deletes and small associated values.  The GPU Counting Quotient
Filter (GQF) adds counting (and therefore multiset semantics) at some
performance cost.  Both offer a point API (shown here) and a bulk API
(shown in the other examples).

Run with::

    python examples/quickstart.py
"""

import os

from repro import BulkGQF, PointGQF, PointTCF
from repro.core.tcf import TCFConfig
from repro.hashing import generate_keys

#: REPRO_EXAMPLE_SCALE=tiny shrinks the demo 10x so tests/test_examples.py
#: can run every example as a fast subprocess smoke test.
N = 1_000 if os.environ.get("REPRO_EXAMPLE_SCALE") == "tiny" else 10_000


def tcf_demo() -> None:
    print("=== Two-Choice Filter (TCF) ===")
    # Size the filter for 10x the inserted items at its recommended 90 % load.
    tcf = PointTCF.for_capacity(10 * N)
    keys = generate_keys(5 * N, seed=42)

    for key in keys[:N]:
        tcf.insert(int(key))
    print(f"inserted {N:,} items; load factor {tcf.load_factor:.3f}")

    present = sum(tcf.query(int(k)) for k in keys[:N])
    absent = sum(tcf.query(int(k)) for k in keys[N:2 * N])
    print(f"positive queries found {present}/{N} (never a false negative)")
    print(f"negative queries matched {absent}/{N} "
          f"(false-positive rate ~{tcf.false_positive_rate:.4%})")

    # Deletions tombstone the fingerprint with a single compare-and-swap.
    for key in keys[:N // 2]:
        tcf.delete(int(key))
    print(f"deleted {N // 2:,} items; {tcf.n_items} remain\n")

    # Small values can be packed next to the fingerprint.
    valued = PointTCF.for_capacity(
        1_000, TCFConfig(fingerprint_bits=16, block_size=16, value_bits=4)
    )
    valued.insert(1234, value=7)
    print(f"value stored with key 1234: {valued.get_value(1234)}\n")


def gqf_demo() -> None:
    print("=== GPU Counting Quotient Filter (GQF) ===")
    gqf = PointGQF.for_capacity(10 * N)
    keys = generate_keys(N // 2, seed=7)

    # The GQF counts multiplicities; counts are never under-reported.
    for key in keys:
        gqf.insert(int(key))
    for key in keys[:N // 10]:
        gqf.insert(int(key))  # second occurrence
    print(f"count of a twice-inserted key: {gqf.count(int(keys[0]))}")
    print(f"count of a once-inserted key:  {gqf.count(int(keys[N // 5]))}")
    print(f"count of an absent key:        {gqf.count(987654321)}")

    # The bulk API inserts a whole batch with the lock-free even-odd scheme.
    bulk = BulkGQF.for_capacity(10 * N)
    bulk.bulk_insert(keys)
    print(f"bulk filter holds {bulk.n_items} distinct items "
          f"at load factor {bulk.load_factor:.3f}")

    # Quotient filters are resizable: grow in place into a twice-as-big table.
    gqf.grow()
    print(f"after resize: {gqf.n_slots} slots, "
          f"twice-inserted key still counts {gqf.count(int(keys[0]))}")


if __name__ == "__main__":
    tcf_demo()
    gqf_demo()
