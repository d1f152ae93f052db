"""The Bloom family: :class:`BitArrayFilter` and the GPU Bloom filter baseline.

The paper measures two bit-array baselines, the Bloom filter (BF) and the
blocked Bloom filter (BBF, :mod:`~repro.baselines.blocked_bloom`).  Both set
``k`` hashed bits per item in one ``uint32`` word array, store no values and
support neither deletion nor counting.  :class:`BitArrayFilter` holds what
they share: the word array, sizes, refusals, the bulk API (every batch runs
the design's whole-batch kernel; the point methods are the per-item
reference), the batched insert (``bulk_insert_mask``, which never refuses a
key) and snapshots.  Each design keeps its sizing parameter, probe layout,
false-positive model and kernel bodies with their event charges.

The paper adapts Partow's C++ Bloom filter into a 1-bit-encoded GPU
implementation using CUDA atomic OR, and configures it with 7 hash functions
and 10.1 bits per item for the ~0.1 % target false-positive rate.

Design-principle analysis (Section 3.2): test-and-set maps well onto atomics
(low divergence), but every one of the ``k`` probes lands on a different
cache line, so memory coherence is poor — inserts and *positive* queries pay
``k`` line transactions, while negative queries usually terminate early on
the first zero bit.  Bloom filters also support neither deletion nor
counting, which is why they are only a baseline here.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from ..core.base import AbstractFilter, FilterCapabilities, restore_array
from ..core.exceptions import UnsupportedOperationError
from ..gpusim.atomics import atomic_or
from ..gpusim.kernel import KernelContext
from ..gpusim.memory import DeviceArray
from ..gpusim.stats import StatsRecorder
from ..hashing.mixers import hash_with_seed, hash_with_seeds

#: Bits per item used in the paper's evaluation (Table 2).
PAPER_BITS_PER_ITEM = 10.1
#: Number of hash functions used in the paper's evaluation.
PAPER_NUM_HASHES = 7


class BitArrayFilter(AbstractFilter):
    """Base of the filters that set ``k`` hashed bits per item in a word array.

    Subclasses set ``n_bits`` (attribute or property) before calling this
    constructor with the array's word count, and implement the point
    :meth:`insert` / :meth:`query` plus the whole-batch kernels
    ``_insert_batch(keys)`` and ``_query_batch(keys) -> bool array``.
    """

    #: Bits-per-item budget of the paper's configuration (Table 2).
    PAPER_BITS_PER_ITEM: float
    #: Plural noun naming the design in refusal messages.
    NOUN: str
    #: Prefix of the kernel launch and device-array names.
    LAUNCH_PREFIX: str

    n_bits: int

    def __init__(
        self,
        n_words: int,
        n_hashes: int,
        recorder: Optional[StatsRecorder],
        bits_per_item: float,
    ) -> None:
        super().__init__(recorder)
        if n_hashes <= 0:
            raise ValueError("n_hashes must be positive")
        if bits_per_item <= 0:
            raise ValueError("bits_per_item must be positive")
        self.n_hashes = int(n_hashes)
        #: Bits-per-item budget the filter was sized with (drives
        #: :attr:`capacity`; ``bits_per_item`` itself is the measured metric).
        self.sizing_bits_per_item = float(bits_per_item)
        self.words = DeviceArray(
            n_words, np.uint32, self.recorder, name=f"{self.LAUNCH_PREFIX}-bits"
        )
        self._n_items = 0
        self.kernels = KernelContext(self.recorder)

    @classmethod
    def capabilities(cls) -> FilterCapabilities:
        return FilterCapabilities(
            point_insert=True,
            bulk_insert=True,
            point_query=True,
            bulk_query=True,
            point_delete=False,
            bulk_delete=False,
            point_count=False,
            bulk_count=False,
            values=False,
            resizable=False,
        )

    @classmethod
    def nominal_nbytes(cls, n_items: int, bits_per_item: Optional[float] = None) -> int:
        if bits_per_item is None:
            bits_per_item = cls.PAPER_BITS_PER_ITEM
        return int(np.ceil(n_items * bits_per_item / 8.0))

    # ------------------------------------------------------------------- sizes
    @property
    def capacity(self) -> int:
        """Items the filter was sized for (at its construction-time budget)."""
        return int(self.n_bits / self.sizing_bits_per_item)

    @property
    def n_slots(self) -> int:
        return self.n_bits

    @property
    def nbytes(self) -> int:
        return (self.n_bits + 7) // 8

    @property
    def n_items(self) -> int:
        return self._n_items

    @property
    def load_factor(self) -> float:
        return self._n_items / max(1, self.capacity)

    @property
    def recommended_load_factor(self) -> float:
        return 1.0

    # ------------------------------------------------------------------ refusals
    def _refuse_values(self, values) -> None:
        """Raise unless every value is zero: bit arrays store no values."""
        if values is not None and np.any(np.asarray(values)):
            raise UnsupportedOperationError(f"{self.NOUN} cannot store values")

    def delete(self, key: int) -> bool:
        raise UnsupportedOperationError(f"{self.NOUN} do not support deletion")

    def count(self, key: int) -> int:
        raise UnsupportedOperationError(f"{self.NOUN} do not support counting")

    def get_value(self, key: int) -> Optional[int]:
        raise UnsupportedOperationError(f"{self.NOUN} cannot store values")

    # ---------------------------------------------------------------- bulk API
    def bulk_insert_mask(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """The design's one batched insert, reported per key: all True, as
        a bit array never refuses a key."""
        keys = np.asarray(keys, dtype=np.uint64)
        self._refuse_values(values)
        if keys.size:
            with self.kernels.launch(f"{self.LAUNCH_PREFIX}_bulk_insert"):
                self._insert_batch(keys)
            self._n_items += int(keys.size)
        return np.ones(keys.size, dtype=bool)

    def bulk_insert(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> int:
        return int(self.bulk_insert_mask(keys, values).size)

    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        with self.kernels.launch(f"{self.LAUNCH_PREFIX}_bulk_query"):
            return self._query_batch(keys)

    @abc.abstractmethod
    def _insert_batch(self, keys: np.ndarray) -> None:
        """Set the bits of a whole batch and charge the per-item path's events."""

    @abc.abstractmethod
    def _query_batch(self, keys: np.ndarray) -> np.ndarray:
        """Probe a whole batch; charge the per-item path's events."""

    # --------------------------------------------------------------- lifecycle
    def snapshot_state(self) -> dict:
        return {
            "words": self.words.peek().copy(),
            "scalars": np.array([self._n_items], dtype=np.int64),
        }

    def restore_state(self, state) -> None:
        restore_array(self.words.peek(), state["words"], "words")
        self._n_items = int(np.asarray(state["scalars"])[0])


class BloomFilter(BitArrayFilter):
    """1-bit-per-cell Bloom filter with a point (device-side) API.

    Parameters
    ----------
    n_bits:
        Size of the bit array.
    n_hashes:
        Number of hash functions ``k``.
    recorder:
        Optional stats recorder.
    """

    name = "BF"
    PAPER_BITS_PER_ITEM = PAPER_BITS_PER_ITEM
    NOUN = "Bloom filters"
    LAUNCH_PREFIX = "bloom"

    def __init__(
        self,
        n_bits: int,
        n_hashes: int = PAPER_NUM_HASHES,
        recorder: Optional[StatsRecorder] = None,
        bits_per_item: float = PAPER_BITS_PER_ITEM,
    ) -> None:
        if n_bits <= 0:
            raise ValueError("n_bits must be positive")
        self.n_bits = int(n_bits)
        super().__init__((self.n_bits + 31) // 32, n_hashes, recorder, bits_per_item)

    # ------------------------------------------------------------ constructors
    @classmethod
    def for_capacity(
        cls,
        n_items: int,
        bits_per_item: float = PAPER_BITS_PER_ITEM,
        n_hashes: int = PAPER_NUM_HASHES,
        recorder: Optional[StatsRecorder] = None,
    ) -> "BloomFilter":
        """Size the filter for ``n_items`` at a given bits-per-item budget."""
        n_bits = max(64, int(np.ceil(n_items * bits_per_item)))
        return cls(n_bits, n_hashes, recorder, bits_per_item=bits_per_item)

    # ------------------------------------------------------------------- sizes
    @property
    def n_occupied_slots(self) -> int:
        # Bits set, host-side.
        return int(np.unpackbits(self.words.peek().view(np.uint8)).sum())

    @property
    def false_positive_rate(self) -> float:
        """Analytical FP rate (1 - e^{-kn/m})^k at the current fill."""
        if self._n_items == 0:
            return 0.0
        k, n, m = self.n_hashes, self._n_items, self.n_bits
        return float((1.0 - np.exp(-k * n / m)) ** k)

    # --------------------------------------------------------------- bit probes
    def _bit_positions(self, key: int) -> np.ndarray:
        key = np.uint64(int(key) & 0xFFFFFFFFFFFFFFFF)
        positions = np.empty(self.n_hashes, dtype=np.int64)
        for seed in range(self.n_hashes):
            positions[seed] = int(hash_with_seed(key, seed)) % self.n_bits
        return positions

    # ------------------------------------------------------------------ point API
    def insert(self, key: int, value: int = 0) -> bool:
        """Set all ``k`` bits with atomic OR (k cache lines touched).

        Each probe lands on a different, effectively random cache line, so in
        addition to the atomic itself the line has to be fetched — this is
        the poor memory coherence the paper's design analysis attributes to
        Bloom filters.
        """
        self._refuse_values(value)
        for position in self._bit_positions(key):
            word, bit = divmod(int(position), 32)
            self.recorder.add(cache_line_reads=1)
            atomic_or(self.words, word, np.uint32(1) << np.uint32(bit))
        self._n_items += 1
        return True

    def query(self, key: int) -> bool:
        """Probe the ``k`` bits, stopping at the first zero."""
        for position in self._bit_positions(key):
            word, bit = divmod(int(position), 32)
            value = int(self.words.read(word))
            if not (value >> bit) & 1:
                return False
        return True

    # ---------------------------------------------------------------- bulk API
    def _bit_positions_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_bit_positions`: shape ``(n_keys, n_hashes)``."""
        hashed = hash_with_seeds(keys, range(self.n_hashes))
        return (hashed % np.uint64(self.n_bits)).astype(np.int64)

    def _insert_batch(self, keys: np.ndarray) -> None:
        positions = self._bit_positions_batch(keys)
        words = positions // 32
        masks = np.uint32(1) << (positions % 32).astype(np.uint32)
        np.bitwise_or.at(self.words.peek(), words.ravel(), masks.ravel())
        # Per probe the per-item path charges one line fetch plus the
        # atomic OR's transaction (see insert); duplicates included.
        total = int(positions.size)
        self.recorder.add(
            cache_line_reads=total,
            atomic_ops=total,
            coalesced_bytes_read=32 * total,
            coalesced_bytes_written=32 * total,
        )

    def _query_batch(self, keys: np.ndarray) -> np.ndarray:
        positions = self._bit_positions_batch(keys)
        data = self.words.peek()
        bit_set = (
            (data[positions // 32] >> (positions % 32).astype(np.uint32)) & 1
        ).astype(bool)
        out = bit_set.all(axis=1)
        # The per-item probe loop stops at the first zero bit; charge
        # the reads up to (and including) that early exit.
        reads = np.where(out, self.n_hashes, np.argmin(bit_set, axis=1) + 1)
        self.recorder.add(cache_line_reads=int(reads.sum()))
        return out

    # --------------------------------------------------------------- lifecycle
    def snapshot_config(self) -> dict:
        return {
            "n_bits": self.n_bits,
            "n_hashes": self.n_hashes,
            "bits_per_item": self.sizing_bits_per_item,
        }
