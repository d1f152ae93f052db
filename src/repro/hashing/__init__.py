"""Hashing substrate: mixers, XORWOW generation, POTC and fingerprinting."""

from .fingerprints import FingerprintScheme
from .mixers import hash_with_seed, murmur64_mix, murmur64_unmix, splitmix64
from .potc import PotcHash, derive
from .xorwow import XorwowGenerator, generate_disjoint_keys, generate_keys

__all__ = [
    "FingerprintScheme",
    "hash_with_seed",
    "murmur64_mix",
    "murmur64_unmix",
    "splitmix64",
    "PotcHash",
    "derive",
    "XorwowGenerator",
    "generate_disjoint_keys",
    "generate_keys",
]
