"""Deterministic seed derivation for trial-level parallelism.

Child seeds are a pure function of the master seed and a label path, so
trials can run in any order (or on any thread) and still draw identical
randomness.  Rule: ``SHA-256("{master}/{part}/{part}/...")``, first 8 bytes
big-endian, interpreted as an unsigned 64-bit integer.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import check_integers


def derive_seed(master_seed: int, *parts) -> int:
    check_integers(master_seed=master_seed)
    text = str(int(master_seed)) + "".join(f"/{p}" for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derived_rng(master_seed: int, *parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master_seed, *parts))
