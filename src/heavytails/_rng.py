"""Deterministic random-stream derivation.

Every stochastic routine takes one base seed and derives an independent
stream per replicate from ``(seed, domain, replicate)``.  Results are then
identical for any degree of parallelism, including serial execution.
"""

from __future__ import annotations

import numpy as np

from .dataset import _at_least

# Domain tags keep replicate streams of different subsystems disjoint even
# when they share a base seed.
DOMAIN_SAMPLING = 0
DOMAIN_BOOTSTRAP = 1
DOMAIN_GOF = 2


def derived_rng(seed: int, domain: int, replicate: int = 0) -> np.random.Generator:
    """Generator for one replicate of one domain under a base seed."""
    ss = np.random.SeedSequence([_at_least(seed, 0, "seed"), domain, replicate])
    return np.random.Generator(np.random.PCG64(ss))
