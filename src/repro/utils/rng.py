"""Deterministic random-number-generator plumbing.

Every stochastic component of the library accepts either an integer seed or
an existing :class:`numpy.random.Generator`. Centralizing the coercion keeps
experiment configurations reproducible: the same seed always produces the
same circuit, floorplan, and site distribution.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Coerce ``seed`` into a numpy Generator.

    ``None`` yields a generator seeded from entropy (non-reproducible); an
    ``int`` yields a fresh PCG64 stream; an existing generator is passed
    through so callers can share one stream across components.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
