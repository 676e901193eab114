"""Small generic utilities: deterministic RNG handling, percentiles."""

from repro.utils.rng import make_rng
from repro.utils.stats import percentile

__all__ = ["make_rng", "percentile"]
