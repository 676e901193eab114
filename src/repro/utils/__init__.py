"""Small generic utilities: deterministic RNG handling, union-find,
percentiles."""

from repro.utils.rng import make_rng
from repro.utils.stats import percentile
from repro.utils.union_find import UnionFind

__all__ = ["make_rng", "percentile", "UnionFind"]
