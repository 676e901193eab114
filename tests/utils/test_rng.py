"""Deterministic RNG plumbing."""

import numpy as np

from repro.utils.rng import make_rng


class TestMakeRng:
    def test_int_seed_reproducible(self):
        a = make_rng(42).integers(0, 1000, size=10)
        b = make_rng(42).integers(0, 1000, size=10)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 10**9)
        b = make_rng(2).integers(0, 10**9)
        assert a != b

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)
