"""Eq. (2) buffer-site cost."""

import pytest

from repro.core import buffer_site_cost


class TestBufferSiteCost:
    def test_empty_tile(self, graph10_sites):
        # (0 + 0 + 1) / (3 - 0)
        assert buffer_site_cost(graph10_sites, (0, 0)) == pytest.approx(1 / 3)

    def test_probability_term(self, graph10_sites):
        assert buffer_site_cost(graph10_sites, (0, 0), probability=2.0) == pytest.approx(
            1.0
        )

    def test_rises_with_usage(self, graph10_sites):
        costs = []
        for _ in range(3):
            costs.append(buffer_site_cost(graph10_sites, (1, 1)))
            graph10_sites.use_site((1, 1))
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_full_tile_infinite(self, graph10_sites):
        graph10_sites.use_site((2, 2), 3)
        assert buffer_site_cost(graph10_sites, (2, 2)) == float("inf")

    def test_zero_site_tile_infinite(self, graph10):
        assert buffer_site_cost(graph10, (5, 5)) == float("inf")

    def test_paper_figure5_values(self, graph10):
        # B, b, p from Fig. 5 -> q values 1.3, 8.6, 0.5, inf, 1.0, inf.
        rows = [
            (8, 3, 2.5, 1.3),
            (5, 4, 3.6, 8.6),
            (12, 2, 2.0, 0.5),
            (3, 3, 0.8, float("inf")),
            (5, 0, 4.0, 1.0),
            (0, 0, 5.0, float("inf")),
        ]
        for i, (sites, used, p, expected) in enumerate(rows):
            tile = (i, 0)
            graph10.set_sites(tile, sites)
            if used:
                graph10.use_site(tile, used)
            assert buffer_site_cost(graph10, tile, p) == pytest.approx(expected)

