"""The one percentile the latency reports share."""

import numpy as np
import pytest

from repro.utils import percentile


class TestPercentile:
    def test_interpolates_between_ranks(self):
        assert percentile([1, 2, 3, 4], 0.5) == 2.5
        assert percentile([4, 3, 2, 1], 0.5) == 2.5

    def test_ends_are_min_and_max(self):
        assert percentile([1, 2, 3, 4], 0.0) == 1
        assert percentile([1, 2, 3, 4], 1.0) == 4

    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_matches_numpy_linear(self, q):
        values = [0.41, 3.91, 0.12, 0.77, 1.5, 0.05, 2.2]
        assert percentile(values, q) == pytest.approx(np.percentile(values, q * 100))

    def test_empty_is_zero(self):
        assert percentile([], 0.95) == 0.0
