"""Log-domain primitives against arbitrary-precision and closed-form oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

from starvol.logspace import log_sphere_area, log_sum_exp

mp.mp.dps = 40


class TestLogSumExp:
    def test_two_equal_terms(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_dominated_term(self):
        assert log_sum_exp([-1e9, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_small_magnitude_sum(self):
        terms = [math.log(1.0), math.log(2.0), math.log(3.0)]
        assert log_sum_exp(terms) == pytest.approx(math.log(6.0), rel=1e-14)

    def test_empty_is_error(self):
        with pytest.raises(ValueError, match="empty aggregation"):
            log_sum_exp([])

    def test_all_neg_inf(self):
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    def test_max_bracket_property(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(1, 30))
            terms = rng.normal(scale=rng.uniform(0.5, 300.0), size=k)
            if rng.random() < 0.3:
                terms[rng.integers(0, k)] = -math.inf
            val = log_sum_exp(terms)
            top = float(np.max(terms))
            assert top - 1e-12 <= val <= top + math.log(k) + 1e-12


class TestLogSphereArea:
    def test_circle(self):
        assert log_sphere_area(2) == pytest.approx(math.log(2.0 * math.pi), abs=1e-12)
        assert log_sphere_area(2) == pytest.approx(1.837877, abs=1e-6)

    def test_sphere(self):
        assert log_sphere_area(3) == pytest.approx(math.log(4.0 * math.pi), abs=1e-12)
        assert log_sphere_area(3) == pytest.approx(2.531024, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 127, 128, 4810, 19210, 10**6, 10**7])
    def test_matches_mpmath(self, n):
        want = mp.log(2) + mp.mpf(n) / 2 * mp.log(mp.pi) - mp.loggamma(mp.mpf(n) / 2)
        assert abs((log_sphere_area(n) - want) / want) <= 2e-15

    def test_recurrence(self):
        # area(n + 2) = area(n) * 2 pi / n
        for n in range(1, 200):
            lhs = log_sphere_area(n + 2)
            rhs = log_sphere_area(n) + math.log(2.0 * math.pi) - math.log(n)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_sphere_area(0)
