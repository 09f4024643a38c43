"""Arbitrary-precision reference for the Gaussian radial integral.

Computes log of int_0^R rho(anchor + r d) r^(n-1) dr for the zero-mean
diagonal Gaussian density rho with stds sigma, by mpmath quadrature. The
log-integrand h(r) = -(a r^2 + 2 b r)/2 + (n-1) log r is shifted by its
maximum on [0, R] before exponentiating: unshifted, the integrand under- or
overflows the quadrature's working range in high dimensions and the
reference itself is off by 1e-6 to 1e-5.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 30


def radial_log_integral(anchor: np.ndarray, d: np.ndarray, radius: float, sigma: np.ndarray) -> float:
    n = anchor.size
    s2 = sigma * sigma
    a = math.fsum(d * d / s2)
    b = math.fsum(anchor * d / s2)
    c0 = math.fsum(anchor * anchor / s2)
    base = -0.5 * math.fsum(np.log(2.0 * math.pi * s2)) - 0.5 * c0
    with mp.workdps(DPS):
        A, B, R = mp.mpf(a), mp.mpf(b), mp.mpf(radius)

        def h(r):
            return -(A * r * r + 2 * B * r) / 2 + (n - 1) * mp.log(r)

        peak = (-B + mp.sqrt(B * B + 4 * A * (n - 1))) / (2 * A)
        top = min(peak, R)
        hmax = h(top)
        width = 1 / mp.sqrt(A + (n - 1) / (top * top))
        # break the interval around the peak so tanh-sinh resolves it
        marks = [top + k * width for k in (-40, -10, -3, 0, 3, 10, 40)]
        points = [mp.mpf(0)] + sorted(p for p in marks if 0 < p < R) + [R]
        value = mp.quad(lambda r: mp.exp(h(r) - hmax) if r > 0 else mp.mpf(0), points)
        return base + float(hmax + mp.log(value))
