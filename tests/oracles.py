"""Scalar references that tests check the vectorised interval distances and
attenuations against."""

from __future__ import annotations

import math


def interval_distance(value: float, interval) -> float:
    """Distance from a scalar to a closed interval (0 when the value is inside)."""
    if value < interval.lo:
        return interval.lo - value
    if value > interval.hi:
        return value - interval.hi
    return 0.0


def attenuation(d: float, tau: float, sigma: float) -> float:
    """Gaussian attenuation of a single interval distance: in (0, 1], 1 at d=0."""
    if sigma <= 0:
        raise ValueError("attenuation tolerance sigma must be > 0")
    if tau <= 0:
        raise ValueError("attenuation cap tau must be > 0")
    capped = min(float(d), tau)
    return math.exp(-(capped * capped) / (sigma * sigma))
