"""References that tests check physeg against: scalar interval distances and
attenuations, and the refinement head's joint tensor written whole."""

from __future__ import annotations

import math

import numpy as np

from physeg.priors import MODALITIES
from physeg.refiner import JointParts


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


def dense_joint(parts: JointParts) -> np.ndarray:
    """The (H, W, D + C + M) joint tensor of ``parts`` written whole.

    [features | coarse | NDVI | DEM | SAR] per pixel; each supplied raster is
    standardised into its column and every other physical column is zero.
    """
    d, c = parts.features.shape[1], parts.coarse.shape[1]
    joint = np.zeros((len(parts.features), parts.shape[2]))
    joint[:, :d] = parts.features
    joint[:, d : d + c] = parts.coarse
    for column, grid, mu, sigma in parts.rasters:
        joint[:, column] = (grid - mu) / sigma
    return joint.reshape(parts.shape)


def as_parts(z, num_classes: int) -> JointParts:
    """A whole (H, W, D + C + M) joint tensor split into its parts.

    The last M columns become rasters with ``mu = 0`` and ``sigma = 1``, so
    ``JointParts.fill`` writes every block of ``z`` back bit for bit.
    """
    z = np.asarray(z, dtype=np.float64)
    flat = z.reshape(-1, z.shape[2])
    phys = z.shape[2] - len(MODALITIES)
    d = phys - num_classes
    rasters = tuple((column, flat[:, column], 0.0, 1.0) for column in range(phys, z.shape[2]))
    return JointParts(z.shape, flat[:, :d], flat[:, d:phys], rasters)
