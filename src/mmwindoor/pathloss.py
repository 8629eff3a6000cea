"""Close-in free-space reference path loss model (1 m anchor) and derived quantities.

Mean path loss at distance d is the exact free-space loss at the reference
distance d0 plus ``10 * n * log10(d / d0)``; the stochastic variant adds a
zero-mean Gaussian shadowing term in dB (lognormal in linear units).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import CiModelParams, FrequencyBand

if TYPE_CHECKING:
    import numpy as np


def free_space_pl_db(band: FrequencyBand, d0_m: float) -> float:
    """Free-space path loss 20*log10(4*pi*d0 / wavelength) in dB."""
    if not 0.0 < d0_m < math.inf:
        raise ValueError(f"d0_m must be finite and > 0, got {d0_m!r}")
    ratio = 4.0 * math.pi * d0_m / band.wavelength_m
    if not 0.0 < ratio < math.inf:  # each is finite, yet their quotient may not be
        raise ValueError(f"d0_m {d0_m!r} at {band.label}: 4*pi*d0/wavelength is {ratio!r}, "
                         "outside the float range")
    return 20.0 * math.log10(ratio)


def mean_path_loss_db(params: CiModelParams, distance_m: float) -> float:
    """Mean close-in model path loss at distance_m (shadowing term zero)."""
    if distance_m < params.d0_m:
        raise ValueError(
            f"distance {distance_m} m is below the model anchor d0 = {params.d0_m} m"
        )
    return free_space_pl_db(params.band, params.d0_m) + 10.0 * params.ple * math.log10(
        distance_m / params.d0_m
    )


def draw_shadowing(params: CiModelParams, rng: np.random.Generator) -> float:
    """Draw one zero-mean shadowing realization, in dB, with the model's standard deviation."""
    return float(rng.normal(0.0, params.shadow_sigma_db))


def sample_path_loss_db(params: CiModelParams, distance_m: float,
                        rng: np.random.Generator) -> float:
    """One stochastic path loss draw: mean path loss plus shadowing.

    The draw comes from the caller's generator, so the same generator state
    always reproduces the same value; with zero shadowing nothing is drawn.
    """
    mean = mean_path_loss_db(params, distance_m)
    if params.shadow_sigma_db == 0.0:
        return mean
    return mean + draw_shadowing(params, rng)


def xpd_per_decade_db(co: CiModelParams, cross: CiModelParams) -> float:
    """Cross-polarization discrimination: extra loss per decade of distance.

    ``10 * (n_cross - n_co)`` for two models that differ only in polarization.
    """
    if (co.band, co.env, co.dir, co.d0_m) != (cross.band, cross.env, cross.dir, cross.d0_m):
        raise ValueError("co and cross models must share band, environment, directionality and d0")
    return 10.0 * (cross.ple - co.ple)
