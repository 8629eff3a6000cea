"""Minimum mean square error fitting of close-in model parameters, plus
empirical CDF / percentile / summary statistics for delay-spread data.

The fit has a single free parameter: with A_i the measured loss in excess of
the free-space anchor and B_i = 10*log10(d_i/d0), the least-squares exponent
is sum(A_i*B_i) / sum(B_i^2). The shadow factor is the RMS of the residuals
(population normalization, so sigma_hat equals RMS(residuals) exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    EmptyInputError,
    FrequencyBand,
    PathLossSample,
    StratumMismatchError,
)
from .pathloss import free_space_pl_db

_stratum_of = PathLossSample.stratum.fget  # the stratum, read without the property


@dataclass(frozen=True)
class FitResult:
    """Estimated exponent and shadow factor for one stratum of samples."""

    ple_hat: float
    sigma_hat_db: float
    n_samples: int
    residuals_db: tuple[float, ...]
    d0_m: float
    band: FrequencyBand

    def __post_init__(self) -> None:
        object.__setattr__(self, "residuals_db", tuple(self.residuals_db))


@dataclass(frozen=True)
class SpreadSummary:
    """Mean / std / max / 90th percentile of a set of RMS delay spreads."""

    mean_ns: float
    std_ns: float
    max_ns: float
    p90_ns: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.mean_ns <= self.max_ns):
            raise ValueError("mean_ns must lie in [0, max_ns]")
        if self.p90_ns > self.max_ns:
            raise ValueError("p90_ns cannot exceed max_ns")


def fit_ci_model(
    samples: Sequence[PathLossSample],
    band: FrequencyBand | None = None,
    d0_m: float = 1.0,
) -> FitResult:
    """MMSE fit of the close-in model exponent and shadow factor.

    All samples must belong to a single (band, env, pol, dir) stratum; pass
    ``band`` to additionally assert which band is expected. Distances below
    d0 are rejected: the model is anchored there and does not extrapolate.
    """
    samples = list(samples)
    if not samples:
        raise EmptyInputError("cannot fit a model to zero samples")
    # Tuple equality compares members by identity first, so this check runs in
    # C and builds no set.
    if not all(map(_stratum_of(samples[0]).__eq__, map(_stratum_of, samples))):
        strata = {s.stratum for s in samples}
        raise StratumMismatchError(
            f"samples span {len(strata)} strata; fit one (band, env, pol, dir) at a time"
        )
    if band is not None and samples[0].band != band:
        raise StratumMismatchError(
            f"samples are {samples[0].band.label}, expected {band.label}"
        )
    band = samples[0].band
    if not 0.0 < d0_m < math.inf:
        raise ValueError(f"d0_m must be finite and > 0, got {d0_m!r}")

    d = np.array([s.distance_m for s in samples], dtype=float)
    pl = np.array([s.path_loss_db for s in samples], dtype=float)
    if np.any(d < d0_m):
        raise ValueError(f"all sample distances must be >= d0 = {d0_m} m")

    with np.errstate(over="ignore", invalid="ignore"):  # finite inputs, non-finite sums
        a = pl - free_space_pl_db(band, d0_m)
        b = 10.0 * np.log10(d / d0_m)
        denom = float(np.dot(b, b))
        if denom == 0.0:
            raise ValueError("all distances equal d0; the exponent is unidentifiable")
        ple_hat = float(np.dot(a, b)) / denom
        residuals = a - ple_hat * b
        sigma_hat = math.sqrt(float(np.mean(residuals**2)))
    if not (math.isfinite(ple_hat) and math.isfinite(sigma_hat)):
        raise OverflowError(f"the samples overflow a float (ple {ple_hat}, sigma {sigma_hat})")
    return FitResult(
        ple_hat=ple_hat,
        sigma_hat_db=sigma_hat,
        n_samples=len(samples),
        residuals_db=tuple(residuals.tolist()),
        d0_m=d0_m,
        band=band,
    )


def empirical_cdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Right-continuous step CDF: sorted values paired with rank/N."""
    if len(values) == 0:
        raise EmptyInputError("empirical CDF of an empty sample is undefined")
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def percentile(values: Sequence[float], p: float) -> float:
    """Smallest value whose empirical CDF reaches p (inverse-CDF, lower convention)."""
    if len(values) == 0:
        raise EmptyInputError("percentile of an empty sample is undefined")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p!r}")
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    # smallest rank k with k/n >= p; nudge around float rounding in p*n
    rank = min(max(math.ceil(p * n), 1), n)
    while rank > 1 and (rank - 1) / n >= p:
        rank -= 1
    while rank < n and rank / n < p:
        rank += 1
    return ordered[rank - 1]


def summarize_spreads(values: Sequence[float]) -> SpreadSummary:
    """Mean, population standard deviation, max and p90 of delay-spread values."""
    if len(values) == 0:
        raise EmptyInputError("cannot summarize zero delay-spread values")
    arr = np.asarray(list(values), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean_ns, std_ns = float(arr.mean()), float(arr.std())
    if not (math.isfinite(mean_ns) and math.isfinite(std_ns)):
        raise OverflowError(f"the spread values overflow a float (mean {mean_ns}, std {std_ns})")
    return SpreadSummary(
        mean_ns=mean_ns, std_ns=std_ns, max_ns=float(arr.max()), p90_ns=percentile(values, 0.9)
    )
