"""Power delay profile processing: thresholding, power integration, delay moments.

The RMS delay spread is the square root of the second central moment of the
profile, with the power-weighted mean and second moment taken over bin delays
counted from the first retained bin. Moment accumulation uses compensated
summation; long profiles with wide dynamic range lose digits under naive sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, count

from .core import NoMultipathError, Pdp


@dataclass(frozen=True)
class DelayStats:
    """Power-weighted delay moments of one PDP."""

    mean_excess_delay_ns: float
    second_moment_ns2: float
    rms_delay_spread_ns: float
    total_power_mw: float

    def __post_init__(self) -> None:
        for name in ("mean_excess_delay_ns", "second_moment_ns2", "rms_delay_spread_ns", "total_power_mw"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


def threshold_pdp(
    pdp: Pdp, threshold_db_above_noise: float = 5.0, dynamic_range_db: float = 30.0
) -> Pdp:
    """Zero every bin below the noise threshold or the peak dynamic-range cut.

    A bin survives when its power reaches both ``noise_floor + threshold`` and
    ``peak - dynamic_range`` (all in dB). The peak bin is always retained, so a
    profile with any power never thresholds to silence.
    """
    if not (threshold_db_above_noise >= 0.0 and dynamic_range_db >= 0.0):  # NaN fails both
        raise ValueError("thresholds must be >= 0 dB")
    peak = pdp.peak_power_mw()
    floor = pdp.noise_floor_mw  # a zero floor cuts nothing at any threshold (0 * inf is NaN)
    cutoff = max(
        floor * 10.0 ** (threshold_db_above_noise / 10.0) if floor else 0.0,
        peak * 10.0 ** (-dynamic_range_db / 10.0),
    )
    # Every bin is <= peak, so "reaches the cutoff or is the positive peak" is one cut.
    lo = min(cutoff, peak) if peak > 0.0 else cutoff
    return Pdp(pdp.bin_spacing_ns, [p if p >= lo else 0.0 for p in pdp.powers_mw],
               pdp.noise_floor_mw)


def integrate_power_mw(pdp: Pdp) -> float:
    """Total multipath power: the sum of all bin powers, in mW."""
    return math.fsum(pdp.powers_mw)


def _first_positive_bin(pdp: Pdp) -> int:
    for k in compress(count(), pdp.powers_mw):  # powers are >= 0: truthy means positive
        return k
    raise NoMultipathError("PDP has no positive-power bin")


def excess_delay_rebase(pdp: Pdp) -> Pdp:
    """Shift the profile so its first positive bin sits at delay 0."""
    k0 = _first_positive_bin(pdp)
    return Pdp(pdp.bin_spacing_ns, pdp.powers_mw[k0:], pdp.noise_floor_mw)


def delay_stats(pdp: Pdp) -> DelayStats:
    """Mean excess delay, second moment and RMS delay spread of one PDP.

    Delays are counted from the first positive bin, so leading empty bins
    (propagation delay) do not bias the moments.
    """
    k0 = _first_positive_bin(pdp)
    dt = pdp.bin_spacing_ns
    # Zero bins add exact zeros to every sum, so summing positive bins only leaves
    # each fsum bit-identical; powers are >= 0, so those are the truthy bins.
    powers = pdp.powers_mw
    positive = list(compress(powers, powers))
    delays = [(k - k0) * dt for k in compress(count(), powers)]
    total = math.fsum(positive)
    first = math.fsum(map(float.__mul__, positive, delays))
    # d * d is correctly rounded; d ** 2 is libm's pow, which is not for every d.
    second = math.fsum([p * (d * d) for p, d in zip(positive, delays)])

    mean_ns = first / total
    second_ns2 = second / total
    rms_ns = math.sqrt(max(second_ns2 - mean_ns * mean_ns, 0.0))
    return DelayStats(
        mean_excess_delay_ns=mean_ns,
        second_moment_ns2=second_ns2,
        rms_delay_spread_ns=rms_ns,
        total_power_mw=total,
    )
