"""Synthesize omnidirectional received power and path loss from directional sweeps.

Total received power is the sum of the thresholded multipath power over all
unique TX/RX pointing-angle combinations; path loss then follows from the
link budget: ``PL = P_TX + G_t + G_r - 10*log10(Pr_omni)`` with Pr in mW.
The sum is physically meaningful when adjacent pointings are spaced one
half-power beamwidth apart (near-orthogonal patterns); finer spacing is
flagged because overlapping lobes double-count power.
"""

from __future__ import annotations

import math
import warnings

from .core import (
    CampaignRecord,
    DuplicateAngleWarning,
    EmptyInputError,
    NoMultipathError,
    Polarization,
    SounderSpec,
    SweepSpacingWarning,
    to_db,
)
from .pdp import DYNAMIC_RANGE_DB, THRESHOLD_DB_ABOVE_NOISE, integrate_power_mw, threshold_pdp

_ANGLE_KEY = tuple[float, float, float, float]


def _record_pol(record: CampaignRecord, pol: Polarization | None) -> Polarization:
    if pol is not None:
        return pol
    present = {s.pol for s in record.sweeps}
    if not present:
        raise EmptyInputError(f"record {record.location_id!r} has no sweeps")
    if len(present) > 1:
        raise ValueError(
            "record mixes polarizations; pass pol= to select the scenario to synthesize"
        )
    return next(iter(present))


def _check_azimuth_spacing(record: CampaignRecord, pol: Polarization) -> None:
    hpbw = record.spec.azimuth_hpbw_deg
    for sweep in record.sweeps:
        if sweep.pol is not pol:
            continue
        angles = [e.angle for e in sweep.entries]  # azimuths folded into [0, 360)
        for azimuths in (sorted({a[0] for a in angles}), sorted({a[2] for a in angles})):
            wrap = [azimuths[0] + 360.0] if azimuths else []  # last -> first, past 360
            steps = [b - a for a, b in zip(azimuths, azimuths[1:] + wrap)]
            if steps and min(steps) < hpbw - 1e-9:
                warnings.warn(
                    f"sweep {sweep.sweep_id}: azimuth step {min(steps):g} deg is below "
                    f"the {hpbw:g} deg beamwidth; adjacent pointings overlap",
                    SweepSpacingWarning,
                    stacklevel=3,
                )
                break


def _link_budget_pl_db(spec: SounderSpec, pr_mw: float, outage_message: str) -> float:
    """``P_TX + G_t + G_r - 10*log10(Pr)``; NoMultipathError(outage_message) when Pr <= 0."""
    if pr_mw <= 0.0:
        raise NoMultipathError(outage_message)
    return spec.max_tx_power_dbm + spec.tx_antenna_gain_dbi + spec.rx_antenna_gain_dbi - to_db(pr_mw)


def unique_angle_powers_mw(record: CampaignRecord, pol: Polarization | None = None,
                           threshold_db_above_noise: float = THRESHOLD_DB_ABOVE_NOISE,
                           dynamic_range_db: float = DYNAMIC_RANGE_DB) -> dict[_ANGLE_KEY, float]:
    """Thresholded multipath power per unique pointing-angle tuple.

    Sweeps may revisit an angle (re-measurements); duplicates collapse to the
    strongest acquisition rather than summing twice.
    """
    pol = _record_pol(record, pol)
    if not record.sweeps or not any(s.entries for s in record.sweeps if s.pol is pol):
        raise EmptyInputError(
            f"record {record.location_id!r} has no sweep entries for {pol.value}"
        )
    _check_azimuth_spacing(record, pol)

    powers: dict[_ANGLE_KEY, float] = {}
    duplicates = 0
    for sweep in record.sweeps:
        if sweep.pol is not pol:
            continue
        for entry in sweep.entries:
            p = integrate_power_mw(
                threshold_pdp(entry.pdp, threshold_db_above_noise, dynamic_range_db)
            )
            angle = entry.angle
            if angle in powers:
                duplicates += 1
                powers[angle] = max(powers[angle], p)
            else:
                powers[angle] = p
    if duplicates:
        warnings.warn(
            f"record {record.location_id!r} ({pol.value}): {duplicates} pointing angle(s) were "
            "re-measured across sweeps; keeping the strongest acquisition of each",
            DuplicateAngleWarning,
            stacklevel=2,
        )
    return powers


def omni_received_power_mw(record: CampaignRecord, pol: Polarization | None = None,
                           threshold_db_above_noise: float = THRESHOLD_DB_ABOVE_NOISE,
                           dynamic_range_db: float = DYNAMIC_RANGE_DB) -> float:
    """Synthesized omnidirectional received power in mW (sum over unique angles)."""
    powers = unique_angle_powers_mw(record, pol, threshold_db_above_noise, dynamic_range_db)
    return math.fsum(powers.values())


def omni_path_loss_db(record: CampaignRecord, pol: Polarization | None = None,
                      threshold_db_above_noise: float = THRESHOLD_DB_ABOVE_NOISE,
                      dynamic_range_db: float = DYNAMIC_RANGE_DB) -> float:
    """Omnidirectional path loss from the synthesized received power.

    Raises :class:`NoMultipathError` when no angle detected any power (the
    location is in outage at every pointing).
    """
    pol = _record_pol(record, pol)
    pr_omni = omni_received_power_mw(record, pol, threshold_db_above_noise, dynamic_range_db)
    return _link_budget_pl_db(record.spec, pr_omni, f"record {record.location_id!r} "
                              f"({pol.value}): no detectable multipath at any pointing angle")
