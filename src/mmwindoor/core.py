"""Domain types, unit discipline, and the built-in measured-parameter catalog.

All linear powers are milliwatts; dB-valued powers are dBm, gains are dBi,
losses are dB. Every type is an immutable value object, safe to share across
threads or processes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter

SPEED_OF_LIGHT_M_S = 299_792_458.0

#: T-R separation span covered by the underlying indoor measurement campaign.
MEASURED_DISTANCE_RANGE_M = (3.9, 45.9)

DEFAULT_TX_HEIGHT_M = 2.5
DEFAULT_RX_HEIGHT_M = 1.5

VALID_SWEEP_IDS = frozenset(f"M{i}" for i in range(1, 9))


class UnknownCombinationError(LookupError):
    """Requested (band, environment, polarization, directionality) is not cataloged."""


class NoMultipathError(ValueError):
    """A PDP or record contains no detectable multipath power."""


class StratumMismatchError(ValueError):
    """Samples from different (band, env, pol, dir) strata were mixed."""


class EmptyInputError(ValueError):
    """An operation that requires at least one element received none."""


class DistanceRangeWarning(UserWarning):
    """A record's T-R distance lies outside the measured campaign span."""


class DuplicateAngleWarning(UserWarning):
    """The same pointing-angle tuple appears in more than one sweep."""


class SweepSpacingWarning(UserWarning):
    """Azimuth sampling finer than the antenna beamwidth; synthesized power may double-count."""


def to_db(linear: float) -> float:
    """Convert a linear power ratio (or mW) to dB (or dBm)."""
    if linear <= 0.0:
        raise ValueError(f"dB conversion requires a positive value, got {linear!r}")
    return 10.0 * math.log10(linear)


def to_linear(db: float) -> float:
    """Convert dB (or dBm) back to a linear ratio (or mW)."""
    return 10.0 ** (db / 10.0)



class Environment(Enum):
    LOS = "LOS"
    NLOS = "NLOS"
    #: Strongest pointing-angle link per location; a directional-model category only.
    NLOS_BEST = "NLOS_BEST"
    __hash__ = object.__hash__  # members are singletons, equal only to themselves: hashed in C


class Polarization(Enum):
    VV = "VV"
    VH = "VH"
    __hash__ = object.__hash__


class Directionality(Enum):
    DIRECTIONAL = "directional"
    OMNI = "omni"
    __hash__ = object.__hash__


class FrequencyBand(float):
    """A carrier frequency, as its value in GHz: ``FrequencyBand(28.0)`` compares and
    hashes as ``28.0``, and the carrier in Hz, the wavelength and the label derive from it."""

    __slots__ = ()

    def __new__(cls, ghz: float) -> FrequencyBand:
        if not (math.isfinite(ghz) and ghz > 0.0):  # a str is a TypeError, never parsed
            raise ValueError(f"band_ghz must be finite and > 0, got {ghz!r}")
        return super().__new__(cls, ghz)

    ghz = property(float)

    @property
    def carrier_hz(self) -> float:
        return self * 1e9

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.carrier_hz

    @property
    def label(self) -> str:
        text = f"{self:g}"  # :g rounds to 6 digits; a label must name this carrier only
        return f"{text if float(text) == self else repr(self)} GHz"


BAND_28GHZ = FrequencyBand(28.0)
BAND_73GHZ = FrequencyBand(73.5)


def band_from_ghz(band_ghz: float) -> FrequencyBand:
    """The band of a carrier in GHz (any positive value); 28 and 73.5 give the cataloged
    band objects themselves."""
    for known in (BAND_28GHZ, BAND_73GHZ):
        if band_ghz == known:
            return known
    return FrequencyBand(band_ghz)


#: The ``(band, env, pol, dir)`` of a model or a sample; it hashes and compares in C.
_stratum = property(attrgetter("band", "env", "pol", "dir"))


@dataclass(frozen=True)
class CiModelParams:
    """One close-in free-space reference path loss model: exponent + shadow factor."""

    band: FrequencyBand
    env: Environment
    pol: Polarization
    dir: Directionality
    ple: float
    shadow_sigma_db: float
    d0_m: float = 1.0

    def __post_init__(self) -> None:
        # One comparison chain per range, so NaN fails it; messages name the file formats' keys.
        if not 0.0 < self.ple < math.inf:
            raise ValueError(f"ple must be finite and > 0, got {self.ple!r}")
        if not 0.0 <= self.shadow_sigma_db < math.inf:  # so every shadowing draw is finite
            raise ValueError(f"sigma_db must be finite and >= 0, got {self.shadow_sigma_db!r}")
        if not 0.0 < self.d0_m < math.inf:
            raise ValueError(f"d0_m must be finite and > 0, got {self.d0_m!r}")
        if self.env is Environment.NLOS_BEST and self.dir is not Directionality.DIRECTIONAL:
            raise ValueError("NLOS_BEST is defined for directional models only")

    stratum = _stratum


@dataclass(frozen=True)
class PathLossSample:
    """A single measured or simulated path loss value at one T-R separation."""

    location_id: str
    band: FrequencyBand
    env: Environment
    pol: Polarization
    dir: Directionality
    distance_m: float
    path_loss_db: float

    def __post_init__(self) -> None:
        if not 0.0 < self.distance_m < math.inf:
            raise ValueError(f"distance_m must be finite and > 0, got {self.distance_m!r}")
        if not 0.0 < self.path_loss_db < math.inf:
            raise ValueError(f"path_loss_db must be finite and > 0, got {self.path_loss_db!r}")

    stratum = _stratum


@dataclass(frozen=True)
class SounderSpec:
    """Hardware constants of one sliding-correlator sounder configuration."""

    band: FrequencyBand
    max_tx_power_dbm: float
    tx_antenna_gain_dbi: float
    rx_antenna_gain_dbi: float
    azimuth_hpbw_deg: float
    elevation_hpbw_deg: float
    max_measurable_pl_db: float
    bin_spacing_ns: float = 2.5
    chip_rate_mcps: float = 400.0  # informational
    slide_factor: float = 8000.0  # informational

    def __post_init__(self) -> None:
        if not 0.0 < self.bin_spacing_ns < math.inf:
            raise ValueError(f"bin_spacing_ns must be finite and > 0, got {self.bin_spacing_ns!r}")


@dataclass(frozen=True)
class Pdp:
    """A power delay profile: uniformly spaced delay bins holding linear powers in mW.

    The delay of bin k is ``k * bin_spacing_ns``.
    """

    bin_spacing_ns: float
    powers_mw: tuple[float, ...]
    noise_floor_mw: float = 0.0

    def __post_init__(self) -> None:
        powers = tuple(map(float, self.powers_mw))
        object.__setattr__(self, "powers_mw", powers)
        if self.bin_spacing_ns <= 0.0 or not math.isfinite(self.bin_spacing_ns):
            raise ValueError(f"bin_spacing_ns must be finite and > 0, got {self.bin_spacing_ns!r}")
        if len(powers) < 1:
            raise ValueError("a Pdp needs at least one delay bin")
        # A C-level screen: nan and +inf make the sum non-finite, negatives and
        # -inf fail the min. A valid profile whose sum overflows takes the loop,
        # which alone judges and names the first offender.
        if not (min(powers) >= 0.0 and math.isfinite(sum(powers))):
            for k, p in enumerate(powers):
                if not (math.isfinite(p) and p >= 0.0):
                    raise ValueError(f"powers_mw[{k}] must be finite and >= 0, got {p!r}")
        if not (math.isfinite(self.noise_floor_mw) and self.noise_floor_mw >= 0.0):
            raise ValueError(f"noise_floor_mw must be finite and >= 0, got {self.noise_floor_mw!r}")

    @property
    def n_bins(self) -> int:
        return len(self.powers_mw)

    def delays_ns(self) -> tuple[float, ...]:
        return tuple(k * self.bin_spacing_ns for k in range(self.n_bins))

    def peak_power_mw(self) -> float:
        return max(self.powers_mw)


@dataclass(frozen=True)
class SweepEntry:
    """One fixed pointing of TX and RX antennas and the PDP acquired there."""

    theta_tx_deg: float
    phi_tx_deg: float
    theta_rx_deg: float
    phi_rx_deg: float
    pdp: Pdp
    #: The pointing as a key, each azimuth folded into [0, 360) at a resolution of
    #: 1e-9 deg: 0 and 360 deg are one angle, and so are 0.1 and 360.1 deg.
    angle: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            angle = (_azimuth_key(self.theta_tx_deg), self.phi_tx_deg,
                     _azimuth_key(self.theta_rx_deg), self.phi_rx_deg)
        except ValueError:  # round() of the NaN that a non-finite azimuth folds to
            raise ValueError(f"azimuths must be finite, got {self.theta_tx_deg!r} and "
                             f"{self.theta_rx_deg!r}") from None
        object.__setattr__(self, "angle", angle)


def _azimuth_key(deg: float) -> float:
    """``deg`` folded into [0, 360), to the nearest 1e-9 deg. The last % maps the 360.0
    that rounding gives (359.9999999999, or -1e-20 % 360.0) onto 0."""
    return round(deg % 360.0 * 1e9) / 1e9 % 360.0


@dataclass(frozen=True)
class DirectionalSweep:
    """One azimuth sweep (M1..M8) at a fixed elevation plane and polarization."""

    sweep_id: str
    pol: Polarization
    entries: tuple[SweepEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.sweep_id not in VALID_SWEEP_IDS:
            raise ValueError(f"sweep_id must be one of M1..M8, got {self.sweep_id!r}")
        seen = set()
        for e in self.entries:
            if e.angle in seen:
                raise ValueError(f"duplicate pointing angle {e.angle} within sweep {self.sweep_id}")
            seen.add(e.angle)


@dataclass(frozen=True)
class CampaignRecord:
    """All sweeps measured at one TX-RX location combination."""

    location_id: str
    distance_m: float
    env: Environment
    sweeps: tuple[DirectionalSweep, ...]
    spec: SounderSpec
    tx_height_m: float = DEFAULT_TX_HEIGHT_M
    rx_height_m: float = DEFAULT_RX_HEIGHT_M

    def __post_init__(self) -> None:
        object.__setattr__(self, "sweeps", tuple(self.sweeps))
        if not (math.isfinite(self.distance_m) and self.distance_m > 0.0):
            raise ValueError(f"distance_m must be finite and > 0, got {self.distance_m!r}")
        if self.env is Environment.NLOS_BEST:
            raise ValueError("a measured record is LOS or NLOS; NLOS_BEST is a model category")
        lo, hi = MEASURED_DISTANCE_RANGE_M
        if not (lo <= self.distance_m <= hi):
            warnings.warn(
                f"distance {self.distance_m} m lies outside the measured span "
                f"[{lo}, {hi}] m; models extrapolate here",
                DistanceRangeWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class SpreadTarget:
    """Directional RMS delay-spread statistics for one band/environment/polarization."""

    band: FrequencyBand
    env: Environment
    pol: Polarization
    mean_ns: float
    std_ns: float
    max_ns: float
    p90_ns: float


def _ci(band, env, pol, dir_, ple, sigma):
    return CiModelParams(band=band, env=env, pol=pol, dir=dir_, ple=ple, shadow_sigma_db=sigma)


_E, _P, _D = Environment, Polarization, Directionality

#: Measured path loss exponents and shadow factors (d0 = 1 m) for every
#: cataloged stratum. Directional LOS means boresight-aligned antennas;
#: NLOS_BEST is the strongest pointing-angle link per location.
CI_MODEL_CATALOG: tuple[CiModelParams, ...] = (
    # co-polarized (V-V), directional
    _ci(BAND_28GHZ, _E.LOS, _P.VV, _D.DIRECTIONAL, 1.7, 2.6),
    _ci(BAND_28GHZ, _E.NLOS, _P.VV, _D.DIRECTIONAL, 4.5, 11.6),
    _ci(BAND_28GHZ, _E.NLOS_BEST, _P.VV, _D.DIRECTIONAL, 3.0, 10.8),
    _ci(BAND_73GHZ, _E.LOS, _P.VV, _D.DIRECTIONAL, 1.7, 2.1),
    _ci(BAND_73GHZ, _E.NLOS, _P.VV, _D.DIRECTIONAL, 5.3, 15.6),
    _ci(BAND_73GHZ, _E.NLOS_BEST, _P.VV, _D.DIRECTIONAL, 3.4, 11.8),
    # co-polarized (V-V), omnidirectional
    _ci(BAND_28GHZ, _E.LOS, _P.VV, _D.OMNI, 1.1, 1.7),
    _ci(BAND_28GHZ, _E.NLOS, _P.VV, _D.OMNI, 2.7, 9.6),
    _ci(BAND_73GHZ, _E.LOS, _P.VV, _D.OMNI, 1.3, 1.9),
    _ci(BAND_73GHZ, _E.NLOS, _P.VV, _D.OMNI, 3.2, 11.3),
    # cross-polarized (V-H), directional
    _ci(BAND_28GHZ, _E.LOS, _P.VH, _D.DIRECTIONAL, 4.1, 8.0),
    _ci(BAND_28GHZ, _E.NLOS, _P.VH, _D.DIRECTIONAL, 5.1, 10.9),
    _ci(BAND_28GHZ, _E.NLOS_BEST, _P.VH, _D.DIRECTIONAL, 4.3, 9.1),
    _ci(BAND_73GHZ, _E.LOS, _P.VH, _D.DIRECTIONAL, 4.7, 9.0),
    _ci(BAND_73GHZ, _E.NLOS, _P.VH, _D.DIRECTIONAL, 6.4, 15.8),
    _ci(BAND_73GHZ, _E.NLOS_BEST, _P.VH, _D.DIRECTIONAL, 5.0, 10.9),
    # cross-polarized (V-H), omnidirectional
    _ci(BAND_28GHZ, _E.LOS, _P.VH, _D.OMNI, 2.5, 3.0),
    _ci(BAND_28GHZ, _E.NLOS, _P.VH, _D.OMNI, 3.6, 9.4),
    _ci(BAND_73GHZ, _E.LOS, _P.VH, _D.OMNI, 3.5, 6.3),
    _ci(BAND_73GHZ, _E.NLOS, _P.VH, _D.OMNI, 4.6, 9.7),
)

SOUNDER_28GHZ = SounderSpec(
    band=BAND_28GHZ,
    max_tx_power_dbm=24.0,
    tx_antenna_gain_dbi=15.0,
    rx_antenna_gain_dbi=15.0,
    azimuth_hpbw_deg=30.0,
    elevation_hpbw_deg=28.8,
    max_measurable_pl_db=162.0,
)

# The 73.5 GHz hardware spec lists 14.6 dBm maximum output; campaign summaries
# sometimes quote the 12.3 dBm level actually transmitted. The catalog stores
# the hardware maximum.
SOUNDER_73GHZ = SounderSpec(
    band=BAND_73GHZ,
    max_tx_power_dbm=14.6,
    tx_antenna_gain_dbi=20.0,
    rx_antenna_gain_dbi=20.0,
    azimuth_hpbw_deg=15.0,
    elevation_hpbw_deg=15.0,
    max_measurable_pl_db=163.0,
)

SOUNDER_CATALOG: tuple[SounderSpec, ...] = (SOUNDER_28GHZ, SOUNDER_73GHZ)

#: Directional RMS delay-spread statistics per stratum. The 90th percentiles
#: are read off the measured CDFs (the 73.5 GHz LOS V-V value is approximate).
DELAY_SPREAD_CATALOG: tuple[SpreadTarget, ...] = (
    SpreadTarget(BAND_28GHZ, _E.LOS, _P.VV, mean_ns=4.1, std_ns=1.3, max_ns=5.5, p90_ns=5.5),
    SpreadTarget(BAND_28GHZ, _E.NLOS, _P.VV, mean_ns=18.4, std_ns=14.9, max_ns=193.0, p90_ns=36.4),
    SpreadTarget(BAND_28GHZ, _E.LOS, _P.VH, mean_ns=12.8, std_ns=7.2, max_ns=125.9, p90_ns=21.8),
    SpreadTarget(BAND_28GHZ, _E.NLOS, _P.VH, mean_ns=18.7, std_ns=12.4, max_ns=176.2, p90_ns=31.4),
    SpreadTarget(BAND_73GHZ, _E.LOS, _P.VV, mean_ns=3.3, std_ns=1.8, max_ns=5.1, p90_ns=5.1),
    SpreadTarget(BAND_73GHZ, _E.NLOS, _P.VV, mean_ns=13.3, std_ns=16.2, max_ns=287.5, p90_ns=33.2),
    SpreadTarget(BAND_73GHZ, _E.LOS, _P.VH, mean_ns=21.2, std_ns=13.9, max_ns=80.6, p90_ns=37.8),
    SpreadTarget(BAND_73GHZ, _E.NLOS, _P.VH, mean_ns=10.3, std_ns=10.3, max_ns=143.8, p90_ns=26.0),
)

_CI_INDEX = {p.stratum: p for p in CI_MODEL_CATALOG}
_SOUNDER_INDEX = {s.band: s for s in SOUNDER_CATALOG}
_SPREAD_INDEX = {(t.band, t.env, t.pol): t for t in DELAY_SPREAD_CATALOG}


def catalog_lookup(
    band: FrequencyBand | float,
    env: Environment,
    pol: Polarization,
    dir: Directionality,
) -> CiModelParams:
    """Return the cataloged model for one stratum; raise if the combination was not measured."""
    band = band_from_ghz(band)
    try:
        return _CI_INDEX[(band, env, pol, dir)]
    except KeyError:
        raise UnknownCombinationError(
            f"no cataloged model for ({band.label}, {env.value}, {pol.value}, {dir.value})"
        ) from None


def sounder_lookup(band: FrequencyBand | float) -> SounderSpec:
    band = band_from_ghz(band)
    try:
        return _SOUNDER_INDEX[band]
    except KeyError:
        raise UnknownCombinationError(f"no cataloged sounder for {band.label}") from None


def delay_spread_lookup(
    band: FrequencyBand | float, env: Environment, pol: Polarization
) -> SpreadTarget:
    band = band_from_ghz(band)
    try:
        return _SPREAD_INDEX[(band, env, pol)]
    except KeyError:
        raise UnknownCombinationError(
            f"no cataloged delay-spread statistics for ({band.label}, {env.value}, {pol.value})"
        ) from None


def _row(entry) -> dict:
    """A catalog entry as a JSON-ready row, in field order: ``band`` becomes
    ``band_ghz``, ``shadow_sigma_db`` becomes ``sigma_db``, enums their values."""
    row = {}
    for f in fields(entry):
        value = getattr(entry, f.name)
        if isinstance(value, FrequencyBand):
            row["band_ghz"] = value.ghz
        else:
            name = "sigma_db" if f.name == "shadow_sigma_db" else f.name
            row[name] = value.value if isinstance(value, Enum) else value
    return row


def ci_model_rows() -> list[dict]:
    """Catalog as JSON-ready rows: {band_ghz, env, pol, dir, ple, sigma_db, d0_m}."""
    return [_row(p) for p in CI_MODEL_CATALOG]


def full_catalog_dump() -> dict:
    """Every built-in parameter table, for golden-file comparison and export."""
    return {
        "ci_models": ci_model_rows(),
        "delay_spread_ns": [_row(t) for t in DELAY_SPREAD_CATALOG],
        "sounders": [_row(s) for s in SOUNDER_CATALOG],
    }
