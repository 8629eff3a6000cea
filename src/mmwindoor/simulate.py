"""Synthetic measurement campaigns for estimator round-trips and link budgets.

Path loss samples are drawn from a cataloged (or overridden) close-in model
at uniformly random distances. Reproducibility contract: one root seed, split
into one spawned stream per block of 4096 locations and per draw kind
(distance, shadowing, profile shape). Each stream is consumed strictly in
location order, so location i's values depend only on the seed and i: not on
``n_locations``, and not on which other draw kinds a campaign uses.

Synthetic PDPs use exponentially decaying mean tap power with per-tap
lognormal variation. These shape parameters are artifact knobs for exercising
the delay-statistics pipeline; they are not measured quantities, and tap
placement is drawn independently of distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .core import (
    MEASURED_DISTANCE_RANGE_M,
    CiModelParams,
    Directionality,
    Environment,
    FrequencyBand,
    PathLossSample,
    Pdp,
    Polarization,
    SounderSpec,
    catalog_lookup,
)
from .pathloss import sample_path_loss_db

if TYPE_CHECKING:
    import numpy as np


#: The longest synthetic delay, 1 ms: a profile of at most 400 001 bins of 2.5 ns, some
#: 3 500 times the largest measured RMS delay spread (288 ns).
_MAX_DELAY_NS = 1e6


@dataclass(frozen=True)
class PdpSynthesisConfig:
    """Shape knobs for synthetic power delay profiles (not measured values)."""

    tap_count_range: tuple[int, int] = (1, 10)
    decay_ns: float = 25.0
    span_ns: float = 100.0
    tap_power_sigma_db: float = 3.0
    noise_floor_mw: float = 1e-9
    #: When set, tap delays are pinned instead of drawn (deterministic profiles).
    fixed_tap_delays_ns: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        lo, hi = self.tap_count_range
        if not (1 <= lo <= hi):
            raise ValueError(f"tap_count_range: need 1 <= min <= max, got {self.tap_count_range!r}")
        if hi > 2**63 - 1:  # rng.integers(lo, hi + 1) takes int64 bounds only
            raise ValueError(f"tap_count_range: max must be <= 2**63 - 1, got {hi!r}")
        if not self.decay_ns > 0.0:  # +inf allowed: no decay
            raise ValueError(f"decay_ns: must be > 0, got {self.decay_ns!r}")
        if not (math.isfinite(self.span_ns) and self.span_ns >= 0.0):
            raise ValueError(f"span_ns: must be finite and >= 0, got {self.span_ns!r}")
        if self.span_ns > _MAX_DELAY_NS:
            raise ValueError(f"span_ns: must be <= 1e6 ns, got {self.span_ns!r}")
        if not self.tap_power_sigma_db >= 0.0:  # +inf allowed: its draws overflow, named below
            raise ValueError(f"tap_power_sigma_db: must be >= 0, got {self.tap_power_sigma_db!r}")
        if not 0.0 <= self.noise_floor_mw < math.inf:
            raise ValueError(f"noise_floor_mw: must be finite and >= 0, got {self.noise_floor_mw!r}")
        if self.fixed_tap_delays_ns is not None:
            object.__setattr__(
                self, "fixed_tap_delays_ns", tuple(float(t) for t in self.fixed_tap_delays_ns)
            )
            if not self.fixed_tap_delays_ns:
                raise ValueError("fixed_tap_delays_ns: must contain at least one delay")
            if not all(0.0 <= t < math.inf for t in self.fixed_tap_delays_ns):
                raise ValueError("fixed_tap_delays_ns: delays must be finite and >= 0")
            longest = max(self.fixed_tap_delays_ns)
            if longest > _MAX_DELAY_NS:
                raise ValueError(f"fixed_tap_delays_ns: delays must be <= 1e6 ns, got {longest!r}")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to generate one synthetic campaign deterministically."""

    band: FrequencyBand
    env: Environment
    pol: Polarization
    dir: Directionality
    n_locations: int
    distance_range_m: tuple[float, float] = MEASURED_DISTANCE_RANGE_M
    seed: int = 0
    params_override: CiModelParams | None = None
    pdp_synthesis: PdpSynthesisConfig | None = None

    def __post_init__(self) -> None:
        if self.n_locations < 1:
            raise ValueError(f"n_locations: must be >= 1, got {self.n_locations!r}")
        if self.seed < 0:  # SeedSequence takes non-negative entropy only
            raise ValueError(f"seed: must be >= 0, got {self.seed!r}")
        lo, hi = self.distance_range_m
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"distance_range_m: bounds must be finite, got {self.distance_range_m!r}")
        if lo < 1.0:
            raise ValueError(f"distance_range_m: minimum must be >= 1 m, got {lo!r}")
        if hi < lo:
            raise ValueError(f"distance_range_m: max must be >= min, got {self.distance_range_m!r}")

    def params(self) -> CiModelParams:
        if self.params_override is not None:
            return self.params_override
        return catalog_lookup(self.band, self.env, self.pol, self.dir)


#: Locations per spawned stream. Part of the stream layout: changing it
#: changes every campaign's output.
_BLOCK = 4096
_DISTANCE, _SHADOWING, _PROFILE = range(3)


def _block_streams(config: CampaignConfig, kind: int):
    """Yield (location indices, generator) for each block, in location order.

    The generator of block b is ``SeedSequence(seed).spawn(...)[b].spawn(3)[kind]``,
    so it is the same whatever the campaign's size.
    """
    import numpy as np  # here, not at import: commands without draws never load numpy

    n = config.n_locations
    for b, start in enumerate(range(0, n, _BLOCK)):
        seq = np.random.SeedSequence(config.seed, spawn_key=(b, kind))
        yield range(start, min(start + _BLOCK, n)), np.random.default_rng(seq)


def generate_pathloss_campaign(config: CampaignConfig) -> list[PathLossSample]:
    """Draw one path loss sample per location; deterministic for a fixed seed."""
    params = config.params()
    lo, hi = config.distance_range_m
    if lo < params.d0_m:
        raise ValueError(
            f"distance_range_m: minimum {lo} m is below the model anchor d0 = {params.d0_m} m"
        )
    width = len(str(max(config.n_locations - 1, 1)))
    samples = []
    blocks = zip(_block_streams(config, _DISTANCE), _block_streams(config, _SHADOWING))
    for (indices, distance_rng), (_, shadow_rng) in blocks:
        distances = distance_rng.uniform(lo, hi, size=len(indices)).tolist()
        for i, d in zip(indices, distances):
            samples.append(
                PathLossSample(
                    location_id=f"loc{i:0{width}d}",
                    band=config.band,
                    env=config.env,
                    pol=config.pol,
                    dir=config.dir,
                    distance_m=d,
                    path_loss_db=sample_path_loss_db(params, d, shadow_rng),
                )
            )
    return samples


def generate_synthetic_pdp(config: CampaignConfig, rng: np.random.Generator) -> Pdp:
    """One synthetic PDP on the sounder's 2.5 ns bin grid.

    Tap delays land on bin centers within the configured span (the first tap
    at zero excess delay; pinned delays snap to the nearest bin); mean tap
    power decays as exp(-delay/decay_ns) with lognormal per-tap variation on
    top.
    """
    pcfg = config.pdp_synthesis
    if pcfg is None:
        raise ValueError("pdp_synthesis: settings are required to generate PDPs")
    bin_ns = 2.5

    if pcfg.fixed_tap_delays_ns is not None:
        delays = pcfg.fixed_tap_delays_ns
    else:
        lo, hi = pcfg.tap_count_range
        n_taps = int(rng.integers(lo, hi + 1))
        span_bins = int(round(pcfg.span_ns / bin_ns))
        extra = min(n_taps - 1, span_bins)
        # a uniformly random subset of the span's bins, without replacement
        picks = rng.permutation(span_bins)[:extra].tolist() if extra > 0 else []
        delays = tuple(sorted([0.0] + [(k + 1) * bin_ns for k in picks]))

    n_bins = int(round(max(delays) / bin_ns)) + 1
    powers = [0.0] * n_bins
    jitters_db = [0.0] * len(delays)
    if pcfg.tap_power_sigma_db:
        jitters_db = rng.normal(0.0, pcfg.tap_power_sigma_db, size=len(delays)).tolist()
    try:
        for tau, jitter_db in zip(delays, jitters_db):
            k = int(round(tau / bin_ns))
            mean_mw = math.exp(-tau / pcfg.decay_ns)
            powers[k] += mean_mw * 10.0 ** (jitter_db / 10.0)
    except OverflowError:
        raise ValueError(f"pdp_synthesis.tap_power_sigma_db: {pcfg.tap_power_sigma_db!r} dB "
                         "draws a tap power that overflows a float") from None
    return Pdp(bin_spacing_ns=bin_ns, powers_mw=tuple(powers), noise_floor_mw=pcfg.noise_floor_mw)


def generate_pdp_campaign(config: CampaignConfig) -> list[Pdp]:
    """One synthetic PDP per location, from the profile-shape streams.

    Those streams are separate from the distance and shadowing streams, so
    profiles do not depend on the path loss model and vice versa.
    """
    return [
        generate_synthetic_pdp(config, rng)
        for indices, rng in _block_streams(config, _PROFILE)
        for _ in indices
    ]


class LinkStatus(Enum):
    MEASURABLE = "measurable"
    OUTAGE = "outage"


def check_link_budget(pl_db: float, spec: SounderSpec) -> LinkStatus:
    """Outage when the loss exceeds the sounder's maximum measurable path loss.

    A loss exactly at the limit is measurable: the limit names the largest
    measurable loss.
    """
    if not math.isfinite(pl_db):
        raise ValueError(f"pl_db must be finite, got {pl_db!r}")
    return LinkStatus.OUTAGE if pl_db > spec.max_measurable_pl_db else LinkStatus.MEASURABLE
