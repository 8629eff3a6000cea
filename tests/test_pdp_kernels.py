"""The per-profile kernels against the element-by-element versions they replaced.

``Pdp`` validates its powers in one comparison pass and ``delay_stats`` sums
positive bins only; both must behave exactly as the loops below: the same
``DelayStats`` bit for bit, and the same ``ValueError`` text for bad powers.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mmwindoor.core import NoMultipathError, Pdp
from mmwindoor.pdp import delay_stats, threshold_pdp

SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def reference_validate_powers(powers):
    powers = tuple(float(p) for p in powers)
    for k, p in enumerate(powers):
        if not (math.isfinite(p) and p >= 0.0):
            raise ValueError(f"powers_mw[{k}] must be finite and >= 0, got {p!r}")
    return powers


def reference_threshold(pdp, threshold_db, dynamic_range_db):
    peak = max(pdp.powers_mw)
    cutoff = max(
        pdp.noise_floor_mw * 10.0 ** (threshold_db / 10.0),
        peak * 10.0 ** (-dynamic_range_db / 10.0),
    )
    return tuple(p if (p >= cutoff or (p == peak and p > 0.0)) else 0.0 for p in pdp.powers_mw)


def reference_delay_stats(powers, dt):
    k0 = next((k for k, p in enumerate(powers) if p > 0.0), None)
    if k0 is None:
        return None
    total = math.fsum(powers)
    first = math.fsum(p * ((k - k0) * dt) for k, p in enumerate(powers))
    second = math.fsum(p * ((k - k0) * dt) ** 2 for k, p in enumerate(powers))
    mean_ns = first / total
    second_ns2 = second / total
    rms_ns = math.sqrt(max(second_ns2 - mean_ns * mean_ns, 0.0))
    return (mean_ns, second_ns2, rms_ns, total)


def _bits(values):
    return tuple(float(v).hex() for v in values)


#: Powers spanning the whole float range, with many exact zeros (and -0.0).
wide = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, -0.0, 5e-324, 1e-300, 1e290]),
    st.floats(min_value=1e-300, max_value=1e290),
    st.floats(min_value=0.0, max_value=1.0),
)
profiles = st.builds(
    Pdp,
    bin_spacing_ns=st.sampled_from([2.5, 0.1, 7.0, 1e-3]),
    powers_mw=st.lists(wide, min_size=1, max_size=300).map(tuple),
    noise_floor_mw=st.sampled_from([0.0, 1e-9, 1e-3]),
)


@SETTINGS
@given(profiles, st.sampled_from([0.0, 5.0, 20.0]), st.sampled_from([0.0, 30.0, 300.0]))
def test_delay_stats_bit_identical(pdp, threshold_db, dynamic_range_db):
    for profile in (pdp, threshold_pdp(pdp, threshold_db, dynamic_range_db)):
        expected = reference_delay_stats(profile.powers_mw, profile.bin_spacing_ns)
        if expected is None:
            with pytest.raises(NoMultipathError):
                delay_stats(profile)
            continue
        s = delay_stats(profile)
        got = (s.mean_excess_delay_ns, s.second_moment_ns2, s.rms_delay_spread_ns, s.total_power_mw)
        assert _bits(got) == _bits(expected)
    cleaned = threshold_pdp(pdp, threshold_db, dynamic_range_db).powers_mw
    assert _bits(cleaned) == _bits(reference_threshold(pdp, threshold_db, dynamic_range_db))


#: Any float: nan, infinities and negatives must be rejected like the loop did.
any_power = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -1e-300, -5e-324, -0.0, 0.0]),
)


@SETTINGS
@given(st.lists(any_power, min_size=1, max_size=30))
def test_validation_matches_loop(powers):
    try:
        expected = reference_validate_powers(powers)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Pdp(2.5, tuple(powers))
        assert str(got.value) == str(exc)
    else:
        assert _bits(Pdp(2.5, tuple(powers)).powers_mw) == _bits(expected)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
@pytest.mark.parametrize("index", [0, 3, 7])
def test_bad_power_names_first_offender(bad, index):
    powers = [1.0] * 9
    powers[index] = bad
    powers[-1] = math.nan  # a later offender must not be the one reported
    with pytest.raises(ValueError) as got:
        Pdp(2.5, tuple(powers))
    with pytest.raises(ValueError) as want:
        reference_validate_powers(powers)
    assert str(got.value) == str(want.value)
    assert f"powers_mw[{index}]" in str(got.value)
