import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmwindoor.core import NoMultipathError, Pdp
from mmwindoor.pdp import (
    DelayStats,
    delay_stats,
    excess_delay_rebase,
    integrate_power_mw,
    threshold_pdp,
)


def naive_delay_stats(powers, bin_ns):
    """Independent reference: explicit loops, delays from the first positive bin."""
    k0 = None
    for k, p in enumerate(powers):
        if p > 0:
            k0 = k
            break
    assert k0 is not None
    total = 0.0
    for p in powers:
        total += p
    first = 0.0
    for k, p in enumerate(powers):
        first += p * (k - k0) * bin_ns
    second = 0.0
    for k, p in enumerate(powers):
        second += p * ((k - k0) * bin_ns) ** 2
    mean = first / total
    m2 = second / total
    return mean, m2, math.sqrt(max(m2 - mean * mean, 0.0)), total


def random_pdp(rng, max_bins=512, bin_ns=2.5):
    n = int(rng.integers(1, max_bins + 1))
    powers = rng.uniform(0.0, 1.0, size=n)
    powers[rng.uniform(size=n) < 0.5] = 0.0  # sparse profiles too
    if not np.any(powers > 0):
        powers[int(rng.integers(0, n))] = float(rng.uniform(0.1, 1.0))
    return Pdp(bin_ns, tuple(powers), noise_floor_mw=1e-9)


class TestThreshold:
    def test_all_bins_above_threshold_is_noop(self):
        p = Pdp(2.5, (1.0, 0.8, 0.9), noise_floor_mw=0.01)
        assert threshold_pdp(p, 5.0, 30.0).powers_mw == p.powers_mw

    def test_only_bin_above_noise_survives(self):
        nf = 1e-6
        powers = [nf] * 10
        powers[4] = 1e-3
        out = threshold_pdp(Pdp(2.5, tuple(powers), noise_floor_mw=nf), 5.0, 30.0)
        assert out.powers_mw[4] == 1e-3
        assert all(out.powers_mw[k] == 0.0 for k in range(10) if k != 4)

    def test_dynamic_range_cut(self):
        # bin at 1e-4 mW clears the noise threshold but sits 40 dB below the 1 mW peak
        nf = 1e-9
        out = threshold_pdp(Pdp(2.5, (1.0, 1e-4), noise_floor_mw=nf), 5.0, 30.0)
        assert out.powers_mw == (1.0, 0.0)

    def test_exactly_at_noise_threshold_survives(self):
        nf = 1e-3
        at_cut = nf * 10.0 ** 0.5
        out = threshold_pdp(Pdp(2.5, (1.0, at_cut), noise_floor_mw=nf), 5.0, 60.0)
        assert out.powers_mw[1] == at_cut

    def test_all_zero_returns_all_zero(self):
        out = threshold_pdp(Pdp(2.5, (0.0, 0.0), noise_floor_mw=1e-6), 5.0, 30.0)
        assert out.powers_mw == (0.0, 0.0)

    def test_peak_always_retained(self):
        # noise floor so high that even the peak misses the cut
        out = threshold_pdp(Pdp(2.5, (0.5, 1.0), noise_floor_mw=10.0), 5.0, 30.0)
        assert out.powers_mw == (0.0, 1.0)

    def test_negative_threshold_rejected(self):
        p = Pdp(2.5, (1.0,))
        with pytest.raises(ValueError):
            threshold_pdp(p, -1.0, 30.0)
        with pytest.raises(ValueError):
            threshold_pdp(p, 5.0, -1.0)


class TestIntegrate:
    def test_direct_sum(self):
        assert integrate_power_mw(Pdp(2.5, (1.0, 0.0, 2.0))) == 3.0

    def test_all_zero(self):
        assert integrate_power_mw(Pdp(2.5, (0.0, 0.0))) == 0.0

    def test_against_naive_loop(self):
        rng = np.random.default_rng(2)
        powers = tuple(float(x) for x in rng.uniform(0.0, 1.0, size=400))
        expected = 0.0
        for p in powers:
            expected += p
        got = integrate_power_mw(Pdp(2.5, powers))
        assert got == pytest.approx(expected, rel=1e-12)


class TestDelayStats:
    def test_single_bin_anywhere_zero_spread(self):
        for idx in (0, 3, 99):
            powers = [0.0] * 100
            powers[idx] = 0.7
            stats = delay_stats(Pdp(2.5, tuple(powers)))
            assert stats.rms_delay_spread_ns == 0.0
            assert stats.mean_excess_delay_ns == 0.0

    def test_two_equal_taps_at_0_and_10ns(self):
        # tau_bar = 5, tau2_bar = 50, sigma = 5
        stats = delay_stats(Pdp(2.5, (1.0, 0.0, 0.0, 0.0, 1.0)))
        assert stats.mean_excess_delay_ns == pytest.approx(5.0, rel=1e-9)
        assert stats.second_moment_ns2 == pytest.approx(50.0, rel=1e-9)
        assert stats.rms_delay_spread_ns == pytest.approx(5.0, rel=1e-9)

    def test_two_to_one_taps_at_0_and_30ns(self):
        # (2 mW @ 0, 1 mW @ 30): tau_bar = 10, tau2_bar = 300, sigma = sqrt(200)
        powers = [0.0] * 13
        powers[0] = 2.0
        powers[12] = 1.0
        stats = delay_stats(Pdp(2.5, tuple(powers)))
        assert stats.mean_excess_delay_ns == pytest.approx(10.0, rel=1e-9)
        assert stats.second_moment_ns2 == pytest.approx(300.0, rel=1e-9)
        assert stats.rms_delay_spread_ns == pytest.approx(math.sqrt(200.0), rel=1e-9)

    def test_all_zero_is_an_error(self):
        with pytest.raises(NoMultipathError):
            delay_stats(Pdp(2.5, (0.0, 0.0, 0.0)))

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            p = random_pdp(rng)
            stats = delay_stats(p)
            mean, m2, rms, total = naive_delay_stats(p.powers_mw, p.bin_spacing_ns)
            assert stats.mean_excess_delay_ns == pytest.approx(mean, rel=1e-9, abs=1e-12)
            assert stats.second_moment_ns2 == pytest.approx(m2, rel=1e-9, abs=1e-12)
            assert stats.rms_delay_spread_ns == pytest.approx(rms, rel=1e-9, abs=1e-12)
            assert stats.total_power_mw == pytest.approx(total, rel=1e-9)

    def test_internal_consistency_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            stats = delay_stats(random_pdp(rng))
            lhs = stats.rms_delay_spread_ns
            rhs = math.sqrt(max(stats.second_moment_ns2 - stats.mean_excess_delay_ns**2, 0.0))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_spread_bounded_by_half_span(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            p = random_pdp(rng)
            positive = [k for k, v in enumerate(p.powers_mw) if v > 0]
            span = (positive[-1] - positive[0]) * p.bin_spacing_ns
            stats = delay_stats(p)
            assert stats.rms_delay_spread_ns <= span / 2.0 + 1e-9

    def test_two_point_half_span_bound_is_tight(self):
        stats = delay_stats(Pdp(2.5, (1.0, 0.0, 0.0, 0.0, 1.0)))
        assert stats.rms_delay_spread_ns == pytest.approx(10.0 / 2.0, rel=1e-12)

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            DelayStats(-1.0, 0.0, 0.0, 1.0)


class TestRebase:
    def test_identity_when_first_bin_positive(self):
        p = Pdp(2.5, (1.0, 0.0, 0.5))
        assert excess_delay_rebase(p).powers_mw == p.powers_mw

    def test_shift_by_leading_zeros(self):
        powers = [0.0] * 9
        powers[4] = 1.0
        powers[8] = 0.5
        out = excess_delay_rebase(Pdp(2.5, tuple(powers)))
        assert out.powers_mw == (1.0, 0.0, 0.0, 0.0, 0.5)

    def test_all_zero_is_an_error(self):
        with pytest.raises(NoMultipathError):
            excess_delay_rebase(Pdp(2.5, (0.0,)))

    def test_shift_invariance_of_spread(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = random_pdp(rng)
            a = delay_stats(p).rms_delay_spread_ns
            b = delay_stats(excess_delay_rebase(p)).rms_delay_spread_ns
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


class TestScaleInvariance:
    def test_moments_unchanged_by_scaling(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = random_pdp(rng)
            c = float(rng.uniform(1e-6, 1e6))
            scaled = Pdp(p.bin_spacing_ns, tuple(c * v for v in p.powers_mw), p.noise_floor_mw)
            a, b = delay_stats(p), delay_stats(scaled)
            assert b.mean_excess_delay_ns == pytest.approx(a.mean_excess_delay_ns, rel=1e-9, abs=1e-12)
            assert b.second_moment_ns2 == pytest.approx(a.second_moment_ns2, rel=1e-9, abs=1e-12)
            assert b.rms_delay_spread_ns == pytest.approx(a.rms_delay_spread_ns, rel=1e-9, abs=1e-12)


#: Profiles with at least one positive bin, and spacings of any size, so long as
#: every moment stays far from overflow and subnormals: then scaling by a power
#: of two is exact.
SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)
powers_lists = st.lists(st.just(0.0) | st.floats(1e-30, 1e30), min_size=1, max_size=60).filter(any)
spacings = st.floats(1e-100, 1e100)


class TestDelayStatsProperties:
    @SETTINGS
    @given(powers_lists, spacings, st.integers(1, 40))
    def test_leading_zero_bins_change_nothing(self, powers, dt, zeros):
        padded = Pdp(dt, (0.0,) * zeros + tuple(powers))
        assert delay_stats(padded) == delay_stats(Pdp(dt, tuple(powers)))

    @SETTINGS
    @given(powers_lists, spacings, st.integers(-16, 16), st.integers(-60, 60))
    @example([1.0, 1.0], 28.07713380269933, -11, 0)  # where libm's pow(d, 2) is not exact
    def test_exactly_covariant_under_power_of_two_scaling(self, powers, dt, j, m):
        a = delay_stats(Pdp(dt, tuple(powers)))
        wide = delay_stats(Pdp(math.ldexp(dt, j), tuple(powers)))
        assert (wide.mean_excess_delay_ns, wide.rms_delay_spread_ns, wide.second_moment_ns2,
                wide.total_power_mw) == (math.ldexp(a.mean_excess_delay_ns, j),
                                         math.ldexp(a.rms_delay_spread_ns, j),
                                         math.ldexp(a.second_moment_ns2, 2 * j), a.total_power_mw)
        loud = delay_stats(Pdp(dt, tuple(math.ldexp(p, m) for p in powers)))
        assert loud == DelayStats(a.mean_excess_delay_ns, a.second_moment_ns2,
                                  a.rms_delay_spread_ns, math.ldexp(a.total_power_mw, m))
