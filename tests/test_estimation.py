import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmwindoor.core import (
    BAND_28GHZ,
    Directionality,
    EmptyInputError,
    Environment,
    PathLossSample,
    Polarization,
    StratumMismatchError,
    catalog_lookup,
    delay_spread_lookup,
)
from mmwindoor.estimation import (
    SpreadSummary,
    empirical_cdf,
    fit_ci_model,
    percentile,
    summarize_spreads,
)
from mmwindoor.pathloss import free_space_pl_db, sample_path_loss_db

STRATUM = dict(band=BAND_28GHZ, env=Environment.NLOS, pol=Polarization.VV,
               dir=Directionality.OMNI)


def _sample(distance, pl, i=0, **overrides):
    kw = dict(STRATUM)
    kw.update(overrides)
    return PathLossSample(location_id=f"s{i}", distance_m=distance, path_loss_db=pl, **kw)


def _on_line_samples(ple, distances, band=BAND_28GHZ):
    plfs = free_space_pl_db(band, 1.0)
    return [
        _sample(d, plfs + 10.0 * ple * math.log10(d), i=i, band=band)
        for i, d in enumerate(distances)
    ]


def _residuals(samples, ple_hat, d0_m=1.0):
    """A_i - ple_hat * B_i: each loss in excess of the anchor, less the fitted slope."""
    plfs = free_space_pl_db(samples[0].band, d0_m)
    return [s.path_loss_db - plfs - ple_hat * 10.0 * math.log10(s.distance_m / d0_m)
            for s in samples]


class TestFit:
    def test_noiseless_recovery(self):
        samples = _on_line_samples(2.0, [2.0, 5.0, 10.0, 20.0, 45.0])
        fit = fit_ci_model(samples)
        assert fit.ple_hat == pytest.approx(2.0, abs=1e-9)
        assert fit.sigma_hat_db == pytest.approx(0.0, abs=1e-9)

    def test_two_sample_closed_form(self):
        # A = (20, 50) at B = (10, 20): ple = 1200/500 = 2.4,
        # residuals (-4, +2), sigma = sqrt(20/2) = sqrt(10)
        plfs = free_space_pl_db(BAND_28GHZ, 1.0)
        samples = [_sample(10.0, plfs + 20.0, 0), _sample(100.0, plfs + 50.0, 1)]
        fit = fit_ci_model(samples)
        assert fit.ple_hat == pytest.approx(2.4, rel=1e-12)
        residuals = _residuals(samples, fit.ple_hat)
        assert residuals[0] == pytest.approx(-4.0, abs=1e-9)
        assert residuals[1] == pytest.approx(2.0, abs=1e-9)
        assert fit.sigma_hat_db == pytest.approx(math.sqrt(10.0), rel=1e-12)

    def test_round_trip_against_catalog(self):
        params = catalog_lookup(**STRATUM)
        rng = np.random.default_rng(1)
        samples = []
        for i in range(10_000):
            d = float(rng.uniform(3.9, 45.9))
            samples.append(_sample(d, sample_path_loss_db(params, d, rng), i))
        fit = fit_ci_model(samples)
        assert fit.ple_hat == pytest.approx(2.7, abs=0.05)
        assert fit.sigma_hat_db == pytest.approx(9.6, abs=0.3)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        params = catalog_lookup(**STRATUM)
        samples = []
        for i in range(500):
            d = float(rng.uniform(3.9, 45.9))
            samples.append(_sample(d, sample_path_loss_db(params, d, rng), i))
        fit = fit_ci_model(samples)
        b = [10.0 * math.log10(s.distance_m) for s in samples]
        terms = [r * bi for r, bi in zip(_residuals(samples, fit.ple_hat), b)]
        assert abs(math.fsum(terms)) <= 1e-6 * math.fsum(abs(t) for t in terms)

    def test_argmin_property(self):
        rng = np.random.default_rng(3)
        params = catalog_lookup(**STRATUM)
        samples = []
        for i in range(200):
            d = float(rng.uniform(3.9, 45.9))
            samples.append(_sample(d, sample_path_loss_db(params, d, rng), i))
        fit = fit_ci_model(samples)
        plfs = free_space_pl_db(BAND_28GHZ, 1.0)

        def ssr(n):
            return math.fsum(
                (s.path_loss_db - plfs - n * 10.0 * math.log10(s.distance_m)) ** 2
                for s in samples
            )

        best = ssr(fit.ple_hat)
        assert ssr(fit.ple_hat + 0.01) > best
        assert ssr(fit.ple_hat - 0.01) > best

    def test_consistency_error_shrinks_with_n(self):
        params = catalog_lookup(**STRATUM)

        def mean_abs_error(n, reps=12):
            errs = []
            for rep in range(reps):
                rng = np.random.default_rng(1000 * rep + n)
                samples = []
                for i in range(n):
                    d = float(rng.uniform(3.9, 45.9))
                    samples.append(_sample(d, sample_path_loss_db(params, d, rng), i))
                errs.append(abs(fit_ci_model(samples).ple_hat - params.ple))
            return float(np.mean(errs))

        e100, e1000, e10000 = mean_abs_error(100), mean_abs_error(1000), mean_abs_error(10_000)
        assert e100 > e1000 > e10000
        assert e100 / e10000 > 3.0  # expect ~10 for O(1/sqrt(N))

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            fit_ci_model([])

    def test_all_distances_at_anchor(self):
        plfs = free_space_pl_db(BAND_28GHZ, 1.0)
        samples = [_sample(1.0, plfs + 1.0, i) for i in range(3)]
        with pytest.raises(ValueError):
            fit_ci_model(samples)

    def test_distance_below_anchor_rejected(self):
        with pytest.raises(ValueError):
            fit_ci_model([_sample(0.5, 70.0)])

    def test_mixed_strata_rejected(self):
        a = _sample(10.0, 90.0, 0)
        b = _sample(10.0, 90.0, 1, env=Environment.LOS)
        with pytest.raises(StratumMismatchError):
            fit_ci_model([a, b])


class TestEmpiricalCdf:
    def test_single_value(self):
        assert empirical_cdf([5.0]) == [(5.0, 1.0)]

    def test_four_values(self):
        cdf = empirical_cdf([3.0, 1.0, 4.0, 2.0])
        assert [v for v, _ in cdf] == [1.0, 2.0, 3.0, 4.0]
        assert [p for _, p in cdf] == [0.25, 0.5, 0.75, 1.0]

    def test_matches_sort_rank_oracle(self):
        rng = np.random.default_rng(10)
        values = [float(v) for v in rng.uniform(0.0, 100.0, size=1000)]
        cdf = empirical_cdf(values)
        ordered = sorted(values)
        assert cdf == [(v, (i + 1) / 1000) for i, v in enumerate(ordered)]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            empirical_cdf([])


class TestPercentile:
    def test_p90_of_1_to_10(self):
        assert percentile(list(range(1, 11)), 0.9) == 9

    def test_single_value_any_p(self):
        for p in (0.01, 0.5, 1.0):
            assert percentile([7.25], p) == 7.25

    def test_constant_values(self):
        assert percentile([3.0, 3.0, 3.0], 0.5) == 3.0

    def test_p_just_past_a_rank_rounds_up(self):
        # p * n rounds down to exactly 1.0, yet rank 1 covers only 1/3 < p: the next
        # rank is the smallest whose share reaches p.
        p = math.nextafter(1 / 3, 1)
        assert math.ceil(p * 3) == 1
        assert percentile([1.0, 2.0, 3.0], p) == 2.0

    def test_out_of_range_p(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(EmptyInputError):
            percentile([], 0.5)

    def test_consistency_with_cdf(self):
        rng = np.random.default_rng(11)
        values = [float(v) for v in rng.uniform(0.0, 50.0, size=200)]
        for v, p in empirical_cdf(values):
            assert percentile(values, p) <= v


#: Delay spreads from 0 to a value whose square, summed 200 times, is still a float.
SPREAD = st.floats(min_value=0.0, max_value=1e150)

#: summarize_spreads' error bounds for values >= 0, in ulps of the value bounded. The
#: mean is within 2.5 ulps of the exact mean: each deviation x - m from the first pass's
#: mean m is rounded by at most 2**-53 * max(x, m), so the second pass is off by under
#: 2 ulps, and the last addition by half an ulp (at most 0.86 over 3000 random lists).
#: The std is within 3.5 ulps of the exact RMS deviation about that mean: rounded
#: deviations, their squares, an fsum, a division by n and a square root (at most 1.30
#: over the same lists).
MEAN_ULPS, STD_ULPS = Fraction(5, 2), Fraction(7, 2)


def assert_within_ulps(got: float, exact: Fraction, ulps) -> None:
    assert abs(Fraction(got) - exact) <= ulps * Fraction(math.ulp(got)), (got, float(exact))


def assert_root_within_ulps(got: float, square: Fraction, ulps) -> None:
    """``got`` is within ``ulps`` ulps of the square root of ``square``, checked on squares."""
    step = ulps * Fraction(math.ulp(got))
    assert max(Fraction(got) - step, 0) ** 2 <= square <= (Fraction(got) + step) ** 2, got


def assert_summary_is_exact(values, summary) -> None:
    """The summary's mean and std are those of exact ``Fraction`` arithmetic on the
    values, within MEAN_ULPS and STD_ULPS."""
    n = len(values)
    assert_within_ulps(summary.mean_ns, sum(map(Fraction, values)) / n, MEAN_ULPS)
    mean = Fraction(summary.mean_ns)
    assert_root_within_ulps(summary.std_ns, sum((Fraction(x) - mean) ** 2 for x in values) / n,
                            STD_ULPS)


class TestSummarizeSpreads:
    def test_constant(self):
        s = summarize_spreads([5.0, 5.0, 5.0])
        assert (s.mean_ns, s.std_ns, s.max_ns, s.p90_ns) == (5.0, 0.0, 5.0, 5.0)

    def test_tuned_campaign_hits_los_vv_28ghz_mean(self):
        # profile shape tuned so the campaign's mean RMS delay spread lands on
        # the cataloged boresight LOS V-V 28 GHz value of 4.1 ns
        from mmwindoor.pdp import delay_stats, threshold_pdp
        from mmwindoor.simulate import (
            CampaignConfig,
            PdpSynthesisConfig,
            generate_pdp_campaign,
        )

        cfg = CampaignConfig(
            band=BAND_28GHZ, env=Environment.LOS, pol=Polarization.VV,
            dir=Directionality.DIRECTIONAL, n_locations=2000, seed=0,
            pdp_synthesis=PdpSynthesisConfig(
                tap_count_range=(3, 6), decay_ns=6.0, span_ns=17.5,
                tap_power_sigma_db=3.0,
            ),
        )
        spreads = [
            delay_stats(threshold_pdp(p)).rms_delay_spread_ns
            for p in generate_pdp_campaign(cfg)
        ]
        summary = summarize_spreads(spreads)
        target = delay_spread_lookup(BAND_28GHZ, Environment.LOS, Polarization.VV)
        assert summary.mean_ns == pytest.approx(target.mean_ns, abs=0.35)

    @pytest.mark.parametrize("value", [0.1, 0.7, 1.3, 2.5, 3.3, 5.9, 7.1, 9.9, 288.0])
    def test_equal_values_summarize_to_that_value(self, value):
        # The sum of n equal values over n can round one ulp past them (3 x 0.1, 6 x 0.7),
        # and a std about that mean is then not 0; the mean's second pass takes it back.
        for n in range(1, 64):
            s = summarize_spreads([value] * n)
            assert (s.mean_ns, s.std_ns, s.max_ns, s.p90_ns) == (value, 0.0, value, value), n

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.one_of(
        st.lists(SPREAD, min_size=1, max_size=60),
        st.builds(lambda x, steps: [x + k * math.ulp(x) for k in steps],
                  SPREAD, st.lists(st.integers(0, 3), min_size=1, max_size=60)),
    ))
    def test_mean_lies_between_min_and_max(self, values):
        assert min(values) <= summarize_spreads(values).mean_ns <= max(values)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(SPREAD, st.integers(1, 200))
    def test_equal_values_have_that_mean_and_no_spread(self, value, n):
        s = summarize_spreads([value] * n)
        assert (s.mean_ns, s.std_ns) == (value, 0.0)

    def test_mean_and_std_of_distinct_values_are_exact(self):
        rng = np.random.default_rng(12)
        for n in range(1, 200):
            values = (rng.uniform(0.0, 50.0, size=n) * 10.0 ** rng.uniform(-3, 3)).tolist()
            assert_summary_is_exact(values, summarize_spreads(values))

    def test_population_std(self):
        s = summarize_spreads([0.0, 10.0])
        assert s.mean_ns == 5.0
        assert s.std_ns == 5.0  # population normalization, not 7.07
        assert s.max_ns == 10.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            summarize_spreads([])

    @pytest.mark.parametrize("mean, p90, message", [
        (-0.5, 1.0, "mean_ns must lie in [0, max_ns]"),
        (2.5, 1.0, "mean_ns must lie in [0, max_ns]"),
        (math.nan, 1.0, "mean_ns must lie in [0, max_ns]"),
        (1.0, 2.5, "p90_ns cannot exceed max_ns"),
    ], ids=["negative-mean", "mean-above-max", "nan-mean", "p90-above-max"])
    def test_summary_keeps_mean_and_p90_within_max(self, mean, p90, message):
        for edge in ({"mean_ns": 0.0}, {"mean_ns": 2.0}, {"p90_ns": 2.0}):  # bounds are in
            SpreadSummary(**{"mean_ns": 1.0, "std_ns": 0.5, "max_ns": 2.0, "p90_ns": 1.0, **edge})
        with pytest.raises(ValueError) as exc:
            SpreadSummary(mean_ns=mean, std_ns=0.5, max_ns=2.0, p90_ns=p90)
        assert str(exc.value) == message
