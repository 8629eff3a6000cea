import math

import numpy as np
import pytest

from mmwindoor.core import (
    BAND_28GHZ,
    BAND_73GHZ,
    CiModelParams,
    Directionality,
    Environment,
    Polarization,
    catalog_lookup,
)
from mmwindoor.pathloss import (
    draw_shadowing,
    free_space_pl_db,
    mean_path_loss_db,
    sample_path_loss_db,
    xpd_per_decade_db,
)


def _params(ple, sigma=0.0, band=BAND_28GHZ, env=Environment.NLOS,
            pol=Polarization.VV, dir_=Directionality.OMNI, d0=1.0):
    return CiModelParams(band=band, env=env, pol=pol, dir=dir_,
                         ple=ple, shadow_sigma_db=sigma, d0_m=d0)


class TestFreeSpace:
    def test_28ghz_at_1m(self):
        assert free_space_pl_db(BAND_28GHZ, 1.0) == pytest.approx(61.39, abs=0.01)

    def test_73ghz_at_1m(self):
        assert free_space_pl_db(BAND_73GHZ, 1.0) == pytest.approx(69.77, abs=0.01)

    def test_zero_db_at_lambda_over_4pi(self):
        for band in (BAND_28GHZ, BAND_73GHZ):
            d0 = band.wavelength_m / (4.0 * math.pi)
            assert free_space_pl_db(band, d0) == pytest.approx(0.0, abs=1e-12)

    def test_non_positive_d0_rejected(self):
        with pytest.raises(ValueError):
            free_space_pl_db(BAND_28GHZ, 0.0)
        with pytest.raises(ValueError):
            free_space_pl_db(BAND_28GHZ, -1.0)


class TestMeanPathLoss:
    def test_hand_case_10m(self):
        # 61.39 + 10 * 2.7 * log10(10) = 88.39
        assert mean_path_loss_db(_params(2.7), 10.0) == pytest.approx(88.39, abs=0.02)

    def test_anchor_distance_reduces_to_free_space(self):
        p = _params(3.3)
        assert mean_path_loss_db(p, 1.0) == free_space_pl_db(BAND_28GHZ, 1.0)

    def test_max_measured_distance(self):
        p = _params(1.1)
        assert mean_path_loss_db(p, 45.9) == pytest.approx(79.67, abs=0.05)

    def test_below_anchor_rejected(self):
        with pytest.raises(ValueError):
            mean_path_loss_db(_params(2.0), 0.5)

    def test_strictly_increasing_in_distance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = _params(float(rng.uniform(0.1, 7.0)))
            d1 = float(rng.uniform(1.0, 100.0))
            d2 = d1 * float(rng.uniform(1.0001, 10.0))
            assert mean_path_loss_db(p, d2) > mean_path_loss_db(p, d1)

    def test_decade_slope_is_ten_ple(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            ple = float(rng.uniform(0.5, 7.0))
            d = float(rng.uniform(1.0, 50.0))
            p = _params(ple)
            slope = mean_path_loss_db(p, 10.0 * d) - mean_path_loss_db(p, d)
            assert slope == pytest.approx(10.0 * ple, abs=1e-9)


class TestSamplePathLoss:
    def test_zero_sigma_equals_mean(self):
        p = _params(2.7, sigma=0.0)
        for seed in (0, 1, 99):
            rng = np.random.default_rng(seed)
            assert sample_path_loss_db(p, 20.0, rng) == mean_path_loss_db(p, 20.0)

    def test_fixed_seed_reproducible(self):
        p = _params(2.7, sigma=9.6)
        assert (sample_path_loss_db(p, 20.0, np.random.default_rng(1234))
                == sample_path_loss_db(p, 20.0, np.random.default_rng(1234)))

    def test_generator_state_owned_by_caller(self):
        p = _params(2.7, sigma=9.6)
        a = sample_path_loss_db(p, 20.0, np.random.default_rng(5))
        b = sample_path_loss_db(p, 20.0, np.random.default_rng(5))
        assert a == b

    def test_shadowing_distribution(self):
        # 1e5 draws: mean within +/-0.1 dB of 0, std within +/-0.15 of 9.6
        p = _params(2.7, sigma=9.6)
        rng = np.random.default_rng(42)
        mean = mean_path_loss_db(p, 20.0)
        draws = np.array([sample_path_loss_db(p, 20.0, rng) for _ in range(100_000)])
        chi = draws - mean
        assert abs(chi.mean()) < 0.1
        assert abs(chi.std() - 9.6) < 0.15

    def test_shadowing_std_within_two_percent(self):
        p = _params(3.0, sigma=4.0)
        rng = np.random.default_rng(3)
        chi = np.array(
            [sample_path_loss_db(p, 10.0, rng) - mean_path_loss_db(p, 10.0) for _ in range(100_000)]
        )
        assert abs(chi.mean()) < 0.1
        assert abs(chi.std() - 4.0) <= 0.02 * 4.0

    def test_draw_shadowing_type(self):
        d = draw_shadowing(_params(2.0, sigma=5.0), np.random.default_rng(0))
        assert isinstance(d, float)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma_db"):
                _params(2.0, sigma=sigma)


class TestXpd:
    def test_28ghz_omni_los(self):
        co = catalog_lookup(BAND_28GHZ, Environment.LOS, Polarization.VV, Directionality.OMNI)
        cross = catalog_lookup(BAND_28GHZ, Environment.LOS, Polarization.VH, Directionality.OMNI)
        assert xpd_per_decade_db(co, cross) == pytest.approx(14.0, abs=1e-9)

    def test_73ghz_omni_los(self):
        # 10 * (3.5 - 1.3) = 22.0 from cataloged one-decimal exponents
        co = catalog_lookup(BAND_73GHZ, Environment.LOS, Polarization.VV, Directionality.OMNI)
        cross = catalog_lookup(BAND_73GHZ, Environment.LOS, Polarization.VH, Directionality.OMNI)
        assert xpd_per_decade_db(co, cross) == pytest.approx(22.0, abs=1e-9)

    def test_identical_params_zero(self):
        p = _params(2.7)
        assert xpd_per_decade_db(p, p) == 0.0

    def test_mismatched_strata_rejected(self):
        co = catalog_lookup(BAND_28GHZ, Environment.LOS, Polarization.VV, Directionality.OMNI)
        cross = catalog_lookup(BAND_73GHZ, Environment.LOS, Polarization.VH, Directionality.OMNI)
        with pytest.raises(ValueError):
            xpd_per_decade_db(co, cross)
        cross_env = catalog_lookup(BAND_28GHZ, Environment.NLOS, Polarization.VH, Directionality.OMNI)
        with pytest.raises(ValueError):
            xpd_per_decade_db(co, cross_env)
