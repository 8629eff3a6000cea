import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from click.testing import CliRunner

from mmwindoor.cli import main as cli_main
from mmwindoor.core import (
    BAND_28GHZ,
    CiModelParams,
    Directionality,
    Environment,
    Polarization,
    SOUNDER_28GHZ,
    SOUNDER_73GHZ,
)
from mmwindoor.estimation import fit_ci_model
from mmwindoor.pathloss import mean_path_loss_db
from mmwindoor.pdp import delay_stats, threshold_pdp
from mmwindoor.simulate import (
    CampaignConfig,
    LinkStatus,
    PdpSynthesisConfig,
    check_link_budget,
    generate_pathloss_campaign,
    generate_pdp_campaign,
    generate_synthetic_pdp,
)


def _config(**overrides):
    kw = dict(
        band=BAND_28GHZ, env=Environment.NLOS, pol=Polarization.VV,
        dir=Directionality.OMNI, n_locations=100, seed=7,
    )
    kw.update(overrides)
    return CampaignConfig(**kw)


class TestCampaignGeneration:
    def test_zero_sigma_lands_on_mean_line(self):
        override = CiModelParams(
            band=BAND_28GHZ, env=Environment.NLOS, pol=Polarization.VV,
            dir=Directionality.OMNI, ple=2.7, shadow_sigma_db=0.0,
        )
        samples = generate_pathloss_campaign(_config(params_override=override))
        for s in samples:
            assert s.path_loss_db == mean_path_loss_db(override, s.distance_m)

    def test_fixed_seed_reproducible(self):
        a = generate_pathloss_campaign(_config())
        b = generate_pathloss_campaign(_config())
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_pathloss_campaign(_config(seed=1))
        b = generate_pathloss_campaign(_config(seed=2))
        assert a != b

    def test_parallel_matches_serial(self):
        # every call seeds its own streams, so campaigns generated
        # concurrently from threads equal the serial ones
        configs = [_config(n_locations=500, seed=seed) for seed in range(4)]
        serial = [generate_pathloss_campaign(cfg) for cfg in configs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(generate_pathloss_campaign, cfg) for cfg in configs]
            parallel = [f.result(timeout=60) for f in futures]
        assert parallel == serial

    def test_distances_within_range(self):
        samples = generate_pathloss_campaign(_config(distance_range_m=(5.0, 6.0)))
        assert all(5.0 <= s.distance_m <= 6.0 for s in samples)

    def test_round_trip_recovers_catalog_values(self):
        cfg = _config(n_locations=10_000, seed=42)
        fit = fit_ci_model(generate_pathloss_campaign(cfg))
        assert fit.ple_hat == pytest.approx(2.7, abs=0.05)
        assert fit.sigma_hat_db == pytest.approx(9.6, abs=0.3)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="n_locations"):
            _config(n_locations=0)
        with pytest.raises(ValueError, match="distance_range_m"):
            _config(distance_range_m=(0.5, 10.0))
        with pytest.raises(ValueError, match="distance_range_m"):
            _config(distance_range_m=(10.0, 5.0))

    def test_range_below_model_anchor_rejected(self):
        override = CiModelParams(
            band=BAND_28GHZ, env=Environment.NLOS, pol=Polarization.VV,
            dir=Directionality.OMNI, ple=2.7, shadow_sigma_db=9.6, d0_m=5.0,
        )
        with pytest.raises(ValueError, match="d0"):
            generate_pathloss_campaign(
                _config(params_override=override, distance_range_m=(2.0, 45.9))
            )

    def test_stratum_fields_propagate(self):
        samples = generate_pathloss_campaign(_config(n_locations=3))
        assert {s.stratum for s in samples} == {
            (BAND_28GHZ, Environment.NLOS, Polarization.VV, Directionality.OMNI)
        }
        assert len({s.location_id for s in samples}) == 3


class TestSyntheticPdp:
    def test_single_tap_zero_spread(self):
        cfg = _config(pdp_synthesis=PdpSynthesisConfig(tap_count_range=(1, 1)))
        rng = np.random.default_rng(0)
        for _ in range(20):
            pdp = generate_synthetic_pdp(cfg, rng)
            assert delay_stats(pdp).rms_delay_spread_ns == 0.0

    def test_forced_two_tap_profile(self):
        # equal-power taps at 0 and 10 ns reproduce the sigma_tau = 5 ns case
        cfg = _config(
            pdp_synthesis=PdpSynthesisConfig(
                fixed_tap_delays_ns=(0.0, 10.0), decay_ns=math.inf, tap_power_sigma_db=0.0
            )
        )
        pdp = generate_synthetic_pdp(cfg, np.random.default_rng(0))
        assert pdp.powers_mw == (1.0, 0.0, 0.0, 0.0, 1.0)
        assert delay_stats(pdp).rms_delay_spread_ns == pytest.approx(5.0, rel=1e-12)

    def test_generated_sweep_valid_and_statable(self):
        cfg = _config(
            n_locations=1000,
            pdp_synthesis=PdpSynthesisConfig(tap_count_range=(1, 10), span_ns=100.0),
        )
        for pdp in generate_pdp_campaign(cfg):
            assert pdp.bin_spacing_ns == 2.5
            assert all(p >= 0.0 for p in pdp.powers_mw)
            stats = delay_stats(pdp)
            assert stats.rms_delay_spread_ns >= 0.0
            # thresholded variant keeps at least the peak
            delay_stats(threshold_pdp(pdp))

    def test_tap_delays_respect_span(self):
        cfg = _config(
            pdp_synthesis=PdpSynthesisConfig(tap_count_range=(5, 10), span_ns=25.0)
        )
        rng = np.random.default_rng(1)
        for _ in range(50):
            pdp = generate_synthetic_pdp(cfg, rng)
            assert (len(pdp.powers_mw) - 1) * pdp.bin_spacing_ns <= 25.0

    def test_missing_settings_rejected(self):
        with pytest.raises(ValueError, match="pdp_synthesis"):
            generate_synthetic_pdp(_config(), np.random.default_rng(0))

    def test_campaign_reproducible(self):
        cfg = _config(n_locations=50, pdp_synthesis=PdpSynthesisConfig())
        assert generate_pdp_campaign(cfg) == generate_pdp_campaign(cfg)

    def test_profile_stream_distinct_from_pathloss_stream(self):
        # profile shape must not be a deterministic replay of the path loss
        # draws: with one pinned tap and no decay, a profile's power is its
        # jitter draw alone, which must differ from the location's shadowing
        override = CiModelParams(
            band=BAND_28GHZ, env=Environment.NLOS, pol=Polarization.VV,
            dir=Directionality.OMNI, ple=2.7, shadow_sigma_db=3.0,
        )
        cfg = _config(
            n_locations=200, seed=99, params_override=override,
            pdp_synthesis=PdpSynthesisConfig(
                fixed_tap_delays_ns=(0.0,), decay_ns=math.inf, tap_power_sigma_db=3.0
            ),
        )
        chi_db = [s.path_loss_db - mean_path_loss_db(override, s.distance_m)
                  for s in generate_pathloss_campaign(cfg)]
        jitter_db = [10.0 * math.log10(p.powers_mw[0]) for p in generate_pdp_campaign(cfg)]
        assert all(abs(a - b) > 1e-6 for a, b in zip(chi_db, jitter_db))

    def test_synthesis_config_validation(self):
        with pytest.raises(ValueError, match="tap_count_range"):
            PdpSynthesisConfig(tap_count_range=(0, 3))
        with pytest.raises(ValueError, match="decay_ns"):
            PdpSynthesisConfig(decay_ns=0.0)
        with pytest.raises(ValueError, match="fixed_tap_delays_ns"):
            PdpSynthesisConfig(fixed_tap_delays_ns=())


class TestLinkBudget:
    def test_below_limit_measurable(self):
        assert check_link_budget(161.9, SOUNDER_28GHZ) is LinkStatus.MEASURABLE

    def test_above_limit_outage(self):
        assert check_link_budget(163.1, SOUNDER_73GHZ) is LinkStatus.OUTAGE

    def test_boundary_inclusive(self):
        assert check_link_budget(162.0, SOUNDER_28GHZ) is LinkStatus.MEASURABLE
        assert check_link_budget(163.0, SOUNDER_73GHZ) is LinkStatus.MEASURABLE

    def test_outage_iff_above_limit(self):
        rng = np.random.default_rng(30)
        for _ in range(500):
            pl = float(rng.uniform(100.0, 220.0))
            expected = LinkStatus.OUTAGE if pl > 162.0 else LinkStatus.MEASURABLE
            assert check_link_budget(pl, SOUNDER_28GHZ) is expected

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            check_link_budget(math.nan, SOUNDER_28GHZ)


class TestStreamLayout:
    """Location i's outputs depend only on the seed and i, per draw kind."""

    @staticmethod
    def _simulate(tmp_path, name, **overrides):
        cfg = {
            "band_ghz": 28.0, "env": "NLOS", "pol": "VV", "dir": "omni",
            "n_locations": 100, "seed": 5, "pdp_synthesis": {"tap_count_range": [1, 8]},
        }
        cfg.update(overrides)
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / name
        result = CliRunner().invoke(cli_main, ["simulate", str(cfg_path), "-o", str(out)])
        assert result.exit_code == 0, result.output
        return out

    def test_prefix_stable_across_block_edges(self, tmp_path):
        rows, profiles = {}, {}
        for n in (1, 4095, 4096, 4097, 8193):
            out = self._simulate(tmp_path, f"n{n}", n_locations=n)
            lines = (out / "campaign.csv").read_text().splitlines()[1:]
            # the location id's zero padding follows n_locations; the index does not
            rows[n] = [(int(line.split(",", 1)[0][3:]), line.split(",", 1)[1]) for line in lines]
            profiles[n] = json.loads((out / "pdps.json").read_text())
        for small, large in zip((1, 4095, 4096, 4097), (4095, 4096, 4097, 8193)):
            assert rows[large][:small] == rows[small]
            assert profiles[large][:small] == profiles[small]

    def test_profiles_do_not_change_campaign(self, tmp_path):
        a = self._simulate(tmp_path, "a")
        b = self._simulate(tmp_path, "b", pdp_synthesis={"tap_count_range": [3, 10], "span_ns": 50.0})
        c = self._simulate(tmp_path, "c", pdp_synthesis=None)
        for name in ("campaign.csv", "fitback.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes() == (c / name).read_bytes()
        assert (a / "pdps.json").read_bytes() != (b / "pdps.json").read_bytes()

    def test_path_loss_model_does_not_change_profiles(self, tmp_path):
        a = self._simulate(tmp_path, "a")
        b = self._simulate(tmp_path, "b", params_override={"ple": 2.0, "sigma_db": 0.0})
        c = self._simulate(tmp_path, "c", params_override={"ple": 3.1, "sigma_db": 4.0})
        for name in ("pdps.json", "delay_stats.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes() == (c / name).read_bytes()
        assert (a / "campaign.csv").read_bytes() != (c / "campaign.csv").read_bytes()
