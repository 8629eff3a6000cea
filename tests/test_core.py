import json
import math
from pathlib import Path

import pytest

from mmwindoor import core
from mmwindoor.core import (
    BAND_28GHZ,
    BAND_73GHZ,
    CI_MODEL_CATALOG,
    DELAY_SPREAD_CATALOG,
    CampaignRecord,
    Directionality,
    DirectionalSweep,
    DistanceRangeWarning,
    Environment,
    FrequencyBand,
    Pdp,
    Polarization,
    SweepEntry,
    UnknownCombinationError,
    band_from_ghz,
    catalog_lookup,
    delay_spread_lookup,
    full_catalog_dump,
    sounder_lookup,
    to_db,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "catalog_golden.json"


class TestWavelength:
    def test_28ghz(self):
        # oracle: c / f evaluated directly
        assert BAND_28GHZ.wavelength_m == pytest.approx(0.0107069, abs=1e-7)

    def test_73ghz(self):
        assert BAND_73GHZ.wavelength_m == pytest.approx(0.0040788, abs=1e-7)

    def test_one_meter(self):
        band = FrequencyBand(0.299792458)
        assert band.wavelength_m == 1.0

    def test_positive_carrier_required(self):
        with pytest.raises(ValueError):
            FrequencyBand(0.0)
        with pytest.raises(ValueError):
            FrequencyBand(-1.0)


class TestDbConversions:
    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            to_db(0.0)
        with pytest.raises(ValueError):
            to_db(-3.0)


class TestCatalogLookup:
    def test_omni_los_vv_28(self):
        p = catalog_lookup(BAND_28GHZ, Environment.LOS, Polarization.VV, Directionality.OMNI)
        assert (p.ple, p.shadow_sigma_db, p.d0_m) == (1.1, 1.7, 1.0)

    def test_directional_nlos_vh_73(self):
        p = catalog_lookup(BAND_73GHZ, Environment.NLOS, Polarization.VH, Directionality.DIRECTIONAL)
        assert (p.ple, p.shadow_sigma_db) == (6.4, 15.8)

    def test_omni_nlos_best_absent(self):
        with pytest.raises(UnknownCombinationError):
            catalog_lookup(BAND_28GHZ, Environment.NLOS_BEST, Polarization.VV, Directionality.OMNI)

    def test_unknown_band(self):
        with pytest.raises(UnknownCombinationError):
            catalog_lookup(60.0, Environment.LOS, Polarization.VV, Directionality.OMNI)

    def test_lookup_accepts_ghz_number(self):
        p = catalog_lookup(73.5, Environment.NLOS, Polarization.VV, Directionality.OMNI)
        assert (p.ple, p.shadow_sigma_db) == (3.2, 11.3)

    def test_every_stratum_unique(self):
        keys = [(p.band, p.env, p.pol, p.dir) for p in CI_MODEL_CATALOG]
        assert len(keys) == len(set(keys)) == 20

    def test_nlos_best_rows_directional_only(self):
        best = [p for p in CI_MODEL_CATALOG if p.env is Environment.NLOS_BEST]
        assert len(best) == 4
        assert all(p.dir is Directionality.DIRECTIONAL for p in best)


class TestSounderCatalog:
    @pytest.mark.parametrize(
        "band,tx_dbm,gain,az_hpbw,max_pl",
        [(BAND_28GHZ, 24.0, 15.0, 30.0, 162.0), (BAND_73GHZ, 14.6, 20.0, 15.0, 163.0)],
        # A band is a float now; pin the case ids to the band's index, not its GHz value.
        ids=["band0-24.0-15.0-30.0-162.0", "band1-14.6-20.0-15.0-163.0"],
    )
    def test_values(self, band, tx_dbm, gain, az_hpbw, max_pl):
        s = sounder_lookup(band)
        assert s.max_tx_power_dbm == tx_dbm
        assert s.tx_antenna_gain_dbi == gain
        assert s.rx_antenna_gain_dbi == gain
        assert s.azimuth_hpbw_deg == az_hpbw
        assert s.max_measurable_pl_db == max_pl
        assert s.bin_spacing_ns == 2.5
        assert s.chip_rate_mcps == 400.0
        assert s.slide_factor == 8000.0

    def test_elevation_hpbw(self):
        assert sounder_lookup(BAND_28GHZ).elevation_hpbw_deg == 28.8
        assert sounder_lookup(BAND_73GHZ).elevation_hpbw_deg == 15.0


class TestDelaySpreadCatalog:
    def test_known_rows(self):
        t = delay_spread_lookup(BAND_28GHZ, Environment.LOS, Polarization.VV)
        assert (t.mean_ns, t.std_ns, t.max_ns, t.p90_ns) == (4.1, 1.3, 5.5, 5.5)
        t = delay_spread_lookup(BAND_73GHZ, Environment.NLOS, Polarization.VV)
        assert (t.mean_ns, t.std_ns, t.max_ns, t.p90_ns) == (13.3, 16.2, 287.5, 33.2)

    def test_all_eight_present(self):
        assert len(DELAY_SPREAD_CATALOG) == 8

    def test_unknown_combination(self):
        with pytest.raises(UnknownCombinationError):
            delay_spread_lookup(BAND_28GHZ, Environment.NLOS_BEST, Polarization.VV)


def test_catalog_dump_matches_golden_file():
    dumped = json.dumps(full_catalog_dump(), indent=2) + "\n"
    assert dumped == GOLDEN_PATH.read_text(encoding="utf-8")


class TestPdpType:
    def test_bins_and_peak(self):
        p = Pdp(2.5, (1.0, 0.0, 0.5))
        assert len(p.powers_mw) == 3
        assert p.peak_power_mw() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Pdp(0.0, (1.0,))
        with pytest.raises(ValueError):
            Pdp(2.5, ())
        with pytest.raises(ValueError):
            Pdp(2.5, (1.0, -0.1))
        with pytest.raises(ValueError):
            Pdp(2.5, (1.0,), noise_floor_mw=-1.0)
        with pytest.raises(ValueError):
            Pdp(2.5, (math.inf,))

    def test_immutable(self):
        p = Pdp(2.5, (1.0,))
        with pytest.raises(Exception):
            p.bin_spacing_ns = 5.0


class TestSweepTypes:
    def _entry(self, theta_rx, power=1.0):
        return SweepEntry(0.0, 0.0, theta_rx, 0.0, Pdp(2.5, (power,)))

    def test_sweep_id_validated(self):
        with pytest.raises(ValueError):
            DirectionalSweep("M9", Polarization.VV, (self._entry(0.0),))

    def test_duplicate_angle_within_sweep_rejected(self):
        with pytest.raises(ValueError):
            DirectionalSweep("M1", Polarization.VV, (self._entry(0.0), self._entry(0.0)))

    def test_distinct_angles_ok(self):
        sweep = DirectionalSweep("M1", Polarization.VV, (self._entry(0.0), self._entry(30.0)))
        assert len(sweep.entries) == 2


class TestCampaignRecord:
    def _record(self, distance):
        sweep = DirectionalSweep(
            "M1", Polarization.VV, (SweepEntry(0.0, 0.0, 0.0, 0.0, Pdp(2.5, (1.0,))),)
        )
        return CampaignRecord(
            location_id="L1", distance_m=distance, env=Environment.LOS,
            sweeps=(sweep,), spec=sounder_lookup(BAND_28GHZ),
        )

    def test_in_span_no_warning(self, recwarn):
        self._record(10.0)
        assert not [w for w in recwarn.list if issubclass(w.category, DistanceRangeWarning)]

    def test_outside_span_flagged(self):
        with pytest.warns(DistanceRangeWarning):
            self._record(60.0)
        with pytest.warns(DistanceRangeWarning):
            self._record(1.0)

    def test_nlos_best_not_a_measured_env(self):
        with pytest.raises(ValueError):
            CampaignRecord(
                location_id="L1", distance_m=10.0, env=Environment.NLOS_BEST,
                sweeps=(), spec=sounder_lookup(BAND_28GHZ),
            )


def test_band_from_ghz_returns_canonical_bands():
    assert band_from_ghz(28.0) == BAND_28GHZ
    assert band_from_ghz(73.5) == BAND_73GHZ
    other = band_from_ghz(60.0)
    assert other.carrier_hz == 60.0e9
    assert other.label == "60 GHz"


def test_a_band_label_names_its_carrier_exactly():
    near = band_from_ghz(73.50000000000001)
    assert near != BAND_73GHZ
    assert near.label == "73.50000000000001 GHz"
    with pytest.raises(UnknownCombinationError, match=r"^no cataloged model for \(73\.50000000000001 GHz,"):
        catalog_lookup(near, Environment.LOS, Polarization.VV, Directionality.OMNI)
    assert core.SPEED_OF_LIGHT_M_S == 299_792_458.0
