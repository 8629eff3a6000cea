"""Inputs at the edge of their domain: azimuths that name the same direction, and
values whose arithmetic overflows a float."""

import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from mmwindoor.cli import EXIT_EMPTY, EXIT_PARSE, EXIT_VALIDATION, main
from mmwindoor.core import (
    BAND_28GHZ,
    CampaignRecord,
    DirectionalSweep,
    Directionality,
    DuplicateAngleWarning,
    Environment,
    FrequencyBand,
    Pdp,
    Polarization,
    SweepEntry,
    SweepSpacingWarning,
    sounder_lookup,
)
from mmwindoor.estimation import summarize_spreads
from mmwindoor.fileio import PATHLOSS_CSV_HEADER, ParseError, parse_campaign_records
from mmwindoor.omni import omni_received_power_mw
from mmwindoor.pathloss import free_space_pl_db
from mmwindoor.simulate import CampaignConfig, PdpSynthesisConfig, generate_synthetic_pdp


def _record(*sweeps):
    return CampaignRecord(location_id="A1", distance_m=10.0, env=Environment.LOS,
                          sweeps=sweeps, spec=sounder_lookup(BAND_28GHZ))


def _sweep(sweep_id, *theta_rx):
    return DirectionalSweep(sweep_id, Polarization.VV, tuple(
        SweepEntry(0.0, 0.0, t, 0.0, Pdp(2.5, (1.0,), noise_floor_mw=0.0)) for t in theta_rx))


@pytest.mark.parametrize("same", [360.0, 720.0, -360.0, -1e-20, -0.0])
def test_azimuths_a_turn_apart_are_one_angle(same):
    record = _record(_sweep("M1", 0.0), _sweep("M2", same))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        power = omni_received_power_mw(record)
    assert power == 1.0
    assert [w.category for w in caught] == [DuplicateAngleWarning]


def test_folded_azimuths_lie_in_a_turn():
    for deg in (-1e-20, -1e-300, 359.99999999999994, 360.0, -720.5, 1e17):
        theta = SweepEntry(deg, 0.0, deg, 0.0, Pdp(2.5, (1.0,))).angle[0]
        assert 0.0 <= theta < 360.0


def test_tx_azimuth_folds_and_elevation_does_not():
    entry = SweepEntry(370.0, 370.0, -10.0, -10.0, Pdp(2.5, (1.0,)))
    assert entry.angle == (10.0, 370.0, 350.0, -10.0)


@pytest.mark.parametrize("first, again", [(0.1, 360.1), (359.9, -0.1)])
def test_a_pointing_re_measured_a_turn_away_counts_once(first, again):
    # As doubles, 0.1 and 360.1 deg fold 2.3e-14 deg apart; keyed at 1e-9 deg they are one.
    assert SweepEntry(0.0, 0.0, again, 0.0, Pdp(2.5, (1.0,))).angle[2] == first
    record = _record(_sweep("M1", first, first + 180.0), _sweep("M2", again))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        power = omni_received_power_mw(record)
    assert power == 2.0
    assert [w.category for w in caught] == [DuplicateAngleWarning]


def test_non_finite_azimuth_is_rejected():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^azimuths must be finite"):
            SweepEntry(theta, 0.0, 0.0, 0.0, Pdp(2.5, (1.0,)))


#: Pointings on a 1/1000 deg grid, each with a power; no two share a pointing.
pointings = st.lists(st.tuples(st.integers(0, 359_999), st.integers(0, 359_999),
                               st.floats(0.0, 10.0)),
                     min_size=1, max_size=8, unique_by=lambda p: p[:2])
turns = st.sampled_from([-720.0, -360.0, 0.0, 360.0, 720.0])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(pointings, st.data())
def test_omni_power_is_unchanged_by_whole_turns(pointings, data):
    def sweep(sweep_id, shift):
        return DirectionalSweep(sweep_id, Polarization.VV, tuple(
            SweepEntry(tx / 1000 + shift(), 0.0, rx / 1000 + shift(), 0.0,
                       Pdp(2.5, (p,), noise_floor_mw=0.0))
            for tx, rx, p in pointings))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        power = omni_received_power_mw(_record(sweep("M1", lambda: 0.0)))
        # every azimuth shifted by whole turns; then the shifted copy re-measured in a second sweep
        shifted = sweep("M2", lambda: data.draw(turns))
        assert omni_received_power_mw(_record(shifted)) == power
        assert omni_received_power_mw(_record(sweep("M1", lambda: 0.0), shifted)) == power


def test_zero_and_360_in_one_sweep_are_a_duplicate():
    with pytest.raises(ValueError, match="duplicate pointing angle"):
        _sweep("M1", 0.0, 360.0)


@pytest.mark.parametrize("azimuths, warns", [
    ((0.0, 345.0), True),     # 345 -> 0 is a 15 deg step across the wrap
    ((10.0, 350.0), True),    # 20 deg across the wrap
    (tuple(30.0 * k for k in range(12)), False),  # 330 -> 0 is one 30 deg beamwidth
    ((0.0, 180.0), False),
    ((90.0,), False),
])
def test_spacing_check_sees_the_wrap_step(azimuths, warns):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        omni_received_power_mw(_record(_sweep("M1", *azimuths)))
    assert any(w.category is SweepSpacingWarning for w in caught) is warns


@pytest.mark.parametrize("values", [[1e308, 1e308], [0.0, 1e308]])
def test_summary_of_overflowing_spreads_raises_without_a_numpy_warning(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="the spread values overflow a float"):
            summarize_spreads(values)


def test_summary_digits_are_numpys():
    values = [4.1, 5.5, 3.3, 12.8, 0.7]
    summary = summarize_spreads(values)
    assert summary.mean_ns == float(np.mean(values))
    assert summary.std_ns == float(np.std(values))


def test_overflowing_tap_power_names_the_config_field():
    config = CampaignConfig(band=BAND_28GHZ, env=Environment.LOS, pol=Polarization.VV,
                            dir=Directionality.OMNI, n_locations=1,
                            pdp_synthesis=PdpSynthesisConfig(tap_power_sigma_db=1e6))
    with pytest.raises(ValueError, match=r"^pdp_synthesis\.tap_power_sigma_db: 1000000\.0 dB"):
        for seed in range(20):
            generate_synthetic_pdp(config, np.random.default_rng(seed))


@pytest.mark.parametrize("hi", [2**63, 10**23])
def test_tap_count_past_int64_names_the_config_field(hi):
    with pytest.raises(ValueError, match=r"^tap_count_range: max must be <= 2\*\*63 - 1, got "):
        PdpSynthesisConfig(tap_count_range=(1, hi))
    # The largest allowed count still draws.
    largest = PdpSynthesisConfig(tap_count_range=(2**63 - 1, 2**63 - 1))
    config = CampaignConfig(band=BAND_28GHZ, env=Environment.LOS, pol=Polarization.VV,
                            dir=Directionality.OMNI, n_locations=1, pdp_synthesis=largest)
    assert len(generate_synthetic_pdp(config, np.random.default_rng(0)).powers_mw) == 41


@pytest.mark.parametrize("ghz", [1e300, 1.8e299, 5e-324, 1.6e-309])
def test_a_band_without_a_finite_carrier_and_wavelength_is_rejected(ghz):
    with pytest.raises(ValueError, match=r"^band_ghz must give a finite carrier and wavelength"):
        FrequencyBand(ghz)


@pytest.mark.parametrize("ghz, d0_m, ratio", [(73.5, 1e306, "inf"), (1e-300, 5e-324, "0.0")])
def test_free_space_loss_outside_the_float_range_names_d0_and_band(ghz, d0_m, ratio):
    with pytest.raises(ValueError) as info:
        free_space_pl_db(FrequencyBand(ghz), d0_m)
    assert str(info.value) == (f"d0_m {d0_m!r} at {FrequencyBand(ghz).label}: 4*pi*d0/wavelength "
                               f"is {ratio}, outside the float range")


#: Any positive float, the subnormals and the largest included.
positive = st.floats(min_value=5e-324, allow_infinity=False, allow_nan=False)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(band_ghz=positive, d0_m=positive)
@example(band_ghz=1e300, d0_m=1.0)
@example(band_ghz=5e-324, d0_m=1.0)
@example(band_ghz=1e-300, d0_m=5e-324)
@example(band_ghz=73.5, d0_m=1e306)
def test_fit_and_simulate_at_float_limits_end_in_an_exit_code(band_ghz, d0_m):
    runner = CliRunner()
    lo = max(d0_m, 1.0)
    config = {"band_ghz": band_ghz, "env": "LOS", "pol": "VV", "dir": "omni", "n_locations": 5,
              "distance_range_m": [lo, lo * 10.0],
              "params_override": {"ple": 2.0, "sigma_db": 3.0, "d0_m": d0_m}}
    with runner.isolated_filesystem():
        with open("pathloss.csv", "w") as fh:
            fh.write(f"{PATHLOSS_CSV_HEADER}\na,{band_ghz!r},LOS,VV,omni,{lo!r},70.0\n"
                     f"b,{band_ghz!r},LOS,VV,omni,{lo * 10.0!r},90.0\n")
        with open("config.json", "w") as fh:
            json.dump(config, fh)
        for argv in (["--d0-m", repr(d0_m), "fit", "pathloss.csv"],
                     ["simulate", "config.json", "-o", "out"]):
            res = runner.invoke(main, argv)
            assert res.exit_code in (0, EXIT_PARSE, EXIT_VALIDATION, EXIT_EMPTY), (argv, res.exception)
            assert "Traceback" not in res.output


@pytest.mark.parametrize("key, literal, shown", [("theta_tx_deg", "Infinity", "inf"),
                                                 ("phi_rx_deg", "NaN", "nan"),
                                                 ("theta_rx_deg", "-Infinity", "-inf")])
def test_non_finite_angle_is_a_parse_error(key, literal, shown):
    entry = {"theta_tx_deg": 0.0, "phi_tx_deg": 0.0, "theta_rx_deg": 0.0, "phi_rx_deg": 0.0,
             "pdp": {"bin_spacing_ns": 2.5, "powers_mw": [1.0]}}
    record = {"location_id": "R1", "band_ghz": 28.0, "env": "LOS", "distance_m": 10.0,
              "sweeps": [{"sweep_id": "M1", "pol": "VV", "entries": [entry]}]}
    text = json.dumps(record).replace(f'"{key}": 0.0', f'"{key}": {literal}')
    with pytest.raises(ParseError) as info:
        parse_campaign_records(text)
    assert str(info.value) == f"record[0].sweeps[0].entries[0].{key}: must be finite, got {shown}"
