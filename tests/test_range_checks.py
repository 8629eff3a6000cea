"""Every range check rejects NaN: a value that is not a number lies in no range.

A check written ``x < 0`` or ``x <= 0`` lets NaN through, to fail later with
a message that names neither the input nor the key. Each site below is one
comparison chain (or a negated comparison) that NaN fails, and infinity is
rejected wherever the value must be finite.
"""

import json
import math
from importlib import resources

import pytest
from click.testing import CliRunner

from mmwindoor.cli import EXIT_VALIDATION, main
from mmwindoor.core import (
    BAND_28GHZ,
    CiModelParams,
    Directionality,
    Environment,
    PathLossSample,
    Pdp,
    Polarization,
    SounderSpec,
)
from mmwindoor.estimation import fit_ci_model
from mmwindoor.pathloss import free_space_pl_db
from mmwindoor.pdp import threshold_pdp
from mmwindoor.simulate import PdpSynthesisConfig

NAN, INF = math.nan, math.inf
STRATUM = (BAND_28GHZ, Environment.LOS, Polarization.VV, Directionality.OMNI)


CAMPAIGN_CSV = str(resources.files("mmwindoor") / "data" / "campaign_28ghz_nlos_vv_omni.csv")


@pytest.mark.parametrize("args, message", [
    (["--threshold-db", "nan", "catalog"], "--threshold-db and --dynamic-range-db must be >= 0"),
    (["--dynamic-range-db", "nan", "catalog"], "--threshold-db and --dynamic-range-db must be >= 0"),
    (["--d0-m", "nan", "catalog"], "--d0-m must be finite and > 0, got nan"),
    (["--d0-m", "inf", "catalog"], "--d0-m must be finite and > 0, got inf"),
    (["fit", CAMPAIGN_CSV, "--band-ghz", "nan"], "--band-ghz must be finite and > 0, got nan"),
    (["fit", CAMPAIGN_CSV, "--band-ghz", "inf"], "--band-ghz must be finite and > 0, got inf"),
    (["fit", CAMPAIGN_CSV, "--band-ghz", "0"], "--band-ghz must be finite and > 0, got 0.0"),
    (["fit", CAMPAIGN_CSV, "--band-ghz", "-5"], "--band-ghz must be finite and > 0, got -5.0"),
])
def test_cli_flags(args, message):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == EXIT_VALIDATION
    assert res.stderr == f"error: {message}\n"


def test_infinite_dynamic_range_is_no_cut():
    profile = Pdp(2.5, (1.0, 1e-300, 0.5), noise_floor_mw=0.0)
    assert threshold_pdp(profile, 0.0, INF).powers_mw == profile.powers_mw
    res = CliRunner().invoke(main, ["--dynamic-range-db", "inf", "catalog"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("threshold_db, dynamic_range_db", [(NAN, 30.0), (5.0, NAN), (-1.0, 30.0)])
def test_threshold_pdp(threshold_db, dynamic_range_db):
    with pytest.raises(ValueError, match=r"^thresholds must be >= 0 dB$"):
        threshold_pdp(Pdp(2.5, (1.0,)), threshold_db, dynamic_range_db)


@pytest.mark.parametrize("knobs, message", [
    ({"tap_power_sigma_db": NAN}, "tap_power_sigma_db: must be >= 0, got nan"),
    ({"noise_floor_mw": NAN}, "noise_floor_mw: must be finite and >= 0, got nan"),
    ({"noise_floor_mw": INF}, "noise_floor_mw: must be finite and >= 0, got inf"),
    ({"fixed_tap_delays_ns": (0.0, NAN)}, "fixed_tap_delays_ns: delays must be finite and >= 0"),
    ({"fixed_tap_delays_ns": (0.0, INF)}, "fixed_tap_delays_ns: delays must be finite and >= 0"),
])
def test_pdp_synthesis_config(knobs, message):
    with pytest.raises(ValueError) as exc:
        PdpSynthesisConfig(**knobs)
    assert str(exc.value) == message


@pytest.mark.parametrize("spacing", [NAN, INF, 0.0])
def test_sounder_bin_spacing(spacing):
    with pytest.raises(ValueError) as exc:
        SounderSpec(BAND_28GHZ, 24.0, 15.0, 15.0, 30.0, 28.8, 162.0, bin_spacing_ns=spacing)
    assert str(exc.value) == f"bin_spacing_ns must be finite and > 0, got {spacing!r}"


@pytest.mark.parametrize("d0_m", [NAN, INF, 0.0])
def test_fit_and_free_space_reference_distance(d0_m):
    samples = [PathLossSample(f"L{k}", *STRATUM, d, 60.0 + d) for k, d in enumerate((5.0, 9.0))]
    for call in (lambda: fit_ci_model(samples, d0_m=d0_m), lambda: free_space_pl_db(BAND_28GHZ, d0_m)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"d0_m must be finite and > 0, got {d0_m!r}"


@pytest.mark.parametrize("numbers, message", [
    ((NAN, 1.7, 1.0), "ple must be finite and > 0, got nan"),
    ((INF, 1.7, 1.0), "ple must be finite and > 0, got inf"),
    ((0.0, 1.7, 1.0), "ple must be finite and > 0, got 0.0"),
    ((1.1, NAN, 1.0), "sigma_db must be finite and >= 0, got nan"),
    ((1.1, -1.0, 1.0), "sigma_db must be finite and >= 0, got -1.0"),
    ((1.1, 1.7, NAN), "d0_m must be finite and > 0, got nan"),
    ((1.1, 1.7, INF), "d0_m must be finite and > 0, got inf"),
])
def test_model_parameters(numbers, message):
    with pytest.raises(ValueError) as exc:
        CiModelParams(*STRATUM, *numbers)
    assert str(exc.value) == message


@pytest.mark.parametrize("section, key, token, message", [
    ("params_override", "ple", "NaN", "ple must be finite and > 0, got nan"),
    ("params_override", "ple", "Infinity", "ple must be finite and > 0, got inf"),
    ("params_override", "sigma_db", "NaN", "sigma_db must be finite and >= 0, got nan"),
    ("params_override", "d0_m", "NaN", "d0_m must be finite and > 0, got nan"),
    ("pdp_synthesis", "tap_power_sigma_db", "NaN", "tap_power_sigma_db: must be >= 0, got nan"),
    ("pdp_synthesis", "span_ns", "NaN", "span_ns: must be finite and >= 0, got nan"),
    ("pdp_synthesis", "noise_floor_mw", "Infinity",
     "noise_floor_mw: must be finite and >= 0, got inf"),
    ("pdp_synthesis", "fixed_tap_delays_ns", "[0, NaN]",
     "fixed_tap_delays_ns: delays must be finite and >= 0"),
    ("pdp_synthesis", "fixed_tap_delays_ns", "[0, Infinity]",
     "fixed_tap_delays_ns: delays must be finite and >= 0"),
])
def test_simulate_config_is_rejected_when_read(tmp_path, section, key, token, message):
    settings = {"params_override": {"ple": 2.0, "sigma_db": 3.0, "d0_m": 1.0},
                "pdp_synthesis": {}}[section]
    settings[key] = "TOKEN"
    config = {"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni", "n_locations": 5,
              section: settings}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config).replace('"TOKEN"', token))
    res = CliRunner().invoke(main, ["simulate", str(path), "-o", str(tmp_path / "out")])
    assert res.exit_code == EXIT_VALIDATION, res.output
    assert res.stderr == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("floor, kept", [(0.0, (1.0, 0.5)), (1e-9, (1.0, 0.0))])
def test_infinite_threshold_keeps_the_peak(floor, kept):
    # A zero floor cuts nothing; a positive one at an infinite threshold leaves the peak.
    assert threshold_pdp(Pdp(2.5, (1.0, 0.5), floor), INF, 30.0).powers_mw == kept


def test_infinite_threshold_flags_no_profile_with_a_zero_floor(tmp_path):
    path = tmp_path / "pdps.json"
    path.write_text(json.dumps([{"bin_spacing_ns": 2.5, "powers_mw": [1.0, 0.5]}]))
    res = CliRunner().invoke(main, ["--threshold-db", "inf", "pdp-stats", str(path)])
    assert res.exit_code == 0, res.output
    assert "no-multipath" not in res.output


@pytest.mark.parametrize("threshold_db", ["3083", "3084", "4000", "1e308"])
@pytest.mark.parametrize("command", ["pdp-stats", "synthesize-omni"])
def test_a_threshold_past_the_largest_float_cuts_as_inf(tmp_path, command, threshold_db):
    # 10 ** (t / 10) is no float past about 3083 dB; a positive floor raised by it cuts
    # above every bin, as an infinite threshold does.
    if command == "pdp-stats":
        path = tmp_path / "pdps.json"
        path.write_text(json.dumps([{"bin_spacing_ns": 2.5, "noise_floor_mw": 1e-9,
                                     "powers_mw": [1.0, 0.5, 0.25]}]))
    else:
        path = resources.files("mmwindoor") / "data" / "sweep_records_28ghz.json"
    runs = [CliRunner().invoke(main, ["--threshold-db", t, command, str(path)])
            for t in (threshold_db, "inf")]
    assert [r.exit_code for r in runs] == [0, 0], runs[0].output
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr


@pytest.mark.parametrize("delay", [1e300, 1e6 + 1])
@pytest.mark.parametrize("key, message", [
    ("span_ns", "span_ns: must be <= 1e6 ns, got {!r}"),
    ("fixed_tap_delays_ns", "fixed_tap_delays_ns: delays must be <= 1e6 ns, got {!r}"),
], ids=["span_ns", "fixed_tap_delays_ns"])
def test_synthetic_profile_length_is_bounded(tmp_path, delay, key, message):
    # Rejected when the config is built, before any profile is sized.
    value = delay if key == "span_ns" else [0.0, delay]
    with pytest.raises(ValueError) as exc:
        PdpSynthesisConfig(**{key: value})
    assert str(exc.value) == message.format(delay)
    config = {"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni", "n_locations": 5,
              "pdp_synthesis": {key: value}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    res = CliRunner().invoke(main, ["simulate", str(path), "-o", str(tmp_path / "out")])
    assert res.exit_code == EXIT_VALIDATION, res.output
    assert res.stderr == f"error: {message.format(delay)}\n"
    assert not (tmp_path / "out").exists()


def test_a_one_millisecond_delay_is_allowed():
    assert PdpSynthesisConfig(span_ns=1e6, fixed_tap_delays_ns=(0.0, 1e6)).span_ns == 1e6
