"""A band is its GHz number: a carrier read from a file, a flag or a call is the
value the program keeps, compares, groups by and writes back.
"""

import math

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from mmwindoor.cli import main
from mmwindoor.core import (
    BAND_28GHZ,
    BAND_73GHZ,
    Directionality,
    Environment,
    FrequencyBand,
    PathLossSample,
    Polarization,
    band_from_ghz,
    catalog_lookup,
)
from mmwindoor.fileio import emit_pathloss_csv, parse_pathloss_csv

SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

#: A carrier that ``carrier_hz / 1e9`` does not give back.
ODD_GHZ = 40.395836809309124


@SETTINGS
@given(st.floats(1e-3, 1e4))
def test_a_band_is_the_number_read(x):
    band = band_from_ghz(x)
    assert band.ghz == x and float(band) == x
    assert type(band.ghz) is float
    assert band == x and hash(band) == hash(x)
    assert float(band.label.removesuffix(" GHz")) == x


def test_derived_quantities():
    assert BAND_28GHZ.carrier_hz == 28e9 and BAND_73GHZ.carrier_hz == 73.5e9
    assert BAND_28GHZ.wavelength_m == 299_792_458.0 / 28e9
    assert (BAND_28GHZ.label, BAND_73GHZ.label) == ("28 GHz", "73.5 GHz")
    assert band_from_ghz(ODD_GHZ).label == f"{ODD_GHZ!r} GHz"
    assert f"{BAND_73GHZ}" == str(BAND_73GHZ) == repr(BAND_73GHZ) == "73.5"


def test_cataloged_carriers_give_the_cataloged_objects():
    assert band_from_ghz(28.0) is BAND_28GHZ and band_from_ghz(28) is BAND_28GHZ
    assert band_from_ghz(73.5) is BAND_73GHZ
    equal = FrequencyBand(28.0)
    assert equal is not BAND_28GHZ and equal == BAND_28GHZ
    assert catalog_lookup(equal, Environment.LOS, Polarization.VV, Directionality.OMNI).ple == 1.1


@pytest.mark.parametrize("ghz", [0.0, -0.0, -28.0, math.nan, math.inf, -math.inf])
def test_one_check_rejects_a_carrier_out_of_domain(ghz):
    for make in (FrequencyBand, band_from_ghz):
        with pytest.raises(ValueError) as exc:
            make(ghz)
        assert str(exc.value) == f"band_ghz must be finite and > 0, got {ghz!r}"


@pytest.mark.parametrize("ghz", ["28", b"28", None])
def test_a_non_number_is_a_type_error(ghz):
    for make in (FrequencyBand, band_from_ghz):
        with pytest.raises(TypeError):
            make(ghz)


def test_a_band_is_immutable():
    with pytest.raises(AttributeError):
        BAND_28GHZ.label = "x"


def test_strata_key_on_equal_values():
    a, b = FrequencyBand(60.0), FrequencyBand(60.0)
    sample = PathLossSample("L1", a, Environment.LOS, Polarization.VV, Directionality.OMNI,
                            10.0, 80.0)
    assert {sample.stratum: 1}[(b, Environment.LOS, Polarization.VV, Directionality.OMNI)] == 1
    for member in (*Environment, *Polarization, *Directionality):
        assert hash(member) == object.__hash__(member)


def _odd_band_csv(tmp_path):
    rows = [f"L{k},{ODD_GHZ!r},LOS,VV,omni,{d},{pl}"
            for k, (d, pl) in enumerate([(5.0, 80.0), (10.0, 90.0), (20.0, 101.0)])]
    path = tmp_path / "odd.csv"
    path.write_text("location_id,band_ghz,env,pol,dir,distance_m,path_loss_db\n"
                    + "\n".join(rows) + "\n")
    return path


def test_an_uncataloged_carrier_round_trips_through_the_csv(tmp_path):
    text = _odd_band_csv(tmp_path).read_text()
    samples = parse_pathloss_csv(text)
    assert {s.band for s in samples} == {ODD_GHZ}
    assert emit_pathloss_csv(samples) == text


def test_fit_writes_and_filters_the_carrier_as_read(tmp_path):
    path, out = _odd_band_csv(tmp_path), tmp_path / "fit.csv"
    res = CliRunner().invoke(main, ["fit", str(path), "--csv-out", str(out)])
    assert res.exit_code == 0, res.output
    assert f"{ODD_GHZ!r} GHz" in res.output
    assert out.read_text().splitlines()[1].startswith(f"{ODD_GHZ!r},LOS,VV,omni,")
    res = CliRunner().invoke(main, ["fit", str(path), "--band-ghz", repr(ODD_GHZ)])
    assert res.exit_code == 0, res.output
    assert f"{ODD_GHZ!r} GHz" in res.output
