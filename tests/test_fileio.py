import gc
import json
import os
import re
import stat
import sys
from importlib import resources
from pathlib import Path

import pytest

from mmwindoor.core import (
    BAND_28GHZ,
    CiModelParams,
    Directionality,
    EmptyInputError,
    Environment,
    PathLossSample,
    Pdp,
    Polarization,
    UnknownCombinationError,
)
from mmwindoor import fileio
from mmwindoor.fileio import (
    FIT_CSV_HEADER,
    PATHLOSS_CSV_HEADER,
    OutageRow,
    ParseError,
    atomic_write,
    emit_campaign_config,
    emit_campaign_records,
    emit_cdf_csv,
    emit_delay_stats_csv,
    emit_fit_csv,
    emit_pathloss_csv,
    emit_pdp_batch,
    parse_campaign_config,
    parse_campaign_records,
    parse_fit_csv,
    parse_pathloss_csv,
    parse_pdp_batch,
    parse_spread_values,
)


def bundled(name: str) -> str:
    return (resources.files("mmwindoor") / "data" / name).read_text(encoding="utf-8")


class TestPathlossCsv:
    def test_bundled_round_trip_is_byte_identical(self):
        text = bundled("campaign_28ghz_nlos_vv_omni.csv")
        assert emit_pathloss_csv(parse_pathloss_csv(text)) == text

    def test_parse_reports_line_numbers(self):
        text = (
            "location_id,band_ghz,env,pol,dir,distance_m,path_loss_db\n"
            "a,28.0,NLOS,VV,omni,10.0,90.0\n"
            "b,28.0,NLOS,VV,omni,ten,90.0\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            parse_pathloss_csv(text)

    def test_bad_enum_token(self):
        text = (
            "location_id,band_ghz,env,pol,dir,distance_m,path_loss_db\n"
            "a,28.0,SEMI,VV,omni,10.0,90.0\n"
        )
        with pytest.raises(ParseError, match="env"):
            parse_pathloss_csv(text)

    def test_wrong_field_count(self):
        text = "location_id,band_ghz,env,pol,dir,distance_m,path_loss_db\na,28.0,NLOS\n"
        with pytest.raises(ParseError, match="7 fields"):
            parse_pathloss_csv(text)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_pathloss_csv("wrong,header\n1,2\n")

    def test_empty_file(self):
        with pytest.raises(EmptyInputError):
            parse_pathloss_csv("")

    def test_leading_bom_is_ignored(self):
        text = bundled("campaign_28ghz_nlos_vv_omni.csv")
        assert parse_pathloss_csv("\ufeff" + text) == parse_pathloss_csv(text)

    def test_outage_rows_skipped(self):
        sample = PathLossSample("a", BAND_28GHZ, Environment.NLOS, Polarization.VV,
                                Directionality.OMNI, 10.0, 90.0)
        outage = OutageRow("b", BAND_28GHZ, Environment.NLOS, Polarization.VV,
                           Directionality.OMNI, 44.0)
        text = emit_pathloss_csv([sample, outage])
        assert text.count("\n") == 3
        parsed = parse_pathloss_csv(text)
        assert parsed == [sample]


class TestPdpJson:
    def test_bundled_round_trip(self):
        text = bundled("pdp_examples.json")
        assert emit_pdp_batch(parse_pdp_batch(text)) == text

    def test_single_object_is_batch_of_one(self):
        batch = parse_pdp_batch('{"bin_spacing_ns": 2.5, "powers_mw": [1.0]}')
        assert batch == [Pdp(2.5, (1.0,), 0.0)]

    def test_missing_key(self):
        with pytest.raises(ParseError, match="powers_mw"):
            parse_pdp_batch('{"bin_spacing_ns": 2.5}')

    def test_invalid_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_pdp_batch('{"bin_spacing_ns": 2.5,\n  oops}')

    def test_empty_batch(self):
        with pytest.raises(EmptyInputError):
            parse_pdp_batch("[]")

    def test_negative_power_rejected(self):
        with pytest.raises(ParseError):
            parse_pdp_batch('{"bin_spacing_ns": 2.5, "powers_mw": [-1.0]}')

    def test_integer_powers_become_floats(self):
        (pdp,) = parse_pdp_batch('{"bin_spacing_ns": 2.5, "powers_mw": [0, 3]}')
        assert pdp.powers_mw == (0.0, 3.0)
        assert all(type(p) is float for p in pdp.powers_mw)

    @pytest.mark.parametrize(
        "powers, problem",
        [
            ('"123"', "powers_mw must be an array, got '123'"),
            ("true", "powers_mw must be an array, got True"),
            ('{"0": 1.0}', "powers_mw must be an array, got {'0': 1.0}"),
            ("[1.0, true]", "powers_mw[1] must be a number, got True"),
            ('[1.0, 2.0, "3.0"]', "powers_mw[2] must be a number, got '3.0'"),
            ("[null]", "powers_mw[0] must be a number, got None"),
        ],
    )
    def test_powers_must_be_an_array_of_numbers(self, powers, problem):
        text = '[{"bin_spacing_ns": 2.5, "powers_mw": [1.0]}, {"bin_spacing_ns": 2.5, "powers_mw": %s}]'
        with pytest.raises(ParseError) as got:
            parse_pdp_batch(text % powers)
        assert str(got.value) == f"pdp[1]: {problem}"


    @pytest.mark.parametrize(
        "fields, problem",
        [
            ('"bin_spacing_ns": "2.5"', "bin_spacing_ns must be a number, got '2.5'"),
            ('"bin_spacing_ns": true', "bin_spacing_ns must be a number, got True"),
            ('"bin_spacing_ns": 2.5, "noise_floor_mw": "0"', "noise_floor_mw must be a number, got '0'"),
            ('"bin_spacing_ns": 2.5, "noise_floor_mw": null', "noise_floor_mw must be a number, got None"),
        ],
    )
    def test_numeric_fields_must_be_numbers(self, fields, problem):
        with pytest.raises(ParseError) as got:
            parse_pdp_batch('[{%s, "powers_mw": [1.0]}]' % fields)
        assert str(got.value) == f"pdp[0]: {problem}"


class TestRecordJson:
    def test_bundled_round_trip(self):
        text = bundled("sweep_records_28ghz.json")
        assert emit_campaign_records(parse_campaign_records(text)) == text

    def test_bundled_records_parse(self):
        records = parse_campaign_records(bundled("sweep_records_28ghz.json"))
        assert [r.location_id for r in records] == ["L01", "L02"]
        assert records[0].spec.band == BAND_28GHZ
        assert records[0].sweeps[0].entries[0].pdp.powers_mw == (0.25, 0.5, 0.25)

    def test_missing_keys_reported_with_path(self):
        with pytest.raises(ParseError, match=r"record\[0\]"):
            parse_campaign_records('[{"location_id": "x"}]')

    def test_empty_file(self):
        with pytest.raises(EmptyInputError):
            parse_campaign_records("[]")

    @staticmethod
    def _record(edit=None):
        entry = {"theta_tx_deg": 0, "phi_tx_deg": 0.0, "theta_rx_deg": 180.0, "phi_rx_deg": 0.0,
                 "pdp": {"bin_spacing_ns": 2.5, "powers_mw": [1e-6, 2e-6]}}
        sweep = {"sweep_id": "M1", "pol": "VV", "entries": [entry]}
        record = {"location_id": "R1", "band_ghz": 28.0, "env": "LOS", "distance_m": 10.0,
                  "sweeps": [sweep]}
        if edit is not None:
            target, key, value = edit
            {"record": record, "sweep": sweep, "entry": entry, "pdp": entry["pdp"]}[target][key] = value
        return json.dumps([record])

    def test_integer_angles_become_floats(self):
        (record,) = parse_campaign_records(self._record())
        assert record.sweeps[0].entries[0].angle == (0.0, 0.0, 180.0, 0.0)
        assert type(record.sweeps[0].entries[0].theta_tx_deg) is float

    @pytest.mark.parametrize(
        "edit, message",
        [
            (("pdp", "powers_mw", "123"),
             "record[0].sweeps[0].entries[0].pdp: powers_mw must be an array, got '123'"),
            (("pdp", "powers_mw", [1.0, True]),
             "record[0].sweeps[0].entries[0].pdp: powers_mw[1] must be a number, got True"),
            (("pdp", "powers_mw", ["1e-6"]),
             "record[0].sweeps[0].entries[0].pdp: powers_mw[0] must be a number, got '1e-6'"),
            (("entry", "theta_tx_deg", "abc"),
             "record[0].sweeps[0].entries[0]: theta_tx_deg must be a number, got 'abc'"),
            (("entry", "phi_rx_deg", "10"),
             "record[0].sweeps[0].entries[0]: phi_rx_deg must be a number, got '10'"),
            (("entry", "theta_rx_deg", None),
             "record[0].sweeps[0].entries[0]: theta_rx_deg must be a number, got None"),
            (("record", "sweeps", 5), "record[0]: sweeps must be an array, got 5"),
            (("record", "sweeps", {}), "record[0]: sweeps must be an array, got {}"),
            (("sweep", "entries", None), "record[0].sweeps[0]: entries must be an array, got None"),
            (("record", "distance_m", None), "record[0]: distance_m must be a number, got None"),
            (("record", "distance_m", True), "record[0]: distance_m must be a number, got True"),
            (("record", "tx_height_m", "2.5"), "record[0]: tx_height_m must be a number, got '2.5'"),
            (("record", "rx_height_m", False), "record[0]: rx_height_m must be a number, got False"),
            (("record", "band_ghz", "28"), "record[0]: band_ghz must be a number, got '28'"),
            (("record", "band_ghz", -28.0), "record[0]: band_ghz must be finite and > 0, got -28.0"),
            (("record", "band_ghz", 10**400), "record[0]: int too large to convert to float"),
            (("pdp", "bin_spacing_ns", "2.5"),
             "record[0].sweeps[0].entries[0].pdp: bin_spacing_ns must be a number, got '2.5'"),
            (("pdp", "noise_floor_mw", True),
             "record[0].sweeps[0].entries[0].pdp: noise_floor_mw must be a number, got True"),
        ],
    )
    def test_malformed_values_are_parse_errors_with_path(self, edit, message):
        with pytest.raises(ParseError) as got:
            parse_campaign_records(self._record(edit=edit))
        assert str(got.value) == message

    def test_uncataloged_band_names_the_record(self):
        with pytest.raises(UnknownCombinationError) as got:
            parse_campaign_records(self._record(edit=("record", "band_ghz", 60.0)))
        assert str(got.value) == "record[0]: no cataloged sounder for 60 GHz"


class TestConfigJson:
    def test_bundled_round_trip(self):
        text = bundled("config_28ghz_nlos_vv_omni.json")
        assert emit_campaign_config(parse_campaign_config(text)) == text

    def test_bundled_config_values(self):
        cfg = parse_campaign_config(bundled("config_28ghz_nlos_vv_omni.json"))
        assert cfg.band == BAND_28GHZ
        assert cfg.n_locations == 2000
        assert cfg.seed == 42
        assert cfg.pdp_synthesis is not None

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="n_locations"):
            parse_campaign_config('{"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni"}')

    def test_invalid_value_named(self):
        with pytest.raises(ValueError, match="n_locations"):
            parse_campaign_config(
                '{"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni", "n_locations": 0}'
            )

    def test_unknown_pdp_key_named(self):
        with pytest.raises(ValueError, match="pdp_synthesis"):
            parse_campaign_config(
                '{"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni",'
                ' "n_locations": 5, "pdp_synthesis": {"bogus": 1}}'
            )

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"band_ghz": "28"}, "band_ghz must be a number, got '28'"),
            ({"band_ghz": True}, "band_ghz must be a number, got True"),
            ({"n_locations": True}, "n_locations must be an integer, got True"),
            ({"n_locations": 5.0}, "n_locations must be an integer, got 5.0"),
            ({"seed": 1.7}, "seed must be an integer, got 1.7"),
            ({"seed": False}, "seed must be an integer, got False"),
            ({"seed": "7"}, "seed must be an integer, got '7'"),
            ({"env": 1}, "env must be a string, got 1"),
            ({"pol": None}, "pol must be a string, got None"),
            ({"dir": ["omni"]}, "dir must be a string, got ['omni']"),
            ({"distance_range_m": [3.9, "45.9"]},
             "distance_range_m[1] must be a number, got '45.9'"),
            ({"distance_range_m": 45.9}, "distance_range_m must be a [min, max] pair, got 45.9"),
            ({"pdp_synthesis": {"tap_count_range": [1, 2, 3]}},
             "pdp_synthesis: tap_count_range must be a [min, max] pair, got [1, 2, 3]"),
            ({"params_override": {"ple": "1.5", "sigma_db": 2.0}},
             "params_override: ple must be a number, got '1.5'"),
            ({"params_override": {"ple": 1.5, "sigma_db": 2.0, "d0_m": True}},
             "params_override: d0_m must be a number, got True"),
            ({"params_override": [1.5, 2.0]}, "params_override must be an object, got [1.5, 2.0]"),
            ({"pdp_synthesis": {"decay_ns": "25"}},
             "pdp_synthesis: decay_ns must be a number, got '25'"),
            ({"pdp_synthesis": {"tap_count_range": [1.0, 10]}},
             "pdp_synthesis: tap_count_range[0] must be an integer, got 1.0"),
            ({"pdp_synthesis": {"tap_count_range": [1, True]}},
             "pdp_synthesis: tap_count_range[1] must be an integer, got True"),
            ({"pdp_synthesis": {"fixed_tap_delays_ns": [0.0, "5"]}},
             "pdp_synthesis: fixed_tap_delays_ns[1] must be a number, got '5'"),
            ({"pdp_synthesis": {"fixed_tap_delays_ns": 5.0}},
             "pdp_synthesis: fixed_tap_delays_ns must be an array, got 5.0"),
            ({"pdp_synthesis": {"span_ns": 10**400}},
             "pdp_synthesis: int too large to convert to float"),
            ({"sed": 7}, "unknown key(s) ['sed']"),
        ],
    )
    def test_wrong_json_types_and_unknown_keys_are_parse_errors(self, edit, message):
        config = {"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni", "n_locations": 5,
                  **edit}
        with pytest.raises(ParseError) as got:
            parse_campaign_config(json.dumps(config))
        nested = type(next(iter(edit.values()))) is dict  # an edit inside a nested object
        assert str(got.value) == f"campaign config{'.' if nested else ': '}{message}"

    def test_unknown_pdp_key_is_a_parse_error(self):
        with pytest.raises(ParseError) as got:
            parse_campaign_config(
                '{"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni",'
                ' "n_locations": 5, "pdp_synthesis": {"bogus": 1}}'
            )
        assert str(got.value) == "campaign config.pdp_synthesis: unknown key(s) ['bogus']"

    def test_integer_numbers_become_floats(self):
        cfg = parse_campaign_config(
            '{"band_ghz": 28, "env": "LOS", "pol": "VV", "dir": "omni", "n_locations": 5,'
            ' "distance_range_m": [4, 40], "params_override": {"ple": 2, "sigma_db": 3},'
            ' "pdp_synthesis": {"decay_ns": 25, "fixed_tap_delays_ns": [0, 5]}}'
        )
        assert cfg.band == BAND_28GHZ
        assert cfg.distance_range_m == (4.0, 40.0)
        assert type(cfg.params().ple) is float
        assert cfg.pdp_synthesis.fixed_tap_delays_ns == (0.0, 5.0)

    def test_params_override(self):
        cfg = parse_campaign_config(
            '{"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni",'
            ' "n_locations": 5, "params_override": {"ple": 1.5, "sigma_db": 2.0}}'
        )
        assert cfg.params().ple == 1.5
        assert cfg.params().shadow_sigma_db == 2.0


class TestFitCsv:
    def test_round_trip_values(self):
        model = CiModelParams(BAND_28GHZ, Environment.NLOS, Polarization.VV, Directionality.OMNI,
                              ple=2.4, shadow_sigma_db=3.1622776601683795)
        (parsed,) = parse_fit_csv(emit_fit_csv([model]))
        assert parsed == model
        assert parsed.band is BAND_28GHZ
        assert parsed.env is Environment.NLOS

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_fit_csv("band_ghz,env,pol,dir,ple,sigma_db,d0_m\n")

    def test_leading_bom_is_ignored(self):
        text = "band_ghz,env,pol,dir,ple,sigma_db,d0_m\n28.0,LOS,VV,omni,1.1,1.7,1.0\n"
        assert parse_fit_csv("\ufeff" + text) == parse_fit_csv(text)


class TestSpreadValues:
    def test_plain_values(self):
        assert parse_spread_values("1.0\n2.0\n\n3.0\n") == [1.0, 2.0, 3.0]

    def test_delay_stats_csv_column(self):
        from mmwindoor.estimation import SpreadSummary
        from mmwindoor.core import DelayStats

        stats = DelayStats(5.0, 50.0, 5.0, 2.0)
        text = emit_delay_stats_csv(
            [(0, "ok", stats), (1, "no-multipath", None)],
            SpreadSummary(5.0, 0.0, 5.0, 5.0),
        )
        assert parse_spread_values(text) == [5.0]

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_spread_values("\n\n")

    @staticmethod
    def _stats_csv(rms):
        from mmwindoor.estimation import SpreadSummary
        from mmwindoor.core import DelayStats

        text = emit_delay_stats_csv([(0, "ok", DelayStats(5.0, 50.0, 5.0, 2.0))],
                                    SpreadSummary(5.0, 0.0, 5.0, 5.0))
        return text.replace(",5.0,5.0,2.0,", f",5.0,{rms},2.0,")

    @pytest.mark.parametrize("form", ["column", "delay-stats"])
    def test_leading_bom_is_ignored(self, form):
        text = "1.0\n2.5\n" if form == "column" else self._stats_csv("2.5")
        assert parse_spread_values("\ufeff" + text) == parse_spread_values(text)

    @pytest.mark.parametrize("form", ["column", "delay-stats"])
    def test_only_one_leading_bom_is_ignored(self, form):
        text = "1.0\n2.5\n" if form == "column" else self._stats_csv("2.5")
        with pytest.raises(ParseError, match="^line 1: "):
            parse_spread_values("\ufeff\ufeff" + text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1.0\nnan\ninf\n", "line 2: value: not a finite number: 'nan'"),
            ("1.0\n\n2.0\n -inf\n", "line 4: value: not a finite number: '-inf'"),
            ("1e999\n", "line 1: value: not a finite number: '1e999'"),
            (None, "line 2: rms_delay_spread_ns: not a finite number: 'inf'"),
        ],
    )
    def test_non_finite_values_rejected(self, text, message):
        with pytest.raises(ParseError) as got:
            parse_spread_values(self._stats_csv("inf") if text is None else text)
        assert str(got.value) == message


BIG_FIELD = "x" * 140_000  # over csv.field_size_limit(), 131 072 by default


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (parse_pathloss_csv, f"{PATHLOSS_CSV_HEADER}\na,28.0,LOS,VV,omni,10.0,70.0\n"
                             f"{BIG_FIELD},28.0,LOS,VV,omni,10.0,70.0\n", 3),
        (parse_pathloss_csv, f"{BIG_FIELD}\n", 1),
        (parse_fit_csv, f"{FIT_CSV_HEADER}\n28.0,LOS,VV,omni,1.1,{BIG_FIELD},1.0\n", 2),
        (parse_spread_values,
         TestSpreadValues._stats_csv("2.0").replace("\n0,ok", f"\n0,{BIG_FIELD}"), 2),
    ],
    ids=["pathloss-row", "pathloss-header", "fit-row", "spreads-row"],
)
def test_oversized_csv_field_is_a_parse_error_naming_the_line(parse, text, line):
    with pytest.raises(ParseError) as got:
        parse(text)
    assert got.value.line == line
    assert "field larger than field limit" in str(got.value)


@pytest.mark.parametrize("parse", [parse_pdp_batch, parse_campaign_records, parse_campaign_config])
@pytest.mark.parametrize(
    "text, message",
    [("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
     ("[" + "1" * 5000 + "]", "Exceeds the limit (4300 digits)")],
    ids=["deep-nesting", "huge-integer"],
)
def test_undecodable_json_is_a_parse_error(parse, text, message):
    with pytest.raises(ParseError, match=r"^invalid JSON: ") as got:
        parse(text)
    assert message in str(got.value)


def test_json_loader_releases_each_element_once_built():
    built = []

    def build(obj, where):
        if built:  # the previous element is held by `built` and getrefcount's argument only
            refs = sys.getrefcount(built[-1][0])
            assert refs == 2
        built.append((obj, where))
        return where

    assert fileio._parse_json_items("[{}, {}, {}]", "batch", build, "item") == [
        "item[0]", "item[1]", "item[2]"]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "0", "0.0", "-1.5"])
@pytest.mark.parametrize("key", ["tx_height_m", "rx_height_m"])
def test_a_record_height_must_be_finite_and_positive(key, value):
    record = ('{"location_id": "R%d", "band_ghz": 28.0, "env": "LOS", "distance_m": 10.0, '
              '"sweeps": [], "%s": %s}')
    text = "[" + ", ".join([record % (0, key, "2.0"), record % (1, key, value)]) + "]"
    with pytest.raises(ParseError) as got:
        parse_campaign_records(text)
    assert str(got.value) == f"record[1]: {key} must be finite and > 0, got {float(value)!r}"


@pytest.mark.parametrize("spacing, floor", [(True, False), (2, 0)])
def test_pdp_numbers_given_as_int_or_bool_emit_as_floats(spacing, floor):
    text = emit_pdp_batch([Pdp(spacing, (1,), floor)])
    assert '"bin_spacing_ns": %r,' % float(spacing) in text
    assert '"noise_floor_mw": %r,' % float(floor) in text
    assert emit_pdp_batch(parse_pdp_batch(text)) == text


def test_cdf_csv_layout():
    text = emit_cdf_csv([(1.0, 0.5), (2.0, 1.0)])
    assert text.splitlines()[0] == "value,cumulative_probability"
    assert text.splitlines()[1] == "1.0,0.5"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_pdp_batch, '{"bin_spacing_ns": 2.5, "powers_mw": [1.0]}'),
        (parse_pdp_batch, '{"bin_spacing_ns": 2.5, "powers_mw": "1"}'),
        (parse_campaign_records, "[]"),
        (parse_campaign_records, "[{"),
    ],
)
def test_loaders_leave_the_garbage_collector_as_found(parse, text, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            parse(text)
        except ValueError:
            pass
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "out" / "file.txt"
    atomic_write(target, "first")
    atomic_write(target, "second")
    assert target.read_text() == "second"
    assert list(target.parent.iterdir()) == [target]


def test_atomic_write_syncs_the_file_then_renames_then_syncs_the_directory(tmp_path, monkeypatch):
    target = tmp_path / "file.txt"
    calls = []
    fsync, replace = os.fsync, os.replace

    def traced_fsync(fd):
        st = os.fstat(fd)
        calls.append(("fsync", "directory" if stat.S_ISDIR(st.st_mode) else st.st_size))
        fsync(fd)

    def traced_replace(src, dst):
        calls.append(("replace", Path(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", traced_fsync)
    monkeypatch.setattr(os, "replace", traced_replace)
    atomic_write(target, "é" * 10)
    # the temp file is synced with all 20 bytes flushed, before the rename
    assert calls == [("fsync", 20), ("replace", target), ("fsync", "directory")]


@pytest.mark.parametrize("slice_chars", [1, 3, 1 << 16, 1 << 20])
def test_atomic_write_slices_write_the_whole_text(tmp_path, monkeypatch, slice_chars):
    monkeypatch.setattr(fileio, "_SLICE_CHARS", slice_chars)
    text = "a\r\nb\ré€\U0001d11e\n" * 5
    atomic_write(tmp_path / "f", text)
    assert (tmp_path / "f").read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("piece", ["\r\n", "\U0001d11e"], ids=["CR-LF", "4-byte"])
@pytest.mark.parametrize("before", [0, 1], ids="{}-before-the-edge".format)
def test_atomic_write_across_a_slice_edge(tmp_path, piece, before):
    text = "é" * (fileio._SLICE_CHARS - before) + piece + "€" * fileio._SLICE_CHARS
    atomic_write(tmp_path / "f", text)
    assert (tmp_path / "f").read_bytes() == text.encode("utf-8")


def test_atomic_write_names_a_lone_surrogate_in_the_whole_text(tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "_SLICE_CHARS", 4)
    text = "abcdefghij\ud800"
    with pytest.raises(UnicodeEncodeError) as got:
        atomic_write(tmp_path / "f", text)
    assert str(got.value) == ("'utf-8' codec can't encode character '\\ud800' in position 10: "
                              "surrogates not allowed")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_names_a_lone_surrogate_past_the_first_slice(tmp_path):
    # At the real slice size the surrogate sits in the second slice, at 4464 within it.
    text = "a" * 70_000 + "\ud800" + "b" * 10
    with pytest.raises(UnicodeEncodeError) as got:
        atomic_write(tmp_path / "f", text)
    assert got.value.start == 70_000 and 70_000 > fileio._SLICE_CHARS
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
def test_atomic_write_mode_follows_umask(tmp_path, umask):
    # a plain open() creates 0o666 & ~umask; the temp file starts at 0o600
    target = tmp_path / "file.txt"
    old = os.umask(umask)
    try:
        atomic_write(target, "text")
    finally:
        os.umask(old)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # Setting the umask, even to read it, changes it for every thread of the process;
    # the kernel narrows the temp file's mode by it instead.
    umask = os.umask(0o022)
    os.umask(umask)
    names = []
    replace = os.replace

    def no_umask(mask):
        raise AssertionError("atomic_write set the umask")

    def traced_replace(src, dst):
        names.append(Path(src).name)
        replace(src, dst)

    monkeypatch.setattr(os, "umask", no_umask)
    monkeypatch.setattr(os, "replace", traced_replace)
    target = tmp_path / "file.txt"
    atomic_write(target, "text")
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    assert re.fullmatch(r"\.file\.txt\.[0-9a-f]{16}\.tmp", names[0])
    assert list(tmp_path.iterdir()) == [target]
