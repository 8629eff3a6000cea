"""Malformed and out-of-catalog inputs end in their documented exit codes, not
tracebacks, and warnings say which record and polarization they concern."""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from mmwindoor.cli import EXIT_EMPTY, EXIT_PARSE, EXIT_VALIDATION, main
from mmwindoor.fileio import DELAY_STATS_CSV_HEADER, FIT_CSV_HEADER, PATHLOSS_CSV_HEADER

ENTRY = {"theta_tx_deg": 0.0, "phi_tx_deg": 0.0, "theta_rx_deg": 0.0, "phi_rx_deg": 0.0,
         "pdp": {"bin_spacing_ns": 2.5, "noise_floor_mw": 1e-9, "powers_mw": [1e-6, 2e-6]}}


def _records(tmp_path, band_ghz=28.0, sweeps=None, **entry_edits):
    entry = {**ENTRY, **entry_edits}
    record = {"location_id": "R1", "band_ghz": band_ghz, "env": "LOS", "distance_m": 10.0,
              "sweeps": [{"sweep_id": "M1", "pol": "VV", "entries": [entry]}]
              if sweeps is None else sweeps}
    path = tmp_path / "records.json"
    path.write_text(json.dumps([record]))
    return str(path)


def _invoke(args):
    res = CliRunner().invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    return res


def test_synthesize_omni_uncataloged_band_exits_3(tmp_path):
    res = _invoke(["synthesize-omni", _records(tmp_path, band_ghz=60.0)])
    assert res.exit_code == EXIT_VALIDATION
    assert "record[0]: no cataloged sounder for 60 GHz" in res.output


def test_simulate_uncataloged_band_exits_3(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"band_ghz": 60.0, "env": "LOS", "pol": "VV", "dir": "omni", "n_locations": 10}
    ))
    res = _invoke(["simulate", str(config), "-o", str(tmp_path / "out")])
    assert res.exit_code == EXIT_VALIDATION
    assert "no cataloged model for (60 GHz, LOS, VV, omni)" in res.output


@pytest.mark.parametrize(
    "edits, where",
    [
        ({"theta_tx_deg": "abc"}, "record[0].sweeps[0].entries[0].theta_tx_deg"),
        ({"sweeps": 5}, "record[0].sweeps"),
        ({"sweeps": [{"sweep_id": "M1", "pol": "VV", "entries": None}]},
         "record[0].sweeps[0].entries"),
        ({"pdp": {"bin_spacing_ns": 2.5, "powers_mw": "123"}},
         "record[0].sweeps[0].entries[0].pdp.powers_mw"),
    ],
)
def test_synthesize_omni_malformed_record_exits_2(tmp_path, edits, where):
    res = _invoke(["synthesize-omni", _records(tmp_path, **edits)])
    assert res.exit_code == EXIT_PARSE
    owner, _, key = where.rpartition(".")  # the error names the value's object, then its key
    assert f"error: {owner}: {key} must be " in res.output


def test_pdp_stats_string_powers_exit_2(tmp_path):
    path = tmp_path / "pdps.json"
    path.write_text('[{"bin_spacing_ns": 2.5, "powers_mw": ["1.0", "2.0"]}]')
    res = _invoke(["pdp-stats", str(path)])
    assert res.exit_code == EXIT_PARSE
    assert "error: pdp[0]: powers_mw[0] must be a number, got '1.0'" in res.output


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"band_ghz": "28"}, "record[0]: band_ghz must be a number, got '28'"),
        ({"band_ghz": -28.0}, "record[0]: band_ghz must be finite and > 0, got -28.0"),
        ({"distance_m": True}, "record[0]: distance_m must be a number, got True"),
        ({"distance_m": 0}, "record[0]: distance_m must be finite and > 0, got 0.0"),
    ],
)
def test_synthesize_omni_bad_record_number_exits_2(tmp_path, edits, message):
    record = {"location_id": "R1", "band_ghz": 28.0, "env": "LOS", "distance_m": 10.0,
              "sweeps": [{"sweep_id": "M1", "pol": "VV", "entries": [ENTRY]}], **edits}
    path = tmp_path / "records.json"
    path.write_text(json.dumps([record]))
    res = _invoke(["synthesize-omni", str(path)])
    assert res.exit_code == EXIT_PARSE
    assert f"error: {message}" in res.output


def test_pdp_stats_string_bin_spacing_exits_2(tmp_path):
    path = tmp_path / "pdps.json"
    path.write_text('[{"bin_spacing_ns": "2.5", "powers_mw": [1.0, 2.0]}]')
    res = _invoke(["pdp-stats", str(path)])
    assert res.exit_code == EXIT_PARSE
    assert "error: pdp[0]: bin_spacing_ns must be a number, got '2.5'" in res.output


def test_report_non_finite_spread_exits_2(tmp_path):
    path = tmp_path / "spreads.txt"
    path.write_text("1.0\nnan\ninf\n")
    res = _invoke(["report", "--spreads", str(path), "-o", str(tmp_path)])
    assert res.exit_code == EXIT_PARSE
    assert f"error: {path}: line 2: value: not a finite number: 'nan'" in res.output
    assert res.stdout == ""


def test_report_reads_every_spreads_file_before_writing_any(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("1.0\n2.0\n")
    (tmp_path / "b.txt").write_text("1.0\nnan\n")
    res = _invoke(["report", "--spreads", "a.txt", "--spreads", "b.txt", "-o", "out"])
    assert res.exit_code == EXIT_PARSE
    assert res.stderr == "error: b.txt: line 2: value: not a finite number: 'nan'\n"
    assert not (tmp_path / "out").exists()


def test_unknown_pdp_key_exits_2(tmp_path):
    path = tmp_path / "pdps.json"
    path.write_text('[{"bin_spacing_ns": 2.5, "noise_floor_mW": 1e-9, "powers_mw": [1.0]}]')
    res = _invoke(["pdp-stats", str(path)])
    assert res.exit_code == EXIT_PARSE
    assert res.stderr == "error: pdp[0]: unknown key(s) ['noise_floor_mW']\n"


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"location_id": None}, "record[0]: location_id must be a string, got None"),
        ({"location_id": 5}, "record[0]: location_id must be a string, got 5"),
        ({"Env": "LOS"}, "record[0]: unknown key(s) ['Env']"),
        ({"sweeps": [{"sweep_id": "M1", "pol": "VV", "entries": [], "note": ""}]},
         "record[0].sweeps[0]: unknown key(s) ['note']"),
        ({"location_id": "\ud800"},  # json.dumps writes the escape; UTF-8 has no such character
         "record[0]: location_id: 'utf-8' codec can't encode character '\\ud800' in position 0: "
         "surrogates not allowed"),
    ],
)
def test_synthesize_omni_record_shape_exits_2(tmp_path, edits, message):
    record = {"location_id": "R1", "band_ghz": 28.0, "env": "LOS", "distance_m": 10.0,
              "sweeps": [{"sweep_id": "M1", "pol": "VV", "entries": [ENTRY]}], **edits}
    path = tmp_path / "records.json"
    path.write_text(json.dumps([record]))
    res = _invoke(["synthesize-omni", str(path)])
    assert res.exit_code == EXIT_PARSE
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"n_locations": KeyError}, "campaign config: missing key(s) ['n_locations']"),
        ({"params_override": {"sigma_db": 2.0}},
         "campaign config.params_override: missing key(s) ['ple']"),
        ({"params_override": {"ple": 2.0, "sigma_db": 2.0, "d0": 1.0}},
         "campaign config.params_override: unknown key(s) ['d0']"),
    ],
)
def test_simulate_config_shape_exits_2(tmp_path, edit, message):
    config = {"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni", "n_locations": 10, **edit}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({k: v for k, v in config.items() if v is not KeyError}))
    res = _invoke(["simulate", str(path), "-o", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE
    assert res.stderr == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_fit_accepts_a_bom_before_the_header(tmp_path):
    path = tmp_path / "pathloss.csv"
    path.write_text("\ufeff" + PATHLOSS_CSV_HEADER + "\na,28.0,LOS,VV,omni,10.0,70.0\n"
                    "b,28.0,LOS,VV,omni,20.0,78.0\n", encoding="utf-8")
    res = _invoke(["fit", str(path)])
    assert res.exit_code == 0, res.output
    assert "28 GHz" in res.output


def test_duplicate_angle_warnings_name_the_polarization(tmp_path):
    sweeps = [{"sweep_id": sweep_id, "pol": pol, "entries": [ENTRY]}
              for pol in ("VV", "VH") for sweep_id in ("M1", "M7")]
    res = _invoke(["synthesize-omni", _records(tmp_path, sweeps=sweeps)])
    assert res.exit_code == 0, res.output
    lines = [line for line in res.stderr.splitlines() if "re-measured" in line]
    assert len(lines) == 2 and lines[0] != lines[1]
    assert "record 'R1' (VH): 1 pointing angle(s) were re-measured" in lines[0]
    assert "record 'R1' (VV): 1 pointing angle(s) were re-measured" in lines[1]


def test_fit_oversized_field_exits_2_naming_the_line(tmp_path):
    path = tmp_path / "pathloss.csv"
    path.write_text(PATHLOSS_CSV_HEADER + "\na,28.0,LOS,VV,omni,10.0,70.0\n"
                    + "x" * 140_000 + ",28.0,LOS,VV,omni,20.0,78.0\n")
    res = _invoke(["fit", str(path)])
    assert res.exit_code == EXIT_PARSE
    assert "error: line 3: field larger than field limit (131072)" in res.output


OVERFLOWING_PDP = {"bin_spacing_ns": 2.5, "powers_mw": [1e308, 1e308]}


def test_pdp_stats_power_overflow_exits_3_naming_the_pdp(tmp_path):
    path = tmp_path / "pdps.json"
    path.write_text(json.dumps([ENTRY["pdp"], OVERFLOWING_PDP]))
    res = _invoke(["pdp-stats", str(path)])
    assert res.exit_code == EXIT_VALIDATION
    assert "error: pdp[1]: intermediate overflow in fsum" in res.output


@pytest.mark.parametrize("last, code, message", [
    ('{"bin_spacing_ns": 2.5, "powers_mw": [1.0,]}', EXIT_PARSE,
     "line 3: invalid JSON: Expecting value: line 3 column 43 (char 178)"),
    ('{"bin_spacing_ns": 2.5, "powers_mw": [-1.0]}', EXIT_PARSE,
     "pdp[2]: powers_mw[0] must be finite and >= 0, got -1.0"),
    (json.dumps(ENTRY["pdp"]), EXIT_VALIDATION, "pdp[0]: intermediate overflow in fsum"),
], ids=["invalid-json", "invalid-profile", "valid"])
def test_pdp_stats_input_errors_come_before_an_overflow_in_profile_0(tmp_path, last, code,
                                                                      message):
    """Profile 0's delay statistics overflow as soon as it is built, yet a decode error
    or a bad profile later in the file is the error reported."""
    path = tmp_path / "pdps.json"
    path.write_text("[" + ",\n".join([json.dumps(OVERFLOWING_PDP), json.dumps(ENTRY["pdp"]),
                                      last]) + "]\n")
    res = _invoke(["pdp-stats", str(path)])
    assert res.exit_code == code
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""


def test_synthesize_omni_power_overflow_exits_3_naming_the_record(tmp_path):
    res = _invoke(["synthesize-omni", _records(tmp_path, pdp=OVERFLOWING_PDP)])
    assert res.exit_code == EXIT_VALIDATION
    assert "error: record 'R1' (VV): intermediate overflow in fsum" in res.output


def test_synthesize_omni_non_finite_height_exits_2_naming_the_record(tmp_path):
    path = tmp_path / "records.json"
    path.write_text(json.dumps([{"location_id": "R1", "band_ghz": 28.0, "env": "LOS",
                                 "distance_m": 10.0, "rx_height_m": float("nan"), "sweeps": []}]))
    res = _invoke(["synthesize-omni", str(path)])
    assert res.exit_code == EXIT_PARSE
    assert res.stderr == "error: record[0]: rx_height_m must be finite and > 0, got nan\n"


def test_synthesize_omni_unknown_sweep_polarization_exits_2(tmp_path):
    sweeps = [{"sweep_id": "M1", "pol": "HH", "entries": [ENTRY]}]
    res = _invoke(["synthesize-omni", _records(tmp_path, sweeps=sweeps)])
    assert res.exit_code == EXIT_PARSE
    assert res.stderr == "error: record[0].sweeps[0].pol: unknown value 'HH' (valid: VV, VH)\n"


def test_synthesize_omni_record_without_sweeps_exits_4(tmp_path):
    res = _invoke(["synthesize-omni", _records(tmp_path, sweeps=[])])
    assert res.exit_code == EXIT_EMPTY
    assert res.stdout == ""
    assert res.stderr == "error: no samples: record 'R1' has no sweeps\n"


def test_outage_warnings_name_the_polarization(tmp_path):
    silent = {**ENTRY, "pdp": {"bin_spacing_ns": 2.5, "powers_mw": [0.0, 0.0]}}
    sweeps = [{"sweep_id": "M1", "pol": pol, "entries": [silent]} for pol in ("VV", "VH")]
    res = _invoke(["synthesize-omni", _records(tmp_path, sweeps=sweeps)])
    assert res.exit_code == 0, res.output
    lines = [line for line in res.stderr.splitlines() if "outage row" in line]
    assert lines == [
        "warning: record 'R1' (VH): no detectable multipath at any pointing angle; "
        "emitting outage row",
        "warning: record 'R1' (VV): no detectable multipath at any pointing angle; "
        "emitting outage row",
    ]


@pytest.mark.parametrize(
    "edit",
    [{"band_ghz": "28"}, {"n_locations": True}, {"seed": 1.7}, {"env": 1}, {"sed": 7},
     {"pdp_synthesis": {"tap_count_range": [1.0, 10]}},
     {"params_override": {"ple": "1.5", "sigma_db": 2.0}},
     {"distance_range_m": [3.9, "45.9"]}],
    ids=lambda edit: next(iter(edit)),
)
def test_simulate_mistyped_config_exits_2(tmp_path, edit):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni", "n_locations": 10, **edit}
    ))
    res = _invoke(["simulate", str(config), "-o", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE
    error = next(line for line in res.output.splitlines() if line.startswith("error: "))
    key, value = next(iter(edit.items()))
    where = f"campaign config.{key}" if type(value) is dict else "campaign config"
    assert error.startswith(f"error: {where}: ") and key in error
    assert not (tmp_path / "out").exists()


def test_simulate_negative_config_seed_exits_3_naming_the_key(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni",
                                  "n_locations": 10, "seed": -1}))
    res = _invoke(["simulate", str(config), "-o", str(tmp_path / "out")])
    assert res.exit_code == EXIT_VALIDATION
    assert res.stderr == "error: seed: must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_simulate_negative_seed_flag_exits_3_naming_the_key(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni",
                                  "n_locations": 10}))
    res = _invoke(["--seed", "-5", "simulate", str(config), "-o", str(tmp_path / "out")])
    assert res.exit_code == EXIT_VALIDATION
    assert res.stderr == "error: seed: must be >= 0, got -5\n"
    assert not (tmp_path / "out").exists()


def test_simulate_names_the_location_whose_drawn_path_loss_is_not_positive(tmp_path):
    """A shadowing spread of 25 dB at 1-2 m draws a loss below 0 dB: the error names the
    location and its distance and the sigma_db that drew it, and nothing is written."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni",
                                  "n_locations": 2000, "distance_range_m": [1, 2],
                                  "params_override": {"ple": 2.0, "sigma_db": 25}}))
    res = _invoke(["simulate", str(config), "-o", str(tmp_path / "out")])
    assert res.exit_code == EXIT_VALIDATION
    assert res.stderr == ("error: location loc0264 at 1.8878034452914807 m, sigma_db 25.0: "
                          "path_loss_db must be finite and > 0, got -0.7899585777199007\n")
    assert not (tmp_path / "out").exists()


def _report_spreads(tmp_path, monkeypatch, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spreads.csv").write_text(text)
    return _invoke(["report", "--spreads", "spreads.csv", "-o", "out"])


STATS_ROW = "0,ok,1.0,{},2.0,,,,"
#: The characters ``str.splitlines`` breaks at besides LF and CR; a line holds them.
OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize(
    "text, message",
    [
        (f"{DELAY_STATS_CSV_HEADER}\n0,ok\n", "line 2: expected 9 fields, found 2"),
        (f"{DELAY_STATS_CSV_HEADER}\n{STATS_ROW.format(5.0)}\n{STATS_ROW.format(-3.0)}\n",
         "line 3: rms_delay_spread_ns: must be >= 0, got -3.0"),
        ("5\n-3\n", "line 2: value: must be >= 0, got -3.0"),
        ("\n\n5\nnan\n", "line 4: value: not a finite number: 'nan'"),
        *((f"1.0{c}2.0\n", f"line 1: value: not a number: {f'1.0{c}2.0'!r}")
          for c in OTHER_LINE_BREAKS),
        *((f"1.0{c}\r\n2.0\rabc\n", "line 3: value: not a number: 'abc'")
          for c in OTHER_LINE_BREAKS),
    ],
    ids=["short-row", "negative-csv", "negative-column", "line-after-blank-lines",
         *(f"U+{ord(c):04X}-inside-a-line" for c in OTHER_LINE_BREAKS),
         *(f"U+{ord(c):04X}-then-crlf-and-cr" for c in OTHER_LINE_BREAKS)],
)
def test_report_bad_spread_row_exits_2_naming_file_and_line(tmp_path, monkeypatch, text, message):
    res = _report_spreads(tmp_path, monkeypatch, text)
    assert res.exit_code == EXIT_PARSE
    assert res.stderr == f"error: spreads.csv: {message}\n"
    assert not (tmp_path / "out").exists()


def test_report_skips_blank_lines_before_a_delay_stats_header(tmp_path, monkeypatch):
    res = _report_spreads(tmp_path, monkeypatch,
                          f"\n \n{DELAY_STATS_CSV_HEADER}\n{STATS_ROW.format(4.0)}\n")
    assert res.exit_code == 0, res.output
    assert "delay spreads [spreads]: n=1, mean 4.000 ns" in res.stdout


FITTED_ROW = "28.0,LOS,VV,omni,{},{},{}"


@pytest.mark.parametrize(
    "rows, message",
    [
        ([FITTED_ROW.format("nan", 1.7, 1.0)], "line 2: ple must be finite and > 0, got nan"),
        ([FITTED_ROW.format(1.1, "inf", 1.0)], "line 2: sigma_db must be finite and >= 0, got inf"),
        ([FITTED_ROW.format(1.1, 1.7, -1.0)], "line 2: d0_m must be finite and > 0, got -1.0"),
        ([FITTED_ROW.format(1.1, 1.7, 1.0), "28,LOS,VV,omni,1.2,1.8,1.0"],
         "line 3: repeated stratum (28 GHz, LOS, VV, omni)"),
    ],
    ids=["nan-ple", "inf-sigma", "negative-d0", "repeated-stratum"],
)
def test_report_bad_fitted_row_exits_2_naming_the_line(tmp_path, rows, message):
    path = tmp_path / "fits.csv"
    path.write_text("\n".join([FIT_CSV_HEADER, *rows]) + "\n")
    res = _invoke(["report", "--fit-csv", str(path)])
    assert res.exit_code == EXIT_PARSE
    assert res.stderr == f"error: {path}: {message}\n"


def test_report_finds_each_fitted_stratum(tmp_path):
    path = tmp_path / "fits.csv"
    path.write_text(f"{FIT_CSV_HEADER}\n73.5,NLOS,VH,directional,4.5,10.5,1.0\n"
                    f"{FITTED_ROW.format(1.25, 2.0, 1.0)}\n60.0,LOS,VV,omni,2.0,3.0,1.0\n")
    res = _invoke(["report", "--fit-csv", str(path)])
    assert res.exit_code == 0, res.output
    assert "      LOS   VV          omni    1.1    1.7    1.250    2.000  +0.150  +0.300\n" in res.stdout
    assert "     NLOS   VH   directional    6.4   15.8    4.500   10.500  -1.900  -5.300\n" in res.stdout
    assert "     NLOS   VV          omni    2.7    9.6" + " " * 34 + "\n" in res.stdout
    # A fitted model with no cataloged model is in no table, and one warning says so.
    assert "60 GHz" not in res.stdout
    assert res.stderr == ("warning: skipping stratum (60 GHz, LOS, VV, omni): "
                          "no cataloged model to compare with\n")


def test_report_compares_no_model_fitted_at_another_anchor(tmp_path):
    path = tmp_path / "fits.csv"
    path.write_text(f"{FIT_CSV_HEADER}\n28.0,NLOS,VV,omni,2.892,9.67,2.0\n"
                    f"{FITTED_ROW.format(1.25, 2.0, 1.0)}\n")
    res = _invoke(["report", "--fit-csv", str(path)])
    assert res.exit_code == 0, res.output
    # An exponent relative to d0 = 2 m has no delta against the 1 m catalog model.
    assert "     NLOS   VV          omni    2.7    9.6" + " " * 34 + "\n" in res.stdout
    assert "      LOS   VV          omni    1.1    1.7    1.250    2.000  +0.150  +0.300\n" in res.stdout
    assert res.stderr == ("warning: skipping stratum (28 GHz, NLOS, VV, omni): "
                          "fitted at d0_m 2.0, cataloged at d0_m 1.0\n")


@pytest.mark.parametrize("name, text, message", [
    ("nm.csv", f"{DELAY_STATS_CSV_HEADER}\n0,no-multipath,,,,,,,\n",
     "no delay-spread values found"),
    ("fits.csv", f"{FIT_CSV_HEADER}\n", "fitted-table CSV has no rows"),
], ids=["spreads-no-multipath-only", "fitted-header-only"])
def test_report_empty_input_exits_4_naming_the_file(tmp_path, monkeypatch, name, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.txt").write_text("1.0\n2.0\n")
    (tmp_path / name).write_text(text)
    option = "--fit-csv" if name == "fits.csv" else "--spreads"
    res = _invoke(["report", "--spreads", "ok.txt", option, name, "-o", "out"])
    assert res.exit_code == EXIT_EMPTY
    assert res.stderr == f"error: no samples: {name}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_fit_bad_outage_row_exits_2_naming_line_and_field(tmp_path):
    path = tmp_path / "pathloss.csv"
    path.write_text(f"{PATHLOSS_CSV_HEADER}\na,28.0,LOS,VV,omni,10.0,70.0\n"
                    "b,28.0,los,VV,omni,20.0,\n")
    res = _invoke(["fit", str(path)])
    assert res.exit_code == EXIT_PARSE
    assert res.stderr == "error: line 3: env: unknown value 'los' (valid: LOS, NLOS, NLOS_BEST)\n"


def test_fit_overflowing_stratum_exits_3_naming_it(tmp_path):
    path = tmp_path / "pathloss.csv"
    path.write_text(f"{PATHLOSS_CSV_HEADER}\na,28.0,LOS,VV,omni,1.0,1.0\n"
                    "b,28.0,LOS,VV,omni,1.0,1.3407807929942597e+154\nc,28.0,LOS,VV,omni,2.0,1.0\n")
    res = _invoke(["fit", str(path)])
    assert res.exit_code == EXIT_VALIDATION
    assert res.stderr == ("error: stratum (28 GHz, LOS, VV, omni): the samples overflow a float "
                          "(ple -20.061437304785386, sigma inf)\n")
    assert res.stdout == ""


@pytest.mark.parametrize("stratum, rows, reason", [
    ("28.0,LOS,VV,omni", [(10.0, 50.0), (20.0, 45.0)],
     "ple must be finite and > 0, got -1.2150001114249003"),
    ("28.0,NLOS_BEST,VV,omni", [(10.0, 90.0), (20.0, 100.0)],
     "NLOS_BEST is defined for directional models only"),
], ids=["negative-exponent", "nlos-best-omni"])
def test_fit_skips_a_stratum_that_is_no_model(tmp_path, stratum, rows, reason):
    path = tmp_path / "pathloss.csv"
    path.write_text(PATHLOSS_CSV_HEADER + "\n" + "".join(
        f"L{k},{stratum},{d},{pl}\n" for k, (d, pl) in enumerate(rows)))
    out = tmp_path / "fits.csv"
    res = _invoke(["fit", str(path), "--csv-out", str(out)])
    assert res.exit_code == EXIT_EMPTY
    band, env, pol, dir_ = stratum.split(",")
    assert res.stderr == (f"warning: skipping stratum (28 GHz, {env}, {pol}, {dir_}): {reason}\n"
                          "error: no samples: every stratum was empty or unfittable\n")
    assert res.stdout == ""
    assert not out.exists()


#: Path-loss rows of a few strata, NLOS_BEST omni among them, whose losses may fall
#: with distance (a negative exponent).
pathloss_rows = st.lists(st.tuples(
    st.sampled_from(["28.0,LOS,VV,omni", "73.5,NLOS,VH,directional", "28.0,NLOS_BEST,VV,omni",
                     "28.0,NLOS_BEST,VV,directional"]),
    st.floats(1.0, 100.0), st.floats(1.0, 200.0)), min_size=1, max_size=12)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(pathloss_rows)
def test_report_reads_every_table_fit_writes(rows):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("pathloss.csv", "w") as fh:
            fh.write(PATHLOSS_CSV_HEADER + "\n" + "".join(
                f"L{k},{stratum},{d!r},{pl!r}\n" for k, (stratum, d, pl) in enumerate(rows)))
        fit = runner.invoke(main, ["fit", "pathloss.csv", "--csv-out", "fits.csv"])
        assert fit.exit_code in (0, EXIT_EMPTY), fit.output
        if fit.exit_code == 0:
            res = runner.invoke(main, ["report", "--fit-csv", "fits.csv"])
            assert res.exit_code == 0, res.output


def test_a_pointing_repeated_across_the_wrap_names_both_entries(tmp_path):
    entries = [ENTRY, {**ENTRY, "theta_rx_deg": 360.0}]
    res = _invoke(["synthesize-omni", _records(tmp_path, sweeps=[
        {"sweep_id": "M1", "pol": "VV", "entries": entries}])])
    assert res.exit_code == EXIT_PARSE
    assert ("error: record[0].sweeps[0]: duplicate pointing angle within sweep M1: entries[1] "
            "(theta_tx_deg 0.0, theta_rx_deg 360.0) repeats entries[0] "
            "(theta_tx_deg 0.0, theta_rx_deg 0.0)\n") in res.output
