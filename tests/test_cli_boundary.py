"""Every command runs inside one boundary: exceptions map to exit codes through a
single table, warnings print as they are raised, and anything outside the table
still propagates."""

import errno
import gc
import json
import os
import warnings
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from mmwindoor import fileio
from mmwindoor.cli import EXIT_PARSE, EXIT_VALIDATION, main

DATA = resources.files("mmwindoor") / "data"
SMALL_CONFIG = {"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni", "n_locations": 10,
                "pdp_synthesis": {"tap_count_range": [1, 4]}}


def _inputs(tmp_path):
    """Valid inputs for every file-reading command, plus a regular file to write under."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    spreads = tmp_path / "spreads.txt"
    spreads.write_text("1.0\n2.0\n")
    fitted = tmp_path / "fitted.csv"
    fitted.write_text("band_ghz,env,pol,dir,ple,sigma_db,d0_m\n28.0,LOS,VV,omni,1.2,1.8,1.0\n")
    (tmp_path / "blocker").write_text("a regular file\n")
    return {
        "csv": str(DATA / "campaign_28ghz_nlos_vv_omni.csv"),
        "pdps": str(DATA / "pdp_examples.json"),
        "records": str(DATA / "sweep_records_28ghz.json"),
        "config": str(config), "spreads": str(spreads), "fitted": str(fitted),
    }


# (argv template, the input or output file the message must name). "{bad}" is a
# non-UTF-8 file; "{blocked}" is a path under a regular file.
CASES = {
    "fit-read": (["fit", "{bad}"], "cannot read {bad}"),
    "fit-write": (["fit", "{csv}", "--csv-out", "{blocked}/fit.csv"],
                  "cannot write {blocked}/fit.csv"),
    "pdp-stats-read": (["pdp-stats", "{bad}"], "cannot read {bad}"),
    "pdp-stats-write": (["pdp-stats", "{pdps}", "--csv-out", "{blocked}/ds.csv"],
                        "cannot write {blocked}/ds.csv"),
    "synthesize-omni-read": (["synthesize-omni", "{bad}"], "cannot read {bad}"),
    "synthesize-omni-write": (["synthesize-omni", "{records}", "--csv-out", "{blocked}/o.csv"],
                              "cannot write {blocked}/o.csv"),
    "simulate-read": (["simulate", "{bad}", "-o", "{tmp}/out"], "cannot read {bad}"),
    "simulate-write": (["simulate", "{config}", "-o", "{blocked}/out"],
                       "cannot write {blocked}/out/campaign.csv"),
    "report-fit-csv-read": (["report", "--fit-csv", "{bad}"], "cannot read {bad}"),
    "report-spreads-read": (["report", "--spreads", "{bad}", "-o", "{tmp}"], "cannot read {bad}"),
    "report-write": (["report", "--spreads", "{spreads}", "-o", "{blocked}/cdf"],
                     "cannot write {blocked}/cdf/cdf_spreads.csv"),
    "catalog-write": (["catalog", "-o", "{blocked}/catalog.json"],
                      "cannot write {blocked}/catalog.json"),
}


@pytest.mark.parametrize("argv, message", CASES.values(), ids=CASES.keys())
def test_unreadable_input_and_unwritable_output_exit_2(tmp_path, argv, message):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("caf\xe9\n".encode("latin-1"))
    fields = {**_inputs(tmp_path), "bad": str(bad), "blocked": str(tmp_path / "blocker"),
              "tmp": str(tmp_path)}
    res = CliRunner().invoke(main, [a.format(**fields) for a in argv])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == EXIT_PARSE, res.output
    assert f"error: {message.format(**fields)}: " in res.stderr
    assert "Traceback" not in res.output
    assert res.stdout == ""  # a failed write prints nothing of the command's table
    if message.startswith("cannot write "):  # the parent that is no directory is named
        parent = Path(message.format(**fields).removeprefix("cannot write ")).parent
        assert f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{parent}'" in res.stderr


def test_failing_simulate_writes_nothing(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL_CONFIG, "pdp_synthesis": {"tap_power_sigma_db": 1e6}}))
    res = CliRunner().invoke(main, ["simulate", str(config), "-o", str(tmp_path / "out")])
    assert res.exit_code == EXIT_VALIDATION, res.output
    assert "error: pdp_synthesis.tap_power_sigma_db: 1000000.0 dB" in res.stderr
    assert res.stdout == ""
    assert not (tmp_path / "out").exists()


def test_simulate_writes_in_stdout_order(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["simulate", str(config), "-o", str(out)])
    assert res.exit_code == 0, res.output
    lines = res.stdout.splitlines()
    assert lines[0] == f"wrote {out / 'campaign.csv'} (10 locations)"
    assert lines[1] == f"wrote {out / 'fitback.json'}"
    assert lines[2].startswith("fit-back: ple ")
    assert lines[3:] == [f"wrote {out / 'pdps.json'}", f"wrote {out / 'delay_stats.csv'}"]


def test_ignored_workers_option_warns_through_the_sink(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    runner = CliRunner()
    for _ in range(2):  # a warning category the sink prints every time it is raised
        res = runner.invoke(main, ["simulate", str(config), "-o", str(tmp_path / "out"),
                                   "--workers", "4"])
        assert res.exit_code == 0, res.output
        assert res.stderr == "warning: --workers is ignored; generation is serial\n"


def test_report_overflowing_spreads_exit_3_naming_the_file(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("1e308\n1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = CliRunner().invoke(main, ["report", "--spreads", str(path), "-o", str(tmp_path)])
    assert res.exit_code == EXIT_VALIDATION, res.output
    assert f"error: {path}: the spread values overflow a float" in res.stderr
    assert "Warning" not in res.stderr


def test_flag_validation_exits_3_through_the_boundary():
    res = CliRunner().invoke(main, ["--d0-m", "0", "catalog"])
    assert res.exit_code == EXIT_VALIDATION
    assert res.stderr == "error: --d0-m must be finite and > 0, got 0.0\n"


def test_warnings_print_when_raised(tmp_path):
    """For an outage record the duplicate-angle warning, raised while its power is
    synthesized, comes before the outage line."""
    silent = {"theta_tx_deg": 0.0, "phi_tx_deg": 0.0, "theta_rx_deg": 0.0, "phi_rx_deg": 0.0,
              "pdp": {"bin_spacing_ns": 2.5, "noise_floor_mw": 0.0, "powers_mw": [0.0]}}
    record = {"location_id": "Z1", "band_ghz": 28.0, "env": "NLOS", "distance_m": 60.0,
              "sweeps": [{"sweep_id": s, "pol": "VV", "entries": [silent]} for s in ("M1", "M2")]}
    path = tmp_path / "records.json"
    path.write_text(json.dumps(record))
    res = CliRunner().invoke(main, ["synthesize-omni", str(path)])
    assert res.exit_code == 0, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("warning: distance 60.0 m lies outside the measured span")
    assert lines[1].startswith("warning: record 'Z1' (VV): 1 pointing angle(s) were re-measured")
    assert lines[2] == ("warning: record 'Z1' (VV): no detectable multipath at any pointing "
                        "angle; emitting outage row")


def _entry(theta_tx, theta_rx, powers):
    return {"theta_tx_deg": theta_tx, "phi_tx_deg": 0.0, "theta_rx_deg": theta_rx,
            "phi_rx_deg": 0.0,
            "pdp": {"bin_spacing_ns": 2.5, "noise_floor_mw": 1e-09, "powers_mw": powers}}


def test_warnings_of_many_records_keep_their_lines_and_order(tmp_path):
    """Build warnings (distances out of span) come first, in record order, then those of
    the omni step (re-measured angles and outages), as when every record was built
    before any was synthesized."""
    loud, silent = [1e-06, 2e-07, 0.0], [0.0, 0.0, 0.0]

    def record(location_id, distance_m, sweeps):
        return {"location_id": location_id, "band_ghz": 28.0, "env": "NLOS",
                "distance_m": distance_m,
                "sweeps": [{"sweep_id": s, "pol": pol, "entries": entries}
                           for s, pol, entries in sweeps]}

    records = [
        record("R0", 60.0, [("M1", "VV", [_entry(0.0, 0.0, loud), _entry(0.0, 30.0, loud)])]),
        record("R1", 10.0, [("M1", "VV", [_entry(0.0, 0.0, loud)]),
                            ("M2", "VV", [_entry(0.0, 0.0, loud), _entry(45.0, 0.0, loud)])]),
        record("R2", 12.0, [("M1", pol, [_entry(0.0, 0.0, silent)]) for pol in ("VV", "VH")]),
        record("R3", 50.0, [("M1", "VH", [_entry(0.0, 0.0, silent)]),
                            ("M2", "VH", [_entry(0.0, 0.0, silent)])]),
    ]
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    res = CliRunner().invoke(main, ["synthesize-omni", str(path)])
    assert res.exit_code == 0, res.output
    span = "lies outside the measured span [3.9, 45.9] m; models extrapolate here"
    remeasured = ("1 pointing angle(s) were re-measured across sweeps; keeping the strongest "
                  "acquisition of each")
    outage = "no detectable multipath at any pointing angle; emitting outage row"
    assert res.stderr == (
        f"warning: distance 60.0 m {span}\n"
        f"warning: distance 50.0 m {span}\n"
        f"warning: record 'R1' (VV): {remeasured}\n"
        f"warning: record 'R2' (VH): {outage}\n"
        f"warning: record 'R2' (VV): {outage}\n"
        f"warning: record 'R3' (VH): {remeasured}\n"
        f"warning: record 'R3' (VH): {outage}\n")
    assert res.stdout == (
        "location_id,band_ghz,env,pol,dir,distance_m,path_loss_db\n"
        "R0,28.0,NLOS,VV,omni,60.0,110.19788758288394\n"
        "R1,28.0,NLOS,VV,omni,10.0,110.19788758288394\n"
        "R2,28.0,NLOS,VH,omni,12.0,\n"
        "R2,28.0,NLOS,VV,omni,12.0,\n"
        "R3,28.0,NLOS,VH,omni,50.0,\n")


def test_a_bad_record_comes_after_the_build_warnings_before_it(tmp_path):
    """As when every record was built before any was synthesized: the records before a
    bad one print their build warnings, and none of the omni step's."""
    loud = [1e-06, 2e-07, 0.0]
    remeasured = [{"sweep_id": s, "pol": "VV", "entries": [_entry(0.0, 0.0, loud)]}
                  for s in ("M1", "M2")]
    records = [{"location_id": location_id, "band_ghz": 28.0, "env": "NLOS",
                "distance_m": distance_m, "sweeps": remeasured}
               for location_id, distance_m in (("R0", 60.0), ("R1", 10.0), (5, 10.0))]
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    res = CliRunner().invoke(main, ["synthesize-omni", str(path)])
    assert res.exit_code == EXIT_PARSE
    assert res.stderr == ("warning: distance 60.0 m lies outside the measured span [3.9, 45.9] "
                          "m; models extrapolate here\n"
                          "error: record[2]: location_id must be a string, got 5\n")


def test_exceptions_outside_the_table_propagate(monkeypatch):
    def broken(text, each=None):
        raise KeyError("a bug")

    monkeypatch.setattr(fileio, "parse_pdp_batch", broken)
    res = CliRunner().invoke(main, ["pdp-stats", str(DATA / "pdp_examples.json")])
    assert isinstance(res.exception, KeyError)
    assert res.exit_code == 1


def test_error_filters_still_apply_inside_commands(monkeypatch):
    """The boundary makes only the package's own warnings "always"; an "error"
    filter for any other category still raises inside a command."""
    def noisy(text, each=None):
        warnings.warn("from numpy, say", RuntimeWarning)
        return []

    monkeypatch.setattr(fileio, "parse_pdp_batch", noisy)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = CliRunner().invoke(main, ["pdp-stats", str(DATA / "pdp_examples.json")])
    assert isinstance(res.exception, RuntimeWarning)


@pytest.mark.parametrize("enabled", [True, False])
def test_commands_run_with_the_collector_paused(monkeypatch, tmp_path, enabled):
    seen = []

    def write(path, text):
        seen.append(gc.isenabled())

    monkeypatch.setattr(fileio, "atomic_write", write)
    (gc.enable if enabled else gc.disable)()
    try:
        res = CliRunner().invoke(main, ["pdp-stats", str(DATA / "pdp_examples.json"),
                                        "--csv-out", str(tmp_path / "ds.csv")])
        assert res.exit_code == 0, res.output
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
