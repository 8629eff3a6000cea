import itertools
import json
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from mmwindoor import core
from mmwindoor.cli import EXIT_EMPTY, EXIT_PARSE, EXIT_VALIDATION, _spread_target_for_stem, main
from mmwindoor.fileio import DELAY_STATS_CSV_HEADER


@pytest.fixture
def runner():
    return CliRunner()


def bundled_path(name: str) -> str:
    return str(resources.files("mmwindoor") / "data" / name)


GOLDEN_PATH = Path(__file__).parent / "data" / "catalog_golden.json"


class TestCatalog:
    def test_default_dump_is_model_rows(self, runner):
        res = runner.invoke(main, ["catalog"])
        assert res.exit_code == 0
        rows = json.loads(res.output)
        assert len(rows) == 20
        assert rows[0].keys() == {"band_ghz", "env", "pol", "dir", "ple", "sigma_db", "d0_m"}

    def test_full_dump_matches_golden(self, runner, tmp_path):
        out = tmp_path / "catalog.json"
        res = runner.invoke(main, ["catalog", "--full", "-o", str(out)])
        assert res.exit_code == 0
        assert out.read_text() == GOLDEN_PATH.read_text()


class TestFit:
    def test_bundled_campaign_recovers_catalog(self, runner, tmp_path):
        out = tmp_path / "fits.csv"
        res = runner.invoke(
            main, ["fit", bundled_path("campaign_28ghz_nlos_vv_omni.csv"), "--csv-out", str(out)]
        )
        assert res.exit_code == 0, res.output
        row = out.read_text().splitlines()[1].split(",")
        assert abs(float(row[4]) - 2.7) <= 0.05
        assert abs(float(row[5]) - 9.6) <= 0.3

    def test_empty_file(self, runner, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        res = runner.invoke(main, ["fit", str(empty)])
        assert res.exit_code == EXIT_EMPTY
        assert "no samples" in res.stderr

    def test_header_only_file(self, runner, tmp_path):
        f = tmp_path / "header.csv"
        f.write_text("location_id,band_ghz,env,pol,dir,distance_m,path_loss_db\n")
        res = runner.invoke(main, ["fit", str(f)])
        assert res.exit_code == EXIT_EMPTY
        assert "no samples" in res.stderr

    def test_malformed_row_named(self, runner, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text(
            "location_id,band_ghz,env,pol,dir,distance_m,path_loss_db\n"
            "a,28.0,NLOS,VV,omni,10.0,90.0\n"
            "b,28.0,NLOS,VV,omni,oops,90.0\n"
        )
        res = runner.invoke(main, ["fit", str(f)])
        assert res.exit_code == EXIT_PARSE
        assert "line 3" in res.stderr

    def test_multiple_strata_fit_separately(self, runner, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text(
            "location_id,band_ghz,env,pol,dir,distance_m,path_loss_db\n"
            "a,28.0,NLOS,VV,omni,10.0,90.0\n"
            "b,28.0,NLOS,VV,omni,40.0,105.0\n"
            "c,73.5,LOS,VV,omni,10.0,83.0\n"
            "d,73.5,LOS,VV,omni,40.0,90.0\n"
        )
        res = runner.invoke(main, ["fit", str(f)])
        assert res.exit_code == 0
        assert "28 GHz" in res.output and "73.5 GHz" in res.output

    def test_stratum_filters(self, runner, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text(
            "location_id,band_ghz,env,pol,dir,distance_m,path_loss_db\n"
            "a,28.0,NLOS,VV,omni,10.0,90.0\n"
            "b,28.0,NLOS,VV,omni,40.0,105.0\n"
            "c,73.5,LOS,VV,omni,10.0,83.0\n"
            "d,73.5,LOS,VV,omni,40.0,90.0\n"
        )
        res = runner.invoke(main, ["fit", str(f), "--band-ghz", "73.5"])
        assert res.exit_code == 0
        assert "73.5 GHz" in res.output and "28 GHz" not in res.output
        res = runner.invoke(main, ["fit", str(f), "--env", "NLOS", "--band-ghz", "73.5"])
        assert res.exit_code == EXIT_EMPTY


class TestPdpStats:
    def test_hand_example_batch(self, runner, tmp_path):
        out = tmp_path / "stats.csv"
        res = runner.invoke(
            main, ["pdp-stats", bundled_path("pdp_examples.json"), "--csv-out", str(out)]
        )
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        rms = [float(line.split(",")[3]) for line in lines[1:4]]
        assert rms[0] == pytest.approx(0.0, abs=1e-12)
        assert rms[1] == pytest.approx(5.0, rel=1e-9)
        assert rms[2] == pytest.approx(14.142, abs=1e-3)
        assert lines[4].startswith("summary,")

    def test_all_zero_pdp_flagged_not_fatal(self, runner, tmp_path):
        f = tmp_path / "zeros.json"
        f.write_text(json.dumps([
            {"bin_spacing_ns": 2.5, "noise_floor_mw": 0.0, "powers_mw": [0.0, 0.0]},
            {"bin_spacing_ns": 2.5, "noise_floor_mw": 0.0, "powers_mw": [1.0]},
        ]))
        out = tmp_path / "stats.csv"
        res = runner.invoke(main, ["pdp-stats", str(f), "--csv-out", str(out)])
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[1] == "no-multipath"
        assert lines[2].split(",")[1] == "ok"

    def test_a_batch_with_no_multipath_has_no_summary(self, runner, tmp_path):
        f = tmp_path / "zeros.json"
        f.write_text(json.dumps([{"bin_spacing_ns": 2.5, "powers_mw": [0.0, 0.0]}] * 2))
        out = tmp_path / "stats.csv"
        res = runner.invoke(main, ["pdp-stats", str(f), "--csv-out", str(out)])
        assert res.exit_code == 0, res.output
        assert res.stdout.endswith(f"summary: no PDP had detectable multipath\nwrote {out}\n")
        assert out.read_text() == (f"{DELAY_STATS_CSV_HEADER}\n0,no-multipath,,,,,,,\n"
                                   "1,no-multipath,,,,,,,\n")

    def test_empty_batch(self, runner, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text("[]")
        res = runner.invoke(main, ["pdp-stats", str(f)])
        assert res.exit_code == EXIT_EMPTY

    def test_threshold_flags_applied(self, runner, tmp_path):
        # second bin sits 8 dB below the peak: survives at the 30 dB default
        # dynamic range, dies when the range is clamped to 5 dB
        f = tmp_path / "peaky.json"
        f.write_text(json.dumps(
            {"bin_spacing_ns": 2.5, "noise_floor_mw": 0.0, "powers_mw": [1.0, 0.0, 0.15]}
        ))
        res_default = runner.invoke(main, ["pdp-stats", str(f)])
        assert res_default.exit_code == 0
        assert "0.000" not in res_default.output.splitlines()[1]
        res_tight = runner.invoke(main, ["--dynamic-range-db", "5", "pdp-stats", str(f)])
        assert res_tight.exit_code == 0
        assert res_tight.output.splitlines()[1].split()[3] == "0.000"


class TestSynthesizeOmni:
    def test_bundled_single_angle_is_54db(self, runner):
        res = runner.invoke(main, ["synthesize-omni", bundled_path("sweep_records_28ghz.json")])
        assert res.exit_code == 0, res.output
        rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
        l01 = next(r for r in rows if r[0] == "L01")
        assert float(l01[6]) == pytest.approx(54.0, abs=1e-9)

    def test_duplicate_angle_warning(self, runner, tmp_path):
        record = {
            "location_id": "D1", "band_ghz": 28.0, "env": "LOS", "distance_m": 10.0,
            "sweeps": [
                {"sweep_id": "M1", "pol": "VV", "entries": [
                    {"theta_tx_deg": 0.0, "phi_tx_deg": 0.0, "theta_rx_deg": 0.0,
                     "phi_rx_deg": 0.0,
                     "pdp": {"bin_spacing_ns": 2.5, "noise_floor_mw": 0.0, "powers_mw": [0.3]}}]},
                {"sweep_id": "M7", "pol": "VV", "entries": [
                    {"theta_tx_deg": 0.0, "phi_tx_deg": 0.0, "theta_rx_deg": 0.0,
                     "phi_rx_deg": 0.0,
                     "pdp": {"bin_spacing_ns": 2.5, "noise_floor_mw": 0.0, "powers_mw": [0.3]}}]},
            ],
        }
        f = tmp_path / "dup.json"
        f.write_text(json.dumps(record))
        res = runner.invoke(main, ["synthesize-omni", str(f)])
        assert res.exit_code == 0
        assert "re-measured" in res.stderr
        # counted once: PL = 24 + 30 - 10*log10(0.3)
        pl = float(res.stdout.splitlines()[1].split(",")[6])
        assert pl == pytest.approx(54.0 - 10.0 * __import__("math").log10(0.3), abs=1e-9)

    def test_sub_hpbw_spacing_warning(self, runner, tmp_path):
        record = {
            "location_id": "S1", "band_ghz": 28.0, "env": "LOS", "distance_m": 10.0,
            "sweeps": [
                {"sweep_id": "M1", "pol": "VV", "entries": [
                    {"theta_tx_deg": 0.0, "phi_tx_deg": 0.0, "theta_rx_deg": 15.0 * k,
                     "phi_rx_deg": 0.0,
                     "pdp": {"bin_spacing_ns": 2.5, "noise_floor_mw": 0.0, "powers_mw": [0.1]}}
                    for k in range(3)
                ]},
            ],
        }
        f = tmp_path / "tight.json"
        f.write_text(json.dumps(record))
        res = runner.invoke(main, ["synthesize-omni", str(f)])
        assert res.exit_code == 0
        assert "beamwidth" in res.stderr

    def test_zero_power_becomes_outage_row(self, runner, tmp_path):
        record = {
            "location_id": "Z1", "band_ghz": 28.0, "env": "NLOS", "distance_m": 30.0,
            "sweeps": [
                {"sweep_id": "M1", "pol": "VV", "entries": [
                    {"theta_tx_deg": 0.0, "phi_tx_deg": 0.0, "theta_rx_deg": 0.0,
                     "phi_rx_deg": 0.0,
                     "pdp": {"bin_spacing_ns": 2.5, "noise_floor_mw": 0.0,
                             "powers_mw": [0.0, 0.0]}}]},
            ],
        }
        f = tmp_path / "outage.json"
        f.write_text(json.dumps(record))
        res = runner.invoke(main, ["synthesize-omni", str(f)])
        assert res.exit_code == 0
        line = res.stdout.splitlines()[1]
        assert line.startswith("Z1,") and line.endswith(",")
        assert "outage" in res.stderr


class TestSimulate:
    def test_seed42_byte_identical_runs(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "band_ghz": 28.0, "env": "NLOS", "pol": "VV", "dir": "omni",
            "n_locations": 300, "seed": 42,
        }))
        outputs = []
        for run_dir in ("a", "b"):
            d = tmp_path / run_dir
            res = runner.invoke(main, ["simulate", str(cfg), "-o", str(d)])
            assert res.exit_code == 0, res.output
            outputs.append((d / "campaign.csv").read_bytes() + (d / "fitback.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_parallel_matches_serial(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "band_ghz": 73.5, "env": "LOS", "pol": "VH", "dir": "omni",
            "n_locations": 200, "seed": 9,
        }))
        serial_dir, par_dir = tmp_path / "s", tmp_path / "p"
        assert runner.invoke(main, ["simulate", str(cfg), "-o", str(serial_dir)]).exit_code == 0
        assert runner.invoke(
            main, ["simulate", str(cfg), "-o", str(par_dir), "--workers", "8"]
        ).exit_code == 0
        assert (serial_dir / "campaign.csv").read_bytes() == (par_dir / "campaign.csv").read_bytes()

    def test_fitback_delta_small_at_10k(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "band_ghz": 28.0, "env": "NLOS", "pol": "VV", "dir": "omni",
            "n_locations": 10_000, "seed": 42,
        }))
        d = tmp_path / "out"
        res = runner.invoke(main, ["simulate", str(cfg), "-o", str(d)])
        assert res.exit_code == 0
        fitback = json.loads((d / "fitback.json").read_text())
        assert abs(fitback["delta"]["ple"]) <= 0.05
        assert abs(fitback["delta"]["sigma_db"]) <= 0.3

    def test_invalid_config_field_diagnostic(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "band_ghz": 28.0, "env": "NLOS", "pol": "VV", "dir": "omni",
            "n_locations": 0,
        }))
        res = runner.invoke(main, ["simulate", str(cfg)])
        assert res.exit_code == EXIT_VALIDATION
        assert "n_locations" in res.stderr

    def test_bad_json_is_parse_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        res = runner.invoke(main, ["simulate", str(cfg)])
        assert res.exit_code == EXIT_PARSE

    def test_pdp_outputs_when_synthesis_configured(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "band_ghz": 28.0, "env": "NLOS", "pol": "VV", "dir": "omni",
            "n_locations": 50, "seed": 1,
            "pdp_synthesis": {"tap_count_range": [1, 6]},
        }))
        d = tmp_path / "out"
        res = runner.invoke(main, ["simulate", str(cfg), "-o", str(d)])
        assert res.exit_code == 0
        assert (d / "pdps.json").exists()
        assert (d / "delay_stats.csv").exists()

    def test_global_seed_overrides_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "band_ghz": 28.0, "env": "NLOS", "pol": "VV", "dir": "omni",
            "n_locations": 20, "seed": 1,
        }))
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        runner.invoke(main, ["--seed", "5", "simulate", str(cfg), "-o", str(d1)])
        cfg.write_text(json.dumps({
            "band_ghz": 28.0, "env": "NLOS", "pol": "VV", "dir": "omni",
            "n_locations": 20, "seed": 5,
        }))
        runner.invoke(main, ["simulate", str(cfg), "-o", str(d2)])
        assert (d1 / "campaign.csv").read_bytes() == (d2 / "campaign.csv").read_bytes()


class TestReport:
    def test_catalog_only_deltas_zero(self, runner):
        res = runner.invoke(main, ["report"])
        assert res.exit_code == 0
        delta_cells = [
            part for line in res.output.splitlines()
            if line.strip().startswith(("LOS", "NLOS"))
            for part in line.split()[-2:]
        ]
        assert delta_cells and all(float(c) == 0.0 for c in delta_cells)
        assert "22.0 dB" in res.output and "14.0 dB" in res.output

    def test_spread_values_p90(self, runner, tmp_path):
        f = tmp_path / "spreads.txt"
        f.write_text("".join(f"{v}\n" for v in range(1, 11)))
        res = runner.invoke(main, ["report", "--spreads", str(f), "-o", str(tmp_path)])
        assert res.exit_code == 0
        assert "p90 9.000 ns" in res.output
        cdf = (tmp_path / "cdf_spreads.csv").read_text().splitlines()
        assert cdf[0] == "value,cumulative_probability"
        assert cdf[1] == "1.0,0.1"
        assert cdf[10] == "10.0,1.0"

    def test_equal_spreads_summarize(self, runner, tmp_path):
        f = tmp_path / "spreads.txt"
        f.write_text("0.1\n0.1\n0.1\n")
        res = runner.invoke(main, ["report", "--spreads", str(f), "-o", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "n=3, mean 0.100 ns" in res.output

    def test_stratum_labeled_spreads_compared_to_catalog(self, runner, tmp_path):
        f = tmp_path / "28ghz_los_vv.txt"
        f.write_text("4.0\n4.2\n")
        res = runner.invoke(main, ["report", "--spreads", str(f), "-o", str(tmp_path)])
        assert res.exit_code == 0
        assert "catalog target: mean 4.1 ns" in res.output

    @pytest.mark.parametrize("name", ["73ghz_nlos_vh.csv", "73.5ghz_nlos_vh.csv"])
    def test_73ghz_stems_compared_to_the_73_5ghz_catalog(self, runner, tmp_path, name):
        f = tmp_path / name
        f.write_text("10.0\n12.0\n")
        res = runner.invoke(main, ["report", "--spreads", str(f), "-o", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert ("  catalog target: mean 10.3 ns (delta +0.700), std 10.3 ns, max 143.8 ns, "
                "p90 26.0 ns\n") in res.stdout

    @pytest.mark.parametrize("token, band", [
        ("28", core.BAND_28GHZ), ("28ghz", core.BAND_28GHZ),
        ("73", core.BAND_73GHZ), ("73ghz", core.BAND_73GHZ),
        ("73.5", core.BAND_73GHZ), ("73.5ghz", core.BAND_73GHZ),
    ])
    def test_every_stratum_a_stem_can_name_is_cataloged(self, token, band):
        # The stem lookup has no fallback for a stratum the catalog lacks.
        for env, pol in itertools.product(("los", "nlos"), ("vv", "vh")):
            assert _spread_target_for_stem(f"{token}_{env}_{pol}") == core.delay_spread_lookup(
                band, core.Environment(env.upper()), core.Polarization(pol.upper()))

    @pytest.mark.parametrize("twice", [False, True], ids=["same-stem", "same-path"])
    def test_spreads_files_sharing_a_cdf_name_exit_2_before_writing(self, runner, tmp_path,
                                                                   twice):
        a, b = tmp_path / "a" / "28ghz_los_vv.csv", tmp_path / "b" / "28ghz_los_vv.csv"
        for f in (a, b):
            f.parent.mkdir()
            f.write_text("4.0\n4.2\n")
        second = a if twice else b
        out = tmp_path / "out"
        res = runner.invoke(main, ["report", "--spreads", str(a), "--spreads", str(second),
                                   "-o", str(out)])
        assert res.exit_code == EXIT_PARSE
        assert res.stderr == f"error: {a} and {second} would both write cdf_28ghz_los_vv.csv\n"
        assert res.stdout == ""
        assert not out.exists()

    def test_fitted_table_both_bands_sectioned(self, runner, tmp_path):
        fits = tmp_path / "fits.csv"
        fits.write_text(
            "band_ghz,env,pol,dir,ple,sigma_db,d0_m\n"
            "28.0,NLOS,VV,omni,2.72,9.5,1.0\n"
            "73.5,NLOS,VV,omni,3.25,11.1,1.0\n"
        )
        res = runner.invoke(main, ["report", "--fit-csv", str(fits)])
        assert res.exit_code == 0
        assert "[28 GHz]" in res.output and "[73.5 GHz]" in res.output
        assert "+0.020" in res.output  # 2.72 vs 2.7
        assert "+0.050" in res.output  # 3.25 vs 3.2

    def test_missing_strata_left_blank(self, runner, tmp_path):
        fits = tmp_path / "fits.csv"
        fits.write_text(
            "band_ghz,env,pol,dir,ple,sigma_db,d0_m\n"
            "28.0,NLOS,VV,omni,2.72,9.5,1.0\n"
        )
        res = runner.invoke(main, ["report", "--fit-csv", str(fits)])
        assert res.exit_code == 0
        los_line = next(
            line for line in res.output.splitlines()
            if line.strip().startswith("LOS") and " VV " in line and "omni" in line
        )
        assert los_line.rstrip().endswith("1.7")  # catalog cells only, no fitted cells


class TestOutputDir:
    @pytest.mark.parametrize("command, written", [
        ("simulate", ["campaign.csv", "fitback.json"]),
        ("report", ["cdf_spreads.csv"]),
    ])
    def test_o_then_output_dir_then_the_environment(self, runner, tmp_path, monkeypatch,
                                                    command, written):
        inputs = tmp_path / "in"
        inputs.mkdir()
        if command == "simulate":
            cfg = inputs / "cfg.json"
            cfg.write_text(json.dumps({"band_ghz": 28.0, "env": "NLOS", "pol": "VV",
                                       "dir": "omni", "n_locations": 20, "seed": 1}))
            args = ["simulate", str(cfg)]
        else:
            spreads = inputs / "spreads.txt"
            spreads.write_text("1.0\n2.0\n")
            args = ["report", "--spreads", str(spreads)]
        monkeypatch.chdir(tmp_path)  # where the default "." would write
        env = {"MMWINDOOR_OUTPUT_DIR": str(tmp_path / "env")}
        used = ["in"]
        for options, out_dir, where in [
            ([], [], "env"),
            (["--output-dir", str(tmp_path / "opt")], [], "opt"),
            (["--output-dir", str(tmp_path / "opt")], ["-o", str(tmp_path / "o")], "o"),
        ]:
            res = runner.invoke(main, [*options, *args, *out_dir], env=env)
            assert res.exit_code == 0, res.output
            used.append(where)
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(used)
            assert sorted(p.name for p in (tmp_path / where).iterdir()) == sorted(written)


class TestGlobalOptionValidation:
    def test_bad_d0(self, runner):
        res = runner.invoke(main, ["--d0-m", "0", "catalog"])
        assert res.exit_code == EXIT_VALIDATION

    def test_bad_threshold(self, runner):
        res = runner.invoke(main, ["--threshold-db", "-2", "catalog"])
        assert res.exit_code == EXIT_VALIDATION
