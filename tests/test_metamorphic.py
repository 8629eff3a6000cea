"""Inputs that describe the same physics give the same bytes.

Each test runs a command on an input and on a transformed copy of it that
describes the same measurements: records, sweeps and entries in another order,
path-loss rows or profiles in another order, azimuths a full turn away, a
profile padded with empty bins, a batch cut in two, or a path-loss file holding
a second band that a filter drops. The two outputs must match byte for byte.
The fit and the spread summary reduce with ``math.fsum``, which is correctly
rounded, so the order of their terms changes no digit.
"""

import json
import tempfile
from pathlib import Path
from random import Random

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from mmwindoor.cli import main
from mmwindoor.core import (BAND_73GHZ, Directionality, Environment, PathLossSample,
                            Polarization)
from mmwindoor.fileio import emit_pathloss_csv, read_text

SETTINGS = settings(max_examples=20, derandomize=True, database=None, deadline=None)
DATA = Path(__file__).resolve().parents[1] / "src" / "mmwindoor" / "data"


def _run(command: list[str], text: str, *options: str) -> tuple[str, str]:
    """(stdout, what ``--csv-out`` wrote) of ``command`` run on ``text``; the run's
    directory in stdout reads ``<tmp>``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "input", Path(tmp) / "out.csv"
        path.write_text(text, encoding="utf-8")
        res = CliRunner().invoke(main, [*command, str(path), *options, "--csv-out", str(out)])
        assert res.exit_code == 0, res.output
        return res.stdout.replace(tmp, "<tmp>"), out.read_text(encoding="utf-8")


# --------------------------------------------------------------------------- inputs

powers = st.lists(st.sampled_from([0.0, 1e-9, 1e-6, 0.25]) | st.floats(0.0, 1.0),
                  min_size=1, max_size=12)
profiles = st.fixed_dictionaries({
    "bin_spacing_ns": st.sampled_from([1.0, 2.5]),
    "noise_floor_mw": st.sampled_from([0.0, 1e-9, 1e-4]),
    "powers_mw": powers,
})
#: Azimuths at the 0.1 deg a pointing is recorded to; elevations a few steps off boresight.
entries = st.fixed_dictionaries({
    "theta_tx_deg": st.integers(0, 3599).map(lambda k: k / 10),
    "phi_tx_deg": st.sampled_from([-10.0, 0.0, 10.0]),
    "theta_rx_deg": st.integers(0, 3599).map(lambda k: k / 10),
    "phi_rx_deg": st.sampled_from([-10.0, 0.0, 10.0]),
    "pdp": profiles,
})
sweeps = st.fixed_dictionaries({
    "sweep_id": st.sampled_from(["M1", "M2", "M3"]),
    "pol": st.sampled_from(["VV", "VH"]),
    "entries": st.lists(entries, min_size=1, max_size=5),
})


@st.composite
def record_files(draw) -> list[dict]:
    """Sweep records of distinct locations, at either cataloged band."""
    return [{"location_id": f"R{i}", "band_ghz": draw(st.sampled_from([28.0, 73.5])),
             "env": draw(st.sampled_from(["LOS", "NLOS"])),
             "distance_m": draw(st.floats(1.0, 100.0)),
             "sweeps": draw(st.lists(sweeps, min_size=1, max_size=3))}
            for i in range(draw(st.integers(1, 4)))]


def _omni_rows_by_location(text: str) -> dict[str, list[str]]:
    rows: dict[str, list[str]] = {}
    for line in text.splitlines()[1:]:
        rows.setdefault(line.split(",")[0], []).append(line)
    return rows


# --------------------------------------------------------------------------- relations

@SETTINGS
@given(record_files())
def test_record_sweep_and_entry_order_give_the_same_omni_row_per_location(records):
    reversed_ = [{**r, "sweeps": [{**s, "entries": s["entries"][::-1]}
                                  for s in r["sweeps"][::-1]]} for r in records[::-1]]
    _, rows = _run(["synthesize-omni"], json.dumps(records))
    _, reversed_rows = _run(["synthesize-omni"], json.dumps(reversed_))
    assert _omni_rows_by_location(reversed_rows) == _omni_rows_by_location(rows)


@SETTINGS
@given(record_files(), st.randoms(use_true_random=False))
def test_azimuths_a_turn_away_give_the_same_omni_bytes(records, random):
    turned = [{**r, "sweeps": [{**s, "entries": [
        {**e, "theta_tx_deg": e["theta_tx_deg"] + 360.0 * random.choice([-1, 0, 1]),
         "theta_rx_deg": e["theta_rx_deg"] + 360.0 * random.choice([-1, 0, 1])}
        for e in s["entries"]]} for s in r["sweeps"]]} for r in records]
    assert _run(["synthesize-omni"], json.dumps(turned)) == _run(["synthesize-omni"],
                                                                  json.dumps(records))


@SETTINGS
@given(st.lists(st.tuples(profiles, st.integers(0, 4), st.integers(0, 4)), min_size=1,
                max_size=6))
def test_leading_and_trailing_zero_bins_give_the_same_delay_stats(padded):
    batch = [profile for profile, _, _ in padded]
    padded = [{**p, "powers_mw": [0.0] * lead + p["powers_mw"] + [0.0] * trail}
              for p, lead, trail in padded]
    assert _run(["pdp-stats"], json.dumps(padded)) == _run(["pdp-stats"], json.dumps(batch))


def _profile_rows(table: str, offset: int = 0) -> list[str]:
    """The per-profile rows of a delay-stats table, each index moved by ``offset``."""
    rows = [line.split(",", 1) for line in table.splitlines()[1:]]
    return [f"{int(i) + offset},{rest}" for i, rest in rows if i != "summary"]


def _summary(output: str) -> list[str]:
    """The summary lines of a ``pdp-stats`` run: the printed one and the table's row."""
    return [line for line in output.splitlines() if line.startswith("summary")]


@SETTINGS
@given(st.lists(profiles, min_size=20, max_size=60), st.integers(0, 2**32 - 1))
def test_a_batch_in_any_order_gives_the_same_summary_and_rows_permuted_alike(batch, seed):
    order = Random(seed).sample(range(len(batch)), len(batch))
    stdout, table = _run(["pdp-stats"], json.dumps(batch))
    shuffled_stdout, shuffled = _run(["pdp-stats"], json.dumps([batch[k] for k in order]))
    assert _summary(shuffled_stdout + shuffled) == _summary(stdout + table)
    rows = _profile_rows(table)
    assert _profile_rows(shuffled) == [f"{j},{rows[k].split(',', 1)[1]}"
                                       for j, k in enumerate(order)]


@SETTINGS
@given(st.lists(profiles, min_size=2, max_size=8), st.data())
def test_a_batch_cut_in_two_gives_the_same_per_profile_rows_renumbered(batch, data):
    cut = data.draw(st.integers(1, len(batch) - 1))
    _, whole = _run(["pdp-stats"], json.dumps(batch))
    _, head = _run(["pdp-stats"], json.dumps(batch[:cut]))
    _, tail = _run(["pdp-stats"], json.dumps(batch[cut:]))
    assert _profile_rows(head) + _profile_rows(tail, cut) == _profile_rows(whole)


other_band = st.builds(PathLossSample, location_id=st.just("B"), band=st.just(BAND_73GHZ),
                       env=st.sampled_from(list(Environment)),
                       pol=st.sampled_from(list(Polarization)),
                       dir=st.sampled_from(list(Directionality)),
                       distance_m=st.floats(1.0, 100.0), path_loss_db=st.floats(60.0, 180.0))


@settings(SETTINGS, max_examples=10)
@given(st.lists(st.tuples(st.integers(0, 400), other_band), min_size=1, max_size=40))
def test_fit_of_one_band_in_a_two_band_file_gives_the_bytes_of_its_rows_alone(inserted):
    header, *rows = read_text(str(DATA / "campaign_28ghz_nlos_vv_omni.csv")).splitlines()
    rows = rows[:400]
    mixed = list(rows)
    for at, sample in sorted(inserted, key=lambda pair: -pair[0]):
        mixed.insert(at, emit_pathloss_csv([sample]).splitlines()[1])
    one = "\n".join([header, *rows, ""])
    two = "\n".join([header, *mixed, ""])
    assert _run(["fit"], two, "--band-ghz", "28") == _run(["fit"], one)


@settings(SETTINGS, max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_path_loss_rows_in_any_order_give_the_same_fit_bytes(seed):
    header, *rows = read_text(str(DATA / "campaign_28ghz_nlos_vv_omni.csv")).splitlines()
    shuffled = Random(seed).sample(rows, len(rows))
    assert (_run(["fit"], "\n".join([header, *shuffled, ""]))
            == _run(["fit"], "\n".join([header, *rows, ""])))
