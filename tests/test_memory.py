"""Transient memory at the I/O boundary, by tracemalloc: reading a CSV and writing a
file each hold one bounded slice of the text's bytes at a time, never a whole copy, and
a JSON batch read item by item holds one chunk of its items at a time. The guards at
the end run a command in a child process and bound its peak resident memory."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from mmwindoor.core import (BAND_28GHZ, Directionality, Environment, PathLossSample, Pdp,
                            Polarization)
from mmwindoor.fileio import (PATHLOSS_CSV_HEADER, atomic_write, emit_pathloss_csv,
                              emit_pdp_batch, parse_campaign_records, parse_pathloss_csv,
                              parse_pdp_batch)

SRC = Path(__file__).resolve().parents[1] / "src"


def _traced(call):
    """``call()``'s peak traced memory less what it still holds after, what it still
    holds after, both in bytes, and its result."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current, current, result


def _transient(call):
    """``call()``'s peak traced memory less what it still holds after, in bytes,
    and its result."""
    transient, _, result = _traced(call)
    return transient, result


def test_parsing_a_csv_takes_about_one_copy_of_its_text():
    rows = [PathLossSample(f"L{k}", BAND_28GHZ, Environment.NLOS, Polarization.VV,
                           Directionality.OMNI, 1.0 + k % 450 / 10, 60.0 + k % 397 / 7)
            for k in range(20_000)]
    text = emit_pathloss_csv(rows)
    assert len(text) > 900_000
    transient, parsed = _transient(lambda: parse_pathloss_csv(text))
    assert parsed == rows
    assert transient <= 1.5 * len(text), transient / len(text)


def test_writing_a_file_holds_one_slice_of_its_text(tmp_path):
    text = "x" * (8 << 20)
    target = tmp_path / "big.txt"
    transient, _ = _transient(lambda: atomic_write(target, text))
    assert target.stat().st_size == len(text)
    assert transient < 4 << 20, transient / len(text)


def test_parsing_a_csv_holds_one_bounded_slice_of_its_text():
    rows = "".join(f"L{k},28.0,NLOS,VV,omni,{1.0 + k % 450 / 10!r},{60.0 + k % 397 / 7!r}\n"
                   for k in range(100_000))
    text = f"{PATHLOSS_CSV_HEADER}\n{rows}"
    del rows
    assert len(text) >= 4_000_000
    transient, parsed = _transient(lambda: parse_pathloss_csv(text))
    assert len(parsed) == 100_000
    assert transient <= 0.1 * len(text), transient / len(text)


def test_writing_a_file_holds_one_bounded_slice(tmp_path):
    text = "x" * (8 << 20)
    target = tmp_path / "big.txt"
    transient, _ = _transient(lambda: atomic_write(target, text))
    assert target.stat().st_size == len(text)
    assert transient < 512 << 10, transient


def _powers(rng: random.Random, n: int) -> list[float]:
    """Receiver-noise powers, in mW, written with all their digits as a sounder's are."""
    return [rng.expovariate(1e9) for _ in range(n)]


def _pdp_batch_text(n_profiles: int) -> str:
    rng = random.Random(11)
    return emit_pdp_batch([Pdp(2.5, _powers(rng, 320), 1e-9) for _ in range(n_profiles)])


def _records_text(n_records: int) -> str:
    """Sweep records of 2 polarizations x 12 pointings of 40-bin profiles."""
    rng = random.Random(7)
    return json.dumps([
        {"location_id": f"L{k:04d}", "band_ghz": 28.0, "env": "NLOS", "distance_m": 4.0 + k % 40,
         "sweeps": [{"sweep_id": f"M{s + 1}", "pol": pol, "entries": [
             {"theta_tx_deg": 0.0, "phi_tx_deg": 0.0, "theta_rx_deg": 30.0 * j, "phi_rx_deg": 0.0,
              "pdp": {"bin_spacing_ns": 2.5, "noise_floor_mw": 1e-09,
                      "powers_mw": _powers(rng, 40)}} for j in range(12)]}
             for s, pol in enumerate(("VV", "VH"))]}
        for k in range(n_records)])


@pytest.mark.parametrize("parse, text, step", [
    (parse_pdp_batch, lambda: _pdp_batch_text(600), lambda i, pdp: pdp.powers_mw[0]),
    (parse_campaign_records, lambda: _records_text(160), lambda i, record: record.distance_m),
], ids=["pdp-batch", "sweep-records"])
def test_items_used_as_they_are_built_hold_one_chunk_of_the_batch(parse, text, step):
    text = text()
    assert len(text) >= 4_000_000
    transient, _, values = _traced(lambda: parse(text, each=step))
    assert all(type(v) is float for v in values)
    assert transient <= 0.1 * len(text), transient / len(text)
    _, held, items = _traced(lambda: parse(text))
    assert len(items) == len(values)
    assert held >= len(text), held / len(text)


def _child(code: str, cwd: Path) -> str:
    """The last line a child that runs ``code`` prints."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # -B: the child writes no byte code into the source tree.
    res = subprocess.run([sys.executable, "-B", "-c", code], env={"PYTHONPATH": path},
                         cwd=cwd, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


def _peak_rss_kib(code: str, cwd: Path) -> int:
    """VmHWM of a child that runs ``code``, in KiB."""
    return int(_child(code + (
        "\nwith open('/proc/self/status', encoding='ascii') as fh:"
        "\n    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))"), cwd))


def _has_vmhwm() -> bool:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return any(line.startswith("VmHWM:") for line in fh)
    except OSError:
        return False


@pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM line in /proc/self/status")
def test_synthesize_omni_peak_rss_stays_under_two_and_a_half_inputs(tmp_path):
    """Reading the file holds its text and one block of its bytes, and the records are
    synthesized as they are built, so no decoded batch adds a second copy."""
    path = tmp_path / "records.json"
    path.write_text(_records_text(300), encoding="utf-8")
    size_kib = path.stat().st_size / 1024
    assert size_kib > 7 * 1024
    bare = _peak_rss_kib("import mmwindoor.cli", tmp_path)
    run = _peak_rss_kib(
        "import mmwindoor.cli\n"
        "mmwindoor.cli.main.main(args=['synthesize-omni', 'records.json', '--csv-out', 'omni.csv'],"
        " prog_name='mmwindoor', standalone_mode=False)", tmp_path)
    assert (tmp_path / "omni.csv").exists()
    assert run - bare < 2.5 * size_kib, (run - bare) / size_kib


@pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM line in /proc/self/status")
@pytest.mark.parametrize("command, text", [
    ("synthesize-omni", lambda: _records_text(300)),
    ("pdp-stats", lambda: _pdp_batch_text(1200)),
], ids=["synthesize-omni", "pdp-stats"])
def test_a_json_command_holds_its_text_and_no_bytes_copy(tmp_path, command, text):
    """The file is read a block at a time into its one text, so the peak is that text
    and the parse's working set, well under the text plus the file's whole bytes."""
    path = tmp_path / "input.json"
    path.write_text(text(), encoding="utf-8")
    size_kib = path.stat().st_size / 1024
    assert size_kib > 7 * 1024
    bare = _peak_rss_kib("import mmwindoor.cli", tmp_path)
    run = _peak_rss_kib(
        "import mmwindoor.cli\n"
        f"mmwindoor.cli.main.main(args=[{command!r}, 'input.json', '--csv-out', 'out.csv'],"
        " prog_name='mmwindoor', standalone_mode=False)", tmp_path)
    assert (tmp_path / "out.csv").exists()
    assert run - bare < 1.4 * size_kib, (run - bare) / size_kib


def test_emitting_a_pdp_batch_holds_its_text_once(tmp_path):
    """Each chunk of profiles is laid out and appended to the one text, so no list of
    the whole batch's pieces is held beside it. The call runs cold, in a fresh
    interpreter, as ``simulate`` makes it: CPython grows the text in place only where
    the loop warms up. Below a few dozen chunks the chunk's own working set is most of
    the transient, so the batch stays this large."""
    transient, size = map(int, _child(
        "import random, tracemalloc\n"
        "from mmwindoor.core import Pdp\n"
        "from mmwindoor.fileio import emit_pdp_batch\n"
        "rng = random.Random(5)\n"
        "pdps = [Pdp(2.5, [rng.expovariate(1e9) for _ in range(320)], 1e-9)"
        " for _ in range(1000)]\n"
        "tracemalloc.start()\n"
        "text = emit_pdp_batch(pdps)\n"
        "current, peak = tracemalloc.get_traced_memory()\n"
        "print(peak - current, len(text))", tmp_path).split())
    assert size > 6_000_000
    assert transient < 0.25 * size, transient / size
