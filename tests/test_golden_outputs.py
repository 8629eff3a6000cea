"""Byte-stable outputs: every command on the bundled data gives the recorded bytes.

Each case runs one command in a shared working directory with relative paths
and hashes its exit code, stdout, stderr and every file it writes. The digests
in ``data/golden_outputs.json`` are rewritten, after a deliberate output
change only, with::

    PYTHONPATH=src python tests/test_golden_outputs.py --write

``simulate`` draws from numpy's generators, so the numpy version is recorded
with the digests. Under another numpy major.minor only ``simulate`` and
``report``, which reads the delay-stats table ``simulate`` writes, are skipped;
every other command reduces with ``math`` alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy
import pytest
from click.testing import CliRunner

from mmwindoor.cli import main

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_outputs.json"

#: Bundled inputs, copied into the working directory under these names.
INPUTS = {
    "campaign.csv": "campaign_28ghz_nlos_vv_omni.csv",
    "pdps.json": "pdp_examples.json",
    "records.json": "sweep_records_28ghz.json",
    "config.json": "config_28ghz_nlos_vv_omni.json",
}

#: (name, arguments), run in this order; later cases read earlier outputs.
CASES = [
    ("catalog_full", ["catalog", "--full"]),
    ("fit", ["fit", "campaign.csv", "--csv-out", "fits.csv"]),
    ("pdp_stats", ["pdp-stats", "pdps.json", "--csv-out", "delay_stats_examples.csv"]),
    ("synthesize_omni", ["synthesize-omni", "records.json", "--csv-out", "omni.csv"]),
    ("simulate", ["simulate", "config.json", "-o", "sim"]),
    ("report", ["report", "--fit-csv", "fits.csv", "--spreads", "28ghz_nlos_vv.csv",
                "--spreads", "delay_stats_examples.csv", "-o", "cdf"]),
]
#: The cases whose bytes follow numpy's draws: ``simulate``'s, and ``report``'s, from its table.
DRAWN = {"simulate", "report"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_cases(workdir: Path) -> dict:
    """Digests of every case, run in ``workdir`` (which must be empty)."""
    for name, bundled in INPUTS.items():
        shutil.copyfile(resources.files("mmwindoor") / "data" / bundled, workdir / name)
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, args in CASES:
            if name == "report":  # a stem the delay-spread catalog knows
                shutil.copyfile("sim/delay_stats.csv", "28ghz_nlos_vv.csv")
            before = _files(workdir)
            res = CliRunner().invoke(main, args)
            written = {k: v for k, v in _files(workdir).items() if before.get(k) != v}
            digests[name] = {
                "exit_code": res.exit_code,
                "stdout": _sha(res.stdout_bytes),
                "stderr": _sha(res.stderr_bytes),
                "files": {k: _sha(v) for k, v in written.items()},
            }
    finally:
        os.chdir(cwd)
    return digests


def _major_minor(version: str) -> tuple[str, ...]:
    return tuple(version.split(".")[:2])


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    if GOLDEN is None:
        pytest.skip(f"{GOLDEN_PATH.name} not recorded")
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_outputs_match_recorded_digests(digests, name):
    if name in DRAWN and _major_minor(numpy.__version__) != _major_minor(GOLDEN["numpy"]):
        pytest.skip(f"digests recorded under numpy {GOLDEN['numpy']}, running "
                    f"{numpy.__version__}: simulate's draws may differ")
    assert digests[name] == GOLDEN["cases"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_outputs.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        cases = run_cases(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps({"numpy": numpy.__version__, "cases": cases},
                                      indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
