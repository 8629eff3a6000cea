"""Commands that draw or reduce no arrays never load numpy, commands that
decode no batch and write no column of floats never load orjson, and a bare
``import mmwindoor`` loads no submodule.

``catalog``, ``synthesize-omni``, ``report`` without ``--spreads``, ``--help``
and every flag error use scalar math only, so importing numpy would be most
of their start-up time. The test process has both loaded already, so each
case runs in a child process whose environment holds only ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = resources.files("mmwindoor") / "data"

#: The modules a child reports on unless told others, in the order it prints them.
_WATCHED = ("numpy", "orjson")
#: Runs ``CODE``, then prints which of the watched modules are loaded as the last line of stdout.
_CHILD = """
import sys
try:
{code}
except SystemExit as exc:
    code = exc.code
else:
    code = 0
print()
print(*(name in sys.modules for name in {watched!r}), code)
"""


def _run(code: str, cwd: Path, watched: tuple[str, ...] = _WATCHED) -> tuple[set[str], int]:
    """Which of ``watched`` the child running ``code`` loaded, and its exit code."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = _CHILD.format(code="\n".join("    " + line for line in code.splitlines()),
                          watched=watched)
    # -B: the child writes no byte code into the source tree.
    res = subprocess.run([sys.executable, "-B", "-c", child], env={"PYTHONPATH": path}, cwd=cwd,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    *loaded, exit_code = res.stdout.splitlines()[-1].split()
    return {name for name, flag in zip(watched, loaded) if flag == "True"}, int(exit_code)


def _cli(*args: str) -> str:
    return f"import mmwindoor.cli\nsys.argv = ['mmwindoor', *{list(args)!r}]\nmmwindoor.cli.main()"


@pytest.mark.parametrize("code, exit_code", [
    ("import mmwindoor", 0),
    ("import mmwindoor.cli", 0),
    (_cli("catalog"), 0),
    (_cli("catalog", "--full"), 0),
    (_cli("synthesize-omni", str(DATA / "sweep_records_28ghz.json")), 0),
    (_cli("report"), 0),
    (_cli("--help"), 0),
    (_cli("catalog", "--no-such-flag"), 2),
    (_cli("--d0-m", "0", "catalog"), 3),
], ids=["import", "import-cli", "catalog", "catalog-full", "synthesize-omni", "report",
        "help", "bad-flag", "bad-flag-value"])
def test_numpy_is_not_loaded(code, exit_code, tmp_path):
    loaded, got = _run(code, tmp_path)
    assert "numpy" not in loaded and got == exit_code


@pytest.mark.parametrize("code", [
    _cli("fit", str(DATA / "campaign_28ghz_nlos_vv_omni.csv")),
    _cli("pdp-stats", str(DATA / "pdp_examples.json")),
], ids=["fit", "pdp-stats"])
def test_commands_that_reduce_arrays_load_numpy(code, tmp_path):
    """The check above can see numpy: a command that needs it loads it."""
    loaded, got = _run(code, tmp_path)
    assert "numpy" in loaded and got == 0


@pytest.mark.parametrize("code, loaded", [
    ("import mmwindoor.cli", set()),
    (_cli("catalog"), set()),
    (_cli("--help"), set()),
    (_cli("report"), set()),
    (_cli("fit", str(DATA / "campaign_28ghz_nlos_vv_omni.csv"), "--csv-out", "fit.csv"),
     {"numpy"}),
], ids=["import-cli", "catalog", "help", "report", "fit"])
def test_orjson_is_not_loaded(code, loaded, tmp_path):
    """These commands decode no PDP batch or sweep record and write floats one at a time."""
    assert _run(code, tmp_path) == (loaded, 0)


def test_a_command_that_writes_a_float_column_loads_orjson(tmp_path):
    """The check above can see orjson: ``report --spreads`` writes its CDF through it."""
    (tmp_path / "spreads.txt").write_text("1.0\n2.0\n")
    assert "orjson" in _run(_cli("report", "--spreads", "spreads.txt"), tmp_path)[0]


def test_a_bare_import_loads_no_submodule(tmp_path):
    """The package root holds only ``__version__``: each name is imported from its module."""
    submodules = ("mmwindoor.core", "mmwindoor.fileio", "mmwindoor.simulate")
    assert _run("import mmwindoor", tmp_path, submodules) == (set(), 0)
