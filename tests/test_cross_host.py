"""Output bytes do not depend on the host's BLAS kernels.

OpenBLAS picks its kernels for the CPU it runs on, and kernels may add the terms
of a dot product in different orders, so a reduction through BLAS can print other
digits on another host. The same commands on the bundled data run in two child
processes: one with the default environment, one with
``OPENBLAS_CORETYPE=Prescott``, which makes numpy's OpenBLAS use the kernels of
an old x86 core. The variable is set in that child's environment only: OpenBLAS
reads it once, when numpy is first imported. Both runs must print and write the
same bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = resources.files("mmwindoor") / "data"

#: The commands whose outputs go through a reduction, run in this order.
COMMANDS = [
    ["fit", str(DATA / "campaign_28ghz_nlos_vv_omni.csv"), "--csv-out", "fit.csv"],
    ["pdp-stats", str(DATA / "pdp_examples.json"), "--csv-out", "delay_stats.csv"],
    ["simulate", str(DATA / "config_28ghz_nlos_vv_omni.json"), "-o", "sim"],
]


def _outputs(workdir: Path, env: dict[str, str]) -> dict[str, bytes]:
    """What each command prints, by command, and every file the commands write, by path."""
    workdir.mkdir()
    outputs = {}
    for args in COMMANDS:
        # -B: the child writes no byte code into the source tree.
        res = subprocess.run([sys.executable, "-B", "-m", "mmwindoor.cli", *args], cwd=workdir,
                             env=env, capture_output=True, timeout=120)
        assert res.returncode == 0, res.stderr.decode()
        outputs[args[0]] = res.stdout
    outputs.update({p.relative_to(workdir).as_posix(): p.read_bytes()
                    for p in sorted(workdir.rglob("*")) if p.is_file()})
    return outputs


def test_another_openblas_core_gives_the_same_bytes(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    default = _outputs(tmp_path / "default", env)
    prescott = _outputs(tmp_path / "prescott", {**env, "OPENBLAS_CORETYPE": "Prescott"})
    assert sorted(prescott) == sorted(default)
    assert [name for name in default if prescott[name] != default[name]] == []
