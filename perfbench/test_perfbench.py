"""Self-tests of the benchmark: smoke runs of every workload at tiny size,
the peak-memory source, tracer coverage and the refusal to run without
sources. Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_checks_outputs(workload, trace):
    # The traced run uses a second seed, so two seeds go through every output check.
    proc = _bench("--workload", workload, "--seed", str(1 + trace), "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    info = json.loads(lines[-2])["provenance"]
    assert Path(info["mmwindoor_file"]).is_relative_to(ROOT / "src")
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(values[f"{layer}.self_s"] for layer in run.LAYERS) + values["cli.self_s"]
        assert layers == pytest.approx(values["traced_wall_s"], rel=1e-6)


def test_peak_rss_is_the_childs_own(tmp_path):
    """A driver holding a large heap must not leak its size into the child's figure."""
    ballast = bytearray(b"\x01") * (300 << 20)  # written, so resident
    probe = subprocess.Popen([sys.executable, "-c", "pass"])
    inherited_mib = os.wait4(probe.pid, 0)[2].ru_maxrss / 1024
    case = workloads.fit_strata(tmp_path, 1, "tiny")
    inv = run.invoke(case, tmp_path, trace=False, full_check=True)
    del ballast
    assert not inv.problems
    assert inv.peak_rss_mb < 150
    if inherited_mib < 250:
        pytest.skip(f"this kernel does not inherit ru_maxrss ({inherited_mib:.0f} MiB)")


def _load_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mmwindoor.cli as cli
    finally:
        sys.path.pop(0)
    return cli


def test_tracer_wraps_every_binding():
    cli = _load_package()
    from mmwindoor import core, omni, pathloss, pdp, simulate

    originals = (pdp.threshold_pdp, omni.threshold_pdp, simulate.sample_path_loss_db)
    tracer = Tracer()
    tracer.install()
    try:
        assert omni.threshold_pdp is pdp.threshold_pdp is not originals[0]
        assert omni.integrate_power_mw is pdp.integrate_power_mw
        assert simulate.sample_path_loss_db is pathloss.sample_path_loss_db is not originals[2]
        assert cli.pdp.threshold_pdp is pdp.threshold_pdp
        assert hasattr(core.Pdp.__init__, "__wrapped__")
    finally:
        tracer.uninstall()
    assert (pdp.threshold_pdp, omni.threshold_pdp, simulate.sample_path_loss_db) == originals
    assert not hasattr(core.Pdp.__init__, "__wrapped__")


def test_coverage_check_catches_a_missed_binding(tmp_path):
    """Unwrapping one by-name import must fail the coverage check, not shift time silently."""
    cli = _load_package()
    from mmwindoor import omni

    case = workloads.omni_sweeps(tmp_path, 3, "tiny")
    out = tmp_path / "out"
    tracer = Tracer()
    tracer.install()
    try:
        omni.threshold_pdp = omni.threshold_pdp.__wrapped__
        with pytest.raises(SystemExit) as exit_info:
            cli.main.main(args=[a.format(out=out) for a in case.argv], prog_name="mmwindoor")
    finally:
        tracer.uninstall()
    assert exit_info.value.code == 0
    assert case.check(out) == []
    problems = run.coverage_problems(case, tracer.report(1.0))
    assert any("pdp.threshold_pdp.calls" in p for p in problems), problems


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fit_strata", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
