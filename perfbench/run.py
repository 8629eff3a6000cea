"""mmwindoor benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Generates the workload's inputs from the seed, then runs the real CLI on
them in a fresh child process per invocation, one at a time (a closed loop
with one client; ``simulate --workers`` stays unset, so every command runs
serially). The first invocation warms the byte-code cache and is checked in
full against the workload's reference; every later one must reproduce its
output bytes. With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
invocations and reports the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCHER = HERE / "launcher.py"
INVOCATION_TIMEOUT_S = 30.0
MIN_SAMPLES = 3
#: Past the measuring time, the run stops collecting its minimum samples here,
#: so that hung invocations cannot keep it from exiting within three minutes.
OVERRUN_LIMIT_S = 60.0


#: Duration of speed_probe() on the reference host (2-core Xeon VM at 2.1 GHz,
#: Python 3.11.7) in its fast state.
REFERENCE_PROBE_S = 0.06


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    Shared hosts change speed by up to 1.7x within seconds and drift over
    minutes, and a child's CPU time follows its wall time, so the slowdown
    is the CPU's. Times are scaled to the reference speed by the mean of the
    probes taken just before and just after each invocation, while no child
    runs. The probe shares no code with the program under test.
    """
    start = time.monotonic()
    x = 0
    for k in range(1_500_000):
        x += k
    return time.monotonic() - start


@dataclass
class Invocation:
    wall_s: float
    probe_s: float = REFERENCE_PROBE_S  # speed_probe() around this invocation
    setup_s: float | None = None
    main_s: float | None = None
    peak_rss_mb: float | None = None
    digest: str | None = None
    record: dict | None = None
    problems: list | None = None


def invoke(case, work: Path, trace: bool, full_check: bool) -> Invocation:
    """Run one CLI invocation in a child process and check what it wrote."""
    out = work / "out"  # one path for every invocation: the CLI echoes it to stdout
    out.mkdir()
    result, stdout, stderr = work / "result.json", work / "stdout", work / "stderr"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(LAUNCHER), str(result), str(SRC), "1" if trace else "0", "--",
            *(a.format(out=out) for a in case.argv)]
    env = {k: v for k, v in os.environ.items() if k != "MMWINDOOR_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(SRC)
    with open(stdout, "wb") as so, open(stderr, "wb") as se:
        spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=out)
        # wait(timeout=...) polls every 50 ms, which would quantize the wall
        # time; block in waitpid instead and let a timer kill a hung child.
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        code = proc.wait()
        wall = time.monotonic() - spawn
        timed_out = not killer.is_alive()
        killer.cancel()
        killer.join()
    if timed_out:
        shutil.rmtree(out)
        return Invocation(wall, problems=["timed out"])
    try:
        record = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        shutil.rmtree(out)
        tail = stderr.read_text(errors="replace")[-2000:]
        return Invocation(wall, problems=[f"exit code {code}, no result record: {tail}"])
    inv = Invocation(
        wall_s=wall,
        setup_s=record["ready_monotonic"] - spawn,
        main_s=record["main_s"],
        peak_rss_mb=record["peak_rss_kib"] / 1024.0,
        record=record,
        problems=[] if code == 0 else [f"exit code {code}"],
    )
    digest = hashlib.sha256()
    for name, path in [(p.name, p) for p in sorted(out.iterdir())] + [("<stdout>", stdout)]:
        digest.update(name.encode() + b"\0" + path.read_bytes())
    inv.digest = digest.hexdigest()
    if full_check and code == 0:
        try:
            inv.problems += case.check(out)
        except (LookupError, ValueError, TypeError) as exc:  # malformed output
            inv.problems.append(f"output check: {exc!r}")
    shutil.rmtree(out)
    return inv


def coverage_problems(case, trace: dict) -> list[str]:
    """Traced counts must equal the counts the generated input implies."""
    problems = []
    functions, counters = trace["functions"], trace["counters"]
    for name, want in case.expected.items():
        if name.endswith(".calls"):
            got = functions.get(name[: -len(".calls")], {}).get("calls")
        else:
            got = counters.get(name)
        if got != want:
            problems.append(f"trace coverage: {name} = {got}, generated input implies {want}")
    self_sum = sum(f["self_s"] for f in functions.values()) + trace["cli_self_s"]
    if abs(self_sum - trace["wall_s"]) > 1e-6 * trace["wall_s"] or trace["cli_self_s"] < 0:
        problems.append(f"trace: self times sum to {self_sum}, traced wall is {trace['wall_s']}")
    return problems


def layer_values(traces: list[dict], untraced_main: list[float]) -> dict[str, float]:
    """Per-invocation means of every traced quantity, keyed by metric name."""
    totals: dict[str, float] = dict.fromkeys((f"{layer}.self_s" for layer in LAYERS), 0.0)
    for t in traces:
        for name, f in t["functions"].items():
            layer = name.split(".")[0]
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + f["calls"]
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + f["self_s"]
            totals[f"{layer}.self_s"] += f["self_s"]
        for name, v in t["counters"].items():
            totals[name] = totals.get(name, 0) + v
        totals["cli.self_s"] = totals.get("cli.self_s", 0.0) + t["cli_self_s"]
    values = {name: total / len(traces) for name, total in totals.items()}
    values["pdp.kept_ratio"] = (totals["pdp.bins_kept"] / totals["pdp.bins_in"]
                                if totals["pdp.bins_in"] else 0.0)
    traced_wall = [t["wall_s"] for t in traces]
    values["traced_wall_s"] = statistics.fmean(traced_wall)
    values["trace_overhead_frac"] = statistics.median(traced_wall) / statistics.median(untraced_main) - 1.0
    return values


def provenance(first: Invocation, case, args) -> dict:
    files = sorted((SRC / "mmwindoor").rglob("*"))
    tree = hashlib.sha256()
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    rec = first.record or {}
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "items": case.items, "inputs": case.sizes,
        "git_sha": _git_sha(), "src_sha256": tree.hexdigest(),
        "mmwindoor_file": rec.get("mmwindoor_file"), "python": rec.get("python"),
        "numpy": rec.get("numpy"), "click": rec.get("click"), "nproc": os.cpu_count(),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; an exported tree has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args, work: Path) -> tuple[dict, dict]:
    case = WORKLOADS[args.workload](work, args.seed, args.size)
    deadline = time.monotonic() + args.seconds
    first = invoke(case, work, trace=False, full_check=True)
    timed: list[Invocation] = []
    traces: list[dict] = []
    untraced_main: list[float] = []
    probe = speed_probe()
    min_samples = 2 * MIN_SAMPLES if args.trace else MIN_SAMPLES
    while time.monotonic() < deadline or (
        len(timed) < min_samples and time.monotonic() < deadline + OVERRUN_LIMIT_S
    ):
        traced = bool(args.trace) and len(timed) % 2 == 1
        inv = invoke(case, work, trace=traced, full_check=first.digest is None)
        after = speed_probe()
        inv.probe_s, probe = (probe + after) / 2.0, after
        if not inv.problems and inv.digest != first.digest:
            inv.problems.append("outputs differ from the run's first invocation")
        if traced and inv.record:
            inv.problems += coverage_problems(case, inv.record["trace"])
            traces.append(inv.record["trace"])
        elif inv.main_s is not None:
            untraced_main.append(inv.main_s)
        timed.append(inv)

    failed = [inv for inv in [first, *timed] if inv.problems]
    for inv in failed[:5]:
        print("; ".join(inv.problems[:5]), file=sys.stderr)
    ok = [inv for inv in timed if not inv.problems]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = provenance(first, case, args)
    info["samples"] = len(traces) if args.trace else len(ok)
    metrics = {}
    if args.trace and traces and untraced_main:
        values = layer_values(traces, untraced_main)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    elif not args.trace and ok:
        scale = [REFERENCE_PROBE_S / i.probe_s for i in ok]
        walls = [i.wall_s * f for i, f in zip(ok, scale)]
        values = {
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(case.items / w for w in walls),
            "setup_s": statistics.median(i.setup_s * f for i, f in zip(ok, scale)),
            "peak_rss_mb": statistics.median(i.peak_rss_mb for i in ok),
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        info["unscaled"] = {
            "wall_s": [i.wall_s for i in ok],
            "setup_s": [i.setup_s for i in ok],
            "probe_s": [i.probe_s for i in ok],
        }
    result = {
        "correct": not failed and bool(metrics),
        "attempted": 1 + len(timed),
        "failed": len(failed),
        "metrics": metrics,
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "mmwindoor" / "cli.py").is_file():
        print(f"error: no mmwindoor sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        info, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
