"""Run the benchmark on two checkouts in alternating pairs and compare their end-to-end metrics.

    python3 tools/bench_pairs.py PARENT CHANGE --workload NAME [--workload NAME ...]
                                 [--pairs 10] [--seed 1] [--seconds S] [--out BENCH.json]

Pair ``i`` runs each checkout's own ``perfbench/run.py --trace 0`` once, at seed
``--seed + i``; the parent runs first in even pairs and the change in odd ones. The
run length defaults to ``run_seconds`` of the change's ``BENCHMARK.json``, and the
metrics, their directions and their bounds come from its ``end_to_end`` list. Each
workload named runs its own pairs, at the same seeds, and gets its own pair list and
summary block, in the order given.

For each metric it prints each side's median and quartiles, the relative change of
the median beside the metric's bound (how much it may worsen), the pairs the change
won (ties count for neither side) and the gap between the medians beside the
parent's quartile distance. Then its verdict, the first that holds of:

- ``gain``: the change won at least nine pairs in ten, and the gap is beyond the
  parent's quartile distance in the better direction;
- ``worse``: the median is worse than the parent's by more than the bound;
- ``unresolved``: the parent's quartile distance exceeds the bound, so a move
  within it cannot be told from the run-to-run spread;
- ``flat``: anything else.

A metric without a bound is ``gain`` or ``flat``. Each benchmark run cleans up its
own work directory, and the tool writes no file but the one ``--out`` names. That
file, a ``BENCH_<pr>.json``, holds each side's git SHA, source tree hash, Python,
numpy and click versions and ``nproc``, from the provenance line before each result
line; per workload every pair in run order, with its seed, the side that ran first
and each side's metrics and failures; and the summaries printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


#: The provenance fields that a BENCH file keeps of each side's runs.
PROVENANCE = ("git_sha", "src_sha256", "python", "numpy", "click", "nproc")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py --trace 0`` run in ``checkout``, with the
    provenance line before it under ``"provenance"``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if len(lines) > 1:
        result["provenance"] = json.loads(lines[-2])["provenance"]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def value(result: dict, name: str) -> float | None:
    """Metric ``name`` of a result line, or None where the run did not report it."""
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One summary per metric over ``pairs`` of (parent, change) result lines.

    A metric is ``{"name", "better"}``, with an optional relative ``"bound"``, as
    BENCHMARK.json declares it; ``better`` is ``"lower"`` or ``"higher"``. A pair whose
    run lacks the metric is left out of it.
    """
    summaries = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = [(value(p, name), value(c, name)) for p, c in pairs]
        values = [(p, c) for p, c in values if p is not None and c is not None]
        if not values:
            continue
        parent = quartiles([p for p, _ in values])
        change = quartiles([c for _, c in values])
        gap = change[1] - parent[1]
        wins = sum(c < p if lower else c > p for p, c in values)
        parent_iqr = parent[2] - parent[0]
        bound = metric.get("bound")
        gain = -gap if lower else gap  # the gap in the better direction: > 0 is a gain
        allowed = None if bound is None else bound * abs(parent[1])  # the worsening allowed
        if 10 * wins >= 9 * len(values) and gain > parent_iqr:
            verdict = "gain"
        elif allowed is not None and -gain > allowed:
            verdict = "worse"
        elif allowed is not None and parent_iqr > allowed:
            verdict = "unresolved"
        else:
            verdict = "flat"
        summaries.append({
            "name": name,
            "pairs": len(values),
            "parent": parent,
            "change": change,
            "wins": wins,
            "gap": gap,
            "parent_iqr": parent_iqr,
            "relative": gap / parent[1] if parent[1] else None,
            "bound": bound,
            "verdict": verdict,
        })
    return summaries


def _format(summary: dict) -> str:
    q1, m, q3 = summary["parent"]
    c1, cm, c3 = summary["change"]
    notes = [] if summary["relative"] is None else [f"{summary['relative']:+.1%}"]
    if summary["bound"] is not None:
        notes.append(f"bound {summary['bound']:.0%}")
    relative = f" ({', '.join(notes)})" if notes else ""
    beyond = "beyond" if abs(summary["gap"]) > summary["parent_iqr"] else "within"
    return (f"{summary['name']}: {m:.6g} [{q1:.6g}, {q3:.6g}] -> {cm:.6g} [{c1:.6g}, {c3:.6g}]"
            f"{relative}, {summary['wins']}/{summary['pairs']} won; gap {summary['gap']:+.4g} "
            f"{beyond} the parent's quartile distance {summary['parent_iqr']:.4g}: "
            f"{summary['verdict']}")


def first_side(i: int) -> str:
    """The side that runs first in pair ``i``: the parent in even pairs, the change in odd."""
    return "change" if i % 2 else "parent"


def run_pairs(parent: Path, change: Path, workload: str, seeds: range, seconds: float,
              metrics: list[dict]) -> list[tuple[dict, dict]]:
    """(parent, change) result lines of one pair per seed, each printed as it ends."""
    pairs = []
    for i, seed in enumerate(seeds):
        sides = {}
        for side in (("parent", "change") if first_side(i) == "parent" else ("change", "parent")):
            sides[side] = run_once(parent if side == "parent" else change, workload, seed, seconds)
        p, c = sides["parent"], sides["change"]
        pairs.append((p, c))
        values = ", ".join(f"{m['name']} {value(p, m['name'])} -> {value(c, m['name'])}"
                           for m in metrics)
        print(f"pair {i + 1} seed {seed} ({next(iter(sides))} first): {values}; failed "
              f"{p['failed']}/{p['attempted']} -> {c['failed']}/{c['attempted']}", flush=True)
    return pairs


def _provenance(results: list[dict]) -> dict:
    """Each ``PROVENANCE`` field of ``results``' provenance: its value where every run
    agrees, else the distinct values in the order seen."""
    side = {}
    for key in PROVENANCE:
        seen = list(dict.fromkeys(r.get("provenance", {}).get(key) for r in results))
        side[key] = seen[0] if len(seen) == 1 else seen
    return side


def bench_record(seconds: float, workloads: list[tuple[str, range, list, list]]) -> dict:
    """The BENCH file of ``workloads``, each (name, seeds, (parent, change) result lines
    in run order, summaries)."""
    def run(result):
        return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
                "failed": result["failed"], "attempted": result["attempted"]}

    every = [pair for _, _, pairs, _ in workloads for pair in pairs]
    return {
        "parent": _provenance([p for p, _ in every]),
        "change": _provenance([c for _, c in every]),
        "seconds": seconds,
        "workloads": [{"name": name, "pairs": [
            {"seed": seed, "first": first_side(i), "parent": run(p), "change": run(c)}
            for i, (seed, (p, c)) in enumerate(zip(seeds, pairs))], "summaries": summaries}
            for name, seeds, pairs, summaries in workloads],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to run; give it once per workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds)")
    parser.add_argument("--out", type=Path, help="write the pairs and summaries to this BENCH file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or benchmark["run_seconds"]
    seeds = range(args.seed, args.seed + args.pairs)

    workloads = []
    for workload in args.workload:
        pairs = run_pairs(args.parent, args.change, workload, seeds, seconds,
                          benchmark["end_to_end"])
        print(f"{workload}, {len(pairs)} pairs, seeds {seeds[0]}-{seeds[-1]}, {seconds:g} s runs")
        summaries = summarize(pairs, benchmark["end_to_end"])
        for summary in summaries:
            print(_format(summary), flush=True)
        workloads.append((workload, seeds, pairs, summaries))
    if args.out:
        record = bench_record(seconds, workloads)
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
