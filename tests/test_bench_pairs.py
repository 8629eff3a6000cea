"""The pairs runner's summary on canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "items_per_s", "better": "higher"},
           {"name": "setup_s", "better": "lower"}]


def _result(**metrics):
    return {"correct": True, "attempted": 5, "failed": 0,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()}}


def test_summary_counts_wins_by_direction_and_compares_the_gap_with_the_parent_spread():
    walls = [(1.0, 0.8), (1.2, 0.9), (0.9, 0.95), (1.1, 0.85), (1.0, 1.0)]
    pairs = [(_result(wall_s=p, items_per_s=1 / p), _result(wall_s=c, items_per_s=1 / c))
             for p, c in walls]
    wall, items = bench_pairs.summarize(pairs, METRICS)  # no run has setup_s: left out

    assert wall["name"] == "wall_s" and wall["pairs"] == 5
    assert wall["parent"] == pytest.approx((1.0, 1.0, 1.1))  # inclusive quartiles
    assert wall["change"] == pytest.approx((0.85, 0.9, 0.95))
    assert wall["wins"] == 3  # one pair lost, one tied: ties count for neither side
    assert wall["gap"] == pytest.approx(-0.1)
    assert wall["parent_iqr"] == pytest.approx(0.1)
    assert wall["relative"] == pytest.approx(-0.1)

    assert items["name"] == "items_per_s"
    assert items["wins"] == 3  # higher is better: the same pairs win


def test_a_pair_missing_a_metric_is_left_out_of_it():
    pairs = [(_result(wall_s=1.0, setup_s=0.1), _result(wall_s=0.5)),
             (_result(wall_s=2.0, setup_s=0.2), _result(wall_s=1.0, setup_s=0.3))]
    wall, setup = bench_pairs.summarize(pairs, METRICS)
    assert wall["pairs"] == 2 and wall["wins"] == 2
    assert setup["pairs"] == 1 and setup["wins"] == 0
    assert setup["parent"] == (0.2, 0.2, 0.2)
    assert setup["parent_iqr"] == 0.0


def test_the_summary_line_says_whether_the_gap_is_beyond_the_parent_spread():
    pairs = [(_result(wall_s=p), _result(wall_s=c)) for p, c in [(1.0, 0.5), (1.1, 0.6)]]
    line = bench_pairs._format(bench_pairs.summarize(pairs, METRICS[:1])[0])
    assert line.startswith("wall_s: 1.05 [1.025, 1.075] -> 0.55 [0.525, 0.575] (-47.6%), 2/2 won")
    assert "beyond the parent's quartile distance 0.05" in line


def test_the_summary_line_prints_the_metric_bound_beside_the_relative_change():
    pairs = [(_result(wall_s=p), _result(wall_s=c)) for p, c in [(1.0, 1.1), (1.0, 1.2)]]
    metric = {"name": "wall_s", "better": "lower", "bound": 0.25}
    line = bench_pairs._format(bench_pairs.summarize(pairs, [metric])[0])
    assert line.startswith("wall_s: 1 [1, 1] -> 1.15 [1.125, 1.175] (+15.0%, bound 25%), 0/2 won")


SPREAD = [0.6, 0.8, 1.0, 1.2, 1.4] * 2  # inclusive quartiles 0.8 and 1.2: distance 0.4


@pytest.mark.parametrize("walls, verdict", [
    # 9/10 won, gap -0.2 beyond a zero quartile distance.
    ([(1.0, 0.8)] * 9 + [(1.0, 1.1)], "gain"),
    # The same gap on 8/10 won is no gain, and no worse than the bound.
    ([(1.0, 0.8)] * 8 + [(1.0, 1.1)] * 2, "flat"),
    # 10/10 won, but the gap of -0.01 is within the parent's quartile distance.
    ([(p, p - 0.01) for p in [0.9, 0.95, 1.0, 1.05, 1.1] * 2], "flat"),
    # +30 % against a bound of 25 %.
    ([(1.0, 1.3)] * 10, "worse"),
    # Worse than the bound outranks a parent spread wider than it.
    ([(p, p + 0.3) for p in SPREAD], "worse"),
    # The parent's quartile distance, 40 % of its median, exceeds the bound.
    ([(p, p) for p in SPREAD], "unresolved"),
    # A gain outranks a parent spread wider than the bound.
    ([(p, p - 0.5) for p in SPREAD], "gain"),
], ids=["gain", "too-few-wins", "gap-within-spread", "worse", "worse-and-wide",
        "unresolved", "gain-and-wide"])
def test_each_metric_gets_a_verdict(walls, verdict):
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25},
               {"name": "items_per_s", "better": "higher", "bound": 0.25}]
    pairs = [(_result(wall_s=p, items_per_s=1 / p), _result(wall_s=c, items_per_s=1 / c))
             for p, c in walls]
    wall, items = bench_pairs.summarize(pairs, metrics)
    assert wall["verdict"] == verdict
    assert bench_pairs._format(wall).endswith(f"the parent's quartile distance "
                                              f"{wall['parent_iqr']:.4g}: {verdict}")
    if verdict == "gain":  # higher is better: the same pairs win, by a wide gap
        assert items["verdict"] == "gain"


def test_a_metric_without_a_bound_is_gain_or_flat():
    pairs = [(_result(wall_s=p), _result(wall_s=c)) for p, c in [(1.0, 3.0)] * 10]
    (wall,) = bench_pairs.summarize(pairs, METRICS[:1])
    assert wall["verdict"] == "flat"
    pairs = [(_result(wall_s=p), _result(wall_s=c)) for p, c in [(1.0, 0.5)] * 10]
    assert bench_pairs.summarize(pairs, METRICS[:1])[0]["verdict"] == "gain"


def test_each_workload_gets_its_own_pairs_and_summary_and_no_file_is_written(
        tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 3, "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}), encoding="utf-8")
    runs = []

    def run_once(checkout, workload, seed, seconds):  # canned result lines
        runs.append((checkout.name, workload, seed, seconds))
        rss = {"omni_sweeps": 90.0, "pdp_batch": 76.0}[workload]
        return _result(wall_s=0.75 + seed / 100,
                       peak_rss_mb=rss * (0.7 if checkout == change else 1))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert bench_pairs.main([str(parent), str(change), "--workload", "omni_sweeps",
                             "--workload", "pdp_batch", "--pairs", "2", "--seed", "5"]) == 0
    assert sorted(tmp_path.rglob("*")) == before

    assert runs == [(side, workload, seed, 3)
                    for workload in ("omni_sweeps", "pdp_batch")
                    for seed, order in ((5, ("parent", "change")), (6, ("change", "parent")))
                    for side in order]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "pair 1 seed 5 (parent first)", "pair 2 seed 6 (change first)",
        "omni_sweeps, 2 pairs, seeds 5-6, 3 s runs", "wall_s", "peak_rss_mb",
        "pair 1 seed 5 (parent first)", "pair 2 seed 6 (change first)",
        "pdp_batch, 2 pairs, seeds 5-6, 3 s runs", "wall_s", "peak_rss_mb"]
    assert lines[4].startswith(
        "peak_rss_mb: 90 [90, 90] -> 63 [63, 63] (-30.0%, bound 10%), 2/2 won")
    assert lines[9].startswith("peak_rss_mb: 76 [76, 76] -> 53.2 [53.2, 53.2] (-30.0%, bound 10%)")
    assert "(+0.0%, bound 25%), 0/2 won" in lines[3]


def test_out_writes_every_pair_in_run_order_with_provenance_and_the_summaries(
        tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 3, "end_to_end": metrics}),
                                           encoding="utf-8")
    runs = []

    def run_once(checkout, workload, seed, seconds):  # canned provenance and result lines
        side = "change" if checkout == change else "parent"
        result = _result(wall_s=seed / (20 if side == "change" else 10))
        result["provenance"] = {"git_sha": f"{side}-sha", "src_sha256": f"{side}-tree",
                                "python": "3.11.7", "numpy": "2.4.6", "click": "8.4.0",
                                "nproc": 2, "workload": workload, "seed": seed}
        runs.append((side, result))
        return result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_0.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "fit_strata",
                             "--pairs", "3", "--seed", "7", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert bench_pairs.main([str(parent), str(change), "--workload", "fit_strata",
                             "--pairs", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out == printed  # --out prints nothing more

    bench = json.loads(out.read_text(encoding="utf-8"))
    for side in ("parent", "change"):
        assert bench[side] == {"git_sha": f"{side}-sha", "src_sha256": f"{side}-tree",
                               "python": "3.11.7", "numpy": "2.4.6", "click": "8.4.0",
                               "nproc": 2}
    assert bench["seconds"] == 3
    (workload,) = bench["workloads"]
    assert workload["name"] == "fit_strata"
    assert [(p["seed"], p["first"]) for p in workload["pairs"]] == [
        (7, "parent"), (8, "change"), (9, "parent")]
    assert [p["parent"]["metrics"]["wall_s"] for p in workload["pairs"]] == [0.7, 0.8, 0.9]
    assert workload["pairs"][0]["change"] == {"metrics": {"wall_s": 0.35}, "failed": 0,
                                              "attempted": 5}
    sides = [dict(runs[k:k + 2]) for k in range(0, 6, 2)]  # the first main's pairs
    pairs = [(side["parent"], side["change"]) for side in sides]
    assert workload["summaries"] == json.loads(json.dumps(bench_pairs.summarize(pairs, metrics)))


def test_every_committed_bench_file_loads_and_names_both_shas():
    root = Path(__file__).resolve().parents[1]
    for path in sorted(root.glob("BENCH_*.json")):
        bench = json.loads(path.read_text(encoding="utf-8"))
        for side in ("parent", "change"):
            sha = bench[side]["git_sha"]
            assert isinstance(sha, str) and len(sha) == 40 and int(sha, 16) >= 0, (path, side)
        assert bench["workloads"], path
