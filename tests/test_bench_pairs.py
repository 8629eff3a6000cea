"""The pairs runner's summary on canned benchmark result lines."""

import importlib.util
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
