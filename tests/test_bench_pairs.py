"""The summary of ``tools/bench_pairs.py`` on synthetic run records."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"items_per_s": "higher", "item_p50_ms": "lower", "setup_s": "lower"}


def record(items_per_s, p50, failed=0):
    return {"correct": failed == 0, "attempted": 40, "failed": failed,
            "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"},
                        "item_p50_ms": {"value": p50, "unit": "ms"}}}


def pairs(parent, change):
    return [dict(seed=7 + i, first="parent" if i % 2 == 0 else "change",
                 parent=record(*p), change=record(*c))
            for i, (p, c) in enumerate(zip(parent, change))]


def test_medians_quartiles_wins_and_runs():
    runs = pairs([(10.0, 20.0), (11.0, 21.0), (12.0, 20.0), (13.0, 19.0), (14.0, 20.0)],
                 [(12.0, 18.0), (11.0, 21.0), (15.0, 22.0), (13.5, 17.0), (16.0, 18.0)])
    runs[2]["change"]["failed"] = 1
    summary = bench_pairs.summarize(runs, BETTER)
    assert set(summary["metrics"]) == {"items_per_s", "item_p50_ms"}  # setup_s is absent

    rate = summary["metrics"]["items_per_s"]
    assert rate["unit"] == "1/s" and rate["better"] == "higher" and rate["pairs"] == 5
    assert rate["parent"] == dict(median=12.0, q1=11.0, q3=13.0,
                                  values=[10.0, 11.0, 12.0, 13.0, 14.0])
    assert rate["change"]["median"] == 13.5
    assert rate["change_wins"] == 4  # the tie at 11.0 counts for neither side
    assert rate["ratio"] == pytest.approx(13.5 / 12.0)
    assert rate["beyond_parent_iqr"] is False  # 1.5 apart, parent quartiles 2.0 apart

    p50 = summary["metrics"]["item_p50_ms"]
    assert p50["change_wins"] == 3  # lower is better; 22.0 loses, 21.0 ties
    assert p50["parent"]["median"] == 20.0 and p50["change"]["median"] == 18.0
    assert p50["beyond_parent_iqr"] is True  # 2.0 apart, parent quartiles 0.0 apart

    assert [r["seed"] for r in summary["runs"]] == [7, 8, 9, 10, 11]
    assert [r["first"] for r in summary["runs"]] == ["parent", "change"] * 2 + ["parent"]
    assert summary["runs"][2]["change"] == {"correct": True, "attempted": 40, "failed": 1}
    assert summary["runs"][0]["parent"] == {"correct": True, "attempted": 40, "failed": 0}


def test_one_pair_has_degenerate_quartiles():
    summary = bench_pairs.summarize(pairs([(10.0, 20.0)], [(9.0, 20.0)]), BETTER)
    rate = summary["metrics"]["items_per_s"]
    assert rate["parent"]["q1"] == rate["parent"]["q3"] == 10.0
    assert rate["change_wins"] == 0 and summary["metrics"]["item_p50_ms"]["change_wins"] == 0


def verdicts(runs, bounds=None):
    metrics = bench_pairs.summarize(runs, BETTER, bounds)["metrics"]
    return {name: entry["worse_beyond_bound"] for name, entry in metrics.items()}


def test_worse_beyond_bound_in_each_direction():
    # medians: items_per_s 12.0 -> 10.0 (16.7% worse), item_p50_ms 20.0 -> 21.0 (5% worse)
    runs = pairs([(11.0, 19.0), (12.0, 20.0), (13.0, 21.0)],
                 [(9.0, 20.0), (10.0, 21.0), (11.0, 22.0)])
    assert verdicts(runs, {"items_per_s": 0.2, "item_p50_ms": 0.04}) == {
        "items_per_s": False, "item_p50_ms": True}
    assert verdicts(runs, {"items_per_s": 0.1, "item_p50_ms": 0.06}) == {
        "items_per_s": True, "item_p50_ms": False}
    # a metric without a bound has no verdict, and a gain is never worse
    assert verdicts(runs) == {"items_per_s": None, "item_p50_ms": None}
    assert verdicts(pairs([(10.0, 20.0)], [(20.0, 10.0)]),
                    {"items_per_s": 0.0, "item_p50_ms": 0.0}) == {
        "items_per_s": False, "item_p50_ms": False}


def gains(runs):
    metrics = bench_pairs.summarize(runs, BETTER)["metrics"]
    return {name: entry["gain_shown"] for name, entry in metrics.items()}


def test_gain_shown_needs_nine_wins_in_ten_and_the_better_direction():
    parent = [(10.0 + 0.1 * i, 20.0 + 0.1 * i) for i in range(10)]  # quartiles 0.45 apart
    # faster and quicker in every pair, medians 1.0 beyond the parent's
    runs = pairs(parent, [(r + 1.0, p - 1.0) for r, p in parent])
    assert gains(runs) == {"items_per_s": True, "item_p50_ms": True}
    # slower and slower by as much: beyond the spread, but the worse way
    runs = pairs(parent, [(r - 1.0, p + 1.0) for r, p in parent])
    metrics = bench_pairs.summarize(runs, BETTER)["metrics"]
    assert all(entry["beyond_parent_iqr"] for entry in metrics.values())
    assert gains(runs) == {"items_per_s": False, "item_p50_ms": False}
    # one tie in ten still wins 9; two ties leave 8
    change = [(r + 1.0, p - 1.0) for r, p in parent]
    change[0] = parent[0]
    assert gains(pairs(parent, change)) == {"items_per_s": True, "item_p50_ms": True}
    change[1] = parent[1]
    assert gains(pairs(parent, change)) == {"items_per_s": False, "item_p50_ms": False}
    # every pair won, but by less than the parent's quartile spread
    runs = pairs(parent, [(r + 0.3, p - 0.3) for r, p in parent])
    assert gains(runs) == {"items_per_s": False, "item_p50_ms": False}


def bench_file(directory, n, medians):
    """A BENCH_<n>.json whose workloads hold the given change medians."""
    workloads = {name: {"metrics": {metric: {"change": {"median": value}}
                                    for metric, value in metrics.items()}}
                 for name, metrics in medians.items()}
    path = directory / f"BENCH_{n}.json"
    path.write_text(json.dumps({"workloads": workloads}))
    return path


def test_previous_file_is_the_highest_number_below_the_output(tmp_path):
    for n in (3, 9, 12, 100):
        bench_file(tmp_path, n, {})
    (tmp_path / "BENCH_8.txt").write_text("")
    (tmp_path / "BENCH_x.json").write_text("")
    assert bench_pairs.previous_file(tmp_path / "BENCH_10.json").name == "BENCH_9.json"
    assert bench_pairs.previous_file(tmp_path / "BENCH_12.json").name == "BENCH_9.json"
    assert bench_pairs.previous_file(tmp_path / "BENCH_101.json").name == "BENCH_100.json"
    assert bench_pairs.previous_file(tmp_path / "BENCH_3.json") is None
    assert bench_pairs.previous_file(tmp_path / "out.json") is None
    assert bench_pairs.previous_file(tmp_path / "other" / "BENCH_10.json") is None


def test_previous_change_medians_and_ratios(tmp_path):
    earlier = bench_file(tmp_path, 15, {"free_flow": {"items_per_s": 12.5, "setup_s": 0.5}})
    runs = pairs([(10.0, 20.0), (11.0, 21.0), (12.0, 20.0)],
                 [(12.0, 18.0), (15.0, 22.0), (13.0, 17.0)])
    summary = bench_pairs.summarize(runs, BETTER)
    workloads = json.loads(earlier.read_text())["workloads"]
    previous = bench_pairs.compare_previous(summary, workloads["free_flow"], earlier.name)
    # item_p50_ms is not in the earlier file, setup_s not in this one
    assert previous == {"file": "BENCH_15.json",
                        "metrics": {"items_per_s": {"median": 12.5, "ratio": 13.0 / 12.5}},
                        "kinds": {}}


def test_previous_kind_medians_and_ratios(tmp_path):
    # kind "b" is in both files, "a" only in this one, "c" only in the earlier one
    earlier = bench_file(tmp_path, 21, {"chart_dependent": {"items_per_s": 14.0}})
    doc = json.loads(earlier.read_text())
    doc["workloads"]["chart_dependent"]["kinds"] = {"b": {"change": {"median": 40.0}},
                                                    "c": {"change": {"median": 9.0}}}
    runs = pairs([(10.0, 20.0)] * 3, [(15.0, 18.0)] * 3)
    for run, b in zip(runs, (30.0, 32.0, 36.0)):
        run["parent"]["kinds"] = {"a": 5.0, "b": 44.0}
        run["change"]["kinds"] = {"a": 4.0, "b": b}
    summary = bench_pairs.summarize(runs, BETTER)
    previous = bench_pairs.compare_previous(summary, doc["workloads"]["chart_dependent"],
                                            earlier.name)
    assert previous["kinds"] == {"b": {"median": 40.0, "ratio": 32.0 / 40.0}}
    assert previous["metrics"] == {"items_per_s": {"median": 14.0, "ratio": 15.0 / 14.0}}


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # parent quartiles: items_per_s 11.5..12.5 around 12.0 (relative spread 1/12),
    # item_p50_ms 19.5..20.5 around 20.0 (relative spread 0.05)
    parent = [(11.0, 19.0), (12.0, 20.0), (13.0, 21.0)]
    runs = pairs(parent, [(12.5, 19.5), (12.0, 20.0), (12.5, 18.5)])
    metrics = bench_pairs.summarize(runs, BETTER, {"items_per_s": 0.05,
                                                   "item_p50_ms": 0.1})["metrics"]
    assert metrics["items_per_s"]["unresolved"] is True
    assert metrics["item_p50_ms"]["unresolved"] is False  # the spread is within the bound
    metrics = bench_pairs.summarize(runs, BETTER, {"items_per_s": 0.1})["metrics"]
    assert metrics["items_per_s"]["unresolved"] is False
    assert metrics["item_p50_ms"]["unresolved"] is None  # no bound, no verdict
    # every change run better than every parent run resolves a wide spread, in
    # each direction; a tie with the best parent run is not better
    wide = {"items_per_s": 0.05, "item_p50_ms": 0.01}
    apart = pairs(parent, [(13.5, 18.5), (14.0, 18.0), (15.0, 17.0)])
    tied = pairs(parent, [(13.0, 19.0), (14.0, 18.0), (15.0, 17.0)])
    for runs, expected in ((apart, False), (tied, True)):
        metrics = bench_pairs.summarize(runs, BETTER, wide)["metrics"]
        assert metrics["items_per_s"]["unresolved"] is expected
        assert metrics["item_p50_ms"]["unresolved"] is expected


def test_item_kinds_per_side():
    # the per-kind medians show which kind a change acted on: here only "b"
    runs = pairs([(10.0, 20.0)] * 3, [(10.0, 20.0)] * 3)
    parent_kinds = [{"a": 5.0, "b": 40.0, "c": 1.0}, {"a": 6.0, "b": 44.0},
                    {"a": 4.0, "b": 42.0, "c": 2.0}]
    change_kinds = [{"a": 5.5, "b": 30.0, "c": 1.0}, {"a": 4.5, "b": 33.0, "c": 1.5},
                    {"a": 6.5, "b": 31.0, "c": 1.0}]
    for run, parent, change in zip(runs, parent_kinds, change_kinds):
        run["parent"]["kinds"], run["change"]["kinds"] = parent, change
    kinds = bench_pairs.summarize(runs, BETTER)["kinds"]
    assert set(kinds) == {"a", "b"}  # "c" is missing from one parent run
    assert kinds["a"]["parent"] == dict(values=[5.0, 6.0, 4.0], median=5.0)
    assert kinds["a"]["change"] == dict(values=[5.5, 4.5, 6.5], median=5.5)
    assert kinds["a"]["ratio"] == pytest.approx(1.1)
    assert kinds["b"]["parent"]["median"] == 42.0 and kinds["b"]["change"]["median"] == 31.0
    assert kinds["b"]["ratio"] == pytest.approx(31.0 / 42.0)
    # records without kinds give none
    assert bench_pairs.summarize(pairs([(10.0, 20.0)], [(9.0, 20.0)]), BETTER)["kinds"] == {}


def test_run_once_reads_the_kind_medians_of_its_result_file(tmp_path, monkeypatch):
    out = tmp_path / ".perfbench_out"
    out.mkdir()
    (out / "result-optimize-seed3-trace0.json").write_text(json.dumps(
        {"kinds": {"sleigh/solve_bvp": {"items": 4, "median_ms": 12.5, "wall_median_ms": 11.0}}}))

    class Done:
        returncode, stderr = 0, ""
        stdout = "optimize seed 3: ...\n" + json.dumps({"correct": True, "metrics": {}})

    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda cmd, **kwargs: calls.append((cmd, kwargs["cwd"])) or Done())
    record = bench_pairs.run_once(tmp_path, "optimize", 3, 1.0)
    assert record == {"correct": True, "metrics": {}, "kinds": {"sleigh/solve_bvp": 12.5}}
    assert calls[0][1] == tmp_path and calls[0][0][-2:] == ["--trace", "0"]
