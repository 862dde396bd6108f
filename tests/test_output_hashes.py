"""``tools/output_hashes.py``: the byte form of outcomes, the comparison, and
the repository against itself."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nhoc import Trajectory

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "output_hashes.py"
_SPEC = importlib.util.spec_from_file_location("output_hashes", _PATH)
output_hashes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_hashes)


def digest(obj, out_dir="/tmp/run-a"):
    h = hashlib.sha256()
    output_hashes.feed(h, obj, out_dir)
    return h.hexdigest()


def trajectory(ys):
    return Trajectory(times=np.arange(2.0), qs=np.zeros((2, 0)), ys=np.asarray(ys))


def test_arrays_hash_by_dtype_shape_and_bytes():
    a = np.array([1.0, 2.0])
    assert digest(a) == digest(a.copy())
    assert len({digest(a), digest(a.astype(np.float32)), digest(a.reshape(2, 1)),
                digest(np.array([1.0, np.nextafter(2.0, 3.0)]))}) == 4


def test_dataclasses_hash_field_by_field():
    ys = [[1.0, 0.0], [0.5, 0.5]]
    assert digest(trajectory(ys)) == digest(trajectory(ys))
    assert digest(trajectory(ys)) != digest(trajectory([[1.0, 0.0], [0.5, -0.5]]))
    # a float keeps its exact value, and -0.0 is not 0.0
    assert digest((0.1, 1)) != digest((np.nextafter(0.1, 1.0), 1))
    assert digest(-0.0) != digest(0.0)


def test_the_output_directory_is_masked():
    line = "wrote 101 samples to {}/optimize.csv"
    assert (digest(line.format("/tmp/run-a"), "/tmp/run-a")
            == digest(line.format("/tmp/run-b"), "/tmp/run-b"))
    assert digest("exit 0: ", "/tmp/run-a") != digest("exit 3: ", "/tmp/run-a")


def test_an_unknown_type_is_refused():
    with pytest.raises(TypeError):
        digest(object())


def test_comparison_names_differing_and_missing_items():
    parent = {"free_flow": [[0, "suslov/rk4", "a"], [0, "suslov/rk4", "b"]],
              "optimize": [[0, "chaplygin/rk4", "c"]]}
    change = {"free_flow": [[0, "suslov/rk4", "a"], [0, "suslov/rk4", "x"]],
              "optimize": []}
    lines, differ = output_hashes.compare(parent, change)
    assert differ == 2
    assert lines == ["free_flow: 1 equal, 1 differ", "  differs: round 0 item 1 suslov/rk4",
                     "optimize: 0 equal, 1 differ", "  differs: round 0 item 0 chaplygin/rk4",
                     "1 of 3 equal"]
    assert output_hashes.compare(parent, parent) == (
        ["free_flow: 2 equal, 0 differ", "optimize: 1 equal, 0 differ", "3 of 3 equal"], 0)


def test_a_differing_item_reports_its_largest_gaps():
    out_dir = "/tmp/run-7"

    def item(text, values):
        # an exit code, printed numbers with the output path, and a float array
        return output_hashes.row(0, "chaplygin/rk4",
                                 [(0, text + f" to {out_dir}/a.csv\n"), np.array(values)],
                                 out_dir)

    parent = {"optimize": [item("p0: 0.5,1e-3", [1.0, 2.0]), item("p0: 1", [3.0])]}
    change = {"optimize": [item("p0: 0.5,1.5e-3", [1.0, 2.0 + 1e-9]), item("p0: 1", [3.0])]}
    lines, differ = output_hashes.compare(parent, change)
    assert differ == 1
    # the float leaves are 0 (of "p0"), 0.5, the perturbed 1e-3 and the two
    # array entries; the masked path adds none
    assert lines == ["optimize: 1 equal, 1 differ",
                     "  differs: round 0 item 0 chaplygin/rk4; largest gap abs 0.0005 at "
                     "0.001, rel 0.333 at 0.001 over 5 float leaves",
                     "1 of 2 equal"]
    longer = {"optimize": [item("p0: 0.5,1e-3,2", [1.0, 2.0]), parent["optimize"][1]]}
    assert output_hashes.compare(parent, longer)[0][1].endswith("float leaves 5 against 6")


def test_gaps_of_equal_and_nan_leaves_are_zero():
    a = np.array([1.0, np.nan, 0.0, -2.0])
    assert output_hashes.largest_gaps(a, a.copy()) == ((0.0, None), (0.0, None))
    # the absolute gap falls on -2.0, the relative one on the zero leaf
    assert output_hashes.largest_gaps(a, np.array([1.0, np.nan, 1e-3, -2.5])) == (
        (0.5, 3), (1.0, 2))
    assert output_hashes.largest_gaps(a, np.array([1.0, 0.0, 0.0, -2.0])) == (
        (np.inf, 1), (np.inf, 1))


def test_the_repository_against_itself():
    done = subprocess.run([sys.executable, str(_PATH), str(ROOT), str(ROOT)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["free_flow: 24 equal, 0 differ",
                                        "optimize: 30 equal, 0 differ",
                                        "chart_dependent: 21 equal, 0 differ",
                                        "extremal: 7 equal, 0 differ",
                                        "cli: 14 equal, 0 differ",
                                        "96 of 96 equal"]
