"""``tools/shooting_sweep.py`` on the one reachable sleigh target whose
solves fail, at dt = 1e-2 only."""

import importlib.util
from pathlib import Path

from nhoc import bvp, solve_bvp

_PATH = Path(__file__).resolve().parent.parent / "tools" / "shooting_sweep.py"
_SPEC = importlib.util.spec_from_file_location("shooting_sweep", _PATH)
shooting_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(shooting_sweep)


def test_one_target_tallies_its_solves_and_flows():
    flow = bvp.integrate_hamiltonian
    record = shooting_sweep.sweep(shooting_sweep.cases([2], [1e-2]))
    assert bvp.integrate_hamiltonian is flow
    assert record["solves"] == len(record["outcomes"]) == 12
    assert record["iterations"] == 51
    # an overshoot halves the step under every scheme: the one-input zero
    # guess ends in NewtonDivergence with each of them
    assert record["failures"] == {"NewtonDivergence": 3}
    assert record["failures_by_scheme"] == {scheme: {"NewtonDivergence": 1}
                                            for scheme in shooting_sweep.SCHEMES}
    # each failed flow ends its trial: nothing is integrated again after it
    assert (record["flows"], record["failed_flows"], record["row_steps"]) == (225, 14, 47580)
    label, sp, guess = next(shooting_sweep.cases([2], [1e-2]))
    result = solve_bvp(sp, guess)
    assert record["outcomes"][label] == shooting_sweep._digest(
        "converged", result.iterations, result.p0.tobytes())
