from dataclasses import replace

import numpy as np
import pytest

from nhoc import (ConstrainedSystem, ConstraintSpec, ModelPartials, algebroid,
                  make_double_integrator, make_suslov)
from nhoc.checks import CheckResult, check_koszul, run_all

from conftest import curved_model


def test_run_all_on_chart_model():
    model, spec = make_double_integrator(2)
    results = run_all(model, spec)
    names = [r.name for r in results]
    # oracle check only applies over a point
    assert not any("oracle" in n for n in names)
    assert all(r.passed for r in results), [
        (r.name, r.value) for r in results if not r.passed]


def test_run_all_on_lie_algebra_model():
    model, spec = make_suslov()
    results = run_all(model, spec)
    assert any("oracle" in r.name for r in results)
    assert all(r.passed for r in results)


def test_check_result_threshold():
    assert CheckResult("x", 1e-12, 1e-10).passed
    assert not CheckResult("x", 1e-9, 1e-10).passed


# (Koszul, torsion) at rng seed 20260810, as one-point geometry builds
# differenced by fd_partials give them; the Koszul values read 5.638e-11
KOSZUL_VALUES = {"analytic": ("0x1.efed000000000p-35", "0x1.0p-54"),
                 "complex_step": ("0x1.efed400000000p-35", "0x1.0p-54")}


@pytest.mark.parametrize("partials", sorted(KOSZUL_VALUES))
def test_koszul_check_takes_one_stacked_build(monkeypatch, partials):
    model = curved_model()
    if partials == "complex_step":
        model = replace(model, partials=ModelPartials())
    system = ConstrainedSystem(model, ConstraintSpec(span_basis=np.eye(2)))
    sizes = []
    build = algebroid._chart_geometry
    monkeypatch.setattr(algebroid, "_chart_geometry",
                        lambda system, qs, *args:
                        sizes.append(len(qs)) or build(system, qs, *args))
    results = check_koszul(system, np.random.default_rng(20260810))
    assert sizes == [9]  # 3 points and their 6 neighbours at step 1e-5
    assert tuple(r.value for r in results) == tuple(map(float.fromhex, KOSZUL_VALUES[partials]))
