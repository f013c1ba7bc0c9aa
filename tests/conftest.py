"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import ConstraintSystem, Variance
from repro.solver import CyclePolicy, GraphForm, SolverOptions

#: Every (form, policy) combination of paper Table 4.
ALL_CONFIGS = [
    (form, policy)
    for form in (GraphForm.STANDARD, GraphForm.INDUCTIVE)
    for policy in (CyclePolicy.NONE, CyclePolicy.ONLINE, CyclePolicy.ORACLE)
]

ALL_CONFIG_IDS = [
    f"{form.value}-{policy.value}" for form, policy in ALL_CONFIGS
]


@pytest.fixture(params=ALL_CONFIGS, ids=ALL_CONFIG_IDS)
def solver_options(request):
    """Parametrized solver options covering all six experiments."""
    form, policy = request.param
    return SolverOptions(form=form, cycles=policy)


#: The committed counter baseline (quick suite, seed 0).
BASELINE_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "BASELINE.json"
)


@pytest.fixture(scope="session")
def baseline_counters():
    """``BASELINE.json``'s counters by ``(benchmark, experiment)``."""
    from repro.bench.baseline import load_report

    report = load_report(str(BASELINE_PATH))
    return {
        (record.benchmark, record.experiment): record.counters
        for record in report.records
    }


@pytest.fixture
def system():
    """A fresh, empty constraint system."""
    return ConstraintSystem("test")


@pytest.fixture
def ref_system():
    """A system with the Andersen-style ``ref`` constructor registered."""
    sys_ = ConstraintSystem("test-ref")
    sys_.constructor(
        "ref",
        (Variance.COVARIANT, Variance.COVARIANT, Variance.CONTRAVARIANT),
    )
    return sys_


def build_chain(system, length, prefix="v"):
    """Create variables v0 <= v1 <= ... <= v(length-1)."""
    variables = system.fresh_vars(length, prefix)
    for left, right in zip(variables, variables[1:]):
        system.add(left, right)
    return variables
