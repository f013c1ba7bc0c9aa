"""Solve-time system validation: structured errors, never IndexError."""

import pytest

from repro import ConstraintSystem, Variance
from repro.constraints.constructors import Constructor
from repro.constraints.errors import InvalidSystemError
from repro.constraints.expressions import Term, Var
from repro.solver import SolverOptions, solve

COV = Variance.COVARIANT


def smuggle(system, left, right):
    """Bypass ``add``'s checks, as a deserializer or buggy client might."""
    system._constraints.append((left, right))


# Each case builds a system; the native validation is checked against
# every one of them (tests/solver/test_native_envelope.py).
def var_out_of_range():
    system = ConstraintSystem()
    (v,) = system.fresh_vars(1)
    smuggle(system, v, Var(99, "stale"))
    return system


def arity_mismatch():
    # Term.__init__ itself rejects wrong arities, so forge the term
    # the way a buggy deserializer would: bypassing the constructor.
    system = ConstraintSystem()
    (v,) = system.fresh_vars(1)
    unary = system.constructor("u", (COV,))
    forged = object.__new__(Term)
    forged.constructor = unary
    forged.args = ()  # 0 args for 1-ary
    forged.label = None
    forged._hash = 0
    smuggle(system, forged, v)
    return system


def signature_conflict():
    system = ConstraintSystem()
    (v,) = system.fresh_vars(1)
    system.constructor("c", (COV,))
    imposter = Constructor("c", (COV, COV))
    smuggle(system, Term(imposter, (v, v)), v)
    return system


def not_an_expression():
    system = ConstraintSystem()
    (v,) = system.fresh_vars(1)
    smuggle(system, v, "not an expression")
    return system


def nested_fault():
    system = ConstraintSystem()
    (v,) = system.fresh_vars(1)
    pair = system.constructor("pair", (COV, COV))
    nested = Term(pair, (Term(pair, (v, Var(7, "stale"))), v))
    smuggle(system, nested, v)
    return system


def offender_at_index_two():
    system = ConstraintSystem()
    a, b = system.fresh_vars(2)
    system.add(a, b)
    system.add(b, a)
    smuggle(system, a, Var(50, "stale"))
    return system


def valid_system():
    system = ConstraintSystem()
    a, b = system.fresh_vars(2)
    system.add(a, b)
    return system


def invalid(build):
    """The error ``validate`` raises for the system ``build`` makes."""
    with pytest.raises(InvalidSystemError) as excinfo:
        build().validate()
    return excinfo.value


class TestValidateCases:
    def test_var_out_of_range(self):
        error = invalid(var_out_of_range)
        assert error.reason == "var-out-of-range"
        assert error.constraint_index == 0

    def test_arity_mismatch(self):
        assert invalid(arity_mismatch).reason == "arity-mismatch"

    def test_signature_conflict(self):
        assert invalid(signature_conflict).reason == "signature-conflict"

    def test_not_an_expression(self):
        assert invalid(not_an_expression).reason == "not-an-expression"

    def test_nested_fault_found(self):
        assert invalid(nested_fault).reason == "var-out-of-range"

    def test_constraint_index_points_at_offender(self):
        assert invalid(offender_at_index_two).constraint_index == 2

    def test_valid_system_passes(self):
        valid_system().validate()  # must not raise


class TestSolveIntegration:
    def test_solve_validates_by_default(self):
        system = ConstraintSystem()
        (v,) = system.fresh_vars(1)
        smuggle(system, v, Var(99, "stale"))
        with pytest.raises(InvalidSystemError):
            solve(system)

    def test_validation_can_be_disabled(self):
        system = ConstraintSystem()
        (v,) = system.fresh_vars(1)
        smuggle(system, v, Var(99, "stale"))
        # Without validation the stale index leaks a raw low-level
        # error from the graph code — the failure mode validation
        # exists to prevent.
        with pytest.raises((IndexError, KeyError)):
            solve(system, SolverOptions(validate=False))
