"""solve_lp: status mapping and the sign flip of ``maximize``."""

import pytest

from ordmech.lp import solve_lp


def test_known_minimum():
    # min x + 2y subject to x + y >= 1  ->  put everything on x
    res = solve_lp([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    assert res.optimal
    assert res.fun == pytest.approx(1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_equality_and_maximize():
    # max x s.t. x + y = 2, x <= 1.5
    res = solve_lp([1.0, 0.0], A_ub=[[1.0, 0.0]], b_ub=[1.5],
                   A_eq=[[1.0, 1.0]], b_eq=[2.0], maximize=True)
    assert res.optimal
    assert res.fun == pytest.approx(1.5, abs=1e-9)


def test_infeasible_detected():
    # x <= -1 with x >= 0
    res = solve_lp([1.0], A_ub=[[1.0]], b_ub=[-1.0])
    assert res.status == "infeasible"


def test_unbounded_detected():
    res = solve_lp([-1.0], A_ub=[[-1.0]], b_ub=[0.0])
    assert res.status == "unbounded"
