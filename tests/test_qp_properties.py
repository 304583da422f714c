"""Property tests for the box-QP solver on random strictly convex instances.

Principal pivoting is the solver's only path, so every instance it can be
handed must converge within the default pivot budget to the 1e-8 KKT
contract. Small instances are also checked against a brute-force oracle
that tries every partition of the coordinates into lower bound, free and
upper bound (3^n of them) and keeps the cheapest feasible point; for a
strictly convex QP that point is the unique minimizer.
"""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from trackmpc import QpProblem, solve_box_qp  # noqa: E402

KKT_TOL = 1e-8


def _floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def box_qps(draw, max_n: int = 8):
    """H = M'M + shift*I with wide, narrow or pinned (lb == ub) coordinates."""
    n = draw(st.integers(1, max_n))
    m = np.array(draw(st.lists(_floats(-2.0, 2.0), min_size=n * n, max_size=n * n)))
    shift = draw(_floats(1e-3, 1.0))
    h = m.reshape(n, n).T @ m.reshape(n, n) + shift * np.eye(n)
    f = np.array(draw(st.lists(_floats(-5.0, 5.0), min_size=n, max_size=n)))
    lb, ub = np.empty(n), np.empty(n)
    for i in range(n):
        center = draw(_floats(-1.0, 1.0))
        kind = draw(st.sampled_from(("wide", "narrow", "pinned")))
        width = {"wide": _floats(1e-2, 2.0), "narrow": _floats(1e-6, 1e-3),
                 "pinned": st.just(0.0)}[kind]
        lb[i] = center
        ub[i] = center + draw(width)
    return QpProblem(h=h, f=f, lb=lb, ub=ub)


def _brute_force_minimizer(qp: QpProblem) -> np.ndarray:
    h, f, lb, ub = qp.h, qp.f, qp.lb, qp.ub
    best, best_cost = None, np.inf
    for part in itertools.product((-1, 0, 1), repeat=f.size):
        part = np.array(part)
        z = np.where(part < 0, lb, ub)
        free = part == 0
        if free.any():
            rhs = -(f[free] + h[free][:, ~free] @ z[~free])
            z[free] = np.linalg.solve(h[np.ix_(free, free)], rhs)
            if np.any(z < lb - 1e-12) or np.any(z > ub + 1e-12):
                continue
        z = np.clip(z, lb, ub)
        cost = 0.5 * z @ h @ z + f @ z
        if cost < best_cost:
            best, best_cost = z, cost
    return best


@settings(max_examples=300, deadline=None, derandomize=True)
@given(box_qps())
def test_pivoting_meets_kkt_contract(qp):
    sol = solve_box_qp(qp)
    assert sol.status == "converged"
    assert sol.kkt_residual <= KKT_TOL
    assert np.all(sol.u >= qp.lb) and np.all(sol.u <= qp.ub)
    pinned = qp.lb == qp.ub
    assert np.array_equal(sol.u[pinned], qp.lb[pinned])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(box_qps(max_n=4))
def test_pivoting_matches_brute_force_oracle(qp):
    sol = solve_box_qp(qp)
    assert sol.status == "converged"
    np.testing.assert_allclose(sol.u, _brute_force_minimizer(qp), rtol=0, atol=1e-7)
