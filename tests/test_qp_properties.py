"""Property tests for the box-QP solver on random strictly convex instances.

The partition search (block swaps, then the dual or the primal active-set
phase when they stall) is the solver's only path, so every instance it can
be handed must converge within the default iteration budget to the 1e-8
KKT contract. Small instances are also checked against a brute-force oracle
that tries every partition of the coordinates into lower bound, free and
upper bound (3^n of them) and keeps the cheapest feasible point; for a
strictly convex QP that point is the unique minimizer. Random QPs up to
n = 20, and those where either phase runs, are also held bit for bit to
the earlier solver kept in tests/qp_reference.py.

The condensed prediction feeding those QPs is held bit for bit, down to
the sign of every zero, to the plain recursions of _reference_prediction
for all three linearizations at drawn vehicles, sample times, operating
points and horizons; and the condensed cost built from it by diagonal
scaling to the dense product with kron(I, diag(q)).
"""

import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, event, given, settings, strategies as st  # noqa: E402

import trackmpc.qp as qp_mod  # noqa: E402
from qp_reference import box_qp, reference_solve_box_qp  # noqa: E402
from test_qp import _reference_prediction  # noqa: E402
from trackmpc import (  # noqa: E402
    PredictionMatrices,
    TrackingQp,
    VehicleParams,
    VehicleState,
    build_prediction,
    config_for,
    horizon_weights,
    linearize_initial,
    linearize_position,
    linearize_velocity,
    solve_box_qp,
)
from trackmpc.qp import MAX_TABLE_MOVES, condense_cost, region_table  # noqa: E402

KKT_TOL = 1e-8


def _floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def box_qps(draw, max_n: int = 8, kinds=("wide", "narrow", "pinned")):
    """H = M'M + shift*I with wide, narrow or pinned (lb == ub) coordinates."""
    n = draw(st.integers(1, max_n))
    m = np.array(draw(st.lists(_floats(-2.0, 2.0), min_size=n * n, max_size=n * n)))
    shift = draw(_floats(1e-3, 1.0))
    h = m.reshape(n, n).T @ m.reshape(n, n) + shift * np.eye(n)
    f = np.array(draw(st.lists(_floats(-5.0, 5.0), min_size=n, max_size=n)))
    lb, ub = np.empty(n), np.empty(n)
    for i in range(n):
        center = draw(_floats(-1.0, 1.0))
        kind = draw(st.sampled_from(kinds))
        width = {"wide": _floats(1e-2, 2.0), "narrow": _floats(1e-6, 1e-3),
                 "pinned": st.just(0.0)}[kind]
        lb[i] = center
        ub[i] = center + draw(width)
    return box_qp(h=h, f=f, lb=lb, ub=ub)


def _brute_force_minimizer(qp: TrackingQp) -> np.ndarray:
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


# --- the primal active-set phase --------------------------------------------
#
# Block swaps stall most on the fixed-slip-model structure: H = T'DT + rI with
# T the cumulative-move map (each command is the running sum of the moves),
# strongly graded stage weights D and boxes narrow against the gradient.
# That is where the solver hands over to its primal phase.

@st.composite
def move_qps(draw, max_n: int = 8):
    n = draw(st.integers(1, max_n))
    t_map = np.tril(np.ones((n, n)))
    d = 10.0 ** np.array(draw(st.lists(_floats(-1.0, 3.0), min_size=n, max_size=n)))
    h = t_map.T @ (d[:, None] * t_map) + draw(_floats(1e-3, 0.1)) * np.eye(n)
    f = np.array(draw(st.lists(_floats(-5.0, 5.0), min_size=n, max_size=n)))
    center = np.array(draw(st.lists(_floats(-0.1, 0.1), min_size=n, max_size=n)))
    half = 10.0 ** np.array(draw(st.lists(_floats(-3.0, -1.0), min_size=n, max_size=n)))
    return box_qp(h=h, f=f, lb=center - half, ub=center + half)


def _random_move_qp(rng, n):
    t_map = np.tril(np.ones((n, n)))
    d = 10.0 ** rng.uniform(-1.0, 3.0, size=n)
    h = t_map.T @ (d[:, None] * t_map) + rng.uniform(1e-3, 0.1) * np.eye(n)
    center = rng.uniform(-0.1, 0.1, size=n)
    half = 10.0 ** rng.uniform(-3.0, -1.0, size=n)
    return box_qp(h=h, f=rng.uniform(-5.0, 5.0, size=n), lb=center - half, ub=center + half)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(move_qps())
def test_move_structure_meets_kkt_contract(qp):
    sol = solve_box_qp(qp)
    event(f"primal phase reached: {sol.primal_iterations > 0}")
    assert sol.status == "converged"
    assert sol.kkt_residual <= KKT_TOL
    assert np.all(sol.u >= qp.lb) and np.all(sol.u <= qp.ub)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(move_qps(max_n=4))
def test_move_structure_matches_brute_force_oracle(qp):
    sol = solve_box_qp(qp)
    assert sol.status == "converged"
    np.testing.assert_allclose(sol.u, _brute_force_minimizer(qp), rtol=0, atol=1e-7)


def test_primal_phase_matches_the_oracles_where_it_runs():
    # only a few percent of draws stall the block swaps, so seeded draws of
    # the same shape are taken until 25 small ones reached the primal phase
    rng = np.random.default_rng(7)
    stalled = 0
    for _ in range(20000):
        qp = _random_move_qp(rng, int(rng.integers(2, 5)))
        sol = solve_box_qp(qp)
        if sol.primal_iterations == 0:
            continue
        stalled += 1
        assert sol.status == "converged" and sol.kkt_residual <= KKT_TOL
        np.testing.assert_allclose(sol.u, _brute_force_minimizer(qp), rtol=0, atol=1e-7)
        assert np.array_equal(sol.u, reference_solve_box_qp(qp).u)
        if stalled == 25:
            break
    assert stalled == 25


def test_seeded_search_matches_the_oracles():
    # where the unconstrained minimizer pins more than half the coordinates,
    # projected-gradient steps name the search's first partition; seeded
    # draws are taken until 25 small ones took that path and searched on
    # past it, solved cold or from a drawn start
    rng = np.random.default_rng(11)
    seeded = 0
    for _ in range(2000):
        qp = _random_move_qp(rng, int(rng.integers(2, 7)))
        start = rng.integers(-1, 2, size=qp.f.size).astype(np.int8)
        with mock.patch.object(qp_mod, "_seed", wraps=qp_mod._seed) as seed:
            sols = solve_box_qp(qp), solve_box_qp(qp, start=start)
        if not seed.called or max(sol.iterations for sol in sols) == 1:
            continue
        seeded += 1
        ref = reference_solve_box_qp(qp).u
        for sol in sols:
            assert sol.status == "converged" and sol.kkt_residual <= KKT_TOL
            np.testing.assert_allclose(sol.u, _brute_force_minimizer(qp), rtol=0, atol=1e-7)
            assert np.array_equal(sol.u, ref)
        if seeded == 25:
            break
    assert seeded == 25


# --- warm starts ---------------------------------------------------------
#
# A start is only a place for the search to begin: whatever partition it
# names, pinned coordinates included, the exact finish of the partition the
# search accepts must return the cold solve's bits.

@st.composite
def started_qps(draw, qps):
    qp = draw(qps)
    start = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=qp.f.size, max_size=qp.f.size))
    return qp, np.array(start, dtype=np.int8)


def _assert_warm_matches_cold(qp, start):
    sol = solve_box_qp(qp, start=start)
    cold = solve_box_qp(qp)
    event(f"cold guess held: {cold.iterations == 1}")
    assert np.array_equal(sol.u, cold.u)
    assert sol.status == "converged"
    assert sol.kkt_residual <= KKT_TOL
    assert np.all(sol.u >= qp.lb) and np.all(sol.u <= qp.ub)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(started_qps(box_qps()))
def test_any_start_returns_the_cold_bits(case):
    _assert_warm_matches_cold(*case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(started_qps(move_qps()))
def test_any_start_returns_the_cold_bits_on_move_structure(case):
    _assert_warm_matches_cold(*case)


# --- bit identity with the reference solver ------------------------------
#
# Whatever path the search takes, its answer is the exact finish of the
# partition it accepts, so at every size the controllers use (n <= 20) it
# keeps the bits of the earlier solver in tests/qp_reference.py, cold and
# from any start. Those bits also depend on the memory order of the blocks
# of H the finish multiplies with: a C-ordered copy of the pinned block,
# with the same values, rounds its product differently.

def _assert_reference_bits(qp, start):
    ref = reference_solve_box_qp(qp).u
    assert np.array_equal(solve_box_qp(qp).u, ref)
    assert np.array_equal(solve_box_qp(qp, start=start).u, ref)


# A break fails most of these draws, and shrinking a draw of up to 400
# floats of H takes minutes, so the failing draw is reported as drawn.
_UNSHRUNK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@settings(max_examples=150, deadline=None, derandomize=True, phases=_UNSHRUNK)
@given(started_qps(box_qps(max_n=20)))
def test_random_qps_keep_the_reference_bits(case):
    _assert_reference_bits(*case)


@settings(max_examples=150, deadline=None, derandomize=True, phases=_UNSHRUNK)
@given(started_qps(move_qps(max_n=20)))
def test_move_structure_keeps_the_reference_bits(case):
    _assert_reference_bits(*case)


# The region table of a QP's own (H, lb, ub) names the partition the solver
# finishes in place of a search; that finish keeps the bits.

def _assert_table_keeps_the_reference_bits(qp, start):
    table = region_table(qp.h, qp.lb, qp.ub)
    assert table is not None
    ref = reference_solve_box_qp(qp).u
    cold = solve_box_qp(qp, table=table)
    event(f"more than one iteration: {cold.iterations > 1}")
    assert np.array_equal(cold.u, ref)
    assert np.array_equal(solve_box_qp(qp, start=start, table=table).u, ref)
    assert cold.status == "converged" and cold.kkt_residual <= KKT_TOL


@settings(max_examples=300, deadline=None, derandomize=True, phases=_UNSHRUNK)
@given(started_qps(box_qps(max_n=MAX_TABLE_MOVES, kinds=("wide", "narrow"))))
def test_table_path_keeps_the_reference_bits(case):
    _assert_table_keeps_the_reference_bits(*case)


@settings(max_examples=300, deadline=None, derandomize=True, phases=_UNSHRUNK)
@given(started_qps(move_qps(max_n=MAX_TABLE_MOVES)))
def test_table_path_keeps_the_reference_bits_on_move_structure(case):
    _assert_table_keeps_the_reference_bits(*case)


# Where the unconstrained minimizer lies on the box, or a bound is weakly
# active, two partitions share a region boundary and both hold in exact
# arithmetic, so roundoff picks the one a search accepts. Drawn in exact
# arithmetic (integer H, dyadic bounds, f = -H x with x on a bound), QPs sit
# on such a boundary; there the table's partition must not be taken in
# place of the search's, so handed its own table a QP returns exactly what
# it returns without one.

@st.composite
def boundary_qps(draw, max_n: int = MAX_TABLE_MOVES, weak: bool = False):
    """With weak, half the draws give the coordinates on a bound
    right-signed integer multipliers, some of them 0, so that only those
    bounds are weakly active; the other half leave every multiplier 0."""
    n = draw(st.integers(1, max_n))
    m = np.array(draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)), float)
    h = m.reshape(n, n).T @ m.reshape(n, n) + draw(st.integers(1, 3)) * np.eye(n)
    lb = -np.array(draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))) / 8.0
    ub = np.array(draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))) / 8.0
    # each coordinate on its lower bound, on its upper bound or at a dyadic
    # point inside, at least one on a bound
    where = np.array(draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n)))
    where[draw(st.integers(0, n - 1))] = draw(st.sampled_from((-1, 1)))
    inside = np.array(draw(st.lists(st.integers(-7, 7), min_size=n, max_size=n))) / 8.0
    x = np.where(where < 0, lb, np.where(where > 0, ub, inside.clip(lb / 2, ub / 2)))
    if weak and draw(st.booleans()):
        lam = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
        return box_qp(h=h, f=where * -lam - h @ x, lb=lb, ub=ub)
    return box_qp(h=h, f=-(h @ x), lb=lb, ub=ub)


@settings(max_examples=300, deadline=None, derandomize=True, phases=_UNSHRUNK)
@given(boundary_qps())
def test_table_keeps_the_search_bits_on_region_boundaries(qp):
    sol = solve_box_qp(qp, table=region_table(qp.h, qp.lb, qp.ub))
    cold = solve_box_qp(qp)
    event(f"guess held without a table: {cold.iterations == 1}")
    assert sol.u.tobytes() == cold.u.tobytes()
    assert (sol.status, sol.kkt_residual) == (cold.status, cold.kkt_residual)
    assert sol.status == "converged" and sol.kkt_residual <= KKT_TOL


# The table names the first partition before any linear solve: the all-free
# region is tested on its own first, then the full lookup runs, and the
# unconstrained solve is formed only where neither names a partition or the
# search reaches the all-free one. Drawn with H's condition number up to 1e8
# and f within a few of the table's margins of a region boundary (the
# all-free region's on half the draws), where roundoff in the table's gains
# and in the solves decides which side f falls on, the answer must keep the
# reference bits, every iteration must be one reduced solve, and a QP the
# table's partition holds must cost 2 linear solves at most (a QP it names
# none for takes the guess path, unconstrained solve first). A table is only a
# hint: a QP of the same H object with another box, a zero-width coordinate
# among its moves on some draws, keeps the reference bits against it.

@st.composite
def near_boundary_qps(draw, max_n: int = MAX_TABLE_MOVES):
    """(qp, other box): H = Q diag(lam) Q' with cond(H) = 10^k, k <= 8, and
    f = -H x + g - H dx + dg, with x on a region boundary of its box
    (every multiplier g of the right sign, a bound with g = 0 among them)
    and dx, dg a few margins (_BOUNDARY times the box's width, and times
    max|H| times the largest bound) long."""
    n = draw(st.integers(1, max_n))
    basis = np.array(draw(st.lists(_floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
    q = np.linalg.qr(basis.reshape(n, n) + 2.0 * np.eye(n))[0]
    spread = np.array(draw(st.lists(_floats(0.0, 1.0), min_size=n, max_size=n)))
    spread[0], spread[-1] = 0.0, 1.0
    lam = 10.0 ** (draw(_floats(-1.0, 3.0)) - draw(_floats(0.0, 8.0)) * spread)
    h = (q * lam) @ q.T
    lb = -np.array(draw(st.lists(_floats(0.01, 1.0), min_size=n, max_size=n)))
    ub = np.array(draw(st.lists(_floats(0.01, 1.0), min_size=n, max_size=n)))
    # the all-free region's boundary: inside the box but for a bound with a
    # zero multiplier; else any partition, one of its bounds weakly active
    all_free = draw(st.booleans())
    kinds = (0,) if all_free else (-1, 0, 1)
    where = np.array(draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n)))
    weak = draw(st.integers(0, n - 1))
    where[weak] = draw(st.sampled_from((-1, 1)))
    inside = np.array(draw(st.lists(_floats(0.05, 0.95), min_size=n, max_size=n)))
    x = np.where(where < 0, lb, np.where(where > 0, ub, lb + inside * (ub - lb)))
    scale = float(np.abs(h).max()) * float(np.abs(np.concatenate((lb, ub))).max())
    mu = scale * np.array(draw(st.lists(_floats(0.0, 1.0), min_size=n, max_size=n)))
    mu[weak] = 0.0
    margins = np.array(draw(st.lists(_floats(-5.0, 5.0), min_size=2 * n, max_size=2 * n)))
    dx = qp_mod._BOUNDARY * (ub - lb) * margins[:n]
    dg = qp_mod._BOUNDARY * scale * margins[n:]
    qp = box_qp(h=h, f=-where * mu - h @ (x + dx) + dg, lb=lb, ub=ub)
    # another box for the same H object: each lower bound moved by up to half
    # the width, and on half the draws one move pinned (lb == ub)
    shift = np.array(draw(st.lists(_floats(-0.5, 0.5), min_size=n, max_size=n)))
    other_lb, other_ub = qp.lb + shift * (qp.ub - qp.lb), qp.ub.copy()
    if draw(st.booleans()):
        pin = draw(st.integers(0, n - 1))
        other_ub[pin] = other_lb[pin]
    return qp, (other_lb, other_ub)


def _counted_solve(qp, table):
    """solve_box_qp(qp, table) with its _reduced and np.linalg.solve calls."""
    with mock.patch.object(qp_mod, "_reduced", wraps=qp_mod._reduced) as reduced, \
            mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as lapack:
        sol = solve_box_qp(qp, table=table)
    return sol, reduced.call_count, lapack.call_count


@settings(max_examples=300, deadline=None, derandomize=True, phases=_UNSHRUNK)
@given(near_boundary_qps())
def test_table_first_partition_keeps_the_reference_bits_near_boundaries(case):
    qp, (other_lb, other_ub) = case
    table = region_table(qp.h, qp.lb, qp.ub)
    assert table is not None
    other = qp._replace(lb=other_lb, ub=other_ub)  # the same H object, another box
    for posed in (qp, other):
        named = table.first_partition(posed.f) is not None
        sol, reduced, lapack = _counted_solve(posed, table)
        event(f"table named a partition: {named}, first partition held: {sol.iterations == 1}")
        assert np.array_equal(sol.u, reference_solve_box_qp(posed).u)
        assert reduced == sol.iterations
        if sol.iterations == 1:
            # where the table names none, the guess's unconstrained solve comes first
            assert lapack <= (2 if named else 3)
        assert np.all(sol.u >= posed.lb) and np.all(sol.u <= posed.ub)


# On such a boundary, a zero multiplier's sign is roundoff, which can flip
# from one partition to the next; the search's primal phase, which pins and
# releases one bound per step, must not cycle there.

@settings(max_examples=300, deadline=None, derandomize=True, phases=_UNSHRUNK)
@given(boundary_qps(max_n=20, weak=True))
def test_search_does_not_cycle_on_weakly_active_bounds(qp):
    sol = solve_box_qp(qp)
    event(f"primal phase reached: {sol.primal_iterations > 0}")
    assert sol.iterations <= 50
    assert sol.status == "converged" and sol.kkt_residual <= KKT_TOL


# Degenerate velocity-structured QPs: H = S'DS + rI as velocity_sl poses it,
# exact in binary (dyadic D and r, integer S), with the minimizer x on the box
# at a drawn set of coordinates and small integer multipliers there, some of
# them 0, against an H whose entries reach thousands, so the bounds are
# nearly or exactly weakly active. On most draws the unconstrained minimizer
# pins more than half the moves, so the search is seeded, and the slow ones
# spend most of their iterations in the primal phase, which pins or releases
# one bound per step. Every draw must meet the absolute KKT_TOL.

# the most iterations any draw of test_degenerate_velocity_qps_converge takes;
# a longer fuzz finds more (5000 numpy draws of this shape, seeds 1 to 5,
# reach 43 to 46)
_DEGENERATE_CEILING = 35


@st.composite
def degenerate_velocity_qps(draw, max_n: int = 20):
    n = draw(st.integers(1, max_n))
    s = np.linalg.matrix_power(np.tril(np.ones((n, n))), 2)
    d = 2.0 ** np.array(draw(st.lists(st.integers(-6, 0), min_size=n, max_size=n)))
    h = s.T @ (d[:, None] * s) + 2.0 ** -draw(st.integers(0, 7)) * np.eye(n)
    # each coordinate on its lower bound, on its upper bound or at a dyadic
    # point inside, at least one on a bound
    where = np.array(draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n)))
    where[draw(st.integers(0, n - 1))] = draw(st.sampled_from((-1, 1)))
    inside = np.array(draw(st.lists(st.integers(-7, 7), min_size=n, max_size=n))) / 64.0
    lam = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
    x = np.where(where != 0, where / 8.0, inside)
    return box_qp(h=h, f=where * -lam - h @ x, lb=np.full(n, -0.125), ub=np.full(n, 0.125))


@settings(max_examples=500, deadline=None, derandomize=True, phases=_UNSHRUNK)
@given(degenerate_velocity_qps())
def test_degenerate_velocity_qps_converge(qp):
    sol = solve_box_qp(qp)
    event(f"more than 30 iterations: {sol.iterations > 30}")
    assert sol.status == "converged" and sol.kkt_residual <= KKT_TOL
    assert sol.iterations <= _DEGENERATE_CEILING


# --- the dual active-set phase ----------------------------------------------
#
# velocity_sl's QPs stall the block swaps with several violations left: its
# moves act on the lateral position through the heading, twice accumulated,
# so H = S'DS + rI with S the twice-cumulative move map is ill-conditioned
# (cond about 1e4 on the shipped noisy sine; the draws add 1e-5..1e-3 I to
# S'DS scaled to max|H| = 1), and its minimizer lies inside the box but for
# a few moves far outside it. There the search hands over
# to its dual phase, whose answer must still be the exact finish of the
# reference solver's partition, cold and from any start.

@st.composite
def stalling_qps(draw, max_n: int = 20):
    n = draw(st.integers(3, max_n))
    s = np.linalg.matrix_power(np.tril(np.ones((n, n))), 2)
    d = 10.0 ** np.array(draw(st.lists(_floats(-1.0, 1.0), min_size=n, max_size=n)))
    h = s.T @ (d[:, None] * s)
    h = h / np.abs(h).max() + 10.0 ** -draw(_floats(3.0, 5.0)) * np.eye(n)
    w = 10.0 ** draw(_floats(-2.0, 0.0))
    x = w * np.array(draw(st.lists(_floats(-1.0, 1.0), min_size=n, max_size=n)))
    for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)):
        x[i] = w * draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(_floats(0.1, 1.0))
    return box_qp(h=h, f=-(h @ x), lb=np.full(n, -w), ub=np.full(n, w))


def _random_stalling_qp(rng, n):
    s = np.linalg.matrix_power(np.tril(np.ones((n, n))), 2)
    h = s.T @ (10.0 ** rng.uniform(-1.0, 1.0, size=(n, 1)) * s)
    h = h / np.abs(h).max() + 10.0 ** -rng.uniform(3.0, 5.0) * np.eye(n)
    w = 10.0 ** rng.uniform(-2.0, 0.0)
    x = w * rng.uniform(-1.0, 1.0, size=n)
    out = rng.choice(n, size=int(rng.integers(1, 5)), replace=False)
    x[out] = w * rng.choice((-1.0, 1.0), size=out.size) * 10.0 ** rng.uniform(0.1, 1.0, out.size)
    return box_qp(h=h, f=-(h @ x), lb=np.full(n, -w), ub=np.full(n, w))


def _assert_oracles(qp, sols):
    """Every solution meets the KKT contract and keeps the reference bits, and
    for n <= 7 matches the brute-force minimizer."""
    ref = reference_solve_box_qp(qp).u
    best = _brute_force_minimizer(qp) if qp.f.size <= 7 else None
    for sol in sols:
        assert sol.status == "converged" and sol.kkt_residual <= KKT_TOL
        assert np.array_equal(sol.u, ref)
        if best is not None:
            np.testing.assert_allclose(sol.u, best, rtol=0, atol=1e-7)


@settings(max_examples=200, deadline=None, derandomize=True, phases=_UNSHRUNK)
@given(started_qps(stalling_qps()))
def test_stalled_search_matches_the_oracles(case):
    qp, start = case
    sols = solve_box_qp(qp), solve_box_qp(qp, start=start)
    for sol in sols:
        event(f"dual phase reached: {sol.dual_iterations > 0}")
        if sol.dual_iterations:
            assert sol.primal_iterations == 0  # the dual phase's partition held
    _assert_oracles(qp, sols)


def test_dual_phase_matches_the_oracles_where_it_runs():
    # few small QPs stall with three violations left, so seeded draws of the
    # same shape are taken until 25 of at most 7 moves reached the dual
    # phase cold; each is also solved from a drawn start
    rng = np.random.default_rng(19)
    reached = 0
    for _ in range(5000):
        qp = _random_stalling_qp(rng, int(rng.integers(5, 8)))
        cold = solve_box_qp(qp)
        if cold.dual_iterations == 0:
            continue
        reached += 1
        start = rng.integers(-1, 2, size=qp.f.size).astype(np.int8)
        _assert_oracles(qp, (cold, solve_box_qp(qp, start=start)))
        if reached == 25:
            break
    assert reached == 25


# A weight_tuned QP of the shipped course (scenarios/complete.cfg): the
# reference solver's single swaps take 48 iterations on its 5 moves.
_COURSE_H = (
    "0x1.4dfc2c4c24f9cp+22 0x1.2aa5a2998967fp+22 0x1.095b67ef1cc2dp+22 0x1.d43ed31b43446p+21 "
    "0x1.99e6268029706p+21 0x1.2aa5a2998967fp+22 0x1.0b4d33b2baa37p+22 0x1.db7a3a02c34a7p+21 "
    "0x1.a3ef1bd4d0bdcp+21 0x1.6ffce75d22d09p+21 0x1.095b67ef1cc2dp+22 0x1.db7a3a02c34a7p+21 "
    "0x1.a7562c6331200p+21 0x1.764aa51dd27cdp+21 0x1.485c02fc7b446p+21 0x1.d43ed31b43446p+21 "
    "0x1.a3ef1bd4d0bdcp+21 0x1.764aa51dd27cdp+21 0x1.4b516f96d8af6p+21 0x1.2303795e32cbep+21 "
    "0x1.99e6268029706p+21 0x1.6ffce75d22d09p+21 0x1.485c02fc7b446p+21 0x1.2303795e32cbep+21 "
    "0x1.ffe69645b329cp+20")
_COURSE_F = ("0x1.ec661877206eep+16 0x1.b9f4d94d02f0bp+16 0x1.8a5426d96a4acp+16 "
             "0x1.5d73278707ccap+16 0x1.33477341f9a3cp+16")
_COURSE_U = ("-0x1.d35a80fa4030cp-7 0x1.999999999999ap-6 0x1.1eaa9083745c5p-9 "
             "-0x1.999999999999ap-6 -0x1.999999999999ap-6")


def _from_hex(text: str) -> np.ndarray:
    return np.array([float.fromhex(word) for word in text.split()])


def test_recorded_course_qp_finishes_in_the_primal_phase():
    qp = box_qp(h=_from_hex(_COURSE_H).reshape(5, 5), f=_from_hex(_COURSE_F),
                lb=np.full(5, -0.025), ub=np.full(5, 0.025))
    ref = reference_solve_box_qp(qp)
    sol = solve_box_qp(qp)
    assert ref.iterations == 48
    assert sol.status == "converged" and sol.kkt_residual <= KKT_TOL
    assert 0 < sol.primal_iterations < sol.iterations < ref.iterations
    assert np.array_equal(sol.u, ref.u)
    assert sol.u.tobytes() == _from_hex(_COURSE_U).tobytes()  # the move the course applied


def _recorded_qp(name: str) -> dict[str, np.ndarray]:
    """The keys and values of a QP recorded in tests/golden/recorded_qps/."""
    lines = (Path(__file__).parent / "golden" / "recorded_qps" / name).read_text().splitlines()
    words = dict(line.split(" ", 1) for line in lines if not line.startswith("#"))
    qp = {key: _from_hex(text) for key, text in words.items() if key != "start"}
    qp["start"] = np.array(words["start"].split(), dtype=np.int8)
    return qp


def _recorded_velocity_qp() -> tuple[TrackingQp, dict[str, np.ndarray]]:
    """The velocity_sl QP of the shipped noisy sine whose search took longest
    (52 iterations from its run's start, 45 of them in the primal phase)."""
    rec = _recorded_qp("sine_disturbed_velocity_sl.txt")
    n = rec["f"].size
    h = np.zeros((n, n))
    h[np.triu_indices(n)] = rec["h_upper"]
    h += np.triu(h, 1).T
    return box_qp(h=h, f=rec["f"], lb=rec["lb"], ub=rec["ub"]), rec


def test_recorded_velocity_qp_finishes_in_the_dual_phase(monkeypatch):
    qp, rec = _recorded_velocity_qp()
    ref = reference_solve_box_qp(qp)
    for sol in (solve_box_qp(qp, start=rec["start"]), solve_box_qp(qp)):
        assert sol.status == "converged" and sol.kkt_residual <= KKT_TOL
        assert 0 < sol.dual_iterations and sol.primal_iterations == 0
        assert sol.iterations <= 25
        assert np.array_equal(sol.u, ref.u)
        assert sol.u.tobytes() == rec["u"].tobytes()  # the move the run applied
    # cold, its block swaps stall at iteration 8: a budget of 8 runs out in
    # the dual phase's release loop, one of 9 to 12 in its pinning loop, and
    # the solve returns the last partition's point clipped to the box
    for budget in (8, 9, 12):
        monkeypatch.setattr(qp_mod, "MAX_ITERATIONS", budget)
        sol = solve_box_qp(qp)
        assert sol.status == "max_iter" and sol.iterations == budget, budget
        assert sol.dual_iterations == budget - 8 and sol.primal_iterations == 0, budget
        assert ((qp.lb <= sol.u) & (sol.u <= qp.ub)).all(), budget


def test_failed_dual_finish_restarts_the_primal_phase():
    # no QP found by search fails the exact finish of the dual phase's
    # partition, so the finish after the dual phase is made to reject it
    # once: the primal phase then goes on from the refined point, and the
    # partition it accepts still returns the reference solver's bits
    qp, rec = _recorded_velocity_qp()
    real_dual, real_finish = qp_mod._dual, qp_mod._finish
    calls = []  # "dual" per dual phase, then "rejected" for the finish after it

    def dual(*args):
        calls.append("dual")
        return real_dual(*args)

    def finish(*args):
        sol, viol = real_finish(*args)
        if calls == ["dual"]:
            calls.append("rejected")
            return None, viol
        return sol, viol

    with mock.patch.object(qp_mod, "_dual", dual), mock.patch.object(qp_mod, "_finish", finish):
        sol = solve_box_qp(qp)
    assert calls == ["dual", "rejected"]
    assert sol.dual_iterations > 0 and sol.primal_iterations > 0
    assert sol.status == "converged" and sol.kkt_residual <= KKT_TOL
    assert np.array_equal(sol.u, reference_solve_box_qp(qp).u)
    assert sol.u.tobytes() == rec["u"].tobytes()


def _angles(lo: float, hi: float):
    return st.one_of(st.sampled_from((0.0, -0.0)), _floats(lo, hi))


@st.composite
def prediction_cases(draw):
    """A linearization at a drawn vehicle, ts, (psi, beta) and 1 <= M <= N <= 60.

    N reaches past 40, where the held column sums over many passes and the
    buffer Su is read from holds many zero rows."""
    params = VehicleParams(lf=draw(_floats(0.3, 4.0)), lr=draw(_floats(0.3, 4.0)),
                           v=draw(_floats(0.1, 50.0)))
    ts = draw(st.one_of(st.just(0.0), _floats(1e-3, 0.5)))
    state = VehicleState(psi=draw(_angles(-2.0 * math.pi, 2.0 * math.pi)),
                         beta=draw(_angles(-1.5, 1.5)))
    kind = draw(st.sampled_from(("initial", "position", "velocity")))
    event(kind)
    if kind == "initial":
        model = linearize_initial(params, ts)
    else:
        model = (linearize_position if kind == "position" else linearize_velocity)(state, params, ts)
    n = draw(st.integers(1, 60))
    return model, n, draw(st.integers(1, n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(prediction_cases())
def test_prediction_matches_the_reference_recursions_bit_for_bit(case):
    model, n, m = case
    pred = build_prediction(model, n, m)
    sx, su, sk = _reference_prediction(model, n, m)
    assert (pred.sx.tobytes(), pred.su.tobytes(), pred.sk.tobytes()) == \
        (sx.tobytes(), su.tobytes(), sk.tobytes())


def _weight(rng, zero_ok: bool) -> float:
    """0 (where allowed), an ordinary weight, or a tiny or huge one."""
    kind = rng.integers(4 if zero_ok else 3)
    if kind == 0:
        return float(rng.uniform(0.01, 30.0))
    if kind == 1:
        return float(10.0 ** rng.uniform(-148.0, -2.0))
    if kind == 2:
        return float(10.0 ** rng.uniform(2.0, 148.0))
    return 0.0


def test_diagonal_condensing_is_byte_identical_to_the_dense_product():
    # condense_cost scales each stage of Su by diag(Q); on every drawn model
    # its Su' Qbar and H keep the bytes of Su' kron(I, diag(q)) and of the
    # Hessian built from that, the input-target term included
    rng = np.random.default_rng(2018)
    kinds = ("initial", "position", "velocity")
    for draw in range(10_000):
        kind = kinds[draw % 3]
        params = VehicleParams(lf=float(rng.uniform(0.5, 3.0)), lr=float(rng.uniform(0.5, 3.0)),
                               v=float(rng.uniform(1.0, 30.0)))
        ts = float(rng.uniform(0.01, 0.3))
        n = int(rng.integers(1, 26))
        m = int(rng.integers(1, n + 1))
        cfg = config_for("baseline", horizon=n, control_horizon=m, alpha=float(10.0 ** rng.uniform(-2, 2)),
                         w_y=_weight(rng, True), w_u=_weight(rng, True), w_du=_weight(rng, False),
                         q_heading=float(rng.choice([0.0, 10.0 ** rng.uniform(-100.0, 100.0)])))
        hw = horizon_weights(cfg)
        input_weight = None
        if kind == "initial":
            pred = build_prediction(linearize_initial(params, ts), n, m)
            t_low = np.tril(np.ones((m, m)))
            pred = PredictionMatrices(sx=pred.sx, su=pred.su @ t_low, sk=pred.sk)
            if hw.target is not None:
                input_weight = (hw.target, t_low)
        else:
            state = VehicleState(psi=float(rng.choice([0.0, -0.0, rng.uniform(-3.0, 3.0)])),
                                 beta=float(rng.choice([0.0, -0.0, rng.uniform(-0.6, 0.6)])))
            linearize = linearize_position if kind == "position" else linearize_velocity
            pred = build_prediction(linearize(state, params, ts), n, m)

        cost = condense_cost(pred, hw, input_weight)
        suq = pred.su.T @ np.kron(np.eye(n), np.diag(hw.q))
        h = suq @ pred.su + hw.r * np.eye(m)
        h = 0.5 * (h + h.T)
        if input_weight is not None:
            w, t_map = input_weight
            h = h + w * (t_map.T @ t_map)
        assert cost.suq.tobytes() == suq.tobytes(), (draw, kind, n, m)
        assert cost.h.tobytes() == h.tobytes(), (draw, kind, n, m)
