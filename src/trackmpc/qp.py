"""Condensed horizon prediction, tracking-cost assembly, and a box-QP solver.

The predicted state stack over a horizon of N samples with M free moves is

    X = Sx x0 + Su U + Sk,    X = [x(1); ...; x(N)],  U = [u(0); ...; u(M-1)]

with the last move held for stages M..N-1. A quadratic tracking cost with
per-stage state weight Q and per-move weight R condenses to

    min_U  0.5 U' H U + f' U,   H = Su' Qbar Su + Rbar,
                                f = Su' Qbar (Sx x0 + Sk - Xref)

subject to box bounds on U. H and Su' Qbar depend on the model and weights
only, so condense_cost can build them once for a model that never changes,
leaving f to each step. The solver below handles exactly that problem
shape: dense, strictly convex, small (tens of variables), with the KKT
condition of a box QP as its termination test. It searches bound
partitions with cheap solves, optionally from a previous QP's partition,
and finishes the one it accepts exactly, so its answer depends on that
partition alone. Where the unconstrained minimizer pins most moves, a few
projected-gradient steps pick the first partition to try (More and
Toraldo, "On the solution of large quadratic programming problems with
bound constraints", SIAM J. Optim. 1(1), 1991). Where block swaps from the
unconstrained minimizer's partition stall with several violations left, a
dual active-set phase adds one violated bound per step while every iterate
keeps its multipliers' signs (Goldfarb and Idnani, "A numerically stable
dual method for solving strictly convex quadratic programs", Math.
Programming 27, 1983).

For a fixed (H, lb, ub) the optimal partition is a piecewise-constant
function of f whose regions are polyhedra (Bemporad, Morari, Dua and
Pistikopoulos, "The explicit linear quadratic regulator for constrained
systems", Automatica 38(1), 2002). region_table enumerates them once for
QPs of at most MAX_TABLE_MOVES variables. A solver handed the table asks
it for the first partition before any linear solve, the all-free region
first, and forms the unconstrained minimizer only where the table names
none or the search reaches the all-free partition; the search does the
rest, so a finish that fails is never discarded uncounted.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .linearize import AffineLtiModel

_POSITIVE_ZERO3 = bytes(3 * 8)  # the bytes of (+0.0, +0.0, +0.0)
_EPS = float(np.finfo(float).eps)
# A region table has 3^M regions, so its size and the cost of a lookup
# triple per move (99 kB at M = 6); README's solver section gives lookup
# times against that of one solver iteration.
MAX_TABLE_MOVES = 6
# A region table names a partition only where f lies farther than this,
# relative, from the boundary of its region (see RegionTable); the search's
# primal phase ignores violations within the same margin.
_BOUNDARY = 1e-9
# Projected-gradient steps that seed the search where the unconstrained
# minimizer pins more than half the coordinates (see solve_box_qp).
_SEED_STEPS = 8
# The KKT residual a converged solve meets, relative to the gradient's scale
# (see _meets).
KKT_TOL = 1e-8
# One solve's budget of iterations, one reduced solve each (see solve_box_qp).
MAX_ITERATIONS = 10000


class HorizonWeights(NamedTuple):
    """The tracking weights, alpha applied, as controllers.horizon_weights builds them.

    q is the diagonal of the per-stage state weight Q, r > 0 the weight of
    each move, and target that of the input-target term, None when it is off.
    """

    q: np.ndarray
    r: float
    target: float | None


class PredictionMatrices(NamedTuple):
    """Condensed prediction X = Sx x0 + Su U + Sk over N stages and M moves."""

    sx: np.ndarray  # (3N, 3)
    su: np.ndarray  # (3N, M)
    sk: np.ndarray  # (3N,)


def build_prediction(model: AffineLtiModel, n: int, m: int) -> PredictionMatrices:
    """Unroll a one-step model over the horizon with last-move hold.

    Block (i, j) of Su is the Markov parameter G_(i-j) = A^(i-j) B for
    i >= j (1-indexed stages/moves), so the N parameters are computed once,
    after M-1 zero rows of one buffer, and the block-Toeplitz Su is one
    C-ordered copy of a strided view of it (move j reads the buffer j rows
    further back). The final move column instead holds sum_p G_p over its
    held stages, summed from G_(i-M) down to G_0. Sk accumulates the drift,
    Sx stacks A^i. Su, Sx and Sk are C-ordered and share no memory.

    With A = I + c e3' the powers are A^p = I + p c e3', a cumsum of c, and
    while the drift stays off the heading (K[2] = 0) or A = I, Sk is the
    running sum of K. Both round exactly like the recursions A^(p-1) A and
    A d + K they replace; with c = 0 every G_p is B + 0.0, the bits of I B.
    A model whose drift moves the heading through a coupling c != 0 is
    rejected; linearize builds none.
    """
    if n < 1 or not (1 <= m <= n):
        raise ValueError(f"need 1 <= M <= N, got N={n}, M={m}")
    c, b, k = model.c, model.b, model.k
    coupled = np.count_nonzero(c)
    if k[2] != 0.0 and coupled:
        raise ValueError("a drift K[2] != 0 through the heading coupling c != 0 is not supported")

    sx = np.zeros((n, 9))
    sx[:, ::4] = 1.0
    padded = np.zeros((m - 1 + n, 3))  # M-1 zero rows, then markov[p] = A^p B
    padded[m - 1:] = b + 0.0  # I B: G_0, and every G_p where A = I
    if coupled:
        # Each product A^(p-1) A adds c to the heading column with one rounding,
        # which a cumsum repeats (+ 0.0 turns -0.0 into the +0.0 the products give).
        sx[:, 2:6:3] = np.full((n, 2), c).cumsum(0) + 0.0  # entries (0,2), (1,2)
        np.matmul(sx[:n - 1].reshape(n - 1, 3, 3), b, out=padded[m:])
    markov = padded[m - 1:]
    row = padded.strides[0]
    su = np.ndarray((n, 3, m), buffer=padded, offset=(m - 1) * row,
                    strides=(row, padded.strides[1], -row)).copy()
    # The held column at stage i sums G_(i-M) .. G_0 in that order, one
    # term per pass for every stage at once.
    held = su[m - 1:, :, m - 1]  # a view: the sums land in Su
    held[:] = 0.0
    for t in range(n - m + 1):
        held[t:] += markov[:n - m + 1 - t]
    su = su.reshape(3 * n, m)

    sx = sx.reshape(3 * n, 3)
    if k.tobytes() == _POSITIVE_ZERO3:
        sk = np.zeros(3 * n)  # A 0 + (+0) is +0 for any A
    else:
        sk = np.full((n, 3), k + 0.0).cumsum(0).reshape(3 * n)
    return PredictionMatrices(sx=sx, su=su, sk=sk)


class TrackingQp(NamedTuple):
    """min 0.5 u'Hu + f'u subject to lb <= u <= ub, the box QP a control step poses.

    In normal form by construction: H exactly symmetric, positive definite,
    C-ordered and read-only; f and lb <= ub flat float64 vectors of H's size.
    """

    h: np.ndarray
    f: np.ndarray
    lb: np.ndarray
    ub: np.ndarray


class CondensedCost(NamedTuple):
    """The state-independent part of the condensed tracking cost.

    suq = Su' Qbar (M x 3N, C-contiguous) maps the free-response error to
    the gradient f; h is the symmetric Hessian, read-only because every QP
    built from this cost shares it.
    """

    suq: np.ndarray
    h: np.ndarray


def condense_cost(pred: PredictionMatrices, weights: HorizonWeights,
                  input_weight: tuple[float, np.ndarray] | None = None) -> CondensedCost:
    """Su' Qbar and H = Su' Qbar Su + Rbar (+ w T'T) for one prediction.

    Qbar is block diagonal with diagonal blocks Q, so Su' Qbar is each
    stage's rows of Su scaled by diag(Q); + 0.0 gives every zero the sign
    the dense product Su' kron(I, Q) gives it, so both round alike, and so
    does the product with Su, whose bits need Su' Qbar C-ordered. Rbar goes
    onto H's diagonal in place: adding r I would add +0 off it, which moves
    no entry of the product, since none is -0. input_weight = (w, T) adds w T'T.
    """
    n3, m = pred.su.shape
    suq = pred.su.reshape(n3 // 3, 3, m) * weights.q[:, None]
    suq += 0.0
    suq = suq.reshape(n3, m).T.copy()  # C-ordered
    h = suq @ pred.su
    h.reshape(-1)[::m + 1] += weights.r  # Rbar on the diagonal
    h = h + h.T
    h *= 0.5
    if input_weight is not None:
        w, t_map = input_weight
        h = h + w * (t_map.T @ t_map)
    h.flags.writeable = False
    return CondensedCost(suq, h)


def move_box(m: int, du_bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (lb, ub) that box each of m moves to du_bounds = (low, high).

    A run builds its box once and hands it to build_tracking_qp, so every QP
    it poses shares the two arrays.
    """
    lo, hi = du_bounds
    if not lo <= hi:
        raise ValueError(f"need du_bounds low <= high, got ({lo}, {hi})")
    lb = np.full(m, float(lo))
    ub = np.full(m, float(hi))
    lb.flags.writeable = ub.flags.writeable = False
    return lb, ub


def build_tracking_qp(
    pred: PredictionMatrices,
    cost: CondensedCost,
    x0: np.ndarray,
    x_ref: np.ndarray,
    box: tuple[np.ndarray, np.ndarray],
    input_target: tuple[float, np.ndarray, np.ndarray] | None = None,
) -> TrackingQp:
    """The box QP of the tracking cost, H = cost.h and f = Su' Qbar (Sx x0 + Sk - Xref).

    Sx and Sk come from pred and Su' Qbar from cost, which condenses the
    moves' Su with (w, T) of input_target = (w, T, c): the term
    0.5 w |T U + c|^2 on the commands T U + c measured from their target,
    which adds w T'c to f. x0 and x_ref are float arrays of 3 and 3N
    entries, and box is move_box's (lb, ub), which the QP takes as its
    bounds. Only x_ref's shape is checked, since a stack of another shape
    would broadcast. The QP is in normal form by construction: H = cost.h
    symmetric and C-ordered, f flat and lb <= ub.
    """
    n3 = cost.suq.shape[1]
    if x_ref.shape != (n3,):
        raise ValueError(f"reference stack must have {n3} entries, got {x_ref.size} "
                         f"in shape {x_ref.shape}")
    f = cost.suq.dot(pred.sx.dot(x0) + pred.sk - x_ref)
    if input_target is not None:
        w, t_map, offset = input_target
        f = f + w * (t_map.T @ offset)
    return TrackingQp(cost.h, f, *box)


class QpSolution(NamedTuple):
    u: np.ndarray
    iterations: int
    status: str          # "converged", "inaccurate" or "max_iter"
    kkt_residual: float
    primal_iterations: int = 0  # of the iterations, those of the primal active-set phase
    start: np.ndarray | None = None  # the accepted partition when the guess missed
    dual_iterations: int = 0  # of the iterations, those of the dual active-set phase


def _blocks(h, free, pinned):
    """(rows, h_free, h_pinned): H's free rows and their free and pinned blocks.

    The pinned block is sliced from the free rows by a column mask, which
    leaves it F-ordered: its product with z rounds by that layout, so a
    C-ordered copy of the same values would change the bits. The free block
    goes only to LAPACK, which copies it whatever its layout.
    """
    rows = h.compress(free, 0)
    return rows, rows.compress(free, 1), rows[:, pinned]


def _reduced(h, f, lb, ub, x_unc, part, free, blocks):
    """The cheap iterate of a partition: (z, rows, h_free, f_free).

    Pinned coordinates sit on their bound and free ones solve the reduced
    normal equations without refinement; rows, h_free and f_free are what
    _refine needs, h_free None when nothing is free. The all-free
    partition's reduced solve is the unconstrained one, H z = -(f + 0.0):
    it reuses x_unc where the solve formed it for its guess and solves H
    here where it did not (None), and it refines on H itself, which rounds
    like a copy of all its rows because every QP's H is C-ordered
    (condense_cost builds it so). blocks maps a free set's bytes to its
    _blocks of this H, built ahead; where it is None they are gathered here.
    """
    n_free = np.count_nonzero(free)
    if n_free == free.size:
        return (np.linalg.solve(h, -(f + 0.0)) if x_unc is None else x_unc.copy()), h, h, f
    z = np.where(part < 0, lb, ub)
    if not n_free:
        return z, None, None, None
    pinned = ~free
    if blocks is None:
        rows, h_free, h_pinned = _blocks(h, free, pinned)
    else:
        rows, h_free, h_pinned = blocks[free.tobytes()]
    f_free = f[free]
    z[free] = np.linalg.solve(h_free, -(f_free + h_pinned.dot(z[pinned])))
    return z, rows, h_free, f_free


def _refine(z, free, rows, h_free, f_free) -> None:
    """One step of iterative refinement of a cheap iterate, in place; it keeps
    the free gradient at solver precision even for badly scaled H. rows is
    H's free rows and h_free their free block, both H itself when all are free."""
    if h_free is None:
        return
    step = np.linalg.solve(h_free, rows.dot(z) + f_free)
    if rows is h_free:  # all free: the whole of z
        z -= step
    else:
        z[free] -= step


def _violations(h, f, test, movable, part, z):
    """(too_low, too_high, wrong-sign multipliers, gradient, count) at z.

    test is (lo, hi, g_tol): a free value violates below lo or above hi, a
    pinned multiplier when part * g exceeds g_tol; it is (lb, ub, 0.0)
    outside the primal phase (see _margins). Pinned coordinates sit exactly on a
    bound, so only free ones can be out of the box; part * g > 0 is g < 0 at
    a lower and g > 0 at an upper bound. movable masks the multipliers that
    may leave, None where every coordinate may.
    """
    lo, hi, g_tol = test
    g = h.dot(z) + f
    too_low, too_high, leave = z < lo, z > hi, part * g > g_tol
    if movable is not None:
        leave &= movable
    return too_low, too_high, leave, g, np.count_nonzero(too_low | too_high | leave)


def _margins(h, lb, ub):
    """The primal phase's violation test (lo, hi, g_tol), with the region
    table's margins: a free value violates only beyond _BOUNDARY times the
    box's widest finite side, a pinned multiplier only beyond _BOUNDARY
    times max|H| times the largest finite bound; a margin with nothing
    finite to scale it is 0.

    On a degenerate QP (a bound with a zero multiplier) roundoff otherwise
    flips such a multiplier's sign from one partition to the next, and the
    ratio test and the release rule can cycle between them.
    """
    width = ub - lb
    width = width[np.isfinite(width)]
    bounds = np.abs(np.concatenate((lb, ub)))
    bounds = bounds[np.isfinite(bounds)]
    x_tol = _BOUNDARY * float(width.max()) if width.size else 0.0
    g_tol = _BOUNDARY * float(np.abs(h).max()) * float(bounds.max()) if bounds.size else 0.0
    return lb - x_tol, ub + x_tol, g_tol


def _partition(x, lb, ub, fixed):
    """The bound partition of x: -1 at or below lb (and where lb == ub), +1
    at or above ub, 0 free."""
    part = np.zeros(x.size, dtype=np.int8)
    part[x <= lb] = -1
    part[x >= ub] = 1
    part[fixed] = -1
    return part


def _seed(h, f, lb, ub, x_unc):
    """The point of _SEED_STEPS projected-gradient steps from clip(x_unc),
    each x <- clip(x - (H x + f) / L).

    L, the largest row sum of |H|, bounds H's largest eigenvalue
    (Gershgorin), so every step descends. Each runs as
    x <- clip((I - H/L) x - f/L) in four numpy calls on preallocated arrays.
    Where L overflows, the steps stand still and the seed is clip(x_unc).
    """
    with np.errstate(over="ignore"):
        scale = -1.0 / float(np.abs(h).sum(1).max())
    a = h * scale
    a.flat[::f.size + 1] += 1.0
    c = f * scale
    x = x_unc.clip(lb, ub)
    y = np.empty_like(x)
    for _ in range(_SEED_STEPS):
        np.dot(a, x, out=y)
        y += c
        np.maximum(y, lb, out=x)
        np.minimum(x, ub, out=x)
    return x


def _dual(h, f, lb, ub, x_unc, test, movable, part, cheap, blocks, budget):
    """The dual active-set phase from a partition and its cheap iterate:
    (cheap, reduced solves), cheap None if the budget ran out first.

    Changes part in place. First releases every pinned coordinate whose
    multiplier fails test (see _margins), re-solving until none does; the
    iterate is then dual feasible. Then pins the free coordinate farthest
    outside the box and tries the partition: where every other pinned
    multiplier keeps its sign the trial is the new iterate, else the point
    steps along the segment toward the trial to where the first multiplier
    reaches zero (point and gradient are affine along it), that coordinate
    is released and the trial repeats. Returns the cheap iterate of the
    first partition with no free value outside the box (Goldfarb and
    Idnani 1983).
    """
    lo, hi, _ = test
    its = 0
    z = cheap[0]
    while True:
        _, _, leave, g, _ = _violations(h, f, test, movable, part, z)
        if not np.count_nonzero(leave):
            break
        if its == budget:
            return None, its
        its += 1
        part[leave] = 0
        cheap = _reduced(h, f, lb, ub, x_unc, part, part == 0, blocks)
        z = cheap[0]
    while True:
        out = np.maximum(lo - z, z - hi)  # > 0 only for a free value outside the box
        j = int(np.argmax(out))
        if not out[j] > 0.0:
            return cheap, its
        part[j] = -1 if z[j] < lo[j] else 1
        while True:
            if its == budget:
                return None, its
            its += 1
            cheap = _reduced(h, f, lb, ub, x_unc, part, part == 0, blocks)
            trial = cheap[0]
            # j's own multiplier grows from 0 at the point to its bound's
            # sign at the trial; releasing it on roundoff would undo the pin.
            _, _, wrong, g_trial, _ = _violations(h, f, test, movable, part, trial)
            wrong[j] = False
            if not np.count_nonzero(wrong):
                z, g = trial, g_trial
                break
            # Step to where the first wrong-signed multiplier reaches zero.
            a = part * g
            ratio = np.where(wrong, a / np.where(wrong, a - part * g_trial, -1.0), np.inf)
            i = int(np.argmin(ratio))
            t = max(float(ratio[i]), 0.0)
            z = z + t * (trial - z)
            g = g + t * (g_trial - g)
            part[i] = 0


def _kkt_residual(x, g, lb, ub) -> float:
    """max |x - clip(x - g)|, the box-QP KKT residual at x with gradient g."""
    return float(np.abs(x - (x - g).clip(lb, ub)).max())


def _meets(resid: float, h, f, lb, ub, x) -> bool:
    """resid <= KKT_TOL * max(1, s) with s = max|H| max|x| + max|f|, the
    tolerance relative to the gradient's scale; s is formed only when resid
    exceeds KKT_TOL.

    The residual of a point in the box is at most the box's widest side, so
    once the gradient's roundoff eps * s reaches that width every point in
    the box scores like a solution; such a QP is held to the absolute KKT_TOL.
    """
    if resid <= KKT_TOL:
        return True
    scale = float(np.abs(h).max()) * float(np.abs(x).max()) + float(np.abs(f).max())
    return resid <= KKT_TOL * max(1.0, scale) and _EPS * scale < float((ub - lb).max())


class RegionTable(NamedTuple):
    """Every bound partition of one (H, lb, ub) with the region of f it is optimal on.

    Partition r (row r of parts) holds f when its free iterate
    z_S = -H_SS^-1 (f_S + H_SP z_P) lies in the box and every pinned
    multiplier g_P = (H z + f)_P has its bound's sign, solve_box_qp's
    violation test in exact arithmetic. Both are affine in f. The linear part
    depends on the free set S alone, one row per coordinate (z_i for a free
    i, g_i for a pinned one), and the pinned bounds add a constant per
    partition, which lo and hi absorb.

    lo and hi are narrowed by a margin, _BOUNDARY times the box's width for
    a free value and times the gradient's scale over the box, max|H| times
    the largest bound, for a pinned one. Where f lies within it of a
    region's boundary, two partitions both hold in exact arithmetic and
    roundoff picks the one a search accepts, so the table names neither.

    h is the H object the table was built from and blocks the _blocks of
    each free set of it, keyed by the free mask's bytes, so that solving a
    QP of that H object gathers none.

    free_region repeats the all-free partition's gain rows (-H^-1) and its
    lo and hi as one contiguous (M + 2, M) block, which first_partition
    reads on every solve; as slices of gains, lo and hi the same values lie
    strided over up to 3M cache lines.
    """

    parts: np.ndarray     # (3^M, M) int8, -1/0/+1 per coordinate as solve_box_qp's start
    gains: np.ndarray     # (M 2^M, M): row i 2^M + s maps f to coordinate i's value on free set s
    free_set: np.ndarray  # (3^M,) each partition's free set, an index into the 2^M
    lo: np.ndarray        # (M, 3^M) lower limits of each partition's values, less its constant,
    hi: np.ndarray        # (M, 3^M) and upper ones, both narrowed by the margin
    h: np.ndarray
    blocks: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]]
    free_region: np.ndarray  # (M + 2, M) the all-free gain rows, then its lo and hi

    def locate(self, f: np.ndarray) -> np.ndarray | None:
        """The partition whose region holds f with the margin, a row of parts
        (copy it to change it); None if f lies in no region or within the
        margin of a region's boundary."""
        w = self.gains.dot(f).reshape(self.lo.shape[0], -1).take(self.free_set, axis=1)
        inside = ((w >= self.lo) & (w <= self.hi)).all(0)
        r = int(inside.argmax())
        return self.parts[r] if inside[r] else None

    def first_partition(self, f: np.ndarray) -> np.ndarray | None:
        """locate(f), with the all-free region tested first on its own: one
        M x M product with its gain rows and locate's test against its limits.
        Where that holds, the all-free row of parts, without the full lookup."""
        m = self.free_region.shape[1]
        lo, hi = self.free_region[m:].tolist()
        # at most MAX_TABLE_MOVES values: compared as floats, a miss returns at once
        for low, value, high in zip(lo, self.free_region[:m].dot(f).tolist(), hi):
            if not low <= value <= high:
                return self.locate(f)
        return self.parts[self.parts.shape[0] // 2]  # all free, the middle row of parts


def region_table(h: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> RegionTable | None:
    """The RegionTable of min 0.5 u'Hu + f'u, lb <= u <= ub over all f.

    None where a table is not built: more than MAX_TABLE_MOVES variables, a
    zero-width box (lb == ub) or a bound that is not finite. One batched
    inverse covers every free set: H_SS padded with the identity on the
    pinned block inverts to H_SS^-1 padded alike.
    """
    m = lb.size
    if m > MAX_TABLE_MOVES or not (np.isfinite(lb).all() and np.isfinite(ub).all()
                                   and (lb < ub).all()):
        return None
    eye = np.eye(m, dtype=bool)
    sets = np.array(list(itertools.product((False, True), repeat=m)))  # (2^M, M) free masks
    both = sets[:, :, None] & sets[:, None, :]
    inv = np.where(both, np.linalg.inv(np.where(both, h, eye)), 0.0)  # H_SS^-1, 0 off S x S
    # Coordinate i's value is e_i' z when free and H_i z + f_i when pinned.
    rows = np.where(sets[:, :, None], eye, h)
    gains = np.where(sets[:, :, None], 0.0, eye) - rows @ inv

    parts = np.array(list(itertools.product((-1, 0, 1), repeat=m)), dtype=np.int8)
    free = parts == 0
    free_set = free @ (1 << np.arange(m - 1, -1, -1))
    pinned_at = np.where(parts < 0, lb, np.where(parts > 0, ub, 0.0))
    z0 = pinned_at - np.einsum("rij,rj->ri", inv[free_set], pinned_at @ h)  # z at f = 0
    offset = np.einsum("rij,rj->ri", rows[free_set], z0)
    bound = max(float(np.abs(lb).max()), float(np.abs(ub).max()))
    margin = _BOUNDARY * np.where(free, ub - lb, float(np.abs(h).max()) * bound)
    lo = np.where(free, lb, np.where(parts < 0, 0.0, -np.inf)) - offset + margin
    hi = np.where(free, ub, np.where(parts > 0, 0.0, np.inf)) - offset - margin
    r = parts.shape[0] // 2  # all free, the middle row of parts
    return RegionTable(parts, gains.transpose(1, 0, 2).reshape(m << m, m), free_set,
                       np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T), h,
                       {s.tobytes(): _blocks(h, s, ~s) for s in sets},
                       np.concatenate((gains[-1], lo[r:r + 1], hi[r:r + 1])))


def _finish(h, f, lb, ub, test, movable, part, free, cheap, it, primal_its, dual_its):
    """The exact finish of a partition from its cheap iterate: (solution, violations).

    Refines the cheap iterate (z, rows, h_free, f_free) in place and tests
    the refined point again with test (see _violations). If it holds, the
    solution is its projection onto the box with its KKT residual, and
    carries part as its start when the solve took more than one iteration;
    otherwise the solution is None and the violations are the refined
    point's, for the search to go on from.
    """
    z, rows, h_free, f_free = cheap
    _refine(z, free, rows, h_free, f_free)
    viol = _violations(h, f, test, movable, part, z)
    if viol[-1]:
        return None, viol
    x = z.clip(lb, ub)  # exact projection of roundoff
    g = viol[3] if x.tobytes() == z.tobytes() else h @ x + f  # the test's H z + f if clip kept z
    resid = _kkt_residual(x, g, lb, ub)
    return QpSolution(x, it, "converged" if _meets(resid, h, f, lb, ub, x) else "inaccurate",
                      resid, primal_its, part if it > 1 else None, dual_its), viol


def solve_box_qp(qp: TrackingQp, start: np.ndarray | None = None,
                 table: RegionTable | None = None) -> QpSolution:
    """Deterministic box-QP solve to the KKT tolerance KKT_TOL.

    qp holds H symmetric positive definite and C-ordered, and f, lb <= ub
    flat float vectors of H's size; the solve reads only these four fields.

    The search is over bound partitions: pinned coordinates sit on their
    bound, free coordinates solve the reduced normal equations, and a
    partition is accepted when no free coordinate leaves the box and no
    pinned coordinate's multiplier has the wrong sign. The accepted
    partition is always finished exactly: one step of iterative refinement
    on its free solve, the violation test again on the refined point, and
    the projection onto the box. The returned point therefore depends only
    on the accepted partition, which for a strictly convex QP is the
    optimal one (unique unless a bound is weakly active), however the
    search reached it.

    The search runs on cheap iterates, the reduced solve without refinement;
    the first is finished at once, and the all-free partition's reduced
    solve is the unconstrained one. The first partition is the region
    table's (see table below) or else the guess, that of the unconstrained
    minimizer, unless the guess pins more than half the coordinates: the
    minimizer then lies far outside the box, and _SEED_STEPS
    projected-gradient steps from its projection, x <- clip(x - (H x + f) /
    L) with L the largest row sum of |H|, name the first partition in place
    of the guess (the seed; More and Toraldo 1991). The seed reads only (H,
    f, lb, ub), so it changes the path and never the answer. Every violating
    coordinate swaps sides at once while the violation count keeps dropping
    (primal-dual active set; Hintermueller, Ito and Kunisch 2002). When
    these block swaps stall the search turns into an active-set method: a
    dual one where the QP took no seed and at least 3 violations remain at
    the stall, a primal one otherwise (on seeded QPs and short stalls the
    dual phase would cost iterations).

    The dual phase (Goldfarb and Idnani 1983) first releases every pinned
    coordinate whose multiplier has the wrong sign, re-solving until none
    has, so that the iterate is dual feasible. It then pins the free
    coordinate farthest outside the box and solves the partition: if every
    other pinned multiplier keeps its sign, that trial is the new iterate;
    otherwise the point steps toward the trial to where the first
    multiplier reaches zero, that coordinate is released and the trial is
    solved again. Once no free coordinate lies outside the box the last
    trial's cheap iterate is finished exactly, at no further reduced solve;
    if that finish fails, the primal phase goes on from its refined point.
    The primal phase starts from the iterate projected onto the box with
    only the bounds whose multipliers have the right sign kept pinned. Each
    of its steps makes one reduced solve; a ratio test pins the first bound
    that blocks the step toward it, and a step that no bound blocks
    releases the pinned coordinate with the most negative multiplier. It is
    finite for positive definite H (Nocedal and Wright, section 16.5).
    Both phases count a violation only beyond the region table's relative
    margin _BOUNDARY: a free value past the box by more than that times its
    widest finite side, a multiplier wrong-signed by more than that times
    max|H| times the largest finite bound (0 where nothing is finite). On a
    weakly active bound roundoff picks the multiplier's sign, and without
    the margin the ratio test and the release rule can cycle there. If the
    exact finish disagrees with a cheap iterate, the search goes on from
    the refined point's violations.

    start warm-starts the search with a partition (int8, -1/0/+1 per
    coordinate, as QpSolution.start holds it): the partition a QP accepted
    after its first partition missed, handed to the next, similar QP. A
    start of another shape or with another entry is a ValueError, whatever
    path the solve would take. It is tried only when it differs from the
    first partition (the table's, the seed's or the guess). The first
    partition is then tested on its cheap iterate first and, if that holds,
    finished as without a start; otherwise the start's cheap iterate is
    formed too and the search goes on from whichever of the two has fewer
    violations, the first partition on a tie. That costs one reduced solve
    when the first partition would have won anyway, and one that holds cold
    still returns at iteration 1. Since the exact finish depends only on
    the accepted partition, a start changes the path and never the answer.
    QpSolution.start is the accepted partition when the solve took more
    than one iteration and None otherwise, so a start is carried only past
    a first partition that missed.

    table is the RegionTable of the QP's (H, lb, ub), as region_table builds
    it. It names the first partition before any linear solve
    (RegionTable.first_partition: the all-free region on its own first,
    then the full lookup), in place of the guess and the seed, and the
    unconstrained minimizer is formed only if the search later reaches the
    all-free partition; where the named partition holds, the solve takes
    one iteration and at most two linear solves. The search does the rest:
    where its finish fails, it goes on from there with that reduced solve
    counted. Where f lies in no region or on a region's boundary (within
    the table's margin, where roundoff would pick between two partitions
    that both hold), the first partition is the one without a table, the
    guess or the seed's. A table built from this H object also holds H's
    blocks for every free set, which every reduced solve uses in place of
    gathering them (so H must not change in place after the table is
    built). The table is read as a hint: one built from another H, or other
    bounds, changes the path and never the answer.

    Every reduced solve counts one iteration; primal_iterations and
    dual_iterations count those of the two phases. The status is
    "converged" only when the returned point meets the tolerance, KKT_TOL *
    max(1, max|H| max|u| + max|f|), relative to the gradient's scale so
    that large weights alone do not fail it; where that scale's roundoff
    reaches the box's widest side, the residual cannot tell points apart
    and the absolute KKT_TOL holds.
    An accepted partition whose point does not meet it (say a NaN gradient,
    which no violation test catches) is "inaccurate". If the budget
    MAX_ITERATIONS runs out first, returns the last partition's point
    clipped to the box, with status "max_iter" unless it happens to meet the
    tolerance anyway.
    """
    h, f, lb, ub = qp.h, qp.f, qp.lb, qp.ub
    nv = f.size
    if start is not None:
        start = np.asarray(start)
        if start.shape != (nv,) or not ((start == 0) | (np.abs(start) == 1)).all():
            raise ValueError(f"start must hold {nv} entries of -1, 0 or 1, got {start!r}")
    fixed = lb == ub  # equality-pinned coordinates never pivot
    movable = ~fixed if np.count_nonzero(fixed) else None
    test = lb, ub, 0.0  # the violation test, widened in the primal phase
    # The table's partition for f comes first where it names one; the
    # unconstrained solve is then formed only if the search reaches the
    # all-free partition (see _reduced).
    found = None if table is None else table.first_partition(f)
    x_unc = None
    seeded = False
    if found is not None:
        part = found.copy()
        part[fixed] = -1
    else:
        # The all-free partition's right-hand side is -(f + H[free, pinned] z)
        # with nothing pinned, i.e. -(f + 0.0) down to the sign of zero, so
        # this solve is its reduced solve as well as the partition guess.
        x_unc = np.linalg.solve(h, -(f + 0.0))
        # Partition per coordinate: -1 at lower bound, +1 at upper, 0 free.
        part = _partition(x_unc, lb, ub, fixed)
        # The seed's partition comes first where the guess pins more than half.
        seeded = 2 * np.count_nonzero(part) > nv
        if seeded:
            part = _partition(_seed(h, f, lb, ub, x_unc), lb, ub, fixed)
    blocks = table.blocks if table is not None and table.h is h else None
    # A start is tried only where it differs from the first partition, i.e.
    # where the search it came from did not accept its own first partition.
    warm = start is not None and start.tobytes() != part.tobytes()
    it = 0
    patience = 3
    best_infeas = nv + 1
    point = None  # the primal phase's feasible point, once it has one
    primal = False
    primal_its = dual_its = 0
    while it < MAX_ITERATIONS:
        it += 1
        if primal:
            primal_its += 1
        free = part == 0
        cheap = _reduced(h, f, lb, ub, x_unc, part, free, blocks)
        z = cheap[0]  # refined in place by _finish
        # The first partition is finished at once, so one that holds costs
        # no more than that; with a start to try, it is tested cheaply.
        exact = it == 1 and not warm
        if not exact:
            viol = _violations(h, f, test, movable, part, z)
            exact = not viol[-1]
        if exact:
            sol, viol = _finish(h, f, lb, ub, test, movable, part, free, cheap, it, primal_its,
                                dual_its)
            if sol is not None:
                return sol
        too_low, too_high, leave, g, n_viol = viol
        if warm:
            if it == 1:
                # The first partition missed: probe the start, then go on from
                # whichever of the two leaves fewer violations, the first on a tie.
                missed = part, too_low, too_high, leave, n_viol
                part = np.array(start, dtype=np.int8)
                part[fixed] = -1  # the multiplier test never moves these
                continue
            warm = False
            if missed[-1] <= n_viol:
                part, too_low, too_high, leave, n_viol = missed
        if not primal:
            if n_viol < best_infeas:
                best_infeas = n_viol
                patience = 3
            elif patience > 0:
                patience -= 1
            if patience > 0:
                part[too_low] = -1
                part[too_high] = 1
                part[leave] = 0
                continue
            primal = True
            test = _margins(h, lb, ub)
            if not seeded and n_viol >= 3:
                cheap, dual_its = _dual(h, f, lb, ub, x_unc, test, movable, part, cheap,
                                        blocks, MAX_ITERATIONS - it)
                it += dual_its
                if cheap is None:
                    break
                if dual_its:  # else every violation lies within the margins
                    sol, viol = _finish(h, f, lb, ub, test, movable, part, part == 0, cheap,
                                        it, primal_its, dual_its)
                    if sol is not None:
                        return sol
                    # The refined point disagrees: the primal phase restarts there.
                    z, exact = cheap[0], True
                    too_low, too_high, leave, g, n_viol = viol
        blocking = too_low | too_high
        if not np.count_nonzero(blocking):
            # A subspace minimizer inside the box: release the pinned
            # coordinate with the most negative multiplier.
            point = z
            part[int(np.argmax(np.where(leave, np.abs(g), -1.0)))] = 0
            continue
        if point is None or exact:
            # Start, or restart from an exact iterate, at the projection onto
            # the box, keeping pinned only what has the right multiplier.
            point = z.clip(lb, ub)
            part[leave] = 0
        # Step from the feasible point toward z up to the first bound that
        # blocks; of bounds blocking at once, pin the one with the largest move.
        step = z - point
        target = np.where(too_low, lb, ub)
        ratio = np.where(blocking, (target - point) / np.where(blocking, step, 1.0), np.inf)
        first = ratio == ratio.min()
        j = int(np.argmax(np.where(first, np.abs(step), -1.0)))
        point = (point + ratio[j] * step).clip(lb, ub)
        point[j] = target[j]
        part[j] = -1 if too_low[j] else 1

    free = part == 0
    z, rows, h_free, f_free = _reduced(h, f, lb, ub, x_unc, part, free, blocks)
    _refine(z, free, rows, h_free, f_free)
    x = z.clip(lb, ub)
    resid = _kkt_residual(x, h @ x + f, lb, ub)
    return QpSolution(x, it, "converged" if _meets(resid, h, f, lb, ub, x) else "max_iter",
                      resid, primal_its, None, dual_its)
