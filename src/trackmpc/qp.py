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
partition alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linearize import AffineLtiModel

_POSITIVE_ZERO3 = bytes(3 * 8)  # the bytes of (+0.0, +0.0, +0.0)


class HorizonWeights(NamedTuple):
    """The tracking weights, alpha applied, as controllers.horizon_weights builds them.

    q is the diagonal of the per-stage state weight Q, r > 0 the weight of
    each move, and target that of the input-target term, None when it is off.
    """

    q: np.ndarray
    r: float
    target: float | None


@dataclass(frozen=True)
class PredictionMatrices:
    """Condensed prediction X = Sx x0 + Su U + Sk over N stages and M moves."""

    sx: np.ndarray  # (3N, 3)
    su: np.ndarray  # (3N, M)
    sk: np.ndarray  # (3N,)


def build_prediction(model: AffineLtiModel, n: int, m: int) -> PredictionMatrices:
    """Unroll a one-step model over the horizon with last-move hold.

    Block (i, j) of Su is the Markov parameter G_(i-j) = A^(i-j) B for
    i >= j (1-indexed stages/moves), so the N parameters are computed once
    and copied into the block-Toeplitz Su as shifted slices. The final move
    column instead holds sum_p G_p over its held stages, summed from
    G_(i-M) down to G_0. Sk accumulates the drift, Sx stacks A^i.

    With A = I + c e3' the powers are A^p = I + p c e3', a cumsum of c, and
    while the drift stays off the heading (K[2] = 0) or A = I, Sk is the
    running sum of K. Both round exactly like the recursions A^(p-1) A and
    A d + K they replace. A model whose drift moves the heading through a
    coupling c != 0 is rejected; linearize builds none.
    """
    if n < 1 or not (1 <= m <= n):
        raise ValueError(f"need 1 <= M <= N, got N={n}, M={m}")
    c, b, k = model.c, model.b, model.k
    if k[2] != 0.0 and c.any():
        raise ValueError("a drift K[2] != 0 through the heading coupling c != 0 is not supported")

    # Each product A^(p-1) A adds c to the heading column with one rounding,
    # which a cumsum repeats (+ 0.0 turns -0.0 into the +0.0 the products give).
    a_pow = np.zeros((n + 1, 9))
    a_pow[:, ::4] = 1.0
    a_pow[1:, 2:6:3] = np.full((n, 2), c).cumsum(0) + 0.0  # entries (0,2), (1,2)
    a_pow = a_pow.reshape(n + 1, 3, 3)
    markov = a_pow[:n] @ b  # markov[p] = A^p B
    su = np.zeros((n, 3, m))
    for j in range(m - 1):
        su[j:, :, j] = markov[:n - j]
    # The held column at stage i sums G_(i-M) .. G_0 in that order, one
    # term per pass for every stage at once.
    held = su[m - 1:, :, m - 1]  # a view: the sums land in Su
    for t in range(n - m + 1):
        held[t:] += markov[:n - m + 1 - t]
    su = su.reshape(3 * n, m)

    sx = a_pow[1:].reshape(3 * n, 3)
    if k.tobytes() == _POSITIVE_ZERO3:
        sk = np.zeros(3 * n)  # A 0 + (+0) is +0 for any A
    else:
        sk = np.full((n, 3), k + 0.0).cumsum(0).reshape(3 * n)
    return PredictionMatrices(sx=sx, su=su, sk=sk)


@dataclass(frozen=True)
class QpProblem:
    """min 0.5 u'Hu + f'u subject to lb <= u <= ub, with H symmetric PD.

    H and f must be finite; a bound may be infinite.
    """

    h: np.ndarray
    f: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        f = np.asarray(self.f, dtype=float).reshape(-1)
        nv = f.size
        if h.shape != (nv, nv):
            raise ValueError(f"H must be {nv}x{nv}, got {h.shape}")
        if not (np.isfinite(h).all() and np.isfinite(f).all()):
            raise ValueError("H and f must be finite")
        if not np.allclose(h, h.T, atol=1e-9 * max(1.0, float(np.abs(h).max()))):
            raise ValueError("H must be symmetric")
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            raise ValueError("H must be positive definite (degenerate weights?)") from None
        lb = np.asarray(self.lb, dtype=float).reshape(-1)
        ub = np.asarray(self.ub, dtype=float).reshape(-1)
        if lb.shape != (nv,) or ub.shape != (nv,):
            raise ValueError("bound shapes must match the variable count")
        if np.any(lb > ub):
            raise ValueError("need lb <= ub elementwise")
        # Normalize stored arrays (symmetric H, flat vectors).
        object.__setattr__(self, "h", 0.5 * (h + h.T))
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @classmethod
    def _trusted(cls, h: np.ndarray, f: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> "QpProblem":
        """Wrap arrays already in normal form (symmetric PD H, flat vectors) unchecked."""
        qp = object.__new__(cls)
        qp.__dict__.update(h=h, f=f, lb=lb, ub=ub)
        return qp


@dataclass(frozen=True)
class CondensedCost:
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
    does the C-ordered product with Su. input_weight = (w, T) adds w T'T.
    """
    n3, m = pred.su.shape
    stages = pred.su.reshape(n3 // 3, 3, m).transpose(0, 2, 1) * weights.q + 0.0  # (N, M, 3)
    suq = np.ascontiguousarray(stages.transpose(1, 0, 2)).reshape(m, n3)
    h = suq @ pred.su + weights.r * np.eye(m)
    h = 0.5 * (h + h.T)
    if input_weight is not None:
        w, t_map = input_weight
        h = h + w * (t_map.T @ t_map)
    h.flags.writeable = False
    return CondensedCost(suq=suq, h=h)


def build_tracking_qp(
    pred: PredictionMatrices,
    cost: CondensedCost,
    x0: np.ndarray,
    x_ref: np.ndarray,
    du_bounds: tuple[float, float],
    input_target: tuple[float, np.ndarray, np.ndarray] | None = None,
) -> QpProblem:
    """The box QP of the tracking cost, H = cost.h and f = Su' Qbar (Sx x0 + Sk - Xref).

    cost is condense_cost of pred, with (w, T) of input_target = (w, T, c):
    the term 0.5 w |T U + c|^2 on the commands T U + c measured from their
    target, which adds w T'c to f. du_bounds boxes every move. The QpProblem
    skips the public constructor's checks, which hold by construction.
    """
    x0 = np.asarray(x0, dtype=float).reshape(3)
    x_ref = np.asarray(x_ref, dtype=float).reshape(-1)
    n3, m = pred.su.shape
    if x_ref.size != n3:
        raise ValueError(f"reference stack must have {n3} entries, got {x_ref.size}")
    lo, hi = du_bounds
    if not lo <= hi:
        raise ValueError(f"need du_bounds low <= high, got ({lo}, {hi})")

    f = cost.suq @ (pred.sx @ x0 + pred.sk - x_ref)
    if input_target is not None:
        w, t_map, offset = input_target
        f = f + w * (t_map.T @ offset)
    lb = np.full(m, float(lo))
    ub = np.full(m, float(hi))
    return QpProblem._trusted(cost.h, f, lb, ub)


@dataclass(frozen=True)
class QpSolution:
    u: np.ndarray
    iterations: int
    status: str          # "converged", "inaccurate" or "max_iter"
    kkt_residual: float
    primal_iterations: int = 0  # of the iterations, those of the primal active-set phase
    start: np.ndarray | None = None  # the accepted partition when the guess missed

    @classmethod
    def _trusted(cls, u: np.ndarray, iterations: int, status: str, kkt_residual: float,
                 primal_iterations: int, start: np.ndarray | None) -> "QpSolution":
        """Build without the frozen constructor's setattr per field."""
        sol = object.__new__(cls)
        sol.__dict__.update(u=u, iterations=iterations, status=status, kkt_residual=kkt_residual,
                            primal_iterations=primal_iterations, start=start)
        return sol


def _reduced(h, f, lb, ub, x_unc, part, free):
    """The cheap iterate of a partition: (z, rows, h_free, f_free).

    Pinned coordinates sit on their bound and free ones solve the reduced
    normal equations without refinement; rows, h_free and f_free are what
    _refine needs, h_free None when nothing is free. The all-free partition
    reuses the unconstrained solve x_unc and refines on H itself, which
    rounds like a copy of all its rows because every QpProblem's H is
    C-ordered (the constructor's symmetrization and condense_cost make it
    so). The blocks are sliced from H's free rows by column masks, which
    leaves the pinned block F-ordered: its product with z rounds by that
    layout, so a C-ordered copy of the same values would change the bits.
    """
    n_free = np.count_nonzero(free)
    if n_free == free.size:
        return x_unc.copy(), h, h, f
    z = np.where(part < 0, lb, ub)
    if not n_free:
        return z, None, None, None
    pinned = ~free
    rows = h[free]
    h_free, f_free = rows[:, free], f[free]
    z[free] = np.linalg.solve(h_free, -(f_free + rows[:, pinned] @ z[pinned]))
    return z, rows, h_free, f_free


def _refine(z, free, rows, h_free, f_free) -> None:
    """One step of iterative refinement of a cheap iterate, in place; it keeps
    the free gradient at solver precision even for badly scaled H. rows is
    H's free rows (H itself when all are free) and h_free their free block."""
    if h_free is not None:
        z[free] -= np.linalg.solve(h_free, rows @ z + f_free)


def _violations(h, f, lb, ub, movable, part, z):
    """(too_low, too_high, wrong-sign multipliers, gradient, count) at z.

    Pinned coordinates sit exactly on a bound, so only free ones can be out
    of the box; part * g > 0 is g < 0 at a lower and g > 0 at an upper bound.
    """
    g = h @ z + f
    too_low, too_high, leave = z < lb, z > ub, (part * g > 0.0) & movable
    return too_low, too_high, leave, g, np.count_nonzero(too_low | too_high | leave)


def _kkt_residual(x, g, lb, ub) -> float:
    """max |x - clip(x - g)|, the box-QP KKT residual at x with gradient g."""
    return float(np.abs(x - (x - g).clip(lb, ub)).max())


def solve_box_qp(qp: QpProblem, tol: float = 1e-8, max_iter: int = 10000,
                 start: np.ndarray | None = None) -> QpSolution:
    """Deterministic box-QP solve to a KKT tolerance.

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

    The search runs on cheap iterates, the reduced solve without
    refinement; the first, the partition of the unconstrained minimizer,
    is finished at once, and the all-free partition reuses the
    unconstrained solve. Every violating coordinate swaps sides at once
    while the violation count keeps dropping (primal-dual active set;
    Hintermueller, Ito and Kunisch 2002). When these block swaps stall the
    search turns into a monotone primal active-set method, started from
    the iterate projected onto the box with only the bounds whose
    multipliers have the right sign kept pinned. Each of its steps makes
    one reduced solve; a ratio test pins the first bound that blocks the
    step toward it, and a step that no bound blocks releases the pinned
    coordinate with the most negative multiplier. That phase is finite for
    positive definite H (Nocedal and Wright, section 16.5). If the exact
    finish disagrees with a cheap iterate, the search goes on from the
    refined point's violations.

    start warm-starts the search with a partition (int8, -1/0/+1 per
    coordinate, as QpSolution.start holds it): the partition a QP accepted
    after its guess missed, handed to the next, similar QP. It is tried
    only when it differs from the guess. The guess is then tested on its
    cheap iterate first and, if that holds, finished as without a start;
    otherwise the start's cheap iterate is formed too and the search goes
    on from whichever of the two has fewer violations, the guess on a tie.
    That costs one reduced solve when the guess would have won anyway, and
    a guess that holds cold still returns at iteration 1. Since the exact
    finish depends only on the accepted partition, a start changes the
    path and never the answer. QpSolution.start is the accepted partition
    when the solve took more than one iteration and None otherwise, so a
    start is carried only past a guess that missed.

    Every reduced solve counts one iteration; primal_iterations counts
    those of the primal phase. The status is "converged" only when the
    returned point meets the tolerance: an accepted partition whose point
    does not (say a NaN gradient, which no violation test catches) is
    "inaccurate". If the budget max_iter runs out first, returns the last
    partition's point clipped to the box, with status "max_iter" unless it
    happens to meet the tolerance anyway.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    h, f, lb, ub = qp.h, qp.f, qp.lb, qp.ub
    nv = f.size
    fixed = lb == ub  # equality-pinned coordinates never pivot
    movable = ~fixed
    # The all-free partition's right-hand side is -(f + H[free, pinned] z) with
    # nothing pinned, i.e. -(f + 0.0) down to the sign of zero, so this solve
    # is its reduced solve as well as the partition guess.
    x_unc = np.linalg.solve(h, -(f + 0.0))
    # Partition per coordinate: -1 at lower bound, +1 at upper, 0 free.
    part = np.zeros(nv, dtype=np.int8)
    part[x_unc <= lb] = -1
    part[x_unc >= ub] = 1
    part[fixed] = -1

    # A start is tried only where it differs from the guess, i.e. where the
    # search it came from did not accept its own guess.
    warm = start is not None and start.tobytes() != part.tobytes()
    it = 0
    patience = 3
    best_infeas = nv + 1
    point = None  # the primal phase's feasible point, once it has one
    primal = False
    primal_its = 0
    while it < max_iter:
        it += 1
        if primal:
            primal_its += 1
        free = part == 0
        z, rows, h_free, f_free = _reduced(h, f, lb, ub, x_unc, part, free)
        # The guess partition is finished at once, so a guess that holds
        # costs no more than that; with a start to try, it is tested cheaply.
        exact = it == 1 and not warm
        if exact:
            _refine(z, free, rows, h_free, f_free)
        too_low, too_high, leave, g, n_viol = _violations(h, f, lb, ub, movable, part, z)
        if n_viol == 0 and not exact:
            exact = True
            _refine(z, free, rows, h_free, f_free)
            too_low, too_high, leave, g, n_viol = _violations(h, f, lb, ub, movable, part, z)
        if n_viol == 0:
            x = z.clip(lb, ub)  # exact projection of roundoff
            if x.tobytes() != z.tobytes():
                g = h @ x + f  # else the test's gradient is already H x + f
            resid = _kkt_residual(x, g, lb, ub)
            return QpSolution._trusted(x, it, "converged" if resid <= tol else "inaccurate",
                                       resid, primal_its, part if it > 1 else None)
        if warm:
            if it == 1:
                # The guess missed: probe the start, then go on from whichever
                # of the two leaves fewer violations, the guess on a tie.
                missed = part, too_low, too_high, leave, n_viol
                part = np.array(start, dtype=np.int8)
                if part.shape != (nv,):
                    raise ValueError(f"start must have {nv} entries, got shape {part.shape}")
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
        blocking = too_low | too_high
        if not blocking.any():
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
    z, rows, h_free, f_free = _reduced(h, f, lb, ub, x_unc, part, free)
    _refine(z, free, rows, h_free, f_free)
    x = z.clip(lb, ub)
    resid = _kkt_residual(x, h @ x + f, lb, ub)
    return QpSolution._trusted(x, it, "converged" if resid <= tol else "max_iter",
                               resid, primal_its, None)
