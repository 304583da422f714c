"""A frozen copy of the earlier box-QP solver, kept as a bit-identity oracle.

trackmpc.qp.solve_box_qp returns the exact finish of the first partition
whose refined point passes the violation test. Any search that reaches the
same partition returns the same bits, so the current solver is held to
this copy's output with np.array_equal, and its linear-solve count to this
copy's. box_qp builds the tests' own QPs as TrackingQp records in normal form.
"""

import numpy as np

from trackmpc.qp import QpSolution, TrackingQp


def box_qp(h, f, lb, ub) -> TrackingQp:
    """The box QP min 0.5 u'Hu + f'u, lb <= u <= ub in its normal form:
    H symmetrized as 0.5 (H + H'), f and the bounds flat float vectors."""
    h = np.asarray(h, dtype=float)
    return TrackingQp(0.5 * (h + h.T), np.asarray(f, dtype=float).reshape(-1),
                      np.asarray(lb, dtype=float).reshape(-1),
                      np.asarray(ub, dtype=float).reshape(-1))


def reference_solve_box_qp(qp, tol=1e-8, max_iter=10000):
    """The pivoting solver as it stood before cheap iterates and the primal
    phase: every iterate assembled exactly (free solve plus one refinement
    solve), block swaps while the violation count drops, then single
    least-index swaps (Murty 1974)."""
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    h, f, lb, ub = qp.h, qp.f, qp.lb, qp.ub
    nv = f.size

    def clipped(z: np.ndarray) -> np.ndarray:
        return np.clip(z, lb, ub)

    def residual_at(z: np.ndarray) -> float:
        return float(np.max(np.abs(z - clipped(z - (h @ z + f)))))

    fixed = lb == ub  # equality-pinned coordinates never pivot
    # Partition per coordinate: -1 at lower bound, +1 at upper, 0 free.
    x_unc = np.linalg.solve(h, -f)
    part = np.zeros(nv, dtype=np.int8)
    part[x_unc <= lb] = -1
    part[x_unc >= ub] = 1
    part[fixed] = -1

    def assemble(p: np.ndarray) -> np.ndarray:
        z = np.where(p < 0, lb, ub)
        free = p == 0
        if free.any():
            idx = np.ix_(free, free)
            rhs = -(f[free] + h[free][:, ~free] @ z[~free])
            z[free] = np.linalg.solve(h[idx], rhs)
            # One step of iterative refinement keeps the free gradient at
            # solver precision even for badly scaled H.
            gf = h[free] @ z + f[free]
            z[free] -= np.linalg.solve(h[idx], gf)
        return z

    it = 0
    patience = 3
    best_infeas = nv + 1
    while it < max_iter:
        it += 1
        x = assemble(part)
        g = h @ x + f
        free = part == 0
        too_low = free & (x < lb)
        too_high = free & (x > ub)
        leave_lo = (part == -1) & ~fixed & (g < 0.0)
        leave_hi = (part == 1) & ~fixed & (g > 0.0)
        violations = too_low | too_high | leave_lo | leave_hi
        n_viol = int(np.count_nonzero(violations))
        if n_viol == 0:
            x = clipped(x)  # exact projection of roundoff
            return QpSolution(u=x, iterations=it, status="converged",
                              kkt_residual=residual_at(x))
        if n_viol < best_infeas:
            best_infeas = n_viol
            patience = 3
        elif patience > 0:
            patience -= 1
        if patience > 0:
            swap = violations
        else:
            swap = np.zeros(nv, dtype=bool)
            swap[int(np.argmax(violations))] = True  # least index violator
        part = part.copy()
        part[swap & too_low] = -1
        part[swap & too_high] = 1
        part[swap & (leave_lo | leave_hi)] = 0

    x = clipped(assemble(part))
    resid = residual_at(x)
    status = "converged" if resid <= tol else "max_iter"
    return QpSolution(u=x, iterations=it, status=status, kkt_residual=resid)
