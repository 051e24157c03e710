"""Shared fixtures and independent oracles used across the test modules.

Everything here is deliberately naive: loop-based reference implementations
and textbook algorithms that are slow but easy to audit, so the library can
be checked against code that shares none of its internals.
"""

import itertools
import math

import numpy as np
from scipy.linalg import lapack

from ioc_eiv import demos
from ioc_eiv import (
    ForwardProblem,
    LinearSystem,
    NotPositiveDefinite,
    PolytopicConstraints,
    Qp,
    QpRows,
    QuadraticFeature,
    solve_forward,
)
from ioc_eiv.model import constraint_values, objective

# Backward-Euler discretization of a unit-mass spring-damper (stiffness 0.2,
# damping 0.1, step 0.1), the standard small benchmark used throughout.
SPRING_A = np.array(
    [
        [0.9980237154150198, 0.09881422924901186],
        [-0.01976284584980238, 0.9881422924901185],
    ]
)
SPRING_B = np.array([[0.00988142292490119], [0.09881422924901186]])
SPRING_THETA = np.array([10.0, 5.0, 7.0])

# Optimizer of the benchmark problem, pinned after cross-checking against
# the optimality properties asserted in test_forward (KKT blocks ~1e-15,
# cost below 1000 random feasible perturbations, cap active on two steps).
SPRING_U_STAR = np.array(
    [
        0.7,
        0.7,
        0.596753,
        0.435732,
        0.301044,
        0.191911,
        0.107681,
        0.047838,
        0.012015,
        0.0,
    ]
)
SPRING_OBJECTIVE = 376.7421465229848


def spring_damper(cap=0.7, horizon=10):
    feats = (
        QuadraticFeature("state", 0, 3.0),
        QuadraticFeature("state", 1, 0.0),
        QuadraticFeature("input", 0, 0.0),
    )
    con = PolytopicConstraints(np.zeros((1, 2)), np.array([[1.0]]), np.array([cap]))
    return ForwardProblem(
        LinearSystem(SPRING_A, SPRING_B),
        feats,
        con,
        horizon,
        np.array([1.0, 0.1]),
        SPRING_THETA.copy(),
    )


def no_constraints(n, m):
    return PolytopicConstraints(np.zeros((0, n)), np.zeros((0, m)), np.zeros(0))


def scalar_problem(a=0.8, b=0.5, target=1.0, horizon=4, x0=0.0, cap=None):
    """Small single-state single-input problem, optionally with u <= cap."""
    sys1 = LinearSystem(np.array([[a]]), np.array([[b]]))
    feats = (
        QuadraticFeature("state", 0, target),
        QuadraticFeature("input", 0, 0.0),
    )
    if cap is None:
        con = no_constraints(1, 1)
    else:
        con = PolytopicConstraints(np.zeros((1, 1)), np.array([[1.0]]), np.array([cap]))
    return ForwardProblem(sys1, feats, con, horizon, np.array([float(x0)]))


def dykstra(z, A, b, n_pass=100_000, tol=1e-15):
    """Projection onto {x : A x <= b} by Dykstra's cyclic scheme.

    Exits once neither the iterate nor the correction vectors move over a
    full cycle.  The iterate alone can sit still for hundreds of passes at a
    pseudo-fixed point while corrections accumulate before it jumps to the
    true projection, so watching the corrections is essential.
    """
    x = np.asarray(z, dtype=float).copy()
    n_con = A.shape[0]
    corr = np.zeros((n_con, x.shape[0]))
    for _ in range(n_pass):
        x_prev = x.copy()
        corr_prev = corr.copy()
        for i in range(n_con):
            y = x + corr[i]
            viol = A[i] @ y - b[i]
            if viol > 0:
                x_new = y - viol * A[i] / (A[i] @ A[i])
            else:
                x_new = y
            corr[i] = y - x_new
            x = x_new
        moved = max(np.linalg.norm(x - x_prev), np.linalg.norm(corr - corr_prev))
        if moved <= tol * (1.0 + np.linalg.norm(x)):
            break
    return x


def project_by_enumeration(z, A, b, tol=1e-10):
    """Projection onto {x : A x <= b} by brute force over the faces.

    The projection lies on the affine hull of its active face, and no
    feasible point is nearer, so it is the nearest feasible point among the
    projections of ``z`` onto the affine hulls of every subset of rows (a
    minimum-norm least-squares correction, skipped when the subset is
    inconsistent).  Exact up to rounding for the few rows of a test
    problem, where Dykstra's scheme can stall in a narrow wedge for more
    than its pass budget.  ``tol`` scales the feasibility test.
    """
    z = np.asarray(z, dtype=float)
    best, best_dist = None, math.inf
    for k in range(A.shape[0] + 1):
        for rows in itertools.combinations(range(A.shape[0]), k):
            rows = list(rows)
            x = z - np.linalg.lstsq(A[rows], A[rows] @ z - b[rows], rcond=None)[0] if rows else z
            slack_tol = tol * (1.0 + np.abs(b).max(initial=0.0)
                               + np.abs(A).max(initial=0.0) * np.abs(x).max(initial=0.0))
            on_hull = np.abs(A[rows] @ x - b[rows]).max(initial=0.0) <= slack_tol
            dist = float(np.linalg.norm(x - z))
            if on_hull and (A @ x - b <= slack_tol).all() and dist < best_dist:
                best, best_dist = x, dist
    return best


def pg_solve(H, c, A, b, n_iter=20000, tol=1e-12):
    """Projected gradient descent on 0.5 x'Hx + c'x over {Ax <= b}.

    Slow but independent of the active-set machinery; used as the QP oracle.
    """
    H = np.asarray(H, dtype=float)
    c = np.asarray(c, dtype=float)
    step = 1.0 / np.linalg.eigvalsh(H).max()
    if A is None or A.size == 0:
        return -np.linalg.solve(H, c)
    x = dykstra(np.zeros(c.shape[0]), A, b)
    for _ in range(n_iter):
        x_new = dykstra(x - step * (H @ x + c), A, b)
        if np.linalg.norm(x_new - x) <= tol * (1.0 + np.linalg.norm(x)):
            return x_new
        x = x_new
    return x


def qp_report(qp, sol, active_tol=1e-7):
    """``(mult_eq, active_set, kkt_residual)`` of a ``solve_qp`` solution.

    Equality multipliers by least squares on stationarity, the inequality
    rows with ``|a_i z - b_i| <= active_tol * (1 + |b_i|)``, and the largest
    violation of stationarity, feasibility and complementarity, all from
    ``qp.H`` and by the same operations in the same order as the report
    ``solve_qp`` once returned, so their bits match it.
    """
    z, mult_in = sol.z, sol.mult_in
    Aeq, beq, Ain, bin_ = qp.Aeq, qp.beq, qp.Ain, qp.bin
    n_in = Ain.shape[0]
    mult_eq = np.zeros(0)
    if Aeq.shape[0]:
        grad = qp.H @ z + qp.c + (Ain.T @ mult_in if n_in else 0.0)
        mult_eq = np.linalg.lstsq(Aeq.T, -grad, rcond=None)[0]
    active_set = tuple(
        i for i in range(n_in)
        if abs(float(Ain[i] @ z - bin_[i])) <= active_tol * (1.0 + abs(bin_[i]))
    )
    stat = qp.H @ z + qp.c
    if n_in:
        stat = stat + Ain.T @ mult_in
    if Aeq.shape[0]:
        stat = stat + Aeq.T @ mult_eq
    kkt = float(np.max(np.abs(stat), initial=0.0))
    if n_in:
        kkt = max(kkt, float(np.max(Ain @ z - bin_, initial=0.0)))
        kkt = max(kkt, float(np.max(np.abs(mult_in * (Ain @ z - bin_)), initial=0.0)))
    if Aeq.shape[0]:
        kkt = max(kkt, float(np.max(np.abs(Aeq @ z - beq), initial=0.0)))
    return mult_eq, active_set, kkt


def fresh_qp(H, c, **blocks):
    """``Qp(H, c, rows)`` on rows built for this QP alone from the keyword blocks."""
    return Qp(H, c, QpRows(len(c), **blocks))


def random_feasible_qp(rng, dim=None, n_con=None):
    """Strictly convex QP with a guaranteed interior feasible point."""
    if dim is None:
        dim = int(rng.integers(2, 9))
    if n_con is None:
        n_con = int(rng.integers(1, 7))
    G = rng.standard_normal((dim, dim))
    H = G @ G.T + (0.5 + rng.uniform()) * np.eye(dim)
    c = rng.standard_normal(dim)
    A = rng.standard_normal((n_con, dim))
    z0 = rng.standard_normal(dim)
    b = A @ z0 + rng.uniform(0.1, 1.0, n_con)
    return fresh_qp(H, c, Ain=A, bin=b), z0


def random_instance(rng):
    """Random stable linear-quadratic problem with input caps that bind.

    Caps are placed a quarter of the way into the range of the unconstrained
    optimizer, on the larger-magnitude side, so they are active yet positive
    (a nonpositive cap would make the constant terminal-stage rows
    infeasible).
    """
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    N = int(rng.integers(4, 8))
    A = rng.standard_normal((n, n))
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    if rho > 0.95:
        A = A * (0.95 / rho)
    B = rng.standard_normal((n, m))
    small = np.abs(B) < 0.2
    B[small] += 0.4 * np.sign(B[small] + 1e-12)
    feats = [
        QuadraticFeature("state", i, float(rng.uniform(-1.5, 1.5))) for i in range(n)
    ]
    feats += [QuadraticFeature("input", j, 0.0) for j in range(m)]
    theta = rng.uniform(0.5, 8.0, len(feats))
    x0 = rng.uniform(-2.0, 2.0, n)
    system = LinearSystem(A, B)
    free = ForwardProblem(system, tuple(feats), no_constraints(n, m), N, x0)
    sol0 = solve_forward(free, theta)
    rows, caps = [], []
    for j in range(m):
        uj = sol0.U.reshape(N, m)[:, j]
        hi, lo = float(uj.max()), float(uj.min())
        big = hi if abs(hi) >= abs(lo) else lo
        s = 1.0 if big >= 0 else -1.0
        vmax = max(s * hi, s * lo)
        cap = vmax - 0.25 * (hi - lo)
        if vmax < 1e-6:
            cap = 0.5
        row = np.zeros(m)
        row[j] = s
        rows.append(row)
        caps.append(cap)
    con = PolytopicConstraints(np.zeros((m, n)), np.array(rows), np.array(caps))
    fp = ForwardProblem(system, tuple(feats), con, N, x0, theta)
    return fp, theta


def batch_se(xs, n_batch=20):
    """Batch-means Monte Carlo standard error of a correlated scalar chain."""
    xs = np.asarray(xs, dtype=float)
    nb = max(min(n_batch, xs.shape[0] // 5), 2)
    size = xs.shape[0] // nb
    means = np.array([xs[i * size : (i + 1) * size].mean() for i in range(nb)])
    return float(np.std(means, ddof=1) / np.sqrt(nb))


def grid_tv(grid, log_density, mean, var):
    """Total variation between exp(log_density) on a grid and N(mean, var)."""
    logp = np.asarray([log_density(float(z)) for z in grid])
    logp -= logp.max()
    p = np.exp(logp)
    p /= np.trapezoid(p, grid)
    q = np.exp(-0.5 * (grid - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)
    return 0.5 * np.trapezoid(np.abs(p - q), grid)


def per_try_demos(U_star, spec, D, fp):
    """The ``D`` demos of ``demos.generate``, drawn one step and one try at a time.

    Demo ``d`` uses the substream ``(spec.seed, d)`` and the covariance
    factor ``generate`` uses, so a block draw that consumes the stream the
    same way gives the same bits.  ``demos._MAX_REJECTION_TRIES`` is read at
    call time, so a test may lower it.
    """
    U_star = np.asarray(U_star, dtype=float).ravel()
    m, N = fp.system.m, fp.horizon
    F = demos._cov_factor(spec.sigma_u) if spec.kind in ("gaussian", "truncated_gaussian") else None
    out = []
    for d in range(D):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, d]))
        out.append(_per_try_demo(U_star, spec, F, rng, m, N))
    return out


def _per_try_demo(U_star, spec, F, rng, m, N):
    U = U_star.copy()
    if spec.kind == "gaussian":
        for k in range(N):
            U[k * m : (k + 1) * m] += F @ rng.standard_normal(m)
    elif spec.kind == "truncated_gaussian":
        for k in range(N):
            base = U_star[k * m : (k + 1) * m]
            for _ in range(demos._MAX_REJECTION_TRIES):
                u = base + F @ rng.standard_normal(m)
                if np.all(u >= spec.lower) and np.all(u <= spec.upper):
                    break
            else:
                u = np.clip(base, spec.lower, spec.upper)
            U[k * m : (k + 1) * m] = u
    elif spec.kind == "uniform":
        hw = np.broadcast_to(spec.halfwidth, (m,))
        for k in range(N):
            U[k * m : (k + 1) * m] += rng.uniform(-hw, hw)
    else:
        raise ValueError(f"unknown noise kind {spec.kind!r}")
    return U


def lagrangian(fp, theta, lam, U):
    """Lagrangian value via rollout (cost stages plus all constraint terms)."""
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape[0] != fp.n_multipliers:
        raise ValueError(
            f"lam has length {lam.shape[0]}, expected I*(N+1) = {fp.n_multipliers}"
        )
    return objective(fp, theta, U) + float(lam @ constraint_values(fp, U))


def cholesky(M):
    """``numerics.cholesky`` as it was before its bound test moved after the
    factorization: the bound ``|M| < 1e307`` is tested on ``M`` itself, and
    a factor holding a NaN or an infinity is refused entry by entry."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    symmetric = M.tobytes() == M.T.tobytes() or (M == M.T).all()
    if not (symmetric and abs(M).max() < 1e307):
        if abs(M - M.T).max() > 1e-10 * (1.0 + abs(M).max()):
            raise ValueError("matrix is not symmetric to tolerance 1e-10")
        M = 0.5 * (M + M.T)
    L, info = lapack.dpotrf(M, lower=1)
    if info > 0:
        raise NotPositiveDefinite(info)
    if info < 0:
        raise ValueError(f"invalid input to factorization (argument {-info})")
    if not np.isfinite(L).all():
        raise ValueError("array must not contain infs or NaNs")
    return np.ascontiguousarray(L)


def spd_inverse(M):
    """The SPD inverse as it was before ``numerics.spd_inverse``: the
    C-ordered factor of :func:`cholesky`, checked finite, solved against the
    identity and symmetrized."""
    L = cholesky(M)
    if not (math.isfinite(L.sum()) or np.isfinite(L).all()):
        raise ValueError("array must not contain infs or NaNs")
    n = L.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    C, info = lapack.dpotrs(L, np.eye(n), lower=1)
    if info != 0:
        raise ValueError(f"invalid input to triangular solve (argument {-info})")
    return 0.5 * (C + C.T)


# Residual forms of the demo statistics' readers: each walks the demos one
# at a time, as the estimators did before they read (D, Ubar, S).


def demo_scatter(U_list, about):
    """``sum_d (U_d - about)(U_d - about)'``, one outer product per demo."""
    about = np.asarray(about, dtype=float)
    out = np.zeros((about.shape[0], about.shape[0]))
    for U_d in U_list:
        r = U_d - about
        out += np.outer(r, r)
    return out


def demo_term(U_list, U, W):
    """``sum_d (U - U_d)' W (U - U_d)``: the demo term of the MAP and TLS costs."""
    return sum(float((U - U_d) @ W @ (U - U_d)) for U_d in U_list)


def inverse_wishart_scale(U_list, U, W_U):
    """Scale of the Gibbs chain's Sigma_U conditional: ``W_U`` plus the scatter about ``U``."""
    return W_U + demo_scatter(U_list, U)


def sample_covariance(U_list):
    """Unbiased sample covariance of the demos; zero for one demo."""
    D = len(U_list)
    mean = sum(U_list) / D
    return demo_scatter(U_list, mean) / max(D - 1, 1)


def per_step_covariance(U_list, m):
    """TLS's per-step covariance: every step's m-vector of residuals about
    the mean, pooled over the ``N`` steps and ``D`` demos, over ``N (D - 1)``."""
    D = len(U_list)
    mean = sum(U_list) / D
    N = mean.shape[0] // m
    out = np.zeros((m, m))
    for U_d in U_list:
        for k in range(N):
            r = U_d[k * m:(k + 1) * m] - mean[k * m:(k + 1) * m]
            out += np.outer(r, r)
    return out / (N * (D - 1))
