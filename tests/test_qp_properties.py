"""Property tests of ``solve_qp`` against the independent oracles.

Each example is a strictly convex QP with a known feasible point ``z0``,
optionally with duplicate or parallel inequality rows, rows active at
``z0`` and rank-deficient equality blocks.  The oracle shares no code with
the solver: equalities are eliminated with ``scipy.linalg.null_space``, the
metric is whitened with ``numpy.linalg.cholesky``, and the minimizer is
then a Euclidean projection, computed by brute force over the faces
(``oracles.project_by_enumeration``).  Dykstra's scheme, the earlier
oracle, can stall short of the projection in a narrow wedge: on one QP of
the 500-example profile it stopped 9.5e-5 from it, outside a row by
1.7e-6, after its 100,000 passes.

The QPs of ``cold_qps`` are built to reach the dual active-set loop, and
some of their polytopes are empty: there an LP oracle, scipy's HiGHS,
confirms each ``Infeasible``.
"""

import numpy as np
import pytest
import scipy.linalg

pytest.importorskip("hypothesis")
from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import oracles  # noqa: E402
from ioc_eiv import Infeasible, Qp, QpRows, solve_qp  # noqa: E402
from ioc_eiv.numerics import _eqp, _factor  # noqa: E402

# entries below 1e-3 in magnitude snap to zero: structural zeros are a case
# worth drawing, while entries near underflow still meet absolute tolerances
# (ROADMAP item 3).  Without the snap, the 500-example profile draws
# subnormal entries (5e-324) that overflow the warm-start property's KKT
# report and break the face-solve property's relative bound
_ENTRY = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: x if abs(x) >= 1e-3 else 0.0)


def _matrix(rows, cols):
    return hnp.arrays(float, (rows, cols), elements=_ENTRY)


@st.composite
def feasible_qps(draw):
    dim = draw(st.integers(1, 6))
    G = draw(_matrix(dim, dim))
    H = G @ G.T + 0.5 * np.eye(dim)
    c = draw(_matrix(1, dim))[0]
    z0 = draw(_matrix(1, dim))[0]

    n_in = draw(st.integers(0, 6))
    Ain = draw(_matrix(n_in, dim))
    slack = draw(hnp.arrays(float, n_in, elements=st.sampled_from([0.0, 0.25, 1.0])))
    if n_in >= 2:
        repeat = draw(st.sampled_from(["none", "duplicate", "parallel"]))
        if repeat == "duplicate":
            Ain[1], slack[1] = Ain[0], slack[0]
        elif repeat == "parallel":
            Ain[1] = 3.0 * Ain[0]
    bin_ = Ain @ z0 + slack

    kw = {}
    n_eq = draw(st.integers(0, max(dim - 1, 0)))
    if n_eq:
        Aeq = draw(_matrix(n_eq, dim))
        if n_eq >= 2 and draw(st.booleans()):
            Aeq[-1] = Aeq[0] - 2.0 * Aeq[1]  # rank-deficient, still consistent
        kw = dict(Aeq=Aeq, beq=Aeq @ z0)
    return oracles.fresh_qp(H, c, Ain=Ain, bin=bin_, **kw), z0


def _oracle(qp, z0):
    """Minimizer by null-space elimination, whitening and projection."""
    if qp.Aeq.shape[0]:
        N = scipy.linalg.null_space(qp.Aeq)
        zp = z0
    else:
        N = np.eye(qp.dim)
        zp = np.zeros(qp.dim)
    if N.shape[1] == 0:
        return zp
    # z = zp + N w;  0.5 w'Hw w + cw'w with Hw = R'R, and v = R w
    Hw = N.T @ qp.H @ N
    cw = N.T @ (qp.H @ zp + qp.c)
    R = np.linalg.cholesky(Hw).T
    Rinv = np.linalg.inv(R)
    v_free = -np.linalg.solve(R.T, cw)
    A = qp.Ain @ N @ Rinv
    b = qp.bin - qp.Ain @ zp
    # rows constant on the equality set (zero up to rounding) hold at z0
    keep = np.abs(A).max(axis=1, initial=0.0) > 1e-12 * (1.0 + np.abs(qp.Ain).max(axis=1, initial=0.0))
    v = oracles.project_by_enumeration(v_free, A[keep], b[keep])
    return zp + N @ (Rinv @ v)


@given(feasible_qps())
def test_solve_qp_matches_the_projection_oracle(case):
    qp, z0 = case
    sol = solve_qp(qp)
    ref = _oracle(qp, z0)
    f = lambda z: 0.5 * z @ qp.H @ z + qp.c @ z
    scale = 1.0 + np.max(np.abs(ref), initial=0.0)
    np.testing.assert_allclose(sol.z, ref, atol=1e-6 * scale)
    assert f(sol.z) <= f(ref) + 1e-8 * (1.0 + abs(f(ref)))


@given(feasible_qps())
def test_solve_qp_kkt_residual_is_small(case):
    qp, _ = case
    sol = solve_qp(qp)
    _, active_set, kkt_residual = oracles.qp_report(qp, sol)
    assert kkt_residual <= 1e-6
    assert set(active_set) >= {i for i, m in enumerate(sol.mult_in) if m > 1e-8}


@given(feasible_qps(), st.data())
def test_solve_qp_from_any_face_keeps_the_cold_guarantees(case, data):
    # any subset of rows, right or wrong, is only where the face search starts
    qp, z0 = case
    n_in = qp.Ain.shape[0]
    face = data.draw(st.lists(st.integers(0, n_in - 1), max_size=n_in) if n_in else st.just([]))
    sol = solve_qp(qp, face=face)
    ref = _oracle(qp, z0)
    scale = 1.0 + np.max(np.abs(ref), initial=0.0)
    np.testing.assert_allclose(sol.z, ref, atol=1e-6 * scale)
    _, active_set, kkt_residual = oracles.qp_report(qp, sol)
    assert kkt_residual <= 1e-6
    assert set(active_set) >= {i for i, m in enumerate(sol.mult_in) if m > 1e-8}


@st.composite
def warm_started_qps(draw):
    """Two QPs ``H, c1`` and ``H, c2 = c1 + t d`` on one polytope, with or
    without equalities, with a point strictly inside every inequality;
    ``t = 0`` poses the same QP twice."""
    dim = draw(st.integers(1, 6))
    G = draw(_matrix(dim, dim))
    H = G @ G.T + 0.5 * np.eye(dim)
    c1 = 3.0 * draw(_matrix(1, dim))[0]
    d = draw(_matrix(1, dim))[0]
    t = draw(st.sampled_from([0.0, 1e-3, 0.3]))
    z0 = draw(_matrix(1, dim))[0]
    n_in = draw(st.integers(1, 6))
    Ain = draw(_matrix(n_in, dim))
    slack = draw(hnp.arrays(float, n_in, elements=st.sampled_from([0.25, 1.0])))
    bin_ = Ain @ z0 + slack
    kw = dict(Ain=Ain, bin=bin_)
    n_eq = draw(st.integers(0, dim - 1))
    if n_eq:
        Aeq = draw(_matrix(n_eq, dim))
        kw.update(Aeq=Aeq, beq=Aeq @ z0)
    rows = QpRows(dim, **kw)
    return Qp(H, c1, rows), Qp(H, c1 + t * d, rows)


@given(warm_started_qps())
def test_warm_start_reaches_the_cold_optimum(case):
    qp1, qp2 = case
    first = solve_qp(qp1)
    rows = np.flatnonzero(first.mult_in > 0.0)
    warm = solve_qp(qp2, face=rows)
    cold = solve_qp(qp2)
    scale = 1.0 + np.max(np.abs(cold.z), initial=0.0)
    np.testing.assert_allclose(warm.z, cold.z, rtol=0, atol=1e-9 * scale)
    _, active_set, kkt_residual = oracles.qp_report(qp2, warm)
    assert kkt_residual <= 1e-6
    assert set(active_set) >= {i for i, m in enumerate(warm.mult_in) if m > 1e-8}
    # the start names the cold optimum's face, and that face is strictly
    # complementary: held rows carry clear multipliers and every other row
    # clear slack, so the cold working set is that face, the cold polish
    # holds, and the warm solve ends with the very same computation
    held = cold.mult_in > 0.0
    free_slack = (qp2.bin - qp2.Ain @ cold.z)[~held]
    strict = (cold.mult_in[held] > 1e-6).all() and (
        free_slack > 1e-6 * (1.0 + np.abs(qp2.bin[~held]))).all()
    if strict and rows.tolist() == np.flatnonzero(held).tolist():
        assert warm.z.tobytes() == cold.z.tobytes()
        assert warm.mult_in.tobytes() == cold.mult_in.tobytes()


@st.composite
def cold_qps(draw):
    """Inequality QPs whose unconstrained minimizer violates a row and a copy
    of it (the same half-space, or three times it), so that the face
    search's first face is singular and the solve goes cold.  Some carry a
    row dependent on those two, and some the first row negated and shifted,
    which leaves a slab, a hyperplane or an empty polytope."""
    dim = draw(st.integers(1, 5))
    G = draw(_matrix(dim, dim))
    H = G @ G.T + 0.5 * np.eye(dim)
    z0 = draw(_matrix(1, dim))[0]
    n_in = draw(st.integers(2, 6))
    Ain = draw(_matrix(n_in, dim))
    assume(np.abs(Ain[0]).max() >= 0.1)
    slack = draw(hnp.arrays(float, n_in, elements=st.sampled_from([0.0, 0.25, 1.0])))
    k = draw(st.sampled_from([1.0, 3.0]))
    Ain[1], slack[1] = k * Ain[0], k * slack[0]
    if n_in >= 3 and draw(st.booleans()):
        Ain[2], slack[2] = Ain[0] - 0.5 * Ain[1], slack[0] - 0.5 * slack[1] + 0.25
    bin_ = Ain @ z0 + slack
    if draw(st.booleans()):
        gap = draw(st.sampled_from([-0.5, 0.0, 1e-3, 0.5]))
        Ain = np.vstack([Ain, -Ain[0]])
        bin_ = np.append(bin_, -bin_[0] - gap)
    # the unconstrained minimizer z0 + s a_0 violates row 0 and its copy
    y_unc = z0 + draw(st.sampled_from([1.0, 3.0])) * Ain[0]
    assume(Ain[0] @ y_unc - bin_[0] >= 0.1)
    return oracles.fresh_qp(H, -H @ y_unc, Ain=Ain, bin=bin_)


def _lp_feasible(A, b):
    """Whether ``A x <= b`` has a point, by scipy's LP solver (HiGHS)."""
    from scipy.optimize import linprog

    res = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=b, bounds=[(None, None)] * A.shape[1],
                  method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


@given(cold_qps())
def test_cold_solve_matches_the_projection_oracle_or_proves_the_polytope_empty(qp):
    # every polytope drawn is empty by at least 5e-4 of a row's slack, or
    # holds a point, so the LP oracle's own tolerance cannot decide a case.
    # The projection oracle, not oracles.pg_solve: projected gradient over
    # Dykstra's scheme took 70 s on one of the 500 examples of the thorough
    # profile
    try:
        sol = solve_qp(qp)
    except Infeasible:
        assert not _lp_feasible(qp.Ain, qp.bin)
        return
    assert _lp_feasible(qp.Ain, qp.bin)
    _, active_set, kkt_residual = oracles.qp_report(qp, sol)
    assert kkt_residual <= 1e-6
    assert set(active_set) >= {i for i, m in enumerate(sol.mult_in) if m > 1e-8}
    ref = _oracle(qp, np.zeros(qp.dim))
    scale = 1.0 + np.max(np.abs(ref), initial=0.0)
    np.testing.assert_allclose(sol.z, ref, atol=1e-6 * scale)
    f = lambda z: 0.5 * z @ qp.H @ z + qp.c @ z
    assert f(sol.z) <= f(ref) + 1e-8 * (1.0 + abs(f(ref)))


@st.composite
def equality_qps(draw):
    """SPD ``H``, ``c`` and a full-row-rank ``A`` of 0 to ``dim - 1`` rows
    with its ``b``: every shape of face system the active-set loop poses."""
    dim = draw(st.integers(1, 6))
    G = draw(_matrix(dim, dim))
    H = G @ G.T + 0.5 * np.eye(dim)
    c = draw(_matrix(1, dim))[0]
    k = draw(st.integers(0, dim - 1))
    A = draw(_matrix(k, dim))
    b = draw(_matrix(1, k))[0]
    if k:
        s = np.linalg.svd(A, compute_uv=False)
        assume(s[-1] > 1e-3 * s[0])
    return H, c, A, b


@given(equality_qps())
def test_eqp_solves_its_kkt_system(case):
    # the face solve: stationarity H y + c + A' mu = 0 and A y = b, each
    # relative to the size of its terms
    H, c, A, b = case
    y, mu = _eqp(_factor(H), c, A, b)
    assert y.shape == c.shape and mu.shape == b.shape
    norm = lambda v: np.abs(v).max(initial=0.0)
    stationarity = H @ y + c + A.T @ mu
    assert norm(stationarity) <= 1e-9 * (norm(H @ y) + norm(c) + norm(A.T @ mu))
    assert norm(A @ y - b) <= 1e-9 * (norm(A) * norm(y) + norm(b))
