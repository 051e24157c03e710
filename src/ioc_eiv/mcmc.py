"""Gibbs and Metropolis-Hastings machinery for the errors-in-variables model.

The probabilistic model treats the noise-free input ``U`` as a latent
variable: demonstrations are ``U_d ~ N(U, Sigma_U)``, and the stationarity
residual is observed to be zero through ``0 ~ N(J(U) beta, Sigma_Y)``.
With Gaussian priors on ``beta`` and ``U`` and an inverse-Wishart prior on
``Sigma_U``, all three full conditionals are closed-form:

I.   beta | U, data          (Gaussian; J(U) acts as the regression matrix)
II.  U | beta, Sigma_U, data (Gaussian; stationarity is affine in U)
III. Sigma_U | U, data       (inverse-Wishart with D added degrees of freedom)

``gibbs_run`` cycles them in that order starting from the demonstration
sample mean.  ``mh_within_gibbs_U`` replaces the exact U draw with a
random-walk Metropolis step, the escape hatch for problem classes whose
stationarity is not affine in U; it only needs a callable residual.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import model
from .demos import DemoSet, sample_mean
from .kkt_baseline import NormalizationRule, kkt_single
from .numerics import cholesky, cholesky_inverse

__all__ = [
    "Priors",
    "ChainState",
    "ChainOutput",
    "default_priors",
    "sample_mvn",
    "sample_inverse_wishart",
    "full_conditional_beta",
    "full_conditional_U",
    "full_conditional_SigmaU",
    "gibbs_run",
    "mh_step",
    "mh_within_gibbs_U",
]

SIGMA_Y = 1e-2  # variance of each stationarity row in 0 ~ N(J(U) beta, Sigma_Y)


@dataclass(frozen=True, eq=False)
class Priors:
    """Prior hyperparameters; all covariances symmetric positive definite.

    The precisions ``Sigma_U0_inv``, ``Sigma_beta_inv`` and ``Sigma_Y_inv``
    are derived once at construction, from the factor of the SPD check, so
    the Gibbs conditionals never invert a constant; so is the prior's
    information vector ``Sigma_U0_inv_U0 = Sigma_U0_inv @ U0``.
    """

    U0: np.ndarray
    Sigma_U0: np.ndarray
    beta0: np.ndarray
    Sigma_beta: np.ndarray
    W_U: np.ndarray
    m_U: float
    Sigma_Y: np.ndarray
    Sigma_U0_inv: np.ndarray = field(init=False, repr=False)
    Sigma_beta_inv: np.ndarray = field(init=False, repr=False)
    Sigma_Y_inv: np.ndarray = field(init=False, repr=False)
    Sigma_U0_inv_U0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        U0 = np.asarray(self.U0, dtype=float).ravel()
        beta0 = np.asarray(self.beta0, dtype=float).ravel()
        for name, mat, dim in (
            ("Sigma_U0", self.Sigma_U0, U0.shape[0]),
            ("Sigma_beta", self.Sigma_beta, beta0.shape[0]),
            ("W_U", self.W_U, U0.shape[0]),
            ("Sigma_Y", self.Sigma_Y, None),
        ):
            mat = np.asarray(mat, dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square, got shape {mat.shape}")
            if dim is not None and mat.shape[0] != dim:
                raise ValueError(f"{name} has shape {mat.shape}, expected ({dim}, {dim})")
            L = cholesky(mat)  # SPD check; raises otherwise
            object.__setattr__(self, name, mat)
            if name != "W_U":
                object.__setattr__(self, f"{name}_inv", cholesky_inverse(L))
        if self.m_U <= U0.shape[0] + 1:
            raise ValueError(
                f"m_U must exceed dim(U) + 1 = {U0.shape[0] + 1} for the prior mean to exist"
            )
        object.__setattr__(self, "U0", U0)
        object.__setattr__(self, "Sigma_U0_inv_U0", self.Sigma_U0_inv @ U0)
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "m_U", float(self.m_U))


@dataclass
class ChainState:
    iteration: int
    U: np.ndarray
    beta: np.ndarray
    Sigma_U: np.ndarray


@dataclass
class ChainOutput:
    """Retained samples plus per-block acceptance and Monte Carlo means."""

    samples: list
    acceptance_rate: dict
    U_mean: np.ndarray
    beta_mean: np.ndarray
    Sigma_U_mean: np.ndarray


def sample_mvn(mean, cov, rng: np.random.Generator) -> np.ndarray:
    """One multivariate normal draw via the lower Cholesky factor."""
    mean = np.asarray(mean, dtype=float).ravel()
    L = cholesky(cov)
    return mean + L @ rng.standard_normal(mean.shape[0])


def sample_inverse_wishart(W, nu: float, rng: np.random.Generator) -> np.ndarray:
    """One inverse-Wishart draw with scale ``W`` and ``nu`` degrees of freedom.

    Implemented as a Bartlett-decomposition Wishart draw with scale
    ``W^{-1}`` followed by inversion, so ``E[draw] = W / (nu - p - 1)``
    whenever ``nu > p + 1``.
    """
    W = np.asarray(W, dtype=float)
    p = W.shape[0]
    if nu <= p - 1:
        raise ValueError(f"need nu > p - 1 = {p - 1}, got {nu}")
    Lw = cholesky(cholesky_inverse(cholesky(W)))
    A = np.zeros((p, p))
    for i in range(p):
        A[i, i] = math.sqrt(rng.chisquare(nu - i))
        A[i, :i] = rng.standard_normal(i)  # same stream as i scalar draws
    LA = Lw @ A
    X = LA @ LA.T  # Wishart(W^{-1}, nu)
    return cholesky_inverse(cholesky(X))


def full_conditional_beta(ds: DemoSet, U, bs: model.BilinearStationarity, priors: Priors):
    """Gaussian full conditional of ``beta`` given the latent input.

    All D pseudo-observations share the regression matrix J(U), so the
    stacked system collapses to a factor of D on the information matrix.
    Returns (mean, covariance).
    """
    D = ds.n_demos
    J = bs.J(np.asarray(U, dtype=float))
    prec_prior = priors.Sigma_beta_inv
    prec = prec_prior + D * (J.T @ priors.Sigma_Y_inv @ J)
    cov = cholesky_inverse(cholesky(prec))
    mean = cov @ (prec_prior @ priors.beta0)
    return mean, cov


def full_conditional_U(ds: DemoSet, beta, Sigma_U, bs: model.BilinearStationarity, priors: Priors):
    """Gaussian full conditional of the latent input ``U``.

    Combines three Gaussian sources: the prior, the stationarity
    pseudo-observations (affine in U with slope M_beta), and the
    demonstrations around U.  Returns (mean, covariance).
    """
    beta = np.asarray(beta, dtype=float).ravel()
    q = bs.n_features
    theta, lam = beta[:q], beta[q:]
    D = ds.n_demos
    Mb = bs.M_beta(theta)
    Ebeta = bs.E_theta @ theta + bs.J_lambda @ lam

    SigY_inv = priors.Sigma_Y_inv
    SigU_inv = cholesky_inverse(cholesky(np.asarray(Sigma_U, dtype=float)))
    prec_prior = priors.Sigma_U0_inv

    prec = prec_prior + D * (Mb.T @ SigY_inv @ Mb) + D * SigU_inv
    cov = cholesky_inverse(cholesky(prec))
    rhs = priors.Sigma_U0_inv_U0 - D * (Mb.T @ (SigY_inv @ Ebeta)) + SigU_inv @ ds.demo_sum()
    mean = cov @ rhs
    return mean, cov


def full_conditional_SigmaU(ds: DemoSet, U, priors: Priors):
    """Inverse-Wishart full conditional of the demo covariance.

    Returns (scale, degrees of freedom) = (W_U + scatter about U, D + m_U).
    """
    U = np.asarray(U, dtype=float).ravel()
    R = ds.stacked() - U
    scatter = R.T @ R
    return priors.W_U + scatter, ds.n_demos + priors.m_U


def default_priors(
    ds: DemoSet,
    fp: model.ForwardProblem,
    norm: NormalizationRule | None = None,
) -> Priors:
    """Data-driven default hyperparameters.

    The latent-input prior centers on the demo sample mean with a variance
    ten times the average demo variance; ``beta0`` is the single-trajectory
    inverse-KKT fit at that mean; the weight prior is wide (ten standard
    deviations per component); each stationarity row has variance
    ``SIGMA_Y``.  Sample-covariance-derived scales are floored so the
    priors stay positive definite on noiseless demo sets.
    """
    mN = fp.n_inputs
    U0 = sample_mean(ds)
    stackd = ds.stacked()
    if ds.n_demos > 1:
        cov = np.cov(stackd, rowvar=False, ddof=1)
        cov = np.atleast_2d(cov)
    else:
        cov = np.zeros((mN, mN))
    floor = 1e-8 * (1.0 + float(U0 @ U0) / mN)
    s2 = max(10.0 * np.trace(cov) / mN, 100.0 * floor)
    Sigma_U0 = s2 * np.eye(mN)
    W_U = np.diag(np.maximum(np.diag(cov), floor))
    if norm is None:
        norm = NormalizationRule(kind="sum", value=float(fp.q))
    fit = kkt_single(U0, fp, norm)
    beta0 = np.concatenate([fit.theta, fit.lam_list[0]])
    Sigma_beta = np.diag(100.0 * np.maximum(beta0**2, 1.0))
    return Priors(
        U0=U0,
        Sigma_U0=Sigma_U0,
        beta0=beta0,
        Sigma_beta=Sigma_beta,
        W_U=W_U,
        m_U=mN + 2,
        Sigma_Y=SIGMA_Y * np.eye(mN),
    )


def mh_step(state, log_target, proposal_sampler, proposal_logpdf, rng: np.random.Generator):
    """One Metropolis-Hastings step.

    ``proposal_sampler(rng, state)`` draws a candidate;
    ``proposal_logpdf(to, frm)`` evaluates log q(to | frm).  A candidate
    with a non-finite target density is rejected outright.
    Returns (new_state, accepted).
    """
    cand = proposal_sampler(rng, state)
    lt_cand = log_target(cand)
    if not np.isfinite(lt_cand):
        rng.uniform()  # keep the stream aligned with the accept branch
        return state, False
    lt_cur = log_target(state)
    log_ratio = lt_cand + proposal_logpdf(state, cand) - lt_cur - proposal_logpdf(cand, state)
    if np.log(rng.uniform()) < log_ratio:
        return cand, True
    return state, False


def _u_log_conditional(ds, beta, Sigma_U, bs, priors, stationarity_fn=None):
    """Unnormalized log density of the U full conditional."""
    beta = np.asarray(beta, dtype=float).ravel()
    q = bs.n_features
    theta, lam = beta[:q], beta[q:]
    if stationarity_fn is None:
        def stationarity_fn(U):
            return bs.stationarity(U, theta, lam)
    SigY_inv = priors.Sigma_Y_inv
    SigU_inv = cholesky_inverse(cholesky(np.asarray(Sigma_U, dtype=float)))
    prec_prior = priors.Sigma_U0_inv
    stackd = ds.stacked()

    def logp(U):
        U = np.asarray(U, dtype=float).ravel()
        s = stationarity_fn(U)
        val = ds.n_demos * float(s @ SigY_inv @ s)
        R = stackd - U
        val += float(np.sum((R @ SigU_inv) * R))
        dU = U - priors.U0
        val += float(dU @ prec_prior @ dU)
        return -0.5 * val

    return logp


def mh_within_gibbs_U(
    ds: DemoSet,
    U_prev,
    beta,
    Sigma_U,
    priors: Priors,
    rng: np.random.Generator,
    a: float = 1e-5,
    bs: model.BilinearStationarity | None = None,
    stationarity_fn=None,
):
    """One random-walk MH step on the U block, proposal ``N(U_prev, a Sigma_U)``.

    Accepts a custom ``stationarity_fn(U)`` for problem classes without the
    affine structure.  Returns (U_new, accepted).  ``a = 0`` is flagged:
    the chain cannot move.
    """
    if a <= 0:
        warnings.warn(
            "proposal scale a <= 0: the random walk is degenerate and the chain will not move",
            RuntimeWarning,
        )
        return np.asarray(U_prev, dtype=float).ravel(), False
    if bs is None:
        bs = model.build_stationarity(ds.fp_ref)
    logp = _u_log_conditional(ds, beta, Sigma_U, bs, priors, stationarity_fn)
    Lp = cholesky(a * np.asarray(Sigma_U, dtype=float))

    def sampler(rng_, frm):
        return frm + Lp @ rng_.standard_normal(frm.shape[0])

    def logq(to, frm):
        # symmetric walk: the ratio cancels, a constant suffices
        return 0.0

    U_prev = np.asarray(U_prev, dtype=float).ravel()
    return mh_step(U_prev, logp, sampler, logq, rng)


def gibbs_run(
    ds: DemoSet,
    fp: model.ForwardProblem,
    priors: Priors,
    n_iter: int = 2000,
    n_keep: int = 300,
    rng: np.random.Generator | None = None,
    u_step: str = "exact",
    mh_scale: float = 1e-5,
    trace_csv=None,
) -> ChainOutput:
    """Run the three-block Gibbs sampler and return the retained tail.

    The chain starts at the demo sample mean with ``beta = beta0`` and
    ``Sigma_U = I``; each subsequent iteration draws beta, then U, then
    Sigma_U from their full conditionals.  ``u_step='mh'`` swaps the exact
    U draw for :func:`mh_within_gibbs_U` with scale ``mh_scale``.
    Deterministic given ``rng``.
    """
    if n_iter < 2:
        raise ValueError(f"n_iter must be >= 2, got {n_iter}")
    if not 1 <= n_keep <= n_iter:
        raise ValueError(f"n_keep must be in [1, n_iter], got {n_keep}")
    if u_step not in ("exact", "mh"):
        raise ValueError(f"u_step must be 'exact' or 'mh', got {u_step!r}")
    if rng is None:
        rng = np.random.default_rng()
    bs = model.build_stationarity(fp)
    mN = fp.n_inputs

    U = sample_mean(ds)
    beta = priors.beta0.copy()
    Sigma_U = np.eye(mN)
    # states share the chain's arrays, which nothing writes to; only the
    # retained tail is kept unless the whole trace is written
    states = [] if trace_csv is not None else deque(maxlen=n_keep)
    states.append(ChainState(iteration=1, U=U, beta=beta, Sigma_U=Sigma_U))
    n_acc = 0
    for it in range(2, n_iter + 1):
        mean_b, cov_b = full_conditional_beta(ds, U, bs, priors)
        beta = sample_mvn(mean_b, cov_b, rng)
        if u_step == "exact":
            mean_u, cov_u = full_conditional_U(ds, beta, Sigma_U, bs, priors)
            U = sample_mvn(mean_u, cov_u, rng)
            n_acc += 1
        else:
            U, acc = mh_within_gibbs_U(ds, U, beta, Sigma_U, priors, rng, a=mh_scale, bs=bs)
            n_acc += int(acc)
        W_post, nu_post = full_conditional_SigmaU(ds, U, priors)
        Sigma_U = sample_inverse_wishart(W_post, nu_post, rng)
        states.append(ChainState(iteration=it, U=U, beta=beta, Sigma_U=Sigma_U))

    kept = list(states)[-n_keep:]
    out = ChainOutput(
        samples=kept,
        acceptance_rate={
            "beta": 1.0,
            "U": n_acc / (n_iter - 1),
            "Sigma_U": 1.0,
        },
        U_mean=np.mean([s.U for s in kept], axis=0),
        beta_mean=np.mean([s.beta for s in kept], axis=0),
        Sigma_U_mean=np.mean([s.Sigma_U for s in kept], axis=0),
    )
    if trace_csv is not None:
        _write_trace(trace_csv, states, fp.q)
    return out


def _write_trace(path, states, q):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        mN = states[0].U.shape[0]
        nb = states[0].beta.shape[0]
        header = (
            ["iteration"]
            + [f"beta_{i}" for i in range(nb)]
            + [f"U_{i}" for i in range(mN)]
            + [f"sigma_U_diag_{i}" for i in range(mN)]
        )
        w.writerow(header)
        for s in states:
            w.writerow(
                [s.iteration]
                + [repr(float(v)) for v in s.beta]
                + [repr(float(v)) for v in s.U]
                + [repr(float(v)) for v in np.diag(s.Sigma_U)]
            )
