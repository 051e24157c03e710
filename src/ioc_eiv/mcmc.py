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
random-walk Metropolis step on the same conditional density.

Conditionals I and II are each written once, as the precision and
information vector ``(prec, info)`` of ``_beta_information`` and
``_u_information``, with log density ``info' x - 0.5 x' prec x``.  One
moments step, ``_moments``, gives the exact draws their mean and
covariance; MAP's half-steps minimize the negative log densities, and the
Metropolis U step targets the U one.

The demos enter only through ``DemoSet``'s count D, mean Ubar and scatter S:
II reads ``D Ubar``, and III adds ``S + D (Ubar - U)(Ubar - U)'`` to ``W_U``.

Every matrix the chain factors is exactly symmetric, so the factorization
never runs its tolerance test.  One exact iteration makes six
factorizations: three ``spd_inverse`` calls (the beta precision, the
inverse of ``Sigma_U`` and the U precision), two ``cholesky`` calls for the
two Gaussian draws and one for the inverse-Wishart scale; the
inverse-Wishart draw inverts nothing.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from . import model
from .demos import DemoSet
from .kkt_baseline import NormalizationRule, kkt_single
from .numerics import cholesky, spd_inverse

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
    are derived once at construction, by the inverse that checks them SPD, so
    the Gibbs conditionals never invert a constant; so are the priors'
    information vectors ``Sigma_U0_inv_U0 = Sigma_U0_inv @ U0`` and
    ``Sigma_beta_inv_beta0 = Sigma_beta_inv @ beta0``.
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
    Sigma_beta_inv_beta0: np.ndarray = field(init=False, repr=False)

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
            # the factorization checks each one SPD and raises otherwise
            if name == "W_U":
                cholesky(mat)
            else:
                object.__setattr__(self, f"{name}_inv", spd_inverse(mat))
            object.__setattr__(self, name, mat)
        if self.m_U <= U0.shape[0] + 1:
            raise ValueError(
                f"m_U must exceed dim(U) + 1 = {U0.shape[0] + 1} for the prior mean to exist"
            )
        object.__setattr__(self, "U0", U0)
        object.__setattr__(self, "Sigma_U0_inv_U0", self.Sigma_U0_inv @ U0)
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "Sigma_beta_inv_beta0", self.Sigma_beta_inv @ beta0)
        object.__setattr__(self, "m_U", float(self.m_U))


@dataclass
class ChainState:
    U: np.ndarray
    beta: np.ndarray
    Sigma_U: np.ndarray


@dataclass
class ChainOutput:
    """Retained samples, the U block's acceptance rate and Monte Carlo means.

    The beta and Sigma_U blocks are exact draws, which are always accepted.
    """

    samples: list
    acceptance_rate: float
    U_mean: np.ndarray
    Sigma_U_mean: np.ndarray


def sample_mvn(mean, cov, rng: np.random.Generator) -> np.ndarray:
    """One multivariate normal draw via the lower Cholesky factor."""
    mean = np.asarray(mean, dtype=float).ravel()
    L = cholesky(cov)
    return mean + L @ rng.standard_normal(mean.shape[0])


def sample_inverse_wishart(W, nu: float, rng: np.random.Generator) -> np.ndarray:
    """One inverse-Wishart draw with scale ``W`` and ``nu`` degrees of freedom.

    Bartlett's construction for the inverse (Smith & Hocking, *Appl.
    Statist.* 21, 1972): with ``L L' = W`` and ``A`` the lower Bartlett
    factor of a Wishart(I, nu) draw, ``(L^{-T} A)(L^{-T} A)'`` is
    Wishart(W^{-1}, nu), so its inverse is ``C C'`` with ``C = L A^{-T}``.
    One factor of ``W`` and one triangular solve ``A C' = L'``; nothing is
    inverted.  ``A`` takes one ``standard_normal`` vector for its strict
    lower triangle, row by row, then one ``chisquare`` vector with degrees
    of freedom ``nu - i`` for its diagonal.  The draw is exactly symmetric
    and SPD, and ``E[draw] = W / (nu - p - 1)`` whenever ``nu > p + 1``.
    """
    W = np.asarray(W, dtype=float)
    p = W.shape[0]
    if nu <= p - 1:
        raise ValueError(f"need nu > p - 1 = {p - 1}, got {nu}")
    L = cholesky(W)
    lower, steps = _bartlett_indices(p)
    A = np.zeros((p, p), order="F")
    A[lower] = rng.standard_normal(p * (p - 1) // 2)
    A[steps, steps] = np.sqrt(rng.chisquare(nu - steps))
    Ct, info = lapack.dtrtrs(A, L.T, lower=1, overwrite_b=1)
    if info != 0:
        raise ValueError(f"triangular solve with the Bartlett factor failed (info {info})")
    return Ct.T @ Ct


@lru_cache(maxsize=16)
def _bartlett_indices(p: int) -> tuple:
    """``(lower, steps)`` for an order-``p`` Bartlett factor.

    ``lower`` holds the row-major indices of the strict lower triangle and
    ``steps`` is ``arange(p)``: the diagonal's indices and the offsets of
    its degrees of freedom.  Both are read-only.
    """
    lower = np.tril_indices(p, -1)
    steps = np.arange(p)
    for a in (*lower, steps):
        a.flags.writeable = False
    return lower, steps


def full_conditional_beta(ds: DemoSet, U, bs: model.BilinearStationarity, priors: Priors):
    """(mean, covariance) of the Gaussian full conditional of ``beta`` given ``U``."""
    return _moments(*_beta_information(ds, bs.J(np.asarray(U, dtype=float)), priors))


def _beta_information(ds: DemoSet, J, priors: Priors, free=slice(None)):
    """Precision and information vector ``(prec, info)`` of beta given U, on ``free``.

    ``J`` holds the Jacobian columns of the coordinates ``free``; the others
    are held at zero.  The D pseudo-observations share J, which gives the
    factor D, and their zero residual adds nothing to ``info``.  ``prec`` is
    exactly symmetric.
    """
    prec = priors.Sigma_beta_inv[free][:, free] + ds.n_demos * (J.T @ priors.Sigma_Y_inv @ J)
    return 0.5 * (prec + prec.T), priors.Sigma_beta_inv_beta0[free]


def _moments(prec, info):
    """Mean and covariance ``(cov @ info, cov)`` of the Gaussian form ``(prec, info)``."""
    cov = spd_inverse(prec)
    return cov @ info, cov


def full_conditional_U(ds: DemoSet, beta, Sigma_U, bs: model.BilinearStationarity, priors: Priors):
    """(mean, covariance) of the Gaussian full conditional of the latent input ``U``."""
    return _moments(*_u_form(ds, beta, Sigma_U, bs, priors))


def _u_form(ds: DemoSet, beta, Sigma_U, bs: model.BilinearStationarity, priors: Priors):
    """:func:`_u_information` at the full weight vector and the demo covariance."""
    beta = np.asarray(beta, dtype=float).ravel()
    q = bs.n_features
    return _u_information(ds, beta[:q], beta[q:], spd_inverse(Sigma_U), bs, priors)


def _u_information(ds: DemoSet, theta, lam, SigU_inv, bs: model.BilinearStationarity,
                   priors: Priors):
    """Precision and information vector ``(prec, info)`` of U given the rest.

    Combines three Gaussian sources: the prior, the stationarity
    pseudo-observations (affine in U with slope M_beta), and the
    demonstrations around U, whose precision is ``SigU_inv``.  The log
    density is ``info' U - 0.5 U' prec U`` up to a constant; the Gibbs U
    draw, its Metropolis-Hastings target and MAP's U-step all read it.
    ``prec`` is exactly symmetric.
    """
    D = ds.n_demos
    Mb = bs.M_beta(theta)
    Ebeta = bs.E_theta @ theta + bs.J_lambda @ lam
    SigY_inv = priors.Sigma_Y_inv
    prec = priors.Sigma_U0_inv + D * (Mb.T @ SigY_inv @ Mb) + D * SigU_inv
    prec = 0.5 * (prec + prec.T)
    info = priors.Sigma_U0_inv_U0 - D * (Mb.T @ (SigY_inv @ Ebeta)) + D * (SigU_inv @ ds.mean)
    return prec, info


def full_conditional_SigmaU(ds: DemoSet, U, priors: Priors):
    """Inverse-Wishart full conditional of the demo covariance.

    Returns (scale, degrees of freedom) = (W_U + S + D (Ubar - U)(Ubar - U)',
    D + m_U): the scale adds the demos' scatter about U, and is exactly symmetric.
    """
    D = ds.n_demos
    d = ds.mean - np.asarray(U, dtype=float).ravel()
    return priors.W_U + ds.scatter + D * (d[:, None] * d), D + priors.m_U


def default_priors(ds: DemoSet, fp: model.ForwardProblem, norm: NormalizationRule) -> Priors:
    """Data-driven default hyperparameters.

    The latent-input prior centers on the demo sample mean with a variance
    ten times the average demo variance; ``beta0`` is the single-trajectory
    inverse-KKT fit at that mean under ``norm``; the weight prior is wide
    (ten standard deviations per component); each stationarity row has
    variance ``SIGMA_Y``.  Sample-covariance-derived scales are floored so the
    priors stay positive definite on noiseless demo sets.
    """
    mN, D = fp.n_inputs, ds.n_demos
    U0 = ds.mean
    cov = ds.scatter / (D - 1) if D > 1 else np.zeros((mN, mN))
    floor = 1e-8 * (1.0 + float(U0 @ U0) / mN)
    s2 = max(10.0 * np.trace(cov) / mN, 100.0 * floor)
    Sigma_U0 = s2 * np.eye(mN)
    W_U = np.diag(np.maximum(np.diag(cov), floor))
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


def _u_log_conditional(ds, beta, Sigma_U, bs, priors):
    """Unnormalized log density ``info' U - 0.5 U' prec U`` of the U full conditional."""
    prec, info = _u_form(ds, beta, Sigma_U, bs, priors)

    def logp(U):
        U = np.asarray(U, dtype=float).ravel()
        return float(info @ U - 0.5 * (U @ prec @ U))

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
):
    """One random-walk MH step on the U block, proposal ``N(U_prev, a Sigma_U)``.

    Returns (U_new, accepted).  ``a = 0`` is flagged: the chain cannot move.
    """
    if a <= 0:
        warnings.warn(
            "proposal scale a <= 0: the random walk is degenerate and the chain will not move",
            RuntimeWarning,
        )
        return np.asarray(U_prev, dtype=float).ravel(), False
    if bs is None:
        bs = model.build_stationarity(ds.fp_ref)
    logp = _u_log_conditional(ds, beta, Sigma_U, bs, priors)
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
    n_iter: int,
    n_keep: int,
    rng: np.random.Generator,
    u_step: str = "exact",
    mh_scale: float = 1e-5,
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
    bs = model.build_stationarity(fp)
    mN = fp.n_inputs

    U = ds.mean
    beta = priors.beta0.copy()
    Sigma_U = np.eye(mN)
    # states share the chain's arrays, which nothing writes to; only the
    # retained tail is kept
    states = deque(maxlen=n_keep)
    states.append(ChainState(U=U, beta=beta, Sigma_U=Sigma_U))
    n_acc = 0
    for _ in range(n_iter - 1):
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
        states.append(ChainState(U=U, beta=beta, Sigma_U=Sigma_U))

    kept = list(states)
    return ChainOutput(
        samples=kept,
        acceptance_rate=n_acc / (n_iter - 1),
        U_mean=np.mean([s.U for s in kept], axis=0),
        Sigma_U_mean=np.mean([s.Sigma_U for s in kept], axis=0),
    )
