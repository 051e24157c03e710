"""Synthetic demonstration sets: optimal inputs corrupted by stagewise noise.

Each demonstration is ``U_d = U* + n_d`` with ``n_d`` drawn independently
per stage.  Three noise kinds are supported:

* ``gaussian``: zero-mean with per-stage covariance ``Sigma_u``;
* ``truncated_gaussian``: the same draw, but resampled until the *noisy
  input* lands inside ``[lower, upper]`` channelwise.  This kind is biased
  by construction whenever the bound clips.
* ``uniform``: zero-mean, channelwise uniform on ``[-halfwidth, halfwidth]``.

Demo ``d`` uses its own substream seeded by ``(seed, d)``, so generating
demos in parallel or serially yields identical bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ForwardProblem

__all__ = [
    "NoiseSpec",
    "DemoSet",
    "generate",
    "noise_scale_from_percent",
    "noise_cov_stacked",
    "sample_mean",
    "rmse",
]

_MAX_REJECTION_TRIES = 100_000


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Noise model for demonstration generation. Use the classmethods."""

    kind: str
    seed: int
    sigma_u: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    halfwidth: np.ndarray | None = None

    @classmethod
    def gaussian(cls, sigma_u, seed: int) -> "NoiseSpec":
        return cls(kind="gaussian", seed=int(seed), sigma_u=_check_cov(sigma_u))

    @classmethod
    def truncated_gaussian(cls, sigma_u, lower, upper, seed: int) -> "NoiseSpec":
        sigma_u = _check_cov(sigma_u)
        m = sigma_u.shape[0]
        lower = np.broadcast_to(np.asarray(lower, dtype=float), (m,)).copy()
        upper = np.broadcast_to(np.asarray(upper, dtype=float), (m,)).copy()
        if np.any(lower >= upper):
            raise ValueError("truncation requires lower < upper channelwise")
        return cls(
            kind="truncated_gaussian", seed=int(seed),
            sigma_u=sigma_u, lower=lower, upper=upper,
        )

    @classmethod
    def uniform(cls, halfwidth, seed: int) -> "NoiseSpec":
        hw = np.atleast_1d(np.asarray(halfwidth, dtype=float))
        if np.any(hw < 0):
            raise ValueError("halfwidth must be nonnegative")
        return cls(kind="uniform", seed=int(seed), halfwidth=hw)


def _check_cov(sigma) -> np.ndarray:
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance must be square, got shape {sigma.shape}")
    if np.max(np.abs(sigma - sigma.T), initial=0.0) > 1e-10 * (1.0 + np.max(np.abs(sigma), initial=0.0)):
        raise ValueError("covariance must be symmetric")
    vals = np.linalg.eigvalsh(sigma)
    if vals.size and vals[0] < -1e-10 * max(1.0, vals[-1]):
        raise ValueError("covariance must be positive semidefinite")
    return sigma


def _cov_factor(sigma: np.ndarray) -> np.ndarray:
    """Factor F with F F' = sigma, valid for semidefinite sigma."""
    vals, vecs = np.linalg.eigh(sigma)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


@dataclass(frozen=True, eq=False)
class DemoSet:
    """A set of noisy demonstrations of one forward problem.

    The demos are immutable: ``U_list`` holds read-only views of the given
    arrays, and :meth:`stacked` and :meth:`demo_sum` each build their
    array once and return that same read-only array on every later call.
    """

    U_list: tuple
    fp_ref: ForwardProblem
    U_star: np.ndarray | None = None
    _stacked: np.ndarray | None = field(default=None, init=False, repr=False)
    _demo_sum: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "U_list", tuple(_read_only(U) for U in self.U_list))

    @property
    def n_demos(self) -> int:
        return len(self.U_list)

    def stacked(self) -> np.ndarray:
        """Demos as a read-only (D, mN) array, built on the first call."""
        if self._stacked is None:
            out = np.vstack(self.U_list)
            out.flags.writeable = False
            object.__setattr__(self, "_stacked", out)
        return self._stacked

    def demo_sum(self) -> np.ndarray:
        """Sum of the demos as a read-only (mN,) array, built on the first call."""
        if self._demo_sum is None:
            out = self.stacked().sum(axis=0)
            out.flags.writeable = False
            object.__setattr__(self, "_demo_sum", out)
        return self._demo_sum


def _read_only(a) -> np.ndarray:
    view = np.asarray(a, dtype=float).view()
    view.flags.writeable = False
    return view


def generate(U_star, spec: NoiseSpec, D: int, fp: ForwardProblem) -> DemoSet:
    """Draw ``D`` noisy demonstrations around ``U_star``.

    Deterministic given ``spec.seed``; demo ``d`` consumes only its own
    substream.
    """
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    U_star = np.asarray(U_star, dtype=float).ravel()
    m, N = fp.system.m, fp.horizon
    if U_star.shape[0] != m * N:
        raise ValueError(
            f"U_star has length {U_star.shape[0]}, expected m * N = {m * N}"
        )
    # the covariance factor is the same for every demo
    F = _cov_factor(spec.sigma_u) if spec.kind in ("gaussian", "truncated_gaussian") else None
    demos = []
    for d in range(D):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, d]))
        demos.append(_one_demo(U_star, spec, F, rng, m, N))
    return DemoSet(U_list=tuple(demos), fp_ref=fp, U_star=U_star)


def _one_demo(U_star, spec, F, rng, m, N):
    """One demo; ``F`` is the factor of ``spec.sigma_u`` for the Gaussian kinds."""
    U = U_star.copy()
    if spec.kind == "gaussian":
        for k in range(N):
            U[k * m : (k + 1) * m] += F @ rng.standard_normal(m)
    elif spec.kind == "truncated_gaussian":
        for k in range(N):
            base = U_star[k * m : (k + 1) * m]
            for _ in range(_MAX_REJECTION_TRIES):
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


def noise_scale_from_percent(U_star, pct: float, m: int = 1) -> np.ndarray:
    """Per-channel noise scale: ``pct`` percent of the mean input value.

    The mean is the signed arithmetic mean of the channel's entries over
    the horizon; the returned scale is its absolute value times pct/100.
    Rejects a pct that is not positive and finite.
    """
    if not 0 < pct < np.inf:
        raise ValueError(f"pct must be positive and finite, got {pct}")
    U_star = np.asarray(U_star, dtype=float).ravel()
    if U_star.shape[0] % m:
        raise ValueError(
            f"U_star length {U_star.shape[0]} is not a multiple of m = {m}"
        )
    means = np.array([np.mean(U_star[i::m]) for i in range(m)])
    return (pct / 100.0) * np.abs(means)


def noise_cov_stacked(spec: NoiseSpec, m: int, N: int) -> np.ndarray:
    """Stacked (mN x mN) covariance implied by a noise spec.

    For the truncated kind this is the covariance of the *untruncated*
    draw, which is what the estimators use as a working value.
    """
    if spec.kind in ("gaussian", "truncated_gaussian"):
        per = spec.sigma_u
    elif spec.kind == "uniform":
        hw = np.broadcast_to(spec.halfwidth, (m,))
        per = np.diag(hw**2 / 3.0)
    else:
        raise ValueError(f"unknown noise kind {spec.kind!r}")
    return np.kron(np.eye(N), per)


def sample_mean(ds: DemoSet) -> np.ndarray:
    """Entrywise mean of the demonstrations."""
    return ds.stacked().mean(axis=0)


def rmse(a, b) -> float:
    """Root mean squared entrywise difference."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))
