"""Synthetic demonstration sets: optimal inputs corrupted by stagewise noise.

Each demonstration is ``U_d = U* + n_d`` with ``n_d`` drawn independently
per stage, with the m x m covariance :func:`noise_cov`.  Three noise kinds:

* ``gaussian``: zero-mean with per-stage covariance ``Sigma_u``;
* ``truncated_gaussian``: the same draw, but resampled until the *noisy
  input* lands inside ``[lower, upper]`` channelwise.  This kind is biased
  by construction whenever the bound clips.  A step still outside the box
  after ``_MAX_REJECTION_TRIES`` tries is set to ``U*`` clipped to the box.
* ``uniform``: zero-mean, channelwise uniform on ``[-halfwidth, halfwidth]``.

Demo ``d`` uses its own substream seeded by ``(seed, d)``, so generating
demos in parallel or serially yields identical bits.

Each demo draws its noise in blocks rather than one step or one try at a
time.  A ``Generator`` block of ``T`` draws of shape ``(m,)`` is the same
stream as ``T`` single draws, so a block gives the bits of the per-try
draw.  The rejection sampler tests a block of candidate noises against the
box of every remaining step at once, then walks the table in stream order:
each step takes the first accepted candidate at or after the current stream
position, exactly the candidate one draw per try would accept.  The unused
tail of a demo's last block is discarded; the substream belongs to that
demo alone, so no other demo or estimator could have read it.  Every
demo's first block meets the box in one array operation with every other
demo's; a demo goes on alone, from the step and tries where its first
block stopped, only when that block left a step unfilled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import ForwardProblem

__all__ = [
    "NoiseSpec",
    "DemoSet",
    "generate",
    "noise_scale_from_percent",
    "noise_cov",
    "sample_mean",
    "rmse",
]

_MAX_REJECTION_TRIES = 100_000


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Noise model for demonstration generation. Use the classmethods.

    The classmethods check their arguments and keep read-only copies.
    :meth:`factor` factors the Gaussian kinds' covariance once, and
    :meth:`with_seed` gives the same noise under another seed, sharing the
    arrays and the factor, so a grid checks and factors each level once.
    """

    kind: str
    seed: int
    sigma_u: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    halfwidth: np.ndarray | None = None
    _factor: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def gaussian(cls, sigma_u, seed: int) -> "NoiseSpec":
        return cls(kind="gaussian", seed=int(seed), sigma_u=_check_cov(sigma_u))

    @classmethod
    def truncated_gaussian(cls, sigma_u, lower, upper, seed: int) -> "NoiseSpec":
        sigma_u = _check_cov(sigma_u)
        m = sigma_u.shape[0]
        lower = _read_only(np.broadcast_to(np.asarray(lower, dtype=float), (m,)).copy())
        upper = _read_only(np.broadcast_to(np.asarray(upper, dtype=float), (m,)).copy())
        if np.any(lower >= upper):
            raise ValueError("truncation requires lower < upper channelwise")
        return cls(
            kind="truncated_gaussian", seed=int(seed),
            sigma_u=sigma_u, lower=lower, upper=upper,
        )

    @classmethod
    def uniform(cls, halfwidth, seed: int) -> "NoiseSpec":
        hw = _read_only(np.array(halfwidth, dtype=float, ndmin=1))
        if np.any(hw < 0):
            raise ValueError("halfwidth must be nonnegative")
        return cls(kind="uniform", seed=int(seed), halfwidth=hw)

    def factor(self) -> np.ndarray | None:
        """F with F F' = sigma_u for the Gaussian kinds, None for uniform; built on the first call."""
        if self._factor is None and self.kind in _GAUSSIAN_KINDS:
            object.__setattr__(self, "_factor", _read_only(_cov_factor(self.sigma_u)))
        return self._factor

    def with_seed(self, seed: int) -> "NoiseSpec":
        """This noise drawn from ``seed``; shares the arrays and :meth:`factor`."""
        out = replace(self, seed=int(seed))
        object.__setattr__(out, "_factor", self.factor())
        return out


_GAUSSIAN_KINDS = ("gaussian", "truncated_gaussian")


def _check_cov(sigma) -> np.ndarray:
    sigma = np.array(sigma, dtype=float, ndmin=2)
    if sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance must be square, got shape {sigma.shape}")
    if np.max(np.abs(sigma - sigma.T), initial=0.0) > 1e-10 * (1.0 + np.max(np.abs(sigma), initial=0.0)):
        raise ValueError("covariance must be symmetric")
    vals = np.linalg.eigvalsh(sigma)
    if vals.size and vals[0] < -1e-10 * max(1.0, vals[-1]):
        raise ValueError("covariance must be positive semidefinite")
    return _read_only(sigma)


def _cov_factor(sigma: np.ndarray) -> np.ndarray:
    """Factor F with F F' = sigma, valid for semidefinite sigma."""
    vals, vecs = np.linalg.eigh(sigma)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


@dataclass(frozen=True, eq=False)
class DemoSet:
    """A set of noisy demonstrations of one forward problem.

    The demos are immutable: ``U_list`` holds read-only views of the given
    arrays.  MAP, TLS and the Gibbs chain read them only through their
    count ``n_demos`` (D), their sample ``mean`` (Ubar) and their ``scatter``
    ``S = sum_d (U_d - Ubar)(U_d - Ubar)'``, since for every weight ``W``
    ``sum_d |U - U_d|^2_W = D |U - Ubar|^2_W + tr(W S)``.  Both are built
    once, at construction, and are read-only; ``S`` is exactly symmetric.
    """

    U_list: tuple
    fp_ref: ForwardProblem
    U_star: np.ndarray | None = None
    mean: np.ndarray = field(init=False, repr=False)
    scatter: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.U_list) == 0:
            raise ValueError("a demo set needs at least one demo")
        object.__setattr__(self, "U_list", tuple(_read_only(U) for U in self.U_list))
        stacked = np.array(self.U_list)  # (D, mN); faster than vstack on small demos
        mean = stacked.mean(axis=0)
        R = stacked - mean
        object.__setattr__(self, "mean", _read_only(mean))
        object.__setattr__(self, "scatter", _read_only(R.T @ R))

    @property
    def n_demos(self) -> int:
        return len(self.U_list)


def _read_only(a) -> np.ndarray:
    view = np.asarray(a, dtype=float).view()
    view.flags.writeable = False
    return view


def generate(U_star, spec: NoiseSpec, D: int, fp: ForwardProblem) -> DemoSet:
    """Draw ``D`` noisy demonstrations around ``U_star``.

    Deterministic given ``spec.seed``; demo ``d`` consumes only its own
    substream.  Each demo draws its noise in blocks (see the module
    docstring), which consumes its substream exactly as one draw per try
    would.  The demos are those bits when ``m = 1`` or ``spec.sigma_u`` is
    diagonal, since each noise entry is then a single product; for a full
    ``sigma_u`` with ``m > 1`` the block product may round differently in
    the last bit.  Rejects a spec whose channel count is not
    ``fp.system.m``.
    """
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    U_star = np.asarray(U_star, dtype=float).ravel()
    m, N = fp.system.m, fp.horizon
    if U_star.shape[0] != m * N:
        raise ValueError(
            f"U_star has length {U_star.shape[0]}, expected m * N = {m * N}"
        )
    _check_channels(spec, m)
    F = spec.factor()
    base = U_star.reshape(N, m)
    rngs = [np.random.default_rng(np.random.SeedSequence([spec.seed, d])) for d in range(D)]
    if spec.kind == "truncated_gaussian":
        demos = _truncated_demos(base, spec, F, rngs)
    else:
        demos = [_one_demo(base, spec, F, rng) for rng in rngs]
    return DemoSet(U_list=tuple(U.ravel() for U in demos), fp_ref=fp, U_star=U_star)


def _check_channels(spec: NoiseSpec, m: int) -> None:
    """Raise ValueError unless ``spec`` is of a known kind and fits ``m`` channels."""
    if spec.kind == "uniform":
        count, allowed = spec.halfwidth.shape[0], (1, m)
        what = "halfwidth has length"
    elif spec.kind in _GAUSSIAN_KINDS:
        count, allowed = spec.sigma_u.shape[0], (m,)
        what = "sigma_u has order"
    else:
        raise ValueError(f"unknown noise kind {spec.kind!r}")
    if count not in allowed:
        raise ValueError(
            f"noise spec {what} {count}, but the system has m = {m} input channels"
        )


def _one_demo(base, spec, F, rng):
    """One gaussian or uniform demo around ``base`` = U* as an (N, m) array.

    ``F`` is the factor of ``spec.sigma_u`` for the gaussian kind.
    """
    N, m = base.shape
    if spec.kind == "gaussian":
        return base + rng.standard_normal((N, m)) @ F.T
    # uniform; _check_channels has refused any other kind
    hw = np.broadcast_to(spec.halfwidth, (m,))
    return base + rng.uniform(-hw, hw, size=(N, m))


def _truncated_demos(base, spec, F, rngs):
    """One truncated demo around ``base`` per substream in ``rngs``.

    Every demo draws its first block, four candidates per step, from its
    own substream, and all of these blocks meet the box in one array
    operation.  A demo whose block leaves a step unfilled goes on alone.
    """
    N, m = base.shape
    size = min(4 * N, _MAX_REJECTION_TRIES)
    noise = np.stack([rng.standard_normal((size, m)) for rng in rngs])
    noise = (noise.reshape(-1, m) @ F.T).reshape(noise.shape)
    cand, ok = _in_box(base, noise, spec)
    return [_truncated_demo(base, spec, F, rng, *first)
            for rng, first in zip(rngs, zip(cand, ok))]


def _in_box(base, noise, spec):
    """Candidates ``base + noise`` for every step of ``base``, and which lie in the box.

    ``noise`` is one block, (T, m), or one block per demo, (D, T, m); the
    candidates are (N, T, m) or (D, N, T, m), and the test drops the last axis.
    """
    cand = base[:, None, :] + noise[..., None, :, :]
    return cand, np.all((cand >= spec.lower) & (cand <= spec.upper), axis=-1)


def _truncated_demo(base, spec, F, rng, cand, ok):
    """Rejection-sample each step of ``base`` into ``[lower, upper]``, in blocks.

    ``cand`` and ``ok`` are the first block, drawn from ``rng`` for every
    step; later blocks start at the first unfilled step.  A block holds at
    most four candidates per remaining step and never more than the current
    step's tries left, so only the step a block starts on can run out of
    tries, and only at the block's end.
    """
    N, m = base.shape
    U = np.empty((N, m))
    k = 0  # the step being sampled
    tried = 0  # tries step k has spent in earlier blocks
    while True:
        first, pos, size = k, 0, ok.shape[1]
        while k < N and pos < size:
            row = ok[k - first, pos:]
            j = int(row.argmax())
            if not row[j]:
                break
            U[k] = cand[k - first, pos + j]
            pos += j + 1
            k += 1
            tried = 0
        if k < N:
            tried += size - pos
            if tried == _MAX_REJECTION_TRIES:
                U[k] = np.clip(base[k], spec.lower, spec.upper)
                k += 1
                tried = 0
        if k == N:
            return U
        size = min(4 * (N - k), _MAX_REJECTION_TRIES - tried)
        cand, ok = _in_box(base[k:], rng.standard_normal((size, m)) @ F.T, spec)


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


def noise_cov(spec: NoiseSpec, m: int) -> np.ndarray:
    """Per-step (m x m) covariance of a noise spec's draw, the same at every step.

    For the truncated kind this is the covariance of the *untruncated* draw.
    """
    if spec.kind in _GAUSSIAN_KINDS:
        return spec.sigma_u
    if spec.kind == "uniform":
        return np.diag(np.broadcast_to(spec.halfwidth, (m,)) ** 2 / 3.0)
    raise ValueError(f"unknown noise kind {spec.kind!r}")


def sample_mean(ds: DemoSet) -> np.ndarray:
    """Entrywise mean of the demonstrations, ``ds.mean``."""
    return ds.mean


def rmse(a, b) -> float:
    """Root mean squared entrywise difference."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))
