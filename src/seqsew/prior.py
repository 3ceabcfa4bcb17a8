"""The heavy-tailed sparsity prior and its closed-form companions.

The prior is a product over coordinates of the density

    (3 / tau) / (2 * (1 + |u| / tau)^4),

a polynomially-tailed distribution whose scale ``tau`` controls how
strongly mass concentrates near zero.  Heavy tails are the point: a
posterior built on this prior can place a coordinate far from zero
without paying an exponentially large prior penalty, which is what makes
sparse comparators cheap in the regret analysis.

Closed forms implemented here:

* exact per-coordinate sampling by CDF inversion,
* the divergence budget ``4 * ||u||_0 * ln(1 + ||u||_1 / (||u||_0 tau))``
  of the prior translated to a center ``u`` (an upper bound on the true
  Kullback-Leibler divergence, verified by quadrature in the tests),
* its refinement ``4 * sum_j ln(1 + |u_j| / tau)`` which is never larger,
* the translated-prior expected-loss identity (quadratic loss integrates
  to the center's loss plus ``tau^2`` times the feature Gram trace),
* the finite-support duality between log-partition values and
  entropy-regularised linear minimisation.

The quadrature oracles at the end (``coordinate_density_integral``,
``coordinate_second_moment``, ``kl_translated_quadrature``) check these
closed forms by a separate route, ``scipy.integrate.quad``.  They import
scipy on first call, so importing this module (or the package) does not
load it; nothing on the forecasting path calls them.

Conventions: ``0 * ln(1 + U / 0) = 0`` throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArgumentError, DimensionMismatchError, _checked_integer

__all__ = [
    "SparsityPrior",
    "TranslatedPrior",
    "log_density",
    "sample",
    "magnitude_from_uniform",
    "coordinate_log_density",
    "coordinate_magnitude_cdf",
    "s_ln_term",
    "kl_upper_bound",
    "refined_sparsity_term",
    "translated_loss_identity_check",
    "kl_duality_check",
    "coordinate_density_integral",
    "coordinate_second_moment",
    "kl_translated_quadrature",
]


@dataclass(frozen=True)
class SparsityPrior:
    """Product prior on R^d with per-coordinate scale ``tau``."""

    tau: float
    dim: int

    def __post_init__(self) -> None:
        # In this range the density's constant 3 / (2 tau) is a finite,
        # positive float.
        if not 2.0**-1022 <= self.tau < 2.0**1023:
            raise ArgumentError(f"prior scale tau must lie in [2^-1022, 2^1023), got {self.tau}")
        object.__setattr__(self, "dim", _checked_integer("dimension", self.dim))
        if self.dim < 1:
            raise ArgumentError(f"dimension must be a positive integer, got {self.dim}")


@dataclass(frozen=True)
class TranslatedPrior:
    """The base prior recentred at ``center``; its density at u is the
    base density at u - center."""

    base: SparsityPrior
    center: np.ndarray

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=float)
        if center.shape != (self.base.dim,):
            raise DimensionMismatchError(
                f"center has shape {center.shape}, expected ({self.base.dim},)"
            )
        object.__setattr__(self, "center", center)

    def log_density(self, u: np.ndarray) -> float:
        return log_density(self.base, np.asarray(u, dtype=float) - self.center)


def coordinate_log_density(u: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise log of the per-coordinate density."""
    u = np.asarray(u, dtype=float)
    return math.log(3.0 / (2.0 * tau)) - 4.0 * np.log1p(np.abs(u) / tau)


def log_density(prior: SparsityPrior, u: np.ndarray) -> float:
    """Log density of the product prior at a point u in R^d."""
    u = np.asarray(u, dtype=float)
    if u.shape != (prior.dim,):
        raise DimensionMismatchError(f"u has shape {u.shape}, expected ({prior.dim},)")
    return float(np.sum(coordinate_log_density(u, prior.tau)))


def magnitude_from_uniform(v: np.ndarray, tau: float) -> np.ndarray:
    """Inverse CDF of the coordinate magnitude: v in [0, 1) -> tau * ((1-v)^(-1/3) - 1).

    The one-sided magnitude CDF is 1 - (1 + x/tau)^(-3); this is its exact
    inverse, so plugging in uniform draws gives exact magnitude samples.
    """
    v = np.asarray(v, dtype=float)
    return tau * ((1.0 - v) ** (-1.0 / 3.0) - 1.0)


def coordinate_magnitude_cdf(x: np.ndarray, tau: float) -> np.ndarray:
    """CDF of |u| for a single prior coordinate."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.0, 0.0, 1.0 - (1.0 + np.maximum(x, 0.0) / tau) ** (-3.0))


def sample(prior: SparsityPrior, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Exact draws from the prior via per-coordinate CDF inversion.

    Returns a (dim,) vector, or a (size, dim) matrix when ``size`` is given.
    The matrix is column-major (F-contiguous: a (dim, size) C-array seen
    through ``.T``), so each coordinate's values are contiguous; that is
    the layout of every sample set a posterior cloud holds.  Branch-free
    and reproducible: each coordinate consumes one uniform for the
    magnitude and one for the sign, in the row-major order of the (size,
    dim) matrix, so the values do not depend on the layout.  At most two
    (size, dim) arrays are alive at once.
    """
    n = 1 if size is None else int(size)
    d = prior.dim
    # signs * magnitude_from_uniform(v, tau), with signs -1.0 where the
    # sign uniform is below 0.5, built in v's own array.  The magnitude is
    # the same arithmetic in the same order, and it is never negative, so
    # taking the sign of (uniform - 0.5), which is exact and zero only at
    # 0.5, equals the product bit for bit.  A masked negation is as exact
    # but several times slower.  The sign uniforms are drawn into the
    # output's own buffer, which then takes the finished draw, transposed.
    # The output is allocated first, so freeing the magnitudes leaves no
    # heap hole below the array that is kept.
    buffer = np.empty(n * d)
    draw = rng.random((n, d))
    np.subtract(1.0, draw, out=draw)
    np.power(draw, -1.0 / 3.0, out=draw)
    np.subtract(draw, 1.0, out=draw)
    np.multiply(draw, prior.tau, out=draw)
    signs = rng.random(out=buffer.reshape(n, d))
    np.subtract(signs, 0.5, out=signs)
    np.copysign(draw, signs, out=draw)
    out = buffer.reshape(d, n).T
    np.copyto(out, draw)
    return out[0] if size is None else out


def s_ln_term(s: float, U: float) -> float:
    """The map s -> s ln(1 + U / s), continuously extended by 0 at s = 0."""
    if s < 0.0 or U < 0.0:
        raise ArgumentError("s and U must be nonnegative")
    if s == 0.0:
        return 0.0
    ratio = U / s
    if math.isinf(ratio):
        # s is subnormal: use s ln(1 + U/s) ~ s (ln U - ln s), which still
        # vanishes as s -> 0 instead of overflowing.
        return s * (math.log(U) - math.log(s))
    return s * math.log1p(ratio)


def kl_upper_bound(u_star: np.ndarray, tau: float) -> float:
    """Closed-form budget 4 ||u*||_0 ln(1 + ||u*||_1 / (||u*||_0 tau)).

    Upper-bounds the Kullback-Leibler divergence of the translated prior
    at u* from the centred prior.  Uses the 0 * ln(1 + U/0) = 0 convention.
    """
    if not tau > 0.0:
        raise ArgumentError(f"tau must be positive, got {tau}")
    u_star = np.asarray(u_star, dtype=float)
    return 4.0 * s_ln_term(int(np.count_nonzero(u_star)), float(np.sum(np.abs(u_star))) / tau)


def refined_sparsity_term(u: np.ndarray, tau: float) -> float:
    """The continuous refinement 4 sum_j ln(1 + |u_j| / tau).

    Never exceeds :func:`kl_upper_bound` (Jensen on the concave log), and
    stays small for approximately sparse vectors where the hard l0 count
    would not.
    """
    if not tau > 0.0:
        raise ArgumentError(f"tau must be positive, got {tau}")
    u = np.asarray(u, dtype=float)
    return 4.0 * float(np.sum(np.log1p(np.abs(u) / tau)))


def translated_loss_identity_check(
    u_star: np.ndarray,
    tau: float,
    features: np.ndarray,
    y: np.ndarray,
    n_mc: int,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """Monte-Carlo check of the translated-prior expected-loss identity.

    For u drawn from the prior translated to ``u_star``, the expectation of
    sum_t (y_t - u . phi_t)^2 equals exactly

        sum_t (y_t - u_star . phi_t)^2 + tau^2 * sum_{t,j} phi_{t,j}^2.

    Returns ``(estimate, exact, stderr)``.

    The integrand's second moment under the translated prior diverges (the
    prior has no fourth moment), so plain sampling would have infinite
    variance and no usable standard error.  The estimate therefore draws
    the perturbation from a heavier-tailed proposal, per-coordinate
    density 0.75/tau * (1 + |s|/tau)^(-5/2), whose likelihood ratio
    against the prior coordinate is the bounded 2 * (1 + |s|/tau)^(-3/2);
    the reweighted integrand then has finite variance and the 3-sigma
    comparison is calibrated.  Pairs (+s, -s) are averaged so the linear
    cross term cancels exactly.  ``stderr`` is the empirical standard
    error over the ``n_mc // 2`` pairs.
    """
    if n_mc < 1:
        raise ArgumentError(f"n_mc must be >= 1, got {n_mc}")
    features = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(y, dtype=float)
    if features.shape[0] != y.shape[0] or y.shape[0] == 0:
        raise ArgumentError("features and y must be nonempty with matching round counts")
    d = features.shape[1]
    u_star = np.asarray(u_star, dtype=float)
    if u_star.shape != (d,):
        raise DimensionMismatchError(f"u_star has shape {u_star.shape}, expected ({d},)")

    n_pairs = max(n_mc // 2, 1)
    # Proposal magnitudes by inverse CDF of 1 - (1 + m/tau)^(-3/2).
    v = rng.random((n_pairs, d))
    magnitudes = tau * ((1.0 - v) ** (-2.0 / 3.0) - 1.0)
    signs = np.where(rng.random((n_pairs, d)) < 0.5, -1.0, 1.0)
    perturbations = signs * magnitudes
    log_ratio = np.sum(math.log(2.0) - 1.5 * np.log1p(magnitudes / tau), axis=1)
    weights = np.exp(log_ratio)

    values = np.zeros(n_pairs)
    for sign in (1.0, -1.0):
        residuals = y[None, :] - (u_star + sign * perturbations) @ features.T
        values += 0.5 * np.sum(residuals**2, axis=1)
    values *= weights
    estimate = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n_pairs)) if n_pairs > 1 else float("inf")

    exact = float(np.sum((y - features @ u_star) ** 2) + tau**2 * np.sum(features**2))
    return estimate, exact, stderr


def kl_duality_check(weights_pi: np.ndarray, h: np.ndarray) -> tuple[float, float]:
    """Finite-support duality between the log-partition and the Gibbs problem.

    Returns ``(lhs, rhs)`` with

        lhs = -ln sum_i pi_i exp(-h_i)
        rhs = min over probability vectors rho of sum_i rho_i h_i + KL(rho, pi),

    the minimum being attained at the Gibbs distribution rho_i ~ pi_i e^{-h_i}.
    ``rhs`` is evaluated the long way (form rho, then the two sums) so the
    equality is a genuine floating-point check rather than an algebraic
    tautology.
    """
    pi = np.asarray(weights_pi, dtype=float)
    h = np.asarray(h, dtype=float)
    if pi.shape != h.shape or pi.ndim != 1 or pi.size == 0:
        raise ArgumentError("weights_pi and h must be 1-d arrays of equal positive length")
    if np.any(pi < 0.0) or abs(float(np.sum(pi)) - 1.0) > 1e-9:
        raise ArgumentError("weights_pi must be a probability vector (nonnegative, sum 1)")

    support = pi > 0.0
    log_pi = np.log(pi[support])
    hs = h[support]

    a = log_pi - hs
    a_max = float(np.max(a))
    log_partition = a_max + math.log(float(np.sum(np.exp(a - a_max))))
    lhs = -log_partition

    rho = np.exp(a - a_max)
    rho /= np.sum(rho)
    rhs = float(np.sum(rho * hs) + np.sum(rho * (np.log(rho) - log_pi)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Quadrature oracles.  These are the independent side of the dual-route
# checks: deterministic adaptive quadrature against which the closed forms
# and the sampler are verified.  Monte Carlo would be the wrong tool for the
# second moment (the prior's fourth moment diverges, so that estimator has
# infinite variance).
# ---------------------------------------------------------------------------


def _coordinate_density(tau: float) -> Callable[[float], float]:
    def dens(u: float) -> float:
        return (3.0 / tau) / (2.0 * (1.0 + abs(u) / tau) ** 4)

    return dens


def coordinate_density_integral(tau: float) -> float:
    """Adaptive quadrature of the per-coordinate density over R (should be 1)."""
    from scipy import integrate

    dens = _coordinate_density(tau)
    left, _ = integrate.quad(dens, -np.inf, 0.0)
    right, _ = integrate.quad(dens, 0.0, np.inf)
    return left + right


def coordinate_second_moment(tau: float) -> float:
    """Adaptive quadrature of u^2 times the density (should be tau^2).

    Integrates in the normalised variable t = u / tau and scales by tau^2,
    so the accuracy does not degrade with the scale.
    """
    from scipy import integrate

    def integrand(t: float) -> float:
        return t * t * 1.5 / (1.0 + abs(t)) ** 4

    left, _ = integrate.quad(integrand, -np.inf, 0.0)
    right, _ = integrate.quad(integrand, 0.0, np.inf)
    return tau**2 * (left + right)


def _kl_translated_coordinate(center: float, tau: float) -> float:
    """KL of one translated coordinate from the centred one, by quadrature.

    Written in the variable v = u - center, where the translated density is
    the centred density of v and the log ratio is
    4 [ln(1 + |v + center|/tau) - ln(1 + |v|/tau)].
    """
    if center == 0.0:
        return 0.0
    from scipy import integrate

    dens = _coordinate_density(tau)

    def integrand(v: float) -> float:
        ratio = math.log1p(abs(v + center) / tau) - math.log1p(abs(v) / tau)
        return 4.0 * ratio * dens(v)

    # Kinks at v = 0 and v = -center; integrate piecewise.
    cut = -center
    lo, hi = (cut, 0.0) if cut < 0.0 else (0.0, cut)
    total = 0.0
    total += integrate.quad(integrand, -np.inf, lo)[0]
    if hi > lo:
        total += integrate.quad(integrand, lo, hi)[0]
    total += integrate.quad(integrand, hi, np.inf)[0]
    return total


def kl_translated_quadrature(u_star: np.ndarray, tau: float) -> float:
    """Exact (quadrature) KL divergence of the translated prior at u_star
    from the centred prior.  Products factorise, so this is a sum of
    one-dimensional integrals."""
    u_star = np.atleast_1d(np.asarray(u_star, dtype=float))
    return float(sum(_kl_translated_coordinate(float(c), tau) for c in u_star))
