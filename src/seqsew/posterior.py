"""Posterior representations for exponentially weighted regression.

The object being approximated is the Gibbs posterior over weight vectors

    p(du)  ~  exp(-eta * L(u)) * prior(du),
    L(u)   =  sum_s (y_s - clip(u . phi_s, B_s))^2,

where each past round carries the threshold ``B_s`` that was in force when
that round was played.  Offset-clipped variants feed residual outcomes
here and add their anchor back outside, so this module only ever clips
around zero.  Because the inverse temperature ``eta`` can be re-tuned
after every round, weights are always recomputed from cached *cumulative*
clipped losses rather than updated incrementally: a change of eta then
rescales all past losses exactly, with no approximation drift.

Three interchangeable backends:

``importance``
    Fixed-size particle set drawn exactly from the prior, reweighted in
    closed form each round.  When the effective sample size decays below
    ``ess_floor * n_samples`` the cloud is rejuvenated by systematic
    resampling followed by Metropolis sweeps targeting the current
    posterior (plain resampling would collapse diversity under this
    heavy-tailed prior); subsequent weights account for the moved
    proposal via a cached log-offset.

``chain``
    Unweighted walkers advanced by a random-walk Metropolis kernel
    re-targeted at the new posterior after every round, with the step
    size calibrated to keep acceptance between roughly 20% and 50%.

``quadrature``
    Deterministic tensor grid (d <= 2 only), sinh-stretched in u / tau so
    the polynomial tails are resolved with few nodes.  Serves as the
    exact oracle the stochastic backends are checked against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import prior as prior_mod
from .errors import (
    ArgumentError,
    ContractViolationError,
    DimensionMismatchError,
    StateError,
    UnsupportedDimensionError,
)
from .prior import SparsityPrior

__all__ = [
    "BackendConfig",
    "PosteriorCloud",
    "FrozenCloud",
    "init",
    "quadrature_expectation",
    "clipped_margin_integrand",
]

# Radius of the default grid in units of tau: prior mass beyond it is
# (1 + R)^-3 per side, below 1e-6 for R = 100.
_GRID_RADIUS_TAU_UNITS = 100.0


@dataclass(frozen=True)
class BackendConfig:
    """Knobs for the posterior backends.  Only the fields of the chosen
    backend matter; the rest are ignored."""

    backend: str = "importance"
    n_samples: int = 10_000
    burn_in: int = 25
    proposal_scale: float = 2.0
    ess_floor: float = 0.5
    refresh_sweeps: int = 1
    grid_points_per_dim: int = 257
    grid_radius_multiplier: float = 1.0
    grid_nodes: tuple | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("importance", "chain", "quadrature"):
            raise ArgumentError(f"unknown backend {self.backend!r}")
        if self.backend in ("importance", "chain") and self.n_samples < 100:
            raise ArgumentError("stochastic backends need n_samples >= 100")
        if self.backend == "quadrature" and self.grid_nodes is None and self.grid_points_per_dim < 64:
            raise ArgumentError("quadrature backend needs grid_points_per_dim >= 64")
        if not 0.0 < self.ess_floor < 1.0:
            raise ArgumentError("ess_floor must lie in (0, 1)")
        if not self.proposal_scale > 0.0:
            raise ArgumentError("proposal_scale must be positive")
        if not self.grid_radius_multiplier > 0.0:
            raise ArgumentError("grid_radius_multiplier must be positive")


class _History:
    """Per-round (features, y, B) needed to re-evaluate cumulative clipped
    losses at arbitrary points."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._phi: list[np.ndarray] = []
        self._y: list[float] = []
        self._b: list[float] = []

    def __len__(self) -> int:
        return len(self._y)

    def append(self, features: np.ndarray, y: float, b: float) -> None:
        self._phi.append(np.asarray(features, dtype=float))
        self._y.append(float(y))
        self._b.append(float(b))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self._y:
            return (np.zeros((0, self.dim)), np.zeros(0), np.zeros(0))
        return (np.vstack(self._phi), np.asarray(self._y), np.asarray(self._b))


def _cumulative_clipped_loss(
    points: np.ndarray,
    phi: np.ndarray,
    y: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """L(u) over a full history, for each row of ``points``."""
    if len(y) == 0:
        return np.zeros(points.shape[0])
    margins = points @ phi.T  # (n, t)
    clipped = np.clip(margins, -b[None, :], b[None, :])
    return np.sum((y[None, :] - clipped) ** 2, axis=1)


def _normalized_log_weights(log_unnorm: np.ndarray) -> np.ndarray:
    m = float(np.max(log_unnorm))
    w = np.exp(log_unnorm - m)
    return w / np.sum(w)


def _ess_from_weights(weights: np.ndarray) -> float:
    return float(1.0 / np.sum(weights**2))


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = weights.shape[0]
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    return np.minimum(np.searchsorted(cumulative, positions), n - 1)


# ---------------------------------------------------------------------------
# Metropolis moves shared by the chain backend and the importance refresh.
# One "step" updates a single randomly chosen coordinate of every particle;
# margins against the full history are kept cached so each step costs
# O(n_particles * n_rounds).
# ---------------------------------------------------------------------------


def _robust_coordinate_scales(samples: np.ndarray, floor: float) -> np.ndarray:
    """Per-coordinate spread of the cloud (median absolute deviation),
    floored away from zero.  Robust against the giant outliers a
    heavy-tailed cloud always contains."""
    med = np.median(samples, axis=0)
    mad = np.median(np.abs(samples - med), axis=0) * 1.4826
    return np.maximum(mad, floor)


def _metropolis_coordinate_steps(
    samples: np.ndarray,
    cum_loss: np.ndarray,
    margins: np.ndarray,
    history: tuple[np.ndarray, np.ndarray, np.ndarray],
    eta: float,
    prior: SparsityPrior,
    rng: np.random.Generator,
    n_steps: int,
    coord_scales: np.ndarray,
    step_multiplier: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Random-coordinate Metropolis sweeps targeting the current posterior.

    Each step moves one random coordinate of every particle; margins
    against the full history are cached so a step costs
    O(n_particles * n_rounds).  The shared step multiplier is retuned
    after every step toward the 20-50% acceptance window."""
    phi, y, b = history
    n, d = samples.shape
    eta_term = eta if math.isfinite(eta) else 0.0
    rates = []
    for _ in range(max(n_steps, 0)):
        coords = rng.integers(0, d, size=n)
        # Mixture of local and long-range moves keeps the heavy tails
        # reachable without wrecking the acceptance rate.
        base = coord_scales[coords] * step_multiplier
        widths = np.where(rng.random(n) < 0.2, 10.0 * base, base)
        deltas = rng.standard_normal(n) * widths

        old_vals = samples[np.arange(n), coords]
        new_vals = old_vals + deltas
        log_prior_delta = -4.0 * (
            np.log1p(np.abs(new_vals) / prior.tau) - np.log1p(np.abs(old_vals) / prior.tau)
        )
        if len(y) > 0:
            new_margins = margins + deltas[:, None] * phi[:, coords].T
            clipped = np.clip(new_margins, -b[None, :], b[None, :])
            new_loss = np.sum((y[None, :] - clipped) ** 2, axis=1)
        else:
            new_margins = margins
            new_loss = cum_loss
        log_alpha = log_prior_delta - eta_term * (new_loss - cum_loss)
        accept = np.log(rng.random(n)) < log_alpha
        rate = float(np.count_nonzero(accept)) / n
        rates.append(rate)

        samples[accept, coords[accept]] = new_vals[accept]
        cum_loss[accept] = new_loss[accept]
        if len(y) > 0:
            margins[accept] = new_margins[accept]
        if rate < 0.2:
            step_multiplier *= 0.7
        elif rate > 0.5:
            step_multiplier *= 1.4
    mean_rate = float(np.mean(rates)) if rates else 0.0
    return samples, cum_loss, margins, mean_rate, step_multiplier


# ---------------------------------------------------------------------------
# Quadrature grid.
# ---------------------------------------------------------------------------


def _sinh_nodes_and_logmass(
    tau: float, n_points: int, radius_multiplier: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate nodes and log cell masses of the stretched grid.

    Nodes are u = tau * R * sinh(c x) / sinh(c) for x uniform on [-1, 1]
    with sinh(c) = R, which clusters points near the origin and spreads
    them geometrically into the tails.  Cell masses combine the trapezoid
    weight, the stretch Jacobian, and the prior density.
    """
    m = int(n_points)
    if m % 2 == 0:
        m += 1  # keep a node exactly at the origin, where the density kinks
    radius_t = _GRID_RADIUS_TAU_UNITS * radius_multiplier
    stretch = math.asinh(radius_t)
    xi = np.linspace(-1.0, 1.0, m)
    nodes = tau * np.sinh(stretch * xi)  # sinh(stretch) == radius_t
    jacobian = tau * stretch * np.cosh(stretch * xi)
    dxi = 2.0 / (m - 1)
    trap = np.full(m, dxi)
    trap[0] = trap[-1] = dxi / 2.0
    log_mass = np.log(trap) + np.log(jacobian) + prior_mod.coordinate_log_density(nodes, tau)
    return nodes, log_mass


def _build_grid(prior: SparsityPrior, config: BackendConfig) -> tuple[np.ndarray, np.ndarray]:
    """Grid points (k, d) and their log base masses (k,)."""
    if prior.dim > 2:
        raise UnsupportedDimensionError(
            f"quadrature backend supports d <= 2, got d = {prior.dim}"
        )
    if config.grid_nodes is not None:
        # Testing hook: an explicit discrete prior supported on the given
        # nodes, weighted by the continuous density.
        per_dim = [np.asarray(nodes, dtype=float) for nodes in config.grid_nodes]
        if len(per_dim) != prior.dim:
            raise ArgumentError("grid_nodes must provide one node array per dimension")
        logs = [prior_mod.coordinate_log_density(nodes, prior.tau) for nodes in per_dim]
    else:
        built = [
            _sinh_nodes_and_logmass(prior.tau, config.grid_points_per_dim, config.grid_radius_multiplier)
            for _ in range(prior.dim)
        ]
        per_dim = [nodes for nodes, _ in built]
        logs = [log_mass for _, log_mass in built]

    if prior.dim == 1:
        points = per_dim[0][:, None]
        log_base = logs[0]
    else:
        a, b = np.meshgrid(per_dim[0], per_dim[1], indexing="ij")
        points = np.column_stack([a.ravel(), b.ravel()])
        log_base = (logs[0][:, None] + logs[1][None, :]).ravel()
    return points, log_base


# ---------------------------------------------------------------------------
# The cloud.
# ---------------------------------------------------------------------------


@dataclass
class FrozenCloud:
    """Immutable usable snapshot of a posterior: weighted points only.

    Serialises losslessly to JSON (samples, log-weights, cached losses)
    so batch estimators can be persisted and reloaded.
    """

    samples: np.ndarray
    log_weights: np.ndarray
    cum_loss: np.ndarray
    eta: float
    backend: str

    def weights(self) -> np.ndarray:
        return _normalized_log_weights(self.log_weights)

    def predict_clipped_mean(self, features: np.ndarray, threshold: float) -> float:
        margins = self.samples @ np.asarray(features, dtype=float)
        clipped = np.clip(margins, -threshold, threshold)
        return float(np.dot(self.weights(), clipped))

    def to_json(self) -> str:
        payload = {
            "schema": "seqsew.cloud.v1",
            "backend": self.backend,
            "eta": repr(self.eta),
            "samples": [[repr(v) for v in row] for row in self.samples.tolist()],
            "log_weights": [repr(v) for v in self.log_weights.tolist()],
            "cum_loss": [repr(v) for v in self.cum_loss.tolist()],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FrozenCloud":
        payload = json.loads(text)
        if payload.get("schema") != "seqsew.cloud.v1":
            raise ArgumentError("not a serialized posterior snapshot")
        return cls(
            samples=np.array([[float(v) for v in row] for row in payload["samples"]], dtype=float),
            log_weights=np.array([float(v) for v in payload["log_weights"]], dtype=float),
            cum_loss=np.array([float(v) for v in payload["cum_loss"]], dtype=float),
            eta=float(payload["eta"]),
            backend=payload["backend"],
        )


class PosteriorCloud:
    """Single-owner mutable posterior approximation.

    Build with :func:`init`; then alternate :meth:`predict` and
    :meth:`update` following the online protocol.  The inverse temperature
    passed to ``update`` must never increase.

    Between rounds ``samples`` is never written in place: an update that
    moves the sample set rebinds it to a fresh array, so a reference taken
    between rounds keeps that round's set.  The batch estimators rely on
    this to store each distinct set once.
    """

    def __init__(self, prior: SparsityPrior, config: BackendConfig, rng: np.random.Generator | None) -> None:
        self.prior = prior
        self.config = config
        self.backend = config.backend
        self.eta = math.inf
        self.history = _History(prior.dim)
        self._rng = rng
        self._step_multiplier = 1.0
        self._margins: np.ndarray | None = None  # chain backend cache, (n, t)
        self.resample_count = 0

        if self.backend == "quadrature":
            self.samples, self._log_base = _build_grid(prior, config)
        else:
            if rng is None:
                raise ArgumentError("stochastic backends need a random generator")
            self.samples = prior_mod.sample(prior, rng, size=config.n_samples)
            self._log_base = np.zeros(config.n_samples)
            if self.backend == "chain":
                self._margins = np.zeros((config.n_samples, 0))
        self.cum_loss = np.zeros(self.samples.shape[0])

    # -- weights ---------------------------------------------------------

    def _log_unnormalized(self) -> np.ndarray:
        if self.backend == "chain":
            return np.zeros(self.samples.shape[0])
        if not math.isfinite(self.eta):
            # eta = +inf is the formal initial value: it is only ever in
            # force while every past loss is constant in u, so the
            # posterior is the prior and the loss term contributes nothing.
            return self._log_base
        return self._log_base - self.eta * self.cum_loss

    def weights(self) -> np.ndarray:
        return _normalized_log_weights(self._log_unnormalized())

    def ess(self) -> float:
        return _ess_from_weights(self.weights())

    # -- protocol --------------------------------------------------------

    def predict(self, features: np.ndarray, threshold: float) -> float:
        """Posterior mean of clip(u . features, threshold)."""
        features = np.asarray(features, dtype=float)
        if features.shape != (self.prior.dim,):
            raise DimensionMismatchError(
                f"features have shape {features.shape}, expected ({self.prior.dim},)"
            )
        if self.samples.shape[0] == 0:
            raise StateError("posterior cloud has no support points")
        margins = self.samples @ features
        clipped = np.clip(margins, -threshold, threshold)
        value = float(np.dot(self.weights(), clipped))
        # The weighted average of values in [-B, B] can exceed the interval
        # by a rounding ulp; the protocol promises |prediction| <= B exactly.
        return min(max(value, -threshold), threshold)

    def update(
        self,
        features: np.ndarray,
        y: float,
        threshold_used: float,
        new_eta: float,
    ) -> None:
        """Record one round and retarget the representation at the new
        posterior.  ``threshold_used`` is the clip level that was in force
        when this round was predicted."""
        features = np.asarray(features, dtype=float)
        if features.shape != (self.prior.dim,):
            raise DimensionMismatchError(
                f"features have shape {features.shape}, expected ({self.prior.dim},)"
            )
        if new_eta > self.eta:
            raise ContractViolationError(
                f"inverse temperature must not increase: {new_eta} > {self.eta}"
            )

        margins = self.samples @ features
        clipped = np.clip(margins, -threshold_used, threshold_used)
        self.cum_loss = self.cum_loss + (y - clipped) ** 2
        self.history.append(features, y, threshold_used)
        self.eta = float(new_eta)

        if self.backend == "importance":
            self._maybe_rejuvenate()
        elif self.backend == "chain":
            self._margins = np.column_stack([self._margins, margins])
            self._advance_chain()

    # -- importance internals ---------------------------------------------

    def _maybe_rejuvenate(self) -> None:
        if not math.isfinite(self.eta):
            return
        weights = self.weights()
        n = weights.shape[0]
        if _ess_from_weights(weights) >= self.config.ess_floor * n:
            return
        idx = _systematic_resample(weights, self._rng)
        self.samples = self.samples[idx].copy()
        self.cum_loss = self.cum_loss[idx].copy()
        self.resample_count += 1

        hist = self.history.arrays()
        margins = self.samples @ hist[0].T
        n_steps = self.config.refresh_sweeps * self.prior.dim
        scales = self.config.proposal_scale * _robust_coordinate_scales(
            self.samples, floor=1e-3 * self.prior.tau
        )
        self.samples, self.cum_loss, _, _, self._step_multiplier = _metropolis_coordinate_steps(
            self.samples,
            self.cum_loss,
            margins,
            hist,
            self.eta,
            self.prior,
            self._rng,
            n_steps,
            scales,
            self._step_multiplier,
        )
        # The particles now stand in for the current posterior, which
        # becomes the proposal for all later reweighting.
        self._log_base = self.eta * self.cum_loss

    # -- chain internals ---------------------------------------------------

    def _advance_chain(self) -> None:
        hist = self.history.arrays()
        scales = self.config.proposal_scale * _robust_coordinate_scales(
            self.samples, floor=1e-3 * self.prior.tau
        )
        self.samples, self.cum_loss, self._margins, _, self._step_multiplier = _metropolis_coordinate_steps(
            self.samples.copy(),
            self.cum_loss,
            self._margins,
            hist,
            self.eta,
            self.prior,
            self._rng,
            self.config.burn_in,
            scales,
            self._step_multiplier,
        )

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> FrozenCloud:
        return FrozenCloud(
            samples=self.samples.copy(),
            log_weights=np.log(np.maximum(self.weights(), 1e-300)),
            cum_loss=self.cum_loss.copy(),
            eta=self.eta,
            backend=self.backend,
        )


def init(prior: SparsityPrior, config: BackendConfig, rng: np.random.Generator | None = None) -> PosteriorCloud:
    """Fresh cloud representing the prior itself (no data, eta formally
    infinite)."""
    return PosteriorCloud(prior, config, rng)


# ---------------------------------------------------------------------------
# Stand-alone quadrature expectation (the exact low-dimensional oracle).
# ---------------------------------------------------------------------------


def clipped_margin_integrand(features: np.ndarray, threshold: float) -> Callable[[np.ndarray], np.ndarray]:
    features = np.asarray(features, dtype=float)

    def integrand(points: np.ndarray) -> np.ndarray:
        return np.clip(points @ features, -threshold, threshold)

    return integrand


def quadrature_expectation(
    prior: SparsityPrior,
    config: BackendConfig,
    rounds: Sequence[tuple[np.ndarray, float, float]],
    eta: float,
    integrand: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Deterministic tensor-grid value of the posterior expectation of
    ``integrand``.

    ``rounds`` lists the played (features, y, threshold) triples defining
    the cumulative clipped loss.  d <= 2 only.
    """
    if prior.dim > 2:
        raise UnsupportedDimensionError(f"quadrature oracle supports d <= 2, got {prior.dim}")
    cfg = config if config.backend == "quadrature" else replace(config, backend="quadrature")
    points, log_base = _build_grid(prior, cfg)
    if rounds:
        phi = np.vstack([np.asarray(r[0], dtype=float) for r in rounds])
        y = np.asarray([r[1] for r in rounds], dtype=float)
        b = np.asarray([r[2] for r in rounds], dtype=float)
        losses = _cumulative_clipped_loss(points, phi, y, b)
    else:
        losses = np.zeros(points.shape[0])
    eta_term = eta if math.isfinite(eta) else 0.0
    weights = _normalized_log_weights(log_base - eta_term * losses)
    return float(np.dot(weights, np.asarray(integrand(points), dtype=float)))
