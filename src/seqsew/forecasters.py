"""Online forecasters: exponentially weighted regression with clipping.

All forecasters implement the same protocol: per round, ``predict`` is
called with the feature vector and must return a prediction before
``observe`` reveals the outcome.  The interface shape enforces causality
(there is no way to hand a forecaster the current outcome early).

Variants:

* :class:`SeqSEWAdaptive` -- data-driven dyadic threshold and
  eta = 1 / (8 B^2), adaptive to the unknown observation range; fixed tau.
* :class:`SeqSEWFixed` -- the same scheme with the threshold B and the
  inverse temperature eta pinned by the caller.
* :class:`SeqSEWAuto` -- additionally adapts to the unknown feature mass:
  the adaptive scheme itself, restarted in place with rapidly shrinking
  tau whenever the cumulative Gram trace crosses a geometric schedule.
* :class:`RidgeBaseline` -- follow-the-regularized-leader least squares,
  for comparison only.

The lowercase names ``seqsew_fixed``, ``seqsew_adaptive``, ``seqsew_auto``
and ``ridge_baseline`` are these classes under their functional names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import ArgumentError, DataError, StateError, _checked_integer
from .posterior import BackendConfig, PosteriorCloud, _checked_features, init as init_cloud
from .prior import SparsityPrior

__all__ = [
    "RoundRecord",
    "ProtocolResult",
    "AdaptiveState",
    "RegimeState",
    "SeqSEWFixed",
    "SeqSEWAdaptive",
    "SeqSEWAuto",
    "RidgeBaseline",
    "seqsew_fixed",
    "seqsew_adaptive",
    "seqsew_auto",
    "ridge_baseline",
    "run_protocol",
    "dyadic_ceil_pow2",
]

# Restart schedules beyond this regime index would need a prior scale below
# double-precision range (exp(2^r) overflows for 2^r > ~709); unreachable at
# any realistic data scale, so the regime index is capped there.
_REGIME_CAP = 9

# Largest y^2 for which the adaptive threshold B^2 (its dyadic ceiling),
# 8 B^2 and a round's clipped loss (|y| + B)^2 <= 4 B^2 are all finite.
_MAX_OUTCOME_SQ = 2.0**1020


def dyadic_ceil_pow2(z: float) -> float:
    """Smallest power of two >= z, exact for z itself a power of two.

    Computed by exponent extraction from the float representation instead
    of a log, so z = 2^k maps to 2^k and not 2^(k+1).
    """
    if z < 0.0 or not math.isfinite(z):
        raise ArgumentError(f"dyadic_ceil_pow2 needs a finite nonnegative input, got {z}")
    if z == 0.0:
        return 0.0
    mantissa, exponent = math.frexp(z)  # z = mantissa * 2^exponent, mantissa in [0.5, 1)
    if mantissa == 0.5:
        exponent -= 1
    return math.ldexp(1.0, exponent)


@dataclass(frozen=True)
class RoundRecord:
    """One played round plus the adaptation state in force when it was
    predicted."""

    t: int
    y: float
    yhat: float
    loss: float
    cumloss: float
    B: float
    eta: float
    regime: int
    ess: float


@dataclass
class AdaptiveState:
    """Data-driven clipping state: B^2 is 0 or the smallest power of two
    at least max_y_sq, and eta = 1 / (8 B^2) once B > 0."""

    B: float = 0.0
    B_sq: float = 0.0
    eta: float = math.inf
    max_y_sq: float = 0.0


@dataclass
class RegimeState:
    """Restart bookkeeping for the fully automatic forecaster."""

    r: int = 0
    gram_trace: float = 0.0
    gamma: float = 0.0


def regime_prior_scale(r: int) -> float:
    """Prior scale 1 / (exp(2^r) - 1) for regime r (r capped upstream)."""
    return 1.0 / math.expm1(2.0**r)


def _closes_regime(gamma: float | np.ndarray, r: int | np.ndarray) -> bool | np.ndarray:
    """Whether a round at gamma closes regime r, elementwise; NaN never does."""
    return (gamma > 2.0**r) & (r < _REGIME_CAP)


class _ForecasterBase:
    """Shared predict/observe alternation guard and input contract.

    ``t`` counts the rounds predicted so far.  Features must be finite
    with a finite squared norm, so that their Gram arithmetic stays finite
    (the posterior's one feature-row check), and an outcome must be finite
    with y^2 <= 2^1020, so that the adaptive threshold arithmetic stays
    finite; anything else raises :class:`DataError` naming the round,
    before the forecaster's state changes."""

    dim: int

    def __init__(self) -> None:
        self._awaiting_y = False
        self._last_features: np.ndarray | None = None
        self.t = 0

    def predict(self, features: np.ndarray) -> float:
        if self._awaiting_y:
            raise StateError("predict called twice without an observation in between")
        # A copy: the caller may reuse its buffer for the next round.
        features = _checked_features(np.array(features, dtype=float), self.dim, f"round {self.t + 1}: ")
        self.t += 1
        yhat = self._predict(features)
        self._last_features = features
        self._awaiting_y = True
        return yhat

    def observe(self, y: float) -> None:
        if not self._awaiting_y:
            raise StateError("observe called before predict")
        y = float(y)
        if not y * y <= _MAX_OUTCOME_SQ:
            raise DataError(f"round {self.t}: outcome must be finite with y^2 <= 2^1020, got {y!r}")
        self._observe(self._last_features, y)
        self._awaiting_y = False

    def _predict(self, features: np.ndarray) -> float:
        raise NotImplementedError

    def _observe(self, features: np.ndarray, y: float) -> None:
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        raise NotImplementedError

    def state_row(self) -> tuple[float, float, int, float, float]:
        """Adaptation state the round just predicted was predicted under, as
        the tuple ``(B, eta, regime, ess, gamma)``, NaN (regime 0) where the
        forecaster has no such notion: :func:`run_protocol` reads it between
        ``predict`` and ``observe``."""
        return math.nan, math.nan, 0, math.nan, math.nan


class SeqSEWAdaptive(_ForecasterBase):
    """Adaptive-threshold forecaster.

    After each observation the threshold is reset to the dyadic envelope of
    the running max of y^2 (so max y^2 <= B^2 < 2 max y^2), the inverse
    temperature to 1 / (8 B^2), and the posterior is rebuilt with the new
    eta applied to all past clipped losses, each recorded with the
    threshold in force at its own round.

    ``clip_center`` shifts the whole scheme: the forecaster fits the
    residuals y - center with the plain algorithm and adds the center back,
    so predictions land in [center - B, center + B] and the threshold
    tracks max |y - center|^2.  Because only the invariant residuals ever
    reach the posterior, shifting all outcomes and the center together by
    a constant shifts every prediction by exactly that constant.  The
    default center 0 is the plain algorithm.
    """

    def __init__(
        self,
        dim: int,
        tau: float,
        backend: BackendConfig | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
        clip_center: float = 0.0,
    ) -> None:
        super().__init__()
        self.dim = _checked_integer("dim", dim)
        self.config = backend or BackendConfig()
        self.center = float(clip_center)
        if not math.isfinite(self.center):
            raise ArgumentError(f"clip_center must be finite, got {clip_center!r}")
        self._rng = np.random.default_rng(seed)
        self._restart(tau)

    def _restart(self, tau: float) -> None:
        """Start the scheme afresh at prior scale tau, which the prior
        checks: a fresh cloud drawing from the forecaster's one generator,
        and no threshold yet."""
        self.tau = float(tau)
        self.cloud: PosteriorCloud = init_cloud(SparsityPrior(self.tau, self.dim), self.config, self._rng)
        self.state = AdaptiveState()

    def _predict(self, features: np.ndarray) -> float:
        return self.center + self.cloud.predict(features, self.state.B)

    def _observe(self, features: np.ndarray, y: float) -> None:
        b_used = self.state.B
        z = y - self.center
        if not z * z <= _MAX_OUTCOME_SQ:
            raise DataError(f"round {self.t}: residual y - clip_center must have square <= 2^1020, got {z!r}")
        self.state.max_y_sq = max(self.state.max_y_sq, z * z)
        if self.state.max_y_sq > 0.0:
            self.state.B_sq = dyadic_ceil_pow2(self.state.max_y_sq)
            self.state.B = math.sqrt(self.state.B_sq)
            self.state.eta = 1.0 / (8.0 * self.state.B_sq)
        self.cloud.update(features, z, b_used, self.state.eta)

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "adaptive",
            "dim": self.dim,
            "tau": self.tau,
            "clip_center": self.center,
            "backend": self.config.backend,
        }

    def state_row(self) -> tuple[float, float, int, float, float]:
        return self.state.B, self.state.eta, 0, self.cloud.ess(), math.nan


class SeqSEWFixed(SeqSEWAdaptive):
    """The adaptive scheme with the threshold B and the inverse temperature
    eta pinned by the caller instead of tuned from the data.

    The guarantee regime is eta <= 1 / (8 B^2) with B at least the
    observation range; the constructor does not enforce that (the values
    are the caller's promise) but `cli` warns on violation.
    """

    def __init__(
        self,
        dim: int,
        B: float,
        eta: float,
        tau: float,
        backend: BackendConfig | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        if not (B > 0.0 and eta > 0.0):
            raise ArgumentError("B and eta must both be positive")
        if not B * B < math.inf:
            raise ArgumentError(f"B^2 must be finite, got B = {B!r}")
        super().__init__(dim, tau, backend, seed)
        self.state = AdaptiveState(float(B), float(B) ** 2, float(eta))

    def _observe(self, features: np.ndarray, y: float) -> None:
        self.cloud.update(features, y, self.state.B, self.state.eta)

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "fixed",
            "dim": self.dim,
            "B": self.state.B,
            "eta": self.state.eta,
            "tau": self.tau,
            "backend": self.config.backend,
        }


class SeqSEWAuto(SeqSEWAdaptive):
    """Fully automatic forecaster (no parameters at all): the adaptive
    scheme, restarted in place at each regime change.

    Rounds are partitioned into regimes; regime r ends at the first round
    where gamma_t = ln(1 + sqrt(cumulative Gram trace)) exceeds 2^r, with
    the boundary round itself still predicted in regime r and its outcome
    never observed.  Regime r runs the adaptive scheme at prior scale
    1 / (exp(2^r) - 1) on its own rounds only, from a fresh cloud that
    draws on from the forecaster's one generator, where the last regime's
    cloud stopped.
    """

    def __init__(
        self,
        dim: int,
        backend: BackendConfig | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        self.regime = RegimeState()
        super().__init__(dim, regime_prior_scale(0), backend, seed)

    def _predict(self, features: np.ndarray) -> float:
        self.regime.gram_trace += float(np.sum(features**2))
        self.regime.gamma = math.log1p(math.sqrt(self.regime.gram_trace))
        return super()._predict(features)

    def _observe(self, features: np.ndarray, y: float) -> None:
        if _closes_regime(self.regime.gamma, self.regime.r):
            self.regime.r += 1
            self._restart(regime_prior_scale(self.regime.r))
        else:
            super()._observe(features, y)

    def describe(self) -> dict[str, Any]:
        return {"kind": "auto", "dim": self.dim, "backend": self.config.backend}

    def state_row(self) -> tuple[float, float, int, float, float]:
        B, eta, _, ess, _ = super().state_row()
        return B, eta, self.regime.r, ess, self.regime.gamma


class RidgeBaseline(_ForecasterBase):
    """Follow-the-regularized-leader least squares, for benchmarking.

    Predicts with the minimiser of the regularised past square loss; no
    regret guarantee is claimed or verified for it.
    """

    def __init__(self, dim: int, regularization: float) -> None:
        super().__init__()
        if not regularization > 0.0:
            raise ArgumentError(f"regularization must be positive, got {regularization}")
        self.dim = _checked_integer("dim", dim)
        self.regularization = float(regularization)
        self._gram = regularization * np.eye(self.dim)
        self._xty = np.zeros(self.dim)

    def _predict(self, features: np.ndarray) -> float:
        try:
            u = np.linalg.solve(self._gram, self._xty)
        except np.linalg.LinAlgError:
            u = np.linalg.lstsq(self._gram, self._xty, rcond=None)[0]
        return float(u @ features)

    def _observe(self, features: np.ndarray, y: float) -> None:
        self._gram += np.outer(features, features)
        self._xty += y * features

    def describe(self) -> dict[str, Any]:
        return {"kind": "ridge", "dim": self.dim, "regularization": self.regularization}


seqsew_fixed = SeqSEWFixed
seqsew_adaptive = SeqSEWAdaptive
seqsew_auto = SeqSEWAuto
ridge_baseline = RidgeBaseline


@dataclass
class ProtocolResult:
    """A played run, each per-round quantity stored once, as a column: what
    was played, and the B, eta, regime, ESS and gamma each round was
    predicted under (NaN where the forecaster has no such notion).  Records,
    losses and regime bounds are read off the columns, every loss from one
    running sum; a run that never restarts has ``regime_bounds == ([1], [])``."""

    features: np.ndarray  # (T, d)
    y: np.ndarray  # (T,)
    predictions: np.ndarray  # (T,)
    forecaster_info: dict[str, Any]
    B: np.ndarray  # (T,)
    eta: np.ndarray  # (T,)
    regimes: np.ndarray  # (T,) ints
    ess: np.ndarray  # (T,)
    gammas: np.ndarray  # (T,)

    def _losses(self) -> tuple[np.ndarray, np.ndarray]:
        loss = (self.y - self.predictions) ** 2
        return loss, np.cumsum(loss)

    @property
    def records(self) -> list[RoundRecord]:
        """One row per round, built afresh from the columns."""
        loss, cumloss = self._losses()
        columns = (self.y, self.predictions, loss, cumloss, self.B, self.eta, self.regimes, self.ess)
        return [RoundRecord(t, *row) for t, row in enumerate(zip(*(c.tolist() for c in columns)), start=1)]

    @property
    def cumulative_loss(self) -> float:
        return self.prefix_cumulative_loss(len(self.y))

    def prefix_cumulative_loss(self, t: int) -> float:
        """Cumulative forecaster loss after the first t rounds, t an integer
        in [0, T] (valid by causality: early predictions do not depend on
        later data)."""
        if not (isinstance(t, (int, np.integer)) and 0 <= t <= len(self.y)):
            raise ArgumentError(f"prefix length must lie in [0, {len(self.y)}] and be an integer, got {t!r}")
        return float(self._losses()[1][t - 1]) if t else 0.0

    @property
    def regime_bounds(self) -> tuple[list[int], list[int]]:
        """(starts, ends): a regime ends at each round that closed it, the
        last round included, and the next starts one round later."""
        ends = (np.flatnonzero(_closes_regime(self.gammas, self.regimes)) + 1).tolist()
        return [1] + [t + 1 for t in ends], ends


def features_of(x: Any, dictionary: Any | None, label: str, index: int) -> np.ndarray:
    """The feature vector of input ``x``: ``dictionary.features(x)``, or
    ``x`` itself when ``dictionary`` is None.  A failing dictionary raises
    :class:`DataError` naming the input, as ``"{label} {index}"``."""
    if dictionary is None:
        return np.asarray(x, dtype=float)
    try:
        return np.asarray(dictionary.features(x), dtype=float)
    except Exception as exc:  # noqa: BLE001 - rewrap with the input's index
        raise DataError(f"{label} {index}: feature evaluation failed: {exc}") from exc


def run_protocol(
    forecaster: _ForecasterBase,
    sequence: Sequence[tuple[Any, float]],
    dictionary: Any | None = None,
) -> ProtocolResult:
    """Play the online protocol over a sequence of (x, y) pairs.

    ``dictionary`` maps inputs to feature vectors; pass None when the x
    values already are feature vectors.  The forecaster is only ever shown
    x before predicting and y after, so causality is structural.  Each
    round is written into the run's preallocated columns as it is played,
    d + 7 numbers in all (its features, y, prediction and the five entries
    of the forecaster's ``state_row`` tuple), and no round is kept as a Python
    object.  This is the package's one protocol loop: the batch fits play
    it too.
    """
    T = len(sequence)
    if T == 0:
        raise ArgumentError("sequence must be nonempty")

    features, ys, yhats = np.empty((T, forecaster.dim)), np.empty(T), np.empty(T)
    B, eta, regimes, ess, gammas = np.empty(T), np.empty(T), np.empty(T, dtype=int), np.empty(T), np.empty(T)
    for t, (x, y) in enumerate(sequence):
        row = features_of(x, dictionary, "round", t + 1)
        yhats[t] = forecaster.predict(row)
        features[t] = row
        B[t], eta[t], regimes[t], ess[t], gammas[t] = forecaster.state_row()
        forecaster.observe(y)
        ys[t] = float(y)

    return ProtocolResult(features, ys, yhats, forecaster.describe(), B, eta, regimes, ess, gammas)
