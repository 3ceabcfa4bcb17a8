"""Online forecasters: exponentially weighted regression with clipping.

All forecasters implement the same protocol: per round, ``predict`` is
called with the feature vector and must return a prediction before
``observe`` reveals the outcome.  The interface shape enforces causality
(there is no way to hand a forecaster the current outcome early).

Variants:

* :class:`SeqSEWFixed` -- constant threshold B, inverse temperature eta,
  prior scale tau.
* :class:`SeqSEWAdaptive` -- data-driven dyadic threshold and
  eta = 1 / (8 B^2), adaptive to the unknown observation range; fixed tau.
* :class:`SeqSEWAuto` -- additionally adapts to the unknown feature mass
  by restarting the adaptive forecaster with rapidly shrinking tau
  whenever the cumulative Gram trace crosses a geometric schedule.
* :class:`RidgeBaseline` -- follow-the-regularized-leader least squares,
  for comparison only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .errors import ArgumentError, DataError, StateError
from .posterior import BackendConfig, PosteriorCloud, init as init_cloud
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
    regime_starts: list[int] = field(default_factory=lambda: [1])
    regime_ends: list[int] = field(default_factory=list)

    @property
    def tau_r(self) -> float:
        return regime_prior_scale(self.r)


def regime_prior_scale(r: int) -> float:
    """Prior scale 1 / (exp(2^r) - 1) for regime r (r capped upstream)."""
    return 1.0 / math.expm1(2.0**r)


class _ForecasterBase:
    """Shared predict/observe alternation guard and input contract.

    ``t`` counts the rounds predicted so far.  Features must be finite,
    and an outcome must be finite with y^2 <= 2^1020, so that the adaptive
    threshold arithmetic stays finite; anything else raises
    :class:`DataError` naming the round, before the forecaster's state
    changes."""

    dim: int

    def __init__(self) -> None:
        self._awaiting_y = False
        self._last_features: np.ndarray | None = None
        self.t = 0

    def predict(self, features: np.ndarray) -> float:
        if self._awaiting_y:
            raise StateError("predict called twice without an observation in between")
        features = np.asarray(features, dtype=float)
        if features.shape != (self.dim,):
            raise ArgumentError(f"features have shape {features.shape}, expected ({self.dim},)")
        if not np.isfinite(features).all():
            raise DataError(f"round {self.t + 1}: features must be finite, got {features.tolist()}")
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

    def state_row(self) -> dict[str, float]:
        """Adaptation state for the round about to be predicted."""
        return {"B": math.nan, "eta": math.nan, "regime": 0, "ess": math.nan, "gamma": math.nan}


def _make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class SeqSEWFixed(_ForecasterBase):
    """Exponentially weighted forecaster with fixed threshold, inverse
    temperature, and prior scale.

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
        config: BackendConfig | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if not (B > 0.0 and eta > 0.0 and tau > 0.0):
            raise ArgumentError("B, eta, and tau must all be positive")
        self.dim = int(dim)
        self.B = float(B)
        self.eta = float(eta)
        self.tau = float(tau)
        self.config = config or BackendConfig()
        rng = _make_rng(seed) if self.config.backend != "quadrature" else None
        self.cloud: PosteriorCloud = init_cloud(SparsityPrior(self.tau, self.dim), self.config, rng)

    def _predict(self, features: np.ndarray) -> float:
        return self.cloud.predict(features, self.B)

    def _observe(self, features: np.ndarray, y: float) -> None:
        self.cloud.update(features, y, self.B, min(self.eta, self.cloud.eta))

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "fixed",
            "dim": self.dim,
            "B": self.B,
            "eta": self.eta,
            "tau": self.tau,
            "backend": self.config.backend,
        }

    def state_row(self) -> dict[str, float]:
        return {
            "B": self.B,
            "eta": self.eta,
            "regime": 0,
            "ess": self.cloud.ess(),
            "gamma": math.nan,
        }


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
        config: BackendConfig | None = None,
        seed: int | np.random.Generator | None = None,
        clip_center: float = 0.0,
    ) -> None:
        super().__init__()
        if not tau > 0.0:
            raise ArgumentError(f"tau must be positive, got {tau}")
        self.dim = int(dim)
        self.tau = float(tau)
        self.config = config or BackendConfig()
        self.center = float(clip_center)
        rng = _make_rng(seed) if self.config.backend != "quadrature" else None
        self.cloud: PosteriorCloud = init_cloud(SparsityPrior(self.tau, self.dim), self.config, rng)
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

    def state_row(self) -> dict[str, float]:
        return {
            "B": self.state.B,
            "eta": self.state.eta,
            "regime": 0,
            "ess": self.cloud.ess(),
            "gamma": math.nan,
        }


class SeqSEWAuto(_ForecasterBase):
    """Fully automatic forecaster (no parameters at all).

    Rounds are partitioned into regimes; regime r ends at the first round
    where gamma_t = ln(1 + sqrt(cumulative Gram trace)) exceeds 2^r, with
    the boundary round itself still predicted by the regime-r instance.
    Each regime runs a fresh adaptive forecaster, restarted on the
    regime's own data only, with prior scale 1 / (exp(2^r) - 1).
    """

    def __init__(
        self,
        dim: int,
        config: BackendConfig | None = None,
        seed: int | np.random.SeedSequence | None = None,
    ) -> None:
        super().__init__()
        self.dim = int(dim)
        self.config = config or BackendConfig()
        self._seedseq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self.regime = RegimeState()
        self._pending_restart = False
        self._instance = self._fresh_instance()

    def _fresh_instance(self) -> SeqSEWAdaptive:
        child = self._seedseq.spawn(1)[0]
        return SeqSEWAdaptive(
            self.dim,
            regime_prior_scale(self.regime.r),
            self.config,
            seed=np.random.default_rng(child),
        )

    def _predict(self, features: np.ndarray) -> float:
        self.regime.gram_trace += float(np.sum(features**2))
        self.regime.gamma = math.log1p(math.sqrt(self.regime.gram_trace))
        if self.regime.gamma > 2.0**self.regime.r and self.regime.r < _REGIME_CAP:
            self._pending_restart = True
        return self._instance.predict(features)

    def _observe(self, features: np.ndarray, y: float) -> None:
        if self._pending_restart:
            # This round closes the regime; the dying instance never sees y.
            self.regime.regime_ends.append(self.t)
            self.regime.r += 1
            self.regime.regime_starts.append(self.t + 1)
            self._pending_restart = False
            self._instance = self._fresh_instance()
        else:
            self._instance.observe(y)

    def describe(self) -> dict[str, Any]:
        return {"kind": "auto", "dim": self.dim, "backend": self.config.backend}

    def state_row(self) -> dict[str, float]:
        inner = self._instance.state
        return {
            "B": inner.B,
            "eta": inner.eta,
            "regime": self.regime.r,
            "ess": self._instance.cloud.ess(),
            "gamma": self.regime.gamma,
        }


class RidgeBaseline(_ForecasterBase):
    """Follow-the-regularized-leader least squares, for benchmarking.

    Predicts with the minimiser of the regularised past square loss; no
    regret guarantee is claimed or verified for it.
    """

    def __init__(self, dim: int, regularization: float) -> None:
        super().__init__()
        if not regularization > 0.0:
            raise ArgumentError(f"regularization must be positive, got {regularization}")
        self.dim = int(dim)
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


def seqsew_fixed(
    dim: int,
    B: float,
    eta: float,
    tau: float,
    backend: BackendConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> SeqSEWFixed:
    return SeqSEWFixed(dim, B, eta, tau, backend, seed)


def seqsew_adaptive(
    dim: int,
    tau: float,
    backend: BackendConfig | None = None,
    seed: int | np.random.Generator | None = None,
    clip_center: float = 0.0,
) -> SeqSEWAdaptive:
    return SeqSEWAdaptive(dim, tau, backend, seed, clip_center)


def seqsew_auto(
    dim: int,
    backend: BackendConfig | None = None,
    seed: int | np.random.SeedSequence | None = None,
) -> SeqSEWAuto:
    return SeqSEWAuto(dim, backend, seed)


def ridge_baseline(dim: int, regularization: float) -> RidgeBaseline:
    return RidgeBaseline(dim, regularization)


@dataclass
class ProtocolResult:
    """Everything a run produced: per-round records plus the raw arrays
    needed to evaluate comparators and bounds afterwards."""

    records: list[RoundRecord]
    features: np.ndarray  # (T, d)
    y: np.ndarray  # (T,)
    predictions: np.ndarray  # (T,)
    forecaster_info: dict[str, Any]
    gammas: np.ndarray  # (T,), nan when the forecaster has no regime notion
    regime_bounds: tuple[list[int], list[int]] | None = None

    @property
    def cumulative_loss(self) -> float:
        return float(self.records[-1].cumloss) if self.records else 0.0

    def prefix_cumulative_loss(self, t: int) -> float:
        """Cumulative forecaster loss after the first t rounds (valid by
        causality: early predictions do not depend on later data)."""
        return float(np.sum((self.y[:t] - self.predictions[:t]) ** 2))


def run_protocol(
    forecaster: _ForecasterBase,
    sequence: Sequence[tuple[Any, float]],
    dictionary: Any | None = None,
) -> ProtocolResult:
    """Play the online protocol over a sequence of (x, y) pairs.

    ``dictionary`` maps inputs to feature vectors; pass None when the x
    values already are feature vectors.  The forecaster is only ever shown
    x before predicting and y after, so causality is structural.
    """
    if len(sequence) == 0:
        raise ArgumentError("sequence must be nonempty")

    records: list[RoundRecord] = []
    feature_rows: list[np.ndarray] = []
    ys: list[float] = []
    yhats: list[float] = []
    gammas: list[float] = []
    cumloss = 0.0

    for t, (x, y) in enumerate(sequence, start=1):
        if dictionary is None:
            features = np.asarray(x, dtype=float)
        else:
            try:
                features = np.asarray(dictionary.features(x), dtype=float)
            except Exception as exc:  # noqa: BLE001 - rewrap with the round index
                raise DataError(f"round {t}: feature evaluation failed: {exc}") from exc
        yhat = forecaster.predict(features)
        state = forecaster.state_row()
        forecaster.observe(float(y))

        loss = (float(y) - yhat) ** 2
        cumloss += loss
        records.append(
            RoundRecord(
                t=t,
                y=float(y),
                yhat=yhat,
                loss=loss,
                cumloss=cumloss,
                B=state["B"],
                eta=state["eta"],
                regime=int(state["regime"]),
                ess=state["ess"],
            )
        )
        feature_rows.append(features)
        ys.append(float(y))
        yhats.append(yhat)
        gammas.append(state.get("gamma", math.nan))

    regime_bounds = None
    if isinstance(forecaster, SeqSEWAuto):
        regime_bounds = (list(forecaster.regime.regime_starts), list(forecaster.regime.regime_ends))

    return ProtocolResult(
        records=records,
        features=np.vstack(feature_rows),
        y=np.asarray(ys),
        predictions=np.asarray(yhats),
        forecaster_info=forecaster.describe(),
        gammas=np.asarray(gammas),
        regime_bounds=regime_bounds,
    )
