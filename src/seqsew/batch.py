"""Online-to-batch conversion and risk evaluation.

A batch estimator is built by running the adaptive forecaster once through
an i.i.d. (or fixed-design) sample and retaining, for every round, a
snapshot of the posterior together with the clip threshold in force at
that round.  Each snapshot defines a per-round regressor (the posterior
mean of the clipped linear predictor); the batch estimator averages them:

* random design: the plain uniform average over rounds,
* fixed design: the average restricted, at each seen design point, to the
  rounds that visited it (and 0 at unseen points),
* offset variant: the first observation is sacrificed as a clip anchor and
  rounds 2..T are run with predictions clipped to [Y_1 - B', Y_1 + B'];
  this removes the mean-of-Y bias terms and makes the whole scheme
  translation equivariant.

Snapshots are retained explicitly (not re-simulated) so that predictions
at new points are deterministic, but each distinct sample set is stored
only once, as an *epoch*: importance particles change only when they are
rejuvenated and quadrature nodes never change.  Each round adds one row
of log-weights and cumulative losses plus its eta, threshold and epoch
index, so a fit holds O(epochs * n * d + T * n) floats rather than the
O(T * n * d) of a full copy per round.  At T = 1000, n = 10^4 and d = 30
a single epoch costs ~0.16 GB where full copies cost ~2.5 GB.  The chain
backend moves its walkers every round, so it has one epoch per round and
gains nothing.

The maximal-inequality caps ``psi_bound`` on E[max_t Z_t^2] / T of the
noise families (defined in :mod:`seqsew.datagen`) are also here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .datagen import NoiseFamily
from .errors import ArgumentError
from .forecasters import SeqSEWAdaptive
from .posterior import BackendConfig, FrozenCloud, PosteriorCloud

__all__ = [
    "NoiseFamily",
    "psi_bound",
    "empirical_max_sq",
    "BatchEstimator",
    "fit_random_design",
    "fit_fixed_design",
    "fit_remark15",
    "risk",
    "per_round_risks",
    "risk_bound_rhs",
]


def psi_bound(family: NoiseFamily, T: int) -> float:
    """Analytic cap on E[max_{t<=T} Z_t^2] / T for the family.

    bd: B^2/T.  sg: 2 sigma^2 ln(2eT)/T.  bem: ln^2((M+e)T)/(alpha^2 T).
    bm: M^(2/alpha) / T^((alpha-2)/alpha).
    """
    if T < 1:
        raise ArgumentError("T must be >= 1")
    if family.kind == "bd":
        return family.B**2 / T
    if family.kind == "sg":
        return 2.0 * family.sigma_sq * math.log(2.0 * math.e * T) / T
    if family.kind == "bem":
        return math.log((family.M + math.e) * T) ** 2 / (family.alpha**2 * T)
    if family.alpha <= 2.0:
        raise ArgumentError("bm bound needs alpha > 2")
    return family.M ** (2.0 / family.alpha) / T ** ((family.alpha - 2.0) / family.alpha)


def empirical_max_sq(draws: np.ndarray) -> float:
    """Average of max_t Z_t^2 over replications.

    ``draws`` is a (replications, T) matrix, one replication per row;
    at least 100 replications are required for the estimate to mean much.
    """
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.shape[0] < 100:
        raise ArgumentError("need at least 100 replications")
    return float(np.mean(np.max(draws**2, axis=1)))


# ---------------------------------------------------------------------------
# Estimators.
# ---------------------------------------------------------------------------


def _design_key(x: Any) -> bytes:
    return np.ascontiguousarray(np.atleast_1d(np.asarray(x, dtype=float))).tobytes()


class _OnlinePass(Sequence[tuple[FrozenCloud, float]]):
    """One stored adaptive run, read as its per-round ``(FrozenCloud, B)``
    snapshots.

    Each distinct sample set is kept once, as an *epoch*; per round only
    the log-weights, cumulative losses, eta, threshold and epoch index are
    kept.  Item ``t`` is rebuilt on access and equals, field for field,
    what ``PosteriorCloud.snapshot()`` returned at round ``t``.  Every
    stored array is read-only.
    """

    def __init__(self, cloud: PosteriorCloud, rounds: int) -> None:
        n = cloud.samples.shape[0]
        self.backend = cloud.backend
        self.epochs: list[np.ndarray] = []
        self.epoch = np.empty(rounds, dtype=np.intp)
        self.log_weights = np.empty((rounds, n))
        self.cum_loss = np.empty((rounds, n))
        self.eta = np.empty(rounds)
        self.thresholds = np.empty(rounds)

    def record(self, t: int, cloud: PosteriorCloud, threshold: float) -> None:
        # The cloud rebinds ``samples`` whenever its sample set changes and
        # never writes into it, so the same array object means the same set.
        if not self.epochs or cloud.samples is not self.epochs[-1]:
            cloud.samples.setflags(write=False)
            self.epochs.append(cloud.samples)
        self.epoch[t] = len(self.epochs) - 1
        # The log-weights PosteriorCloud.snapshot() stores.
        self.log_weights[t] = np.log(np.maximum(cloud.weights(), 1e-300))
        self.cum_loss[t] = cloud.cum_loss
        self.eta[t] = cloud.eta
        self.thresholds[t] = threshold

    def seal(self) -> None:
        for table in (self.epoch, self.log_weights, self.cum_loss, self.eta, self.thresholds):
            table.setflags(write=False)

    def __len__(self) -> int:
        return self.eta.shape[0]

    def __getitem__(self, t: int) -> tuple[FrozenCloud, float]:
        cloud = FrozenCloud(
            samples=self.epochs[self.epoch[t]],
            log_weights=self.log_weights[t],
            cum_loss=self.cum_loss[t],
            eta=float(self.eta[t]),
            backend=self.backend,
        )
        return cloud, float(self.thresholds[t])


@dataclass
class BatchEstimator:
    """Average of per-round clipped posterior-mean regressors."""

    mode: str
    snapshots: _OnlinePass
    dictionary: Any
    anchor: float = 0.0
    design_points: list[Any] | None = None

    def _round_means(self, xs: Sequence[Any]) -> np.ndarray:
        """(T, m) matrix of each round's clipped posterior mean at each of
        the m points, without the anchor: the one place per-round
        regressors are evaluated.

        Rounds that share an epoch and a threshold are clipped once and
        take their weighted means in one matrix product."""
        to_phi = (lambda x: x) if self.dictionary is None else self.dictionary.features
        phi = np.vstack([np.asarray(to_phi(x), dtype=float) for x in xs])  # (m, d)
        run = self.snapshots
        out = np.full((len(run), phi.shape[0]), np.nan)
        for e, samples in enumerate(run.epochs):
            margins = samples @ phi.T  # (n, m)
            in_epoch = run.epoch == e
            for b in np.unique(run.thresholds[in_epoch]):
                rows = np.flatnonzero(in_epoch & (run.thresholds == b))
                log_w = run.log_weights[rows]
                w = np.exp(log_w - np.max(log_w, axis=1, keepdims=True))
                w /= np.sum(w, axis=1, keepdims=True)
                out[rows] = w @ np.clip(margins, -b, b)
        return out

    def _deltas(self, xs: Sequence[Any]) -> np.ndarray:
        """Averaged clipped deviation at each point: over all rounds, or in
        fixed-design mode over the rounds that visited the point (0 off
        the design)."""
        means = self._round_means(xs)
        if self.mode != "fixed_design_grouped":
            return np.mean(means, axis=0)
        ids: dict[bytes, int] = {}
        round_ids = np.asarray([ids.setdefault(_design_key(p), len(ids)) for p in self.design_points])
        point_ids = np.asarray([ids.get(_design_key(x), -1) for x in xs])
        visits = round_ids[:, None] == point_ids[None, :]
        counts = np.sum(visits, axis=0)
        sums = np.sum(means, axis=0, where=visits)
        return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)

    def predict_components(self, x: Any) -> tuple[float, float]:
        """(anchor, averaged clipped deviation); the prediction is their sum.

        Exposed separately so translation equivariance of the offset
        variant can be checked exactly: shifting all outcomes by c shifts
        the anchor by c and leaves the deviations bit-identical."""
        return self.anchor, float(self._deltas([x])[0])

    def predict(self, x: Any) -> float:
        anchor, delta = self.predict_components(x)
        return anchor + delta

    def predict_many(self, xs: Sequence[Any]) -> np.ndarray:
        """Vectorised predictions at many points."""
        return self.anchor + self._deltas(xs)

    @property
    def max_threshold(self) -> float:
        return float(np.max(self.snapshots.thresholds, initial=0.0))


def _online_pass(
    rounds: Sequence[tuple[Any, float]],
    dictionary: Any,
    backend: BackendConfig | None,
    seed: int | np.random.Generator | None,
    clip_center: float = 0.0,
) -> _OnlinePass:
    """Play the adaptive forecaster at tau = 1/sqrt(d T) through the T
    ``rounds`` and store the posterior each round was predicted with."""
    d = dictionary.d if dictionary is not None else len(np.atleast_1d(rounds[0][0]))
    tau = 1.0 / math.sqrt(d * len(rounds))
    forecaster = SeqSEWAdaptive(d, tau, backend or BackendConfig(), seed=seed, clip_center=clip_center)
    stored = _OnlinePass(forecaster.cloud, len(rounds))
    for t, (x, y) in enumerate(rounds):
        phi = dictionary.features(x) if dictionary is not None else np.asarray(x, dtype=float)
        forecaster.predict(np.asarray(phi, dtype=float))
        stored.record(t, forecaster.cloud, forecaster.state.B)
        forecaster.observe(float(y))
    stored.seal()
    return stored


def fit_random_design(
    samples: Sequence[tuple[Any, float]],
    dictionary: Any,
    backend: BackendConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> BatchEstimator:
    """One online pass at tau = 1/sqrt(d T); uniform average of the
    per-round regressors."""
    if len(samples) < 1:
        raise ArgumentError("need at least one sample")
    return BatchEstimator(
        mode="random_design_average",
        snapshots=_online_pass(samples, dictionary, backend, seed),
        dictionary=dictionary,
    )


def fit_fixed_design(
    samples: Sequence[tuple[Any, float]],
    dictionary: Any,
    backend: BackendConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> BatchEstimator:
    """Same online pass; predictions group rounds by exact design point
    (design points are generated values, so equality is exact, with no
    tolerance matching) and vanish off the design."""
    if len(samples) < 1:
        raise ArgumentError("need at least one sample")
    return BatchEstimator(
        mode="fixed_design_grouped",
        snapshots=_online_pass(samples, dictionary, backend, seed),
        dictionary=dictionary,
        design_points=[x for x, _ in samples],
    )


def fit_remark15(
    samples: Sequence[tuple[Any, float]],
    dictionary: Any,
    backend: BackendConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> BatchEstimator:
    """Offset-clipped variant: round 1 only provides the anchor Y_1;
    rounds 2..T run at tau = 1/sqrt(d (T-1)) with predictions clipped to
    [Y_1 - B', Y_1 + B'], the threshold tracking max |Y_s - Y_1|^2."""
    if len(samples) < 2:
        raise ArgumentError("the offset variant needs T >= 2 samples")
    anchor = float(samples[0][1])
    return BatchEstimator(
        mode="remark15_offset",
        snapshots=_online_pass(samples[1:], dictionary, backend, seed, clip_center=anchor),
        dictionary=dictionary,
        anchor=anchor,
    )


def risk(
    estimator: BatchEstimator,
    truth_f: Callable[[Any], float],
    design_sampler: Callable[[np.random.Generator, int], Sequence[Any]] | None = None,
    n_eval: int = 0,
    rng: np.random.Generator | None = None,
) -> float:
    """Squared risk of the estimator against a known truth.

    Fixed design: exact design-averaged squared error over the training
    points.  Random design: Monte-Carlo average over ``n_eval`` fresh
    draws from ``design_sampler``.
    """
    if estimator.mode == "fixed_design_grouped":
        xs = estimator.design_points
    else:
        if n_eval < 1:
            raise ArgumentError("random-design risk needs n_eval >= 1")
        if design_sampler is None or rng is None:
            raise ArgumentError("random-design risk needs a design sampler and rng")
        xs = design_sampler(rng, n_eval)
    preds = estimator.predict_many(xs)
    truths = np.asarray([float(truth_f(x)) for x in xs])
    return float(np.mean((truths - preds) ** 2))


def per_round_risks(
    estimator: BatchEstimator,
    truth_f: Callable[[Any], float],
    xs: Sequence[Any],
) -> np.ndarray:
    """Squared risk of each per-round regressor on the given points
    (used to check the averaging direction: risk of the average never
    exceeds the average of these)."""
    truths = np.asarray([float(truth_f(x)) for x in xs])
    preds = estimator.anchor + estimator._round_means(xs)
    return np.mean((truths[None, :] - preds) ** 2, axis=1)


# ---------------------------------------------------------------------------
# Risk-bound right-hand sides.
# ---------------------------------------------------------------------------


def _ln_term(l0: int, l1: float, d: int, T: int) -> float:
    if l0 == 0:
        return 0.0
    return l0 * math.log1p(math.sqrt(d * T) * l1 / l0)


def risk_bound_rhs(variant: str, **kw: Any) -> float:
    """Right-hand side of a named risk guarantee, at a supplied comparator.

    Common keyword arguments: ``approx_error`` (the comparator's own risk),
    ``T``, ``d``, ``l0``, ``l1``.  Variant-specific:

    - ``thm10``: ``e_max_y_sq`` (measured or analytic E[max Y^2]),
      ``sum_feature_l2`` (sum over features of the squared L2 norm).
    - ``cor11``: ``mean_y``, ``psi_t``, ``sum_feature_l2``.
    - ``cor12``: ``f_inf``, ``sigma_sq``, ``sum_feature_l2``.
    - ``thm13``: ``e_max_y_sq``, ``design_gram_trace``.
    - ``cor14``: ``max_f_sq``, ``psi_t``, ``design_gram_trace``.
    """
    try:
        T = int(kw["T"])
        d = int(kw["d"])
        l0 = int(kw["l0"])
        l1 = float(kw["l1"])
        approx = float(kw["approx_error"])
    except KeyError as missing:
        raise ArgumentError(f"risk_bound_rhs missing input {missing}") from None
    ln_term = _ln_term(l0, l1, d, T)

    if variant == "thm10":
        e_max = float(kw["e_max_y_sq"])
        feat = float(kw["sum_feature_l2"])
        return approx + 64.0 * (e_max / T) * ln_term + feat / (d * T) + 32.0 * e_max / T
    if variant == "cor11":
        amp = float(kw["mean_y"]) ** 2 / T + float(kw["psi_t"])
        feat = float(kw["sum_feature_l2"])
        return approx + 128.0 * amp * ln_term + feat / (d * T) + 64.0 * amp
    if variant == "cor12":
        amp = float(kw["f_inf"]) ** 2 + 2.0 * float(kw["sigma_sq"]) * math.log(2.0 * math.e * T)
        feat = float(kw["sum_feature_l2"])
        return approx + 128.0 * (amp / T) * ln_term + feat / (d * T) + 64.0 * amp / T
    if variant == "thm13":
        e_max = float(kw["e_max_y_sq"])
        gram = float(kw["design_gram_trace"])
        return approx + 64.0 * (e_max / T) * ln_term + gram / (d * T**2) + 32.0 * e_max / T
    if variant == "cor14":
        amp = float(kw["max_f_sq"]) / T + float(kw["psi_t"])
        gram = float(kw["design_gram_trace"])
        return approx + 128.0 * amp * ln_term + gram / (d * T**2) + 64.0 * amp
    raise ArgumentError(f"unknown risk bound variant {variant!r}")
