"""Online-to-batch conversion and risk evaluation.

A batch estimator is built by running the adaptive forecaster once through
an i.i.d. (or fixed-design) sample.  Each round's posterior, with the clip
threshold in force at that round, defines a per-round regressor (the
posterior mean of the clipped linear predictor); the batch estimator
averages them:

* random design: the plain uniform average over rounds,
* fixed design: the average restricted, at each seen design point, to the
  rounds that visited it (and 0 at unseen points),
* offset variant: the first observation is sacrificed as a clip anchor and
  rounds 2..T are run with predictions clipped to [Y_1 - B', Y_1 + B'];
  this removes the mean-of-Y bias terms and makes the whole scheme
  translation equivariant.

The pass is :func:`~seqsew.forecasters.run_protocol`, the package's one
protocol loop, played over the adaptive forecaster, and a fit keeps what
makes predictions at new points deterministic, with no re-simulation.
The rounds of one *epoch* share its sample set and its log base, since
importance particles change only when they are rejuvenated and
quadrature nodes never change.  Per epoch a fit keeps the
``cloud.snapshot()`` of its first round (sample set, log base and
cumulative losses, shared with the cloud) and, per threshold, one sum of
its rounds' normalised weights.  Per round it keeps the pass's
``ProtocolResult``, d + 7 numbers in columns: the round's features, y,
prediction, threshold and eta, and its ess, gamma and regime.  The
cloud saw the residuals y - anchor, the anchor being the clip center of
every fit.  That is O(epochs * n * (d + 2) + groups * n + T * d) floats,
where a group is the rounds of one epoch at one threshold: at T = 10^4,
n = 257 and d = 1 a fit keeps 0.66 MB, and at T = 10^5 it keeps 6.4 MB
and peaks at 11.2 MB under ``tracemalloc``.  The chain backend moves its
walkers every round, so it has one epoch per round and keeps
O(T * n * d).

``BatchEstimator.snapshots``, the list of each round's ``(FrozenCloud,
B)``, is derived on each read: each epoch's rounds are replayed from its
first snapshot, adding each round's losses by the step the live cloud's
update takes (``posterior._replay_snapshots``), so each entry is the
snapshot the cloud would have taken in that round, bit for bit.  A read
costs O(T * n * d) time and allocates O(T * n) for the list it returns;
predictions never read it.

A fixed-design estimator's value at a design point is the mean of the
regressors of the rounds that played it, and at its own design point a
round's regressor is the prediction the online pass made in that round.
So a fixed-design fit reads those T predictions, and predicting averages
them per design point in O(T + m), reading no weights or margins.

Random design and the offset variant count every round at every point.
Within a group the per-round means are linear in the weights, so the
online pass adds each round's weights, the live cloud's of its
prediction, into its group's sum in round order, and predicting applies
each sum to its clipped margins and divides the total by T: O(m n d) per
sample set for the margins, and no round's weights read again.  Scratch
is two cache-sized (rows, n) blocks of margins (``posterior._block_rows``),
never the (T, m) matrix of per-round means.  A block's margins are formed
in pieces of particles small enough for OpenBLAS to run on the calling
thread (``posterior._piece_rows``), and weighted by
``posterior._particle_sum``, so predictions do not depend on OpenBLAS's
thread count (tested at one and two threads).  Evaluation points must be
finite, and their features are checked as a round's are
(``posterior._checked_features``); a bad one raises naming its index.

The maximal-inequality caps ``psi_bound`` on E[max_t Z_t^2] / T of the
noise families (defined in :mod:`seqsew.datagen`) are also here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .datagen import NoiseFamily
from .errors import ArgumentError, DataError
from .forecasters import ProtocolResult, SeqSEWAdaptive, features_of, run_protocol
from .posterior import BackendConfig, FrozenCloud, _block_rows, _checked_features, _particle_sum, _piece_rows, _replay_snapshots
from .prior import s_ln_term

__all__ = [
    "NoiseFamily",
    "psi_bound",
    "empirical_max_sq",
    "BatchEstimator",
    "fit_random_design",
    "fit_fixed_design",
    "fit_remark15",
    "risk",
    "risk_bound_rhs",
]


def psi_bound(family: NoiseFamily, T: int) -> float:
    """Analytic cap on E[max_{t<=T} Z_t^2] / T for the family.

    bd: B^2/T.  sg: 2 sigma^2 ln(2eT)/T.  bem: ln^2((M+e)T)/(alpha^2 T).
    bm: M^(2/alpha) / T^((alpha-2)/alpha).  Squares are products, which
    overflow to inf where ``**`` raises.
    """
    if T < 1:
        raise ArgumentError("T must be >= 1")
    if family.kind == "bd":
        return family.B * family.B / T
    if family.kind == "sg":
        return 2.0 * family.sigma_sq * math.log(2.0 * math.e * T) / T
    if family.kind == "bem":
        log = math.log((family.M + math.e) * T)
        return log * log / (family.alpha * family.alpha * T)
    return family.M ** (2.0 / family.alpha) / T ** ((family.alpha - 2.0) / family.alpha)


def empirical_max_sq(draws: np.ndarray) -> float:
    """Average of max_t Z_t^2 over replications.

    ``draws`` is a (replications, T) matrix, one replication per row;
    at least 100 replications are required for the estimate to mean much.
    """
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.ndim != 2 or draws.shape[1] == 0:
        raise ArgumentError(f"draws must be a (replications, T) matrix with T >= 1, got shape {draws.shape}")
    if draws.shape[0] < 100:
        raise ArgumentError("need at least 100 replications")
    return float(np.mean(np.max(draws**2, axis=1)))


# ---------------------------------------------------------------------------
# Estimators.
# ---------------------------------------------------------------------------


def _design_key(x: Any) -> bytes:
    """The bytes of a design point, with -0.0 read as 0.0 (adding 0.0 maps
    it there and changes no other float), so equal points share a key."""
    return (np.atleast_1d(np.asarray(x, dtype=float)) + 0.0).tobytes()


class _Epoch(NamedTuple):
    """The rounds of a fit, from round ``start`` (from 0), that share one
    sample set and log base: the snapshot the cloud took in the first of
    them, and each threshold's sum of its rounds' normalised weights."""

    first: FrozenCloud
    start: int
    sums: dict[float, np.ndarray]


@dataclass
class BatchEstimator:
    """Average of per-round clipped posterior-mean regressors."""

    mode: str
    dictionary: Any
    _run: ProtocolResult = field(repr=False)
    _epochs: list[_Epoch] = field(repr=False)
    anchor: float = 0.0
    design_points: list[Any] | None = None
    predictions: np.ndarray | None = None

    @property
    def snapshots(self) -> list[tuple[FrozenCloud, float]]:
        """Each round's ``(FrozenCloud, B)``, in a fresh list on each read:
        each epoch's rounds replayed from its first snapshot
        (``posterior._replay_snapshots``) from the residuals
        ``y - anchor`` the cloud saw.  Predictions never read it."""
        run, snapshots = self._run, []
        log = (run.features, run.y - self.anchor, run.B)
        stops = [epoch.start for epoch in self._epochs[1:]] + [len(run.y)]
        for epoch, stop in zip(self._epochs, stops):
            clouds = _replay_snapshots(epoch.first, log, epoch.start, run.eta[epoch.start : stop])
            snapshots += zip(clouds, run.B[epoch.start : stop].tolist())
        return snapshots

    def _features(self, xs: Sequence[Any]) -> np.ndarray:
        """(m, d) features of the evaluation points, each checked as a
        round's are (``posterior._checked_features``): a non-finite point,
        or features that are not finite or whose squared norm overflows,
        raise :class:`DataError`, and features not of shape (d,)
        :class:`DimensionMismatchError`, each naming the point's index."""
        phi = np.empty((len(xs), self._run.features.shape[1]))
        for i, x in enumerate(xs):
            point = np.asarray(x, dtype=float)
            if not np.isfinite(point).all():
                raise DataError(f"evaluation point {i}: must be finite, got {point.tolist()}")
            features = features_of(x, self.dictionary, "evaluation point", i)
            phi[i] = _checked_features(features, phi.shape[1], f"evaluation point {i}: ")
        return phi

    def _deltas(self, xs: Sequence[Any]) -> np.ndarray:
        """Averaged clipped deviation at each point: over all rounds, or in
        fixed-design mode over the rounds that visited the point (0 off
        the design).

        In fixed-design mode that is the mean of the predictions the
        online pass made at the point.  Otherwise each epoch's rounds are
        grouped by threshold; a group's per-round means are linear in its
        weights, so it adds the weight sum its pass kept times its clipped
        margins, one cache-sized block of rows at a time, and the total is
        divided by the number of rounds.  No round's weights are read
        again.  A block's margins are formed in pieces of particles that
        OpenBLAS runs on the calling thread (``posterior._piece_rows``)
        and weighted by ``posterior._particle_sum``, so the result does
        not depend on OpenBLAS's thread count."""
        if len(xs) == 0:
            return np.zeros(0)
        phi = self._features(xs)
        if self.mode == "fixed_design_grouped":
            visits: dict[bytes, list[float]] = {}
            for point, prediction in zip(self.design_points, self.predictions):
                visits.setdefault(_design_key(point), []).append(prediction)
            means = {key: sum(values) / len(values) for key, values in visits.items()}
            return np.asarray([means.get(_design_key(x), 0.0) for x in xs])
        rows = phi.shape[0]
        out = np.zeros(rows)
        for epoch in self._epochs:
            samples = epoch.first.samples
            n, d = samples.shape
            height = min(_block_rows(n, 8), rows)
            margins, clipped = np.empty((height, n)), np.empty((height, n))
            for start in range(0, rows, height):
                block = phi[start : start + height]
                m, c = margins[: block.shape[0]], clipped[: block.shape[0]]
                step = _piece_rows(d, block.shape[0])
                for first in range(0, n, step):
                    np.matmul(block, samples[first : first + step].T, out=m[:, first : first + step])
                for b, w in epoch.sums.items():
                    out[start : start + height] += _particle_sum(m.clip(-b, b, out=c), w)
        return out / len(self._run.y)

    def predict_components(self, x: Any) -> tuple[float, float]:
        """(anchor, averaged clipped deviation); the prediction is their sum.

        Exposed separately so translation equivariance of the offset
        variant can be checked exactly: shifting all outcomes by c shifts
        the anchor by c and leaves the deviations bit-identical."""
        return self.anchor, float(self._deltas([x])[0])

    def predict(self, x: Any) -> float:
        """The prediction at one point, as in :meth:`predict_components`."""
        anchor, delta = self.predict_components(x)
        return anchor + delta

    def predict_many(self, xs: Sequence[Any]) -> np.ndarray:
        """Vectorised predictions at many points."""
        return self.anchor + self._deltas(xs)

    @property
    def max_threshold(self) -> float:
        return float(np.max(self._run.B))


class _AveragingPass(SeqSEWAdaptive):
    """The adaptive forecaster, which also adds the weights each prediction
    used into its group's sum: per epoch (rounds that share a sample set
    and log base) the ``cloud.snapshot()`` of its first round and one sum
    of normalised weights per threshold."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.epochs: list[_Epoch] = []

    def _predict(self, features: np.ndarray) -> float:
        yhat = super()._predict(features)
        cloud, b = self.cloud, self.state.B
        if not self.epochs or cloud.samples is not self.epochs[-1].first.samples:
            self.epochs.append(_Epoch(cloud.snapshot(), self.t - 1, {}))
        sums = self.epochs[-1].sums
        if b in sums:
            np.add(sums[b], cloud.weights(), out=sums[b])
        else:
            sums[b] = cloud.weights().copy()
        return yhat


def _online_pass(
    rounds: Sequence[tuple[Any, float]],
    dictionary: Any,
    backend: BackendConfig | None,
    seed: int | np.random.SeedSequence | np.random.Generator | None,
    clip_center: float = 0.0,
) -> tuple[ProtocolResult, list[_Epoch]]:
    """Play the adaptive forecaster at tau = 1/sqrt(d T) through the T
    ``rounds`` with :func:`run_protocol`, and return its run and epochs.
    The run is the round log averaging and the snapshots need.  A round
    adds the weights its prediction used (the live cloud's, computed once
    per state) into its group's sum in round order, so the sums hold the
    bits of summing every round's snapshot weights, and the pass keeps no
    per-round n-vector."""
    d = dictionary.d if dictionary is not None else len(np.atleast_1d(rounds[0][0]))
    forecaster = _AveragingPass(d, 1.0 / math.sqrt(d * len(rounds)), backend, seed=seed, clip_center=clip_center)
    return run_protocol(forecaster, rounds, dictionary), forecaster.epochs


def fit_random_design(
    samples: Sequence[tuple[Any, float]],
    dictionary: Any,
    backend: BackendConfig | None = None,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
) -> BatchEstimator:
    """One online pass at tau = 1/sqrt(d T); uniform average of the
    per-round regressors."""
    if len(samples) < 1:
        raise ArgumentError("need at least one sample")
    return BatchEstimator("random_design_average", dictionary, *_online_pass(samples, dictionary, backend, seed))


def fit_fixed_design(
    samples: Sequence[tuple[Any, float]],
    dictionary: Any,
    backend: BackendConfig | None = None,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
) -> BatchEstimator:
    """Same online pass, whose T predictions the estimator keeps: at a
    design point it predicts the mean of the predictions of the rounds
    that played it, and 0 off the design.  Rounds are grouped by exact
    design point (design points are generated values, so equality is
    exact, with no tolerance matching; -0.0 equals 0.0)."""
    if len(samples) < 1:
        raise ArgumentError("need at least one sample")
    run, epochs = _online_pass(samples, dictionary, backend, seed)
    return BatchEstimator(
        "fixed_design_grouped", dictionary, run, epochs, design_points=[x for x, _ in samples], predictions=run.predictions
    )


def fit_remark15(
    samples: Sequence[tuple[Any, float]],
    dictionary: Any,
    backend: BackendConfig | None = None,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
) -> BatchEstimator:
    """Offset-clipped variant: round 1 only provides the anchor Y_1;
    rounds 2..T run at tau = 1/sqrt(d (T-1)) with predictions clipped to
    [Y_1 - B', Y_1 + B'], the threshold tracking max |Y_s - Y_1|^2."""
    if len(samples) < 2:
        raise ArgumentError("the offset variant needs T >= 2 samples")
    anchor = float(samples[0][1])
    if not math.isfinite(anchor):
        raise DataError(f"sample 1: the anchor outcome must be finite, got {anchor!r}")
    run, epochs = _online_pass(samples[1:], dictionary, backend, seed, clip_center=anchor)
    return BatchEstimator("remark15_offset", dictionary, run, epochs, anchor=anchor)


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
        if len(xs) != n_eval:
            raise ArgumentError(f"the design sampler returned {len(xs)} points, not n_eval = {n_eval}")
    preds = estimator.predict_many(xs)
    truths = np.asarray([float(truth_f(x)) for x in xs])
    return float(np.mean((truths - preds) ** 2))


# ---------------------------------------------------------------------------
# Risk-bound right-hand sides.
# ---------------------------------------------------------------------------


def risk_bound_rhs(variant: str, **kw: Any) -> float:
    """Right-hand side of a named risk guarantee, at a supplied comparator.

    Theorems 10 (random design) and 13 (fixed design) read ``approx_error +
    64 r s_ln_term(l0, sqrt(d T) l1) + feature term + 32 r`` at r =
    E[max Y^2] / T.  Each corollary is its theorem at a cap on r: 2 (mean_y^2
    / T + psi_t) for cor11, 2 (f_inf^2 + 2 sigma_sq ln(2 e T)) / T for cor12
    and 2 (max_f_sq / T + psi_t) for cor14.  Squares are products, so a
    huge input gives inf where ``**`` would raise.

    Common keyword arguments: ``approx_error`` (the comparator's own risk),
    ``T``, ``d``, ``l0``, ``l1``.  Variant-specific:

    - ``thm10``: ``e_max_y_sq`` (measured or analytic E[max Y^2]),
      ``sum_feature_l2`` (sum over features of the squared L2 norm).
    - ``cor11``: ``mean_y``, ``psi_t``, ``sum_feature_l2``.
    - ``cor12``: ``f_inf``, ``sigma_sq``, ``sum_feature_l2``.
    - ``thm13``: ``e_max_y_sq``, ``design_gram_trace``.
    - ``cor14``: ``max_f_sq``, ``psi_t``, ``design_gram_trace``.
    """
    def value(key: str, kind: type = float) -> Any:
        if key not in kw:
            raise ArgumentError(f"risk_bound_rhs missing input {key!r}")
        return kind(kw[key])

    T = value("T", int)
    d = value("d", int)
    l0 = value("l0", int)
    l1 = value("l1")
    approx = value("approx_error")
    ln_term = s_ln_term(l0, math.sqrt(d * T) * l1)

    if variant in ("thm10", "thm13"):
        r = value("e_max_y_sq") / T
    elif variant == "cor11":
        mean_y = value("mean_y")
        r = 2.0 * (mean_y * mean_y / T + value("psi_t"))
    elif variant == "cor12":
        f_inf = value("f_inf")
        r = 2.0 * ((f_inf * f_inf + 2.0 * value("sigma_sq") * math.log(2.0 * math.e * T)) / T)
    elif variant == "cor14":
        r = 2.0 * (value("max_f_sq") / T + value("psi_t"))
    else:
        raise ArgumentError(f"unknown risk bound variant {variant!r}")
    if variant in ("thm13", "cor14"):
        feature_term = value("design_gram_trace") / (d * T**2)
    else:
        feature_term = value("sum_feature_l2") / (d * T)
    return approx + 64.0 * r * ln_term + feature_term + 32.0 * r
