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
at new points are deterministic: ``BatchEstimator.snapshots`` is the list
of each round's ``(FrozenCloud, B)``.  The snapshots of one *epoch* share
its sample set and its log base, since importance particles change only
when they are rejuvenated and quadrature nodes never change.  Each round
keeps only its cumulative losses, one row of a (T, n) array that the
online pass fills with a copy of the cloud's; its snapshot derives its
weights from those, its eta and the epoch's log base, so a fit holds
O(epochs * n * (d + 1) + T * n) floats, one n-vector per round, in one
array rather than T, against the O(T * n * d) of a full copy per round.  At T =
1000, n = 10^4 and d = 30 a single epoch costs ~0.08 GB where full copies
cost ~2.5 GB.  The chain backend moves its walkers every round, so it has
one epoch per round and gains nothing.

A fixed-design estimator's value at a design point is the mean of the
regressors of the rounds that played it, and at its own design point a
round's regressor is the prediction the online pass made in that round.
So a fixed-design fit keeps those T predictions, and predicting averages
them per design point in O(T + m), reading no weights or margins.

Random design and the offset variant count every round at every point and
take one averaging pass.  Rounds that share a sample set and a threshold
form a group, and within a group the per-round means are linear in the
weights.  So each group sums its weights into one vector and applies it to
its clipped margins, and the total is divided by T.  The cost is O(T n) to
sum the weights plus O(m n d) per sample set for the margins.  Scratch is
two cache-sized (rows, n) blocks of margins (``posterior._block_rows``),
never the (T, m) matrix of per-round means, and one sample set's weight
sums are held at a time.  A block's margins are formed in pieces of
particles small enough for OpenBLAS to run on the calling thread
(``posterior._piece_rows``), and weighted by ``posterior._particle_sum``,
so predictions do not depend on OpenBLAS's thread count (tested at one
and two threads).  Evaluation points must be finite; a bad one raises
:class:`DataError` naming its index.

The maximal-inequality caps ``psi_bound`` on E[max_t Z_t^2] / T of the
noise families (defined in :mod:`seqsew.datagen`) are also here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .datagen import NoiseFamily
from .errors import ArgumentError, DataError, DimensionMismatchError
from .forecasters import SeqSEWAdaptive, features_of
from .posterior import BackendConfig, FrozenCloud, _block_rows, _particle_sum, _piece_rows
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
    if draws.shape[0] < 100:
        raise ArgumentError("need at least 100 replications")
    return float(np.mean(np.max(draws**2, axis=1)))


# ---------------------------------------------------------------------------
# Estimators.
# ---------------------------------------------------------------------------


def _design_key(x: Any) -> bytes:
    return np.ascontiguousarray(np.atleast_1d(np.asarray(x, dtype=float))).tobytes()


@dataclass
class BatchEstimator:
    """Average of per-round clipped posterior-mean regressors."""

    mode: str
    snapshots: list[tuple[FrozenCloud, float]]
    dictionary: Any
    anchor: float = 0.0
    design_points: list[Any] | None = None
    predictions: np.ndarray | None = None

    def _features(self, xs: Sequence[Any]) -> np.ndarray:
        """(m, d) features of the evaluation points: a non-finite point or
        feature raises :class:`DataError`, and features not of shape (d,)
        :class:`DimensionMismatchError`, each naming the point's index."""
        phi = np.empty((len(xs), self.snapshots[0][0].samples.shape[1]))
        for i, x in enumerate(xs):
            point = np.asarray(x, dtype=float)
            if not np.isfinite(point).all():
                raise DataError(f"evaluation point {i}: must be finite, got {point.tolist()}")
            features = features_of(x, self.dictionary, "evaluation point", i)
            if features.shape != phi.shape[1:]:
                raise DimensionMismatchError(f"evaluation point {i}: features have shape {features.shape}, expected {phi.shape[1:]}")
            phi[i] = features
            if not np.isfinite(phi[i]).all():
                raise DataError(f"evaluation point {i}: features must be finite, got {phi[i].tolist()}")
        return phi

    def _deltas(self, xs: Sequence[Any]) -> np.ndarray:
        """Averaged clipped deviation at each point: over all rounds, or in
        fixed-design mode over the rounds that visited the point (0 off
        the design).

        In fixed-design mode that is the mean of the predictions the
        online pass made at the point.  Otherwise rounds are grouped by
        sample set, then by threshold; a group's per-round means are linear
        in its weights, so it adds its rounds' summed weights times its
        clipped margins, one cache-sized block of rows at a time, and the
        total is divided by the number of rounds.  A block's margins are
        formed in pieces of particles that OpenBLAS runs on the calling
        thread (``posterior._piece_rows``) and weighted by
        ``posterior._particle_sum``, so the result does not depend on
        OpenBLAS's thread count.  Scratch stays at two (rows, n) blocks,
        and one sample set's sums are held at a time."""
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
        # Rounds of one epoch share one sample-set object, kept alive by
        # the snapshots, so its id names the set.
        groups: dict[int, tuple[np.ndarray, dict[float, list[FrozenCloud]]]] = {}
        for cloud, b in self.snapshots:
            groups.setdefault(id(cloud.samples), (cloud.samples, {}))[1].setdefault(b, []).append(cloud)
        out = np.zeros(rows)
        for samples, by_threshold in groups.values():
            n, d = samples.shape
            sums = [(b, sum(cloud.weights() for cloud in clouds)) for b, clouds in by_threshold.items()]
            height = min(_block_rows(n, 8), rows)
            margins, clipped = np.empty((height, n)), np.empty((height, n))
            for start in range(0, rows, height):
                block = phi[start : start + height]
                m, c = margins[: block.shape[0]], clipped[: block.shape[0]]
                step = _piece_rows(d, block.shape[0])
                for first in range(0, n, step):
                    np.matmul(block, samples[first : first + step].T, out=m[:, first : first + step])
                for b, w in sums:
                    out[start : start + height] += _particle_sum(m.clip(-b, b, out=c), w)
        return out / len(self.snapshots)

    def predict_components(self, x: Any) -> tuple[float, float]:
        """(anchor, averaged clipped deviation); the prediction is their sum.

        Exposed separately so translation equivariance of the offset
        variant can be checked exactly: shifting all outcomes by c shifts
        the anchor by c and leaves the deviations bit-identical.  Outside
        fixed design each call is one full averaging pass over every
        round's weights, so use :meth:`predict_many` for many points."""
        return self.anchor, float(self._deltas([x])[0])

    def predict(self, x: Any) -> float:
        """The prediction at one point: outside fixed design one full
        averaging pass over every round's weights, so use
        :meth:`predict_many` for many points."""
        anchor, delta = self.predict_components(x)
        return anchor + delta

    def predict_many(self, xs: Sequence[Any]) -> np.ndarray:
        """Vectorised predictions at many points."""
        return self.anchor + self._deltas(xs)

    @property
    def max_threshold(self) -> float:
        return max((b for _, b in self.snapshots), default=0.0)


def _online_pass(
    rounds: Sequence[tuple[Any, float]],
    dictionary: Any,
    backend: BackendConfig | None,
    seed: int | np.random.SeedSequence | np.random.Generator | None,
    clip_center: float = 0.0,
) -> tuple[list[tuple[FrozenCloud, float]], np.ndarray]:
    """Play the adaptive forecaster at tau = 1/sqrt(d T) through the T
    ``rounds`` and keep ``cloud.snapshot()`` of the posterior each round
    was predicted with, together with that round's threshold, and the T
    predictions.  The snapshots share the cloud's read-only sample set
    and log base rather than copy them.  Each round's cumulative losses
    are copied into row t of one (T, n) array, which the snapshot reads
    instead of the cloud's.  One array, allocated and freed whole, keeps
    the next fit's page faults the same from run to run; whether the C
    allocator keeps or returns T separate n-vectors freed together
    depends on incidental heap layout."""
    d = dictionary.d if dictionary is not None else len(np.atleast_1d(rounds[0][0]))
    tau = 1.0 / math.sqrt(d * len(rounds))
    forecaster = SeqSEWAdaptive(d, tau, backend, seed=seed, clip_center=clip_center)
    snapshots, predictions, losses = [], np.empty(len(rounds)), None
    for t, (x, y) in enumerate(rounds, start=1):
        predictions[t - 1] = forecaster.predict(features_of(x, dictionary, "round", t))
        frozen = forecaster.cloud.snapshot()
        if losses is None:
            losses = np.empty((len(rounds), frozen.cum_loss.shape[0]))
        frozen.cum_loss = row = losses[t - 1]
        np.copyto(row, forecaster.cloud.cum_loss)
        row.flags.writeable = False
        snapshots.append((frozen, forecaster.state.B))
        forecaster.observe(float(y))
    return snapshots, predictions


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
    return BatchEstimator(
        mode="random_design_average",
        snapshots=_online_pass(samples, dictionary, backend, seed)[0],
        dictionary=dictionary,
    )


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
    exact, with no tolerance matching)."""
    if len(samples) < 1:
        raise ArgumentError("need at least one sample")
    snapshots, predictions = _online_pass(samples, dictionary, backend, seed)
    return BatchEstimator(
        mode="fixed_design_grouped",
        snapshots=snapshots,
        dictionary=dictionary,
        design_points=[x for x, _ in samples],
        predictions=predictions,
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
    return BatchEstimator(
        mode="remark15_offset",
        snapshots=_online_pass(samples[1:], dictionary, backend, seed, clip_center=anchor)[0],
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
