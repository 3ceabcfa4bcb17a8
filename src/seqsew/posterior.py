"""Posterior representations for exponentially weighted regression.

The object being approximated is the Gibbs posterior over weight vectors

    p(du)  ~  exp(-eta * L(u)) * prior(du),
    L(u)   =  sum_s (y_s - clip(u . phi_s, B_s))^2,

where each past round carries the threshold ``B_s`` that was in force when
that round was played.  Offset-clipped variants feed residual outcomes
here and add their anchor back outside, so this module only ever clips
around zero.

Every backend runs one reweight-and-move scheme.  A cloud holds support
points, their cached *cumulative* clipped losses and a log base mass, and
weighs each point by ``log_base - eta * cum_loss``.  Because the weights
are recomputed from the cumulative losses every round rather than updated
incrementally, a re-tuned eta rescales all past losses exactly, with no
approximation drift.  A *move* runs Metropolis steps and then rebases
``log_base`` to ``eta * cum_loss``, so the moved points stand in for the
posterior as they are.  Each step changes one random coordinate, shared
by every point.  The step carries each point's residuals against the
history rather than its margins, so a candidate's loss is the sum of
squares of its residuals clipped to ``[y - B, y + B]``: six sweeps of a
block per step.  Clipping the residual equals clipping the margin only up
to rounding; a fixed seed reproduces the sampled values byte for byte.
The sweeps run in single precision, in units of a power of two that
keeps them scale-exact, and a move recomputes its points' cumulative
losses in double precision when it ends.  So the
move targets the posterior to single-precision rounding: on criterion 4's
moves (seed 1000) the log acceptance ratio was at most 1.5e-5 from the
exact one, with a median of 6e-7, and the run's predictions moved by at
most 9e-16.  Everything else, the reweighting included, is exact.
The points are cut into blocks, and each block runs the whole move on its
own rows, with its own random draws (from a seed the move draws) and its
own step size, in reused buffers.  A block is as thick as a cache-sized
buffer of its single-precision cells allows: a step's sweeps over the
block's (rows, rounds) buffers run without the interpreter lock, while
its two dozen calls on per-row vectors hold it, so thick blocks let the
cores run in parallel.  None of those calls is masked, and the two clip
sweeps read a block's buffers as rows of about 2048 cells against bounds
repeated to match.  A block builds its own residual rows just before
its steps, so a move never holds an (n_points, n_rounds) array: its
memory is three block buffers per core, whatever the horizon.  The cores
the process may run on each take one contiguous run of blocks per move,
so a block's result does not depend on which core ran it, and results do
not depend on the worker count.
The three backends are three move policies:

``importance``
    Points drawn exactly from the prior, never moved while the effective
    sample size stays above ``ess_floor * n_samples``.  Below it they are
    systematically resampled and moved for ``refresh_sweeps * d`` steps
    (plain resampling would collapse diversity under this heavy-tailed
    prior).

``chain``
    Points moved every round for ``burn_in`` steps, so their weights stay
    exactly uniform: unweighted walkers re-targeted at each new posterior.
    An update sums no losses, since the move writes them all.

``quadrature``
    Never moved: a deterministic tensor grid (d <= 2 only), sinh-stretched
    in u / tau so the polynomial tails are resolved with few nodes.  Serves
    as the exact oracle the stochastic backends are checked against.

The Metropolis step size is calibrated, block by block, to keep acceptance
between roughly 20% and 50%; a move starts from the median of the last
move's per-block step sizes.

Outputs do not depend on OpenBLAS's thread count at the shapes tested.
OpenBLAS splits a dot
product of more than 10 000 entries, or a large enough matrix product,
between its threads, and the rounding then depends on their count.  So
every sum over a cloud's particles (the weighted means of the live and
the frozen cloud, the effective sample size, and the batch average's
weighting of its clipped margins) is taken on the calling thread by
:func:`_particle_sum`, one dot product per row up to ``_DOT_PIECE``
particles and pieces of that size added in order beyond it.  The
kernel's and the batch average's matrix products are cut into pieces of
at most ``_KERNEL_PIECE_MULADDS`` multiply-adds (:func:`_piece_rows`),
which run on the calling thread too.  A round's margins ``samples @
features`` form one matrix-vector product, which may run on several
threads; each margin is one thread's dot over the d coordinates.  It
read the same bits at one and at two threads at n 4000 to 20 000 and on
the 257^2 grid at d 2, but one or two margins differed at n 20 001,
d 30 and at n 66 049, d 20.  All of this is tested at one and two
threads; other BLAS builds are unverified.

A round costs one pass over the points.  Every sample set is column-major
(an F-contiguous (n, d) array: a (d, n) C-array seen through ``.T``), so
the margin product reads d contiguous columns; prior draws, grid nodes,
resampled and moved points all keep that layout, and snapshots share it.
The weights are normalised once per state, on first use, and handed out
read-only together with their effective sample size ``1 / (w . w)``;
only an update and a move change the state, and both drop them.  The
live cloud and its snapshots form their means by one function,
:func:`_clipped_mean`, which clamps the weighted mean into [-B, B].
``predict`` keeps the clipped margins it averaged, and an update with the
same features (compared by value) and the same threshold adds those to
the cumulative losses instead of computing them again.  Every arithmetic
step is the one an uncached round would run, so results are
bit-identical.  That step, a round's squared losses added to the
cumulative ones, is :func:`_add_round_losses`, and
:func:`_replay_snapshots` takes it too when it rebuilds a batch fit's
snapshots from an epoch's first, so they are the live cloud's bit for
bit.  A round allocates only the two n-vectors it keeps: the clipped
margins are formed in place and become the round's losses and
then the new cumulative losses, and the log-weights are normalised in
their own array.  A snapshot allocates nothing: it shares the cloud's
samples, cumulative losses and log base, and derives its weights from
them with the live cloud's formula, so they are the live weights bit for
bit.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import prior as prior_mod
from .errors import (
    ArgumentError,
    ContractViolationError,
    DataError,
    DimensionMismatchError,
    StateError,
    UnsupportedDimensionError,
    _checked_integer,
)
from .prior import SparsityPrior

__all__ = [
    "BackendConfig",
    "PosteriorCloud",
    "FrozenCloud",
    "init",
]

# Radius of the default grid in units of tau: prior mass beyond it is
# (1 + R)^-3 per side, below 1e-6 for R = 100.
_GRID_RADIUS_TAU_UNITS = 100.0


@dataclass(frozen=True)
class BackendConfig:
    """Knobs for the posterior backends.  Only the fields of the chosen
    backend matter; the rest are ignored.  The counts must be integral,
    and an integral float or numpy integer is kept as its int."""

    backend: str = "importance"
    n_samples: int = 10_000
    burn_in: int = 25
    proposal_scale: float = 2.0
    ess_floor: float = 0.5
    refresh_sweeps: int = 1
    grid_points_per_dim: int = 257
    grid_radius_multiplier: float = 1.0
    grid_nodes: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        for key in ("n_samples", "burn_in", "refresh_sweeps", "grid_points_per_dim"):
            object.__setattr__(self, key, _checked_integer(key, getattr(self, key)))
        if self.backend not in ("importance", "chain", "quadrature"):
            raise ArgumentError(f"unknown backend {self.backend!r}")
        if self.backend in ("importance", "chain") and self.n_samples < 100:
            raise ArgumentError("stochastic backends need n_samples >= 100")
        if self.backend == "quadrature" and self.grid_nodes is None and self.grid_points_per_dim < 64:
            raise ArgumentError("quadrature backend needs grid_points_per_dim >= 64")
        if not 0.0 < self.ess_floor < 1.0:
            raise ArgumentError("ess_floor must lie in (0, 1)")
        for key in ("burn_in", "refresh_sweeps"):
            if getattr(self, key) < 1:
                raise ArgumentError(f"{key} must be >= 1, got {getattr(self, key)!r}")
        if not self.proposal_scale > 0.0:
            raise ArgumentError("proposal_scale must be positive")
        if not self.grid_radius_multiplier > 0.0:
            raise ArgumentError("grid_radius_multiplier must be positive")
        for nodes in self.grid_nodes or ():
            nodes = np.asarray(nodes, dtype=float)
            ordered = np.sort(nodes, axis=None)
            if not ordered.size:
                raise ArgumentError("each grid_nodes list must be non-empty, got []")
            if not np.isfinite(ordered).all() or (ordered[1:] == ordered[:-1]).any():
                raise ArgumentError(f"grid_nodes must be finite and distinct, got {nodes.tolist()!r}")


class _History:
    """Per-round (features, y, B) needed to re-evaluate cumulative clipped
    losses at arbitrary points, as the columns of one (d + 2, capacity)
    array that doubles when full: rows 0..d-1 hold the features, row d
    y and row d + 1 B.  A round is written once and never again, and a
    full array is copied into a new one, so views handed out earlier keep
    their rounds."""

    def __init__(self, dim: int) -> None:
        self._t, self._rounds = 0, np.empty((dim + 2, 16))

    def __len__(self) -> int:
        return self._t

    def append(self, features: np.ndarray, y: float, b: float) -> None:
        t = self._t
        if t == self._rounds.shape[1]:
            grown = np.empty((self._rounds.shape[0], 2 * t))
            grown[:, :t] = self._rounds
            self._rounds = grown
        self._rounds[:-2, t], self._rounds[-2:, t] = features, (y, b)
        self._t = t + 1

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only views of the (features, y, B) of the rounds so far:
        (t, d), (t,) and (t,).  Each coordinate's features are contiguous,
        so a move reads their columns without a copy at d = 1, and with
        one copy of t d floats otherwise."""
        rounds = self._rounds[:, : self._t]
        views = (rounds[:-2].T, rounds[-2], rounds[-1])
        for view in views:
            view.flags.writeable = False
        return views


def _log_weights(log_base: np.ndarray, eta: float, cum_loss: np.ndarray) -> np.ndarray:
    """A fresh array of the log weights ``log_base - eta * cum_loss``, up to
    a constant: the one weight formula of live clouds and their snapshots."""
    if eta == 0.0 or not math.isfinite(eta):
        # The loss term contributes nothing, so log-weights given at eta 0
        # come back as they were.  eta = +inf is the formal initial value:
        # it is only ever in force while every past loss is constant in u,
        # so the posterior is the prior.
        return log_base.copy()
    log_unnorm = np.multiply(eta, cum_loss)
    return np.subtract(log_base, log_unnorm, out=log_unnorm)


def _normalized_log_weights(log_unnorm: np.ndarray) -> np.ndarray:
    """The weights of ``log_unnorm``, normalised in its own array (which
    the caller hands over)."""
    m = float(np.max(log_unnorm))
    if not math.isfinite(m):
        # -inf - -inf is NaN: no finite weight is left to normalise by.
        raise StateError(f"the largest log weight is {m!r}, so the weights are undefined")
    np.subtract(log_unnorm, m, out=log_unnorm)
    np.exp(log_unnorm, out=log_unnorm)
    return np.divide(log_unnorm, np.sum(log_unnorm), out=log_unnorm)


# Most particles of one dot product.  OpenBLAS takes a dot product of at
# most 10 000 entries on the calling thread alone and splits a longer one
# between its threads, whose partial sums then depend on their count.
_DOT_PIECE = 10_000


def _particle_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray | np.float64:
    """``a . b`` over a cloud's particles, the last axis of ``a``, for each
    of its rows, on the calling thread: one dot product per row of at most
    ``_DOT_PIECE`` particles, and beyond that the dot products of such
    pieces added in order."""
    total = np.vecdot(a[..., :_DOT_PIECE], b[:_DOT_PIECE])
    for start in range(_DOT_PIECE, a.shape[-1], _DOT_PIECE):
        total += np.vecdot(a[..., start : start + _DOT_PIECE], b[start : start + _DOT_PIECE])
    return total


def _clipped_mean(weights: np.ndarray, clipped: np.ndarray, threshold: float) -> float:
    """The ``weights``-mean of margins ``clipped`` at ``threshold``, clamped
    into [-threshold, threshold]: the weighted average of values in that
    interval can leave it by a rounding ulp, and a prediction never does."""
    return float(min(max(_particle_sum(weights, clipped), -threshold), threshold))


def _ess_from_weights(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum_i w_i^2 of normalised weights."""
    return 1.0 / float(_particle_sum(weights, weights))


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = weights.shape[0]
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(weights)
    # No position exceeds 1.0, the pinned last entry, so every index is below n.
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions)


# ---------------------------------------------------------------------------
# Metropolis moves, the one way a cloud's points change.  One "step" draws
# a single coordinate and proposes a new value for it in each particle.
# The coordinates of a move are drawn up front, independently of the
# particles, and shared by every particle, so each particle still follows a
# random-scan Metropolis chain with the posterior as its target.  Residuals
# y - u . phi against the full history are carried along and move by the
# rank-1 update -deltas x phi[:, j].  Clipping a residual to [y - b, y + b]
# equals y - clip(u . phi, -b, b) up to rounding, so a candidate's clipped
# loss is the row sum of squares of its clipped residuals.  A block is
# swept six times per step: two passes form the candidates, two clip them,
# one takes the row sums of squares and one copies the accepted rows back.
# The clip sweeps read the block's buffers as wide rows of `tile` rows
# each, about _KERNEL_CLIP_WIDTH cells, against the bounds repeated `tile`
# times.  numpy loops over a broadcast one row at a time, through its
# buffers, so (t,) bounds cost a loop call per t cells: at short horizons
# several times the cost per cell of a wide row.  So a block's buffers are
# rounded up to a whole number of wide rows; their pad rows hold 0, are
# clipped like any residual and are never summed.  Clipping is
# elementwise, so the result is the narrow sweep's, bit for bit.
#
# Those sweeps run in single precision.  The points, the proposal deltas,
# the prior's log ratio and the accept draws stay in double precision; the
# residuals, the candidates, the clipped buffer, the clip bounds, the
# feature columns and a block's running losses are float32.  A block's
# residuals start from a float64 product of its points, and its running
# losses from those float32 residuals, so an accepted row still takes the
# very candidate its cached loss came from.  After its steps the block
# recomputes its cumulative losses in float64 from its float64 points, so
# reweighting reads exact losses and the move's target is the posterior
# up to the float32 rounding of the loss differences in its acceptance
# ratios.  float32 spans far less than float64, so every block works in
# units of a power of two, 2^k: its residuals, y and the clip bounds are
# divided by 2^k, with k chosen so that the clipped residuals are O(1) and
# no residual exceeds 2^32 units, and eta is multiplied by 4^k.  The
# feature columns are divided by the power of two that brings their
# largest entry into [1/2, 1), and the deltas by the ratio of the two
# scales, so the float32 columns stay finite whatever the features' scale.
# Powers of two scale exactly, so a move of (s u, s y, s B, s tau, eta /
# s^2) for s = 2^j is the move of (u, y, B, tau, eta) scaled by s, bit for
# bit, as it is in double precision.  When a block's largest residual
# dwarfs the clip band by more than about 2^80, no float32 unit holds both:
# the band's squares would underflow to 0, every loss difference would
# read 0 and the move would sample the prior.  So does a block whose
# proposals, times the columns, would overflow float32 in its unit (points
# at 0 against a feature of 1e40, so that the residuals leave the unit
# small).  Such a block runs the same steps in float64 buffers against
# float64 columns carrying the same power of two, in the unit that keeps
# the band O(1) unless its residuals, or its proposals times the columns,
# then come within 2^96 of float64's overflow.  The choice reads only the
# block's own rows, so it too does not depend on the worker count.
#
# The particles are cut into blocks of equal size, small enough for a
# block's float32 buffers to stay in cache, and a block runs every step of
# the move on its own rows before the next block starts: first it builds
# its residual rows, then it takes its own proposal and acceptance draws,
# from a generator seeded by the caller, and its own step size, retuned
# toward 20-50% acceptance after each of its steps.  So a block's moves
# depend only on its rows, its seed and the shared coordinates, never on
# another block, and no block needs another's residuals: a move holds no
# (n_particles, n_rounds) array, only three float32 block buffers per
# worker, two of which hold the block's float64 residuals at its start and
# end.  Each usable core takes one contiguous run of blocks per move, the
# calling thread the first.  A block's residual product is cut into pieces
# of _piece_rows rows, small enough for OpenBLAS to run each on the
# calling thread, so BLAS threads never compete with the workers and the
# residuals do not depend on OpenBLAS's thread count (tested at one and
# two threads); the batch average cuts its margin products by the same
# rule.  The rest is ufuncs, einsum with ``out=``,
# a take and index assignments of the accepted rows, and the generators'
# fills, none of them masked (a ``where=`` mask or ``np.copyto`` costs two
# to three times an index assignment of the 20-50% of rows a step
# accepts).  Those over a block's (rows, rounds) buffers release the GIL;
# the two dozen per step over vectors of one entry per row (numpy keeps
# the lock on short arrays), and the Python between them, hold it.  So a
# block is as thick as a float32 buffer of _BLOCK_BYTES allows, which
# puts most of a step's time in the sweeps the workers run in parallel.
# A block also keeps the prior term log1p(|u| / tau) of each coordinate of
# its points, so a step computes it only for the proposals.  The result
# is bit-identical for any worker count, and a move hands each extra
# worker one task.  Each step costs O(n_particles * n_rounds).
# ---------------------------------------------------------------------------

# Most bytes of one scratch block of rows, small enough to stay resident in
# a core's cache: a block of margins in a batch estimator's average
# (float64 cells), and each of the three buffers of a Metropolis block
# (float32 cells, so twice the rows: thick blocks keep the lock-holding
# per-row calls of a step a small part of it, as above).
_BLOCK_BYTES = 512 * 1024

# Most multiply-adds of one piece of a product over a cloud's particles:
# a Metropolis block's residual product, and a batch average's block of
# margins (_piece_rows).  OpenBLAS runs a GEMM of at most SMP_THRESHOLD_MIN
# (65536) times GEMM_MULTITHREAD_THRESHOLD (4) multiply-adds on the
# calling thread alone.
_KERNEL_PIECE_MULADDS = 1 << 18

# Cells of one row of a Metropolis block's clip sweeps, which read its
# (rows, rounds) buffers as rows of about this many cells: a broadcast
# against a short row of bounds costs far more per cell than a long one.
_KERNEL_CLIP_WIDTH = 2048

# Largest residual of a block at the start of a move, in the block's units:
# float32 then leaves a factor of 2^96 for the move to grow it by, and
# float64 the same factor below its own overflow.
_KERNEL_RESIDUAL_EXPONENT = 32
_KERNEL_DOUBLE_RESIDUAL_EXPONENT = 1024 - 96

# Most binary orders a float32 block's unit may lie above the clip band's:
# the band's squares then reach 2^-94 units, so their top 32 orders stay
# in float32's normal range.  A block whose residuals need a larger unit
# runs its steps in float64.
_KERNEL_BAND_SHIFT = 48

# Most binary orders, in a float32 block's units, of the move's proposal
# reach (the larger of tau and its starting step size) times the feature
# columns' largest entry: float32 then leaves a factor of 2^32 for the
# normal tails, the long-range factor and the step size's growth.  A block
# whose points sit far inside that reach (points at 0 against huge
# features) runs its steps in float64.
_KERNEL_DELTA_EXPONENT = 96


def _block_rows(width: int, itemsize: int) -> int:
    """Rows of a (rows, width) scratch block of ``itemsize``-byte cells."""
    return max(1, _BLOCK_BYTES // (itemsize * width))


def _piece_rows(inner: int, width: int) -> int:
    """Rows of one piece of a product against an (inner, width) matrix
    that OpenBLAS runs on the calling thread alone: at most
    ``_KERNEL_PIECE_MULADDS`` multiply-adds, and at least one row."""
    return max(1, _KERNEL_PIECE_MULADDS // (inner * width))


def _median(values: np.ndarray) -> np.ndarray:
    """The median along the first axis, bit for bit ``np.median(values,
    axis=0)`` for finite values.  ``np.median`` imports ``numpy.ma``, which
    then stays loaded for the life of the process."""
    n = values.shape[0]
    half = n // 2
    if n % 2:
        return np.partition(values, half, axis=0)[half]
    middle = np.partition(values, (half - 1, half), axis=0)
    return (middle[half - 1] + middle[half]) / 2.0


def _robust_coordinate_scales(samples: np.ndarray, floor: float) -> np.ndarray:
    """Per-coordinate spread of the cloud (median absolute deviation),
    floored away from zero.  Robust against the giant outliers a
    heavy-tailed cloud always contains."""
    med = _median(samples)
    mad = _median(np.abs(samples - med)) * 1.4826
    return np.maximum(mad, floor)


# Most cores this process's threads may use, set in a worker process that
# shares the machine with others (None: no budget).
_core_budget: int | None = None


def _set_core_budget(cores: int) -> None:
    """Limit :func:`_usable_cores` to ``cores`` in this process."""
    global _core_budget
    _core_budget = cores


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, within the process's core budget."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return cores if _core_budget is None else min(cores, _core_budget)


def _exponent(x: float) -> int:
    """The k with |x| < 2^k <= 2|x|, and 0 for x = 0."""
    return math.frexp(x)[1]


def _block_residuals(points: np.ndarray, columns: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``y - points @ columns`` written into ``out``, one product of at
    most ``_KERNEL_PIECE_MULADDS`` multiply-adds per piece of rows."""
    step = _piece_rows(*columns.shape)
    for start in range(0, points.shape[0], step):
        piece = out[start : start + step]
        np.matmul(points[start : start + step], columns, out=piece)
        np.subtract(y, piece, out=piece)
    return out


def _opaque_rows(block: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous 2-d ``block`` as a vector of opaque
    items, one per row, so that taking or putting rows copies whole rows."""
    return block.view(np.dtype((np.void, block.shape[1] * block.itemsize)))[:, 0]


def _block_unit(residuals: np.ndarray, clip_exponent: int, reach_exponent: int) -> tuple[int, bool]:
    """The exponent k of a block's unit 2^k, and whether its steps run in
    float32, from its float64 ``residuals`` and the binary orders of the
    clip band and of the proposals' reach times the columns."""
    residual_exponent = _exponent(max(float(np.max(residuals)), -float(np.min(residuals))))
    k = max(clip_exponent, residual_exponent - _KERNEL_RESIDUAL_EXPONENT)
    if k - clip_exponent <= _KERNEL_BAND_SHIFT and reach_exponent - k <= _KERNEL_DELTA_EXPONENT:
        return k, True
    # In float64: the residuals, and the proposals' reach times the
    # columns, 2^96 below float64's overflow at most.
    return max(clip_exponent, max(residual_exponent, reach_exponent) - _KERNEL_DOUBLE_RESIDUAL_EXPONENT), False


def _metropolis_coordinate_steps(
    samples: np.ndarray,
    cum_loss: np.ndarray,
    history: tuple[np.ndarray, np.ndarray, np.ndarray],
    eta: float,
    prior: SparsityPrior,
    rng: np.random.Generator,
    n_steps: int,
    coord_scales: np.ndarray,
    step_multiplier: float,
) -> float:
    """Shared-coordinate Metropolis sweeps targeting the current posterior.

    Moves ``samples`` in place and writes the moved points' exact
    cumulative losses into ``cum_loss``, which it never reads.  Every block
    of rows starts from ``step_multiplier`` and retunes its own after each
    step toward the 20-50% acceptance window; the median of the blocks'
    final multipliers is returned for the next move."""
    phi, y, b = history
    n, d = samples.shape
    t = y.shape[0]
    # y - clip(m, -b, b) == clip(y - m, y - b, y + b) (b >= 0), up to rounding.
    low, high = y - b, y + b
    columns = np.ascontiguousarray(phi.T)  # no copy for a cloud's history at d = 1
    # The float32 columns, their largest entry in [1/2, 1).  All-zero
    # features leave every loss flat; the tiniest double keeps the deltas
    # finite for them.
    column_exponent = _exponent(float(np.max(np.abs(columns))) or np.finfo(float).smallest_subnormal)
    columns_f32 = np.ldexp(columns, -column_exponent, out=np.empty((d, t), dtype=np.float32))
    # A clipped residual lies in [y - b, y + b], so below 2^(clip_exponent + 1).
    clip_exponent = _exponent(max(float(np.max(np.abs(y))), float(np.max(b))))
    tau = prior.tau
    # How far a proposal reaches in u, times the columns' scale: its step
    # size grows only while the loss is flat, and then no further than the
    # prior's scale.
    reach_exponent = _exponent(max(tau, float(np.max(coord_scales)) * step_multiplier)) + column_exponent
    coords = rng.integers(0, d, size=n_steps).tolist()
    scales = coord_scales.tolist()
    # Blocks of equal size (to one row), so none is a short remainder with
    # a noisy acceptance rate, and two cores' runs differ by one block at
    # most.  Their buffers hold float32 cells.
    n_blocks = -(-n // _block_rows(t, 4))
    rows = -(-n // n_blocks)
    # The clip sweeps' wide rows hold `tile` rows each, and the block
    # buffers a whole number of wide rows.
    tile = max(1, _KERNEL_CLIP_WIDTH // t)
    padded = -(-rows // tile) * tile
    seeds = rng.integers(np.iinfo(np.int64).max, size=n_blocks).tolist()
    workers = min(_usable_cores(), n_blocks)
    # Worker k moves blocks first[k]:first[k + 1], a contiguous run.
    first = [k * n_blocks // workers for k in range(workers + 1)]

    # Scratch for one block per worker, reused by every block and step of
    # its run.  It is allocated here, not in the workers, so that the
    # workers' malloc arenas hold none of it (a worker's arena keeps freed
    # memory of its own, which adds to the peak RSS).
    scratch = [
        (
            np.empty((3, padded, t), dtype=np.float32),
            np.empty((2, tile, t), dtype=np.float32),
            np.empty((4, rows)),
            np.empty(d * rows),
            np.empty((3, rows), dtype=np.float32),
            np.empty((2, rows), dtype=bool),
        )
        for _ in range(workers)
    ]

    def move_blocks(worker: int) -> list[float]:
        blocks, bounds, floats, prior_terms, singles, flags = scratch[worker]
        # The float64 residuals of a block's points, in the memory of its
        # two float32 candidate buffers.
        exact = blocks[:2].reshape(-1).view(np.float64).reshape(padded, t)
        doubles = None
        multipliers = []
        for block in range(first[worker], first[worker + 1]):
            block_rng = np.random.default_rng(seeds[block])
            start = block * rows
            points = samples[start : start + rows]
            m = points.shape[0]
            exact_rows = _block_residuals(points, columns, y, exact[:m])
            k, single = _block_unit(exact_rows, clip_exponent, reach_exponent)
            if single:
                block_buffers, block_bounds, block_singles = blocks, bounds, singles
                block_columns = columns_f32
            else:
                if doubles is None:  # rare, so allocated on first use
                    doubles = (
                        np.empty((3, padded, t)),
                        np.empty((2, tile, t)),
                        np.empty((3, rows)),
                        np.ldexp(columns, -column_exponent),
                    )
                block_buffers, block_bounds, block_singles, block_columns = doubles
            delta_exponent = column_exponent - k
            candidate, work, residuals = block_buffers
            held = np.ldexp(exact_rows, -k, out=residuals[:m])
            # The block's rows in whole wide rows, the pad rows 0.
            span = -(-m // tile) * tile
            block_buffers[:, m:span] = 0.0
            low_k = np.ldexp(low, -k, out=block_bounds[0]).reshape(-1)
            high_k = np.ldexp(high, -k, out=block_bounds[1]).reshape(-1)
            eta_term = float(np.ldexp(eta, 2 * k)) if math.isfinite(eta) else 0.0
            cand, buf = candidate[:m], work[:m]
            wide_cand, wide_buf, wide_held = (buffer[:span].reshape(-1, tile * t) for buffer in block_buffers)
            cand_rows, buf_rows, held_rows = (_opaque_rows(buffer[:m]) for buffer in block_buffers)
            uniform, deltas, log_alpha, prior_new = floats[:, :m]
            deltas_k, new_loss, losses = block_singles[:, :m]
            long_range, accept = flags[:, :m]
            # The prior term log1p(|u| / tau) of each coordinate of each
            # point, kept up to date as points move.  The terms are
            # contiguous and filled by a copy, so that none of these ufuncs
            # runs through numpy's buffers: 64 kB each, per worker.
            old_terms = prior_terms[: d * m].reshape(d, m)
            old_terms[...] = points.T
            np.abs(old_terms, out=old_terms)
            np.divide(old_terms, tau, out=old_terms)
            np.log1p(old_terms, out=old_terms)
            np.minimum(wide_held, high_k, out=wide_buf)
            np.maximum(wide_buf, low_k, out=wide_buf)
            np.einsum("ij,ij->i", buf, buf, out=losses)
            multiplier = step_multiplier
            for j in coords:
                # Mixture of local and long-range moves keeps the heavy
                # tails reachable without wrecking the acceptance rate.
                block_rng.random(out=uniform)
                np.less(uniform, 0.2, out=long_range)
                # The long-range factor, 1 or 10, in the memory of the
                # prior ratio, formed later.
                factor = np.multiply(long_range, 9.0, out=log_alpha)
                np.add(factor, 1.0, out=factor)
                block_rng.standard_normal(out=deltas)
                np.multiply(deltas, scales[j] * multiplier, out=deltas)
                np.multiply(deltas, factor, out=deltas)
                np.ldexp(deltas, delta_exponent, out=deltas_k)
                # The proposals, written over the deltas.
                old_vals, old_term = points[:, j], old_terms[j]
                proposals = np.add(old_vals, deltas, out=deltas)
                # The prior's log ratio, -4 (log1p(|new| / tau) -
                # log1p(|old| / tau)).
                np.abs(proposals, out=prior_new)
                np.divide(prior_new, tau, out=prior_new)
                np.log1p(prior_new, out=prior_new)
                np.subtract(old_term, prior_new, out=log_alpha)
                np.multiply(log_alpha, 4.0, out=log_alpha)
                np.einsum("i,j->ij", deltas_k, block_columns[j], out=cand)
                np.subtract(held, cand, out=cand)
                # min then max is np.clip(cand, low, high), without np.clip's
                # per-call overhead.
                np.minimum(wide_cand, high_k, out=wide_buf)
                np.maximum(wide_buf, low_k, out=wide_buf)
                np.einsum("ij,ij->i", buf, buf, out=new_loss)
                # Accept where log u < prior ratio - eta (new - old loss).
                np.subtract(new_loss, losses, out=uniform)
                np.multiply(uniform, eta_term, out=uniform)
                np.subtract(log_alpha, uniform, out=log_alpha)
                block_rng.random(out=uniform)
                np.log(uniform, out=uniform)
                np.less(uniform, log_alpha, out=accept)
                # Accepted rows take the candidate itself, so the cached
                # residuals are exactly the ones their cached losses came
                # from.  They are gathered into the clipped buffer, free by
                # now, and put back, each row one opaque item: two or three
                # times faster than a masked copy of the block at 20-50%
                # acceptance, and than indexing rows of a few rounds.
                taken = np.flatnonzero(accept)
                np.put(held_rows, taken, np.take(cand_rows, taken, out=buf_rows[: taken.shape[0]], mode="clip"))
                old_vals[taken] = proposals[taken]
                old_term[taken] = prior_new[taken]
                losses[taken] = new_loss[taken]
                rate = taken.shape[0] / m
                if rate < 0.2:
                    multiplier *= 0.7
                elif rate > 0.5:
                    multiplier *= 1.4
            multipliers.append(multiplier)
            # The block's cumulative losses, exact again, from its points.
            exact_rows = _block_residuals(points, columns, y, exact[:m])
            np.minimum(exact_rows, high, out=exact_rows)
            np.maximum(exact_rows, low, out=exact_rows)
            np.einsum("ij,ij->i", exact_rows, exact_rows, out=cum_loss[start : start + m])
        return multipliers

    if workers == 1:
        multipliers = move_blocks(0)
    else:
        # Imported on first use, so a process whose moves all run on one
        # worker never loads the thread pool.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            others = [pool.submit(move_blocks, worker) for worker in range(1, workers)]
            multipliers = move_blocks(0)
            for other in others:
                multipliers += other.result()
    return float(_median(np.asarray(multipliers)))


# ---------------------------------------------------------------------------
# Quadrature grid.
# ---------------------------------------------------------------------------


def _grid_axis_points(n_points: int) -> int:
    """Nodes per axis of the default grid: ``n_points``, an even count
    rounded up to odd to keep a node exactly at the origin, where the
    density kinks."""
    return n_points | 1


def _sinh_nodes_and_logmass(
    tau: float, n_points: int, radius_multiplier: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate nodes and log cell masses of the stretched grid.

    Nodes are u = tau * R * sinh(c x) / sinh(c) for x uniform on [-1, 1]
    with sinh(c) = R, which clusters points near the origin and spreads
    them geometrically into the tails.  Cell masses combine the trapezoid
    weight, the stretch Jacobian, and the prior density.
    """
    m = _grid_axis_points(n_points)
    radius_t = _GRID_RADIUS_TAU_UNITS * radius_multiplier
    stretch = math.asinh(radius_t)
    # The outer cells' Jacobian tau * stretch * cosh(stretch), where
    # cosh(stretch) = hypot(1, R), is the largest value the grid forms: past
    # its outer node tau R, as x cosh x >= sinh x.
    if not tau * stretch * math.hypot(1.0, radius_t) < math.inf:
        raise ArgumentError(f"prior scale tau = {tau!r} is too large for a grid of radius {radius_t!r} tau: its cells overflow")
    xi = np.linspace(-1.0, 1.0, m)
    nodes = tau * np.sinh(stretch * xi)  # sinh(stretch) == radius_t
    jacobian = tau * stretch * np.cosh(stretch * xi)
    dxi = 2.0 / (m - 1)
    trap = np.full(m, dxi)
    trap[0] = trap[-1] = dxi / 2.0
    log_mass = np.log(trap) + np.log(jacobian) + prior_mod.coordinate_log_density(nodes, tau)
    return nodes, log_mass


def _build_grid(prior: SparsityPrior, config: BackendConfig) -> tuple[np.ndarray, np.ndarray]:
    """Grid points (k, d), column-major, and their log base masses (k,)."""
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
        # Every coordinate gets the same nodes and log masses.
        nodes, log_mass = _sinh_nodes_and_logmass(prior.tau, config.grid_points_per_dim, config.grid_radius_multiplier)
        per_dim, logs = [nodes] * prior.dim, [log_mass] * prior.dim

    # The tensor grid, first coordinate slowest, column-major like every sample set.
    columns = [axis.ravel() for axis in np.meshgrid(*per_dim, indexing="ij")]
    log_base = sum(np.ix_(*logs)).ravel()
    return np.stack(columns).T, log_base


# ---------------------------------------------------------------------------
# The cloud.
# ---------------------------------------------------------------------------


def _checked_features(features: np.ndarray, dim: int, where: str = "") -> np.ndarray:
    """``features`` as a float vector of shape (dim,) with a finite squared
    norm: the package's one feature-row check.  A wrong shape raises
    :class:`DimensionMismatchError`, and a non-finite entry or a squared
    norm that overflows :class:`DataError`, each message led by ``where``
    (a round or a point)."""
    features = np.asarray(features, dtype=float)
    if features.shape != (dim,):
        raise DimensionMismatchError(f"{where}features have shape {features.shape}, expected ({dim},)")
    # A Python sum of squares: a non-finite entry or an overflow makes it
    # inf or NaN, without a numpy warning.
    if not sum(v * v for v in features.tolist()) < math.inf:
        raise DataError(f"{where}features must be finite with a finite squared norm, got {features.tolist()}")
    return features


def _checked_threshold(threshold: float) -> None:
    """Refuse a clip threshold outside 0 <= threshold < inf."""
    if not 0.0 <= threshold < math.inf:
        raise ArgumentError(f"the clip threshold must be finite and >= 0, got {threshold!r}")


def _clipped_margins(samples: np.ndarray, features: np.ndarray, threshold: float) -> np.ndarray:
    """clip(samples @ features, -threshold, threshold), in one fresh array.
    The threshold must satisfy 0 <= threshold < inf."""
    _checked_threshold(threshold)
    margins = samples @ features
    return np.clip(margins, -threshold, threshold, out=margins)


def _add_round_losses(cum_loss: np.ndarray, clipped: np.ndarray, y: float) -> np.ndarray:
    """``cum_loss + (y - clipped)^2``, one round's losses added to the
    cumulative ones, formed in the round's clipped margins ``clipped``
    (which the caller hands over): a fresh array, so a snapshot keeps the
    old one.  The one site of this step: the live cloud's update and the
    replay of a fit's rounds (:func:`_replay_snapshots`) both call it."""
    np.subtract(y, clipped, out=clipped)
    np.square(clipped, out=clipped)
    return np.add(cum_loss, clipped, out=clipped)


class FrozenCloud:
    """Immutable usable snapshot of a posterior: weighted points only.

    Its log-weights are a log base tempered by its cumulative losses,
    ``log_base - eta * cum_loss`` (:func:`_log_weights`), and are defined
    up to a constant.  A snapshot shares its cloud's read-only log base
    and tempers it at the cloud's eta, so it stores no weights of its
    own; ``log_weights`` builds a fresh read-only array on each read.
    Log-weights handed to the constructor, or read by :meth:`from_json`,
    are kept as given: they are a log base tempered at eta 0.

    Serialises losslessly to JSON (samples, log-weights, cached losses):
    ``from_json(to_json(x))`` predicts as ``x`` does, bit for bit.  Its
    mean is the live cloud's: :func:`_clipped_mean` of the same weights
    and margins, so a snapshot predicts the round it was taken in.
    """

    def __init__(self, samples: np.ndarray, log_weights: np.ndarray, cum_loss: np.ndarray, eta: float, backend: str) -> None:
        self.samples, self.cum_loss, self.eta, self.backend = samples, cum_loss, eta, backend
        self._log_base, self._base_eta = log_weights, 0.0

    @property
    def log_weights(self) -> np.ndarray:
        log_weights = _log_weights(self._log_base, self._base_eta, self.cum_loss)
        log_weights.flags.writeable = False
        return log_weights

    def weights(self) -> np.ndarray:
        return _normalized_log_weights(_log_weights(self._log_base, self._base_eta, self.cum_loss))

    def predict_clipped_mean(self, features: np.ndarray, threshold: float) -> float:
        """The weighted mean of clip(u . features, threshold), as the live
        cloud predicts it: features and threshold are checked as there."""
        clipped = _clipped_margins(self.samples, _checked_features(features, self.samples.shape[1]), threshold)
        return _clipped_mean(self.weights(), clipped, threshold)

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
        """Load a ``seqsew.cloud.v1`` payload.  A missing key, an entry
        that is not a finite number, or arrays whose shapes disagree
        (``samples`` (n, d), ``log_weights`` and ``cum_loss`` (n,)) raise
        ``ArgumentError`` naming the key; ``eta`` may be ``inf``."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("schema") != "seqsew.cloud.v1":
            raise ArgumentError("not a serialized posterior snapshot")
        for key in ("backend", "eta", "samples", "log_weights", "cum_loss"):
            if key not in payload:
                raise ArgumentError(f"posterior snapshot lacks key {key!r}")

        def finite(key: str, values: object) -> list[float]:
            try:
                numbers = [float(v) for v in values] if isinstance(values, list) else None
            except (TypeError, ValueError):
                numbers = None
            if numbers is None or not all(map(math.isfinite, numbers)):
                raise ArgumentError(f"posterior snapshot key {key!r} must hold lists of finite numbers")
            return numbers

        rows = payload["samples"]
        rows = [finite("samples", row) for row in rows] if isinstance(rows, list) else []
        if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
            raise ArgumentError("posterior snapshot key 'samples' must be a non-empty (n, d) array")
        samples = np.array(rows)
        log_weights = np.array(finite("log_weights", payload["log_weights"]))
        cum_loss = np.array(finite("cum_loss", payload["cum_loss"]))
        for key, values in (("log_weights", log_weights), ("cum_loss", cum_loss)):
            if values.shape != samples.shape[:1]:
                raise ArgumentError(
                    f"posterior snapshot key {key!r} has {values.size} entries for {samples.shape[0]} samples"
                )
        try:
            eta = float(payload["eta"])
        except (TypeError, ValueError):
            eta = math.nan
        if math.isnan(eta):
            raise ArgumentError(f"posterior snapshot key 'eta' must be a number, got {payload['eta']!r}")
        if not isinstance(payload["backend"], str):
            raise ArgumentError(f"posterior snapshot key 'backend' must be a string, got {payload['backend']!r}")
        return cls(samples, log_weights, cum_loss, eta, payload["backend"])


def _replay_snapshots(
    first: FrozenCloud, log: tuple[np.ndarray, np.ndarray, np.ndarray], start: int, etas: np.ndarray
) -> list[FrozenCloud]:
    """The snapshots of ``len(etas)`` consecutive rounds of one epoch (one
    sample set and log base), at those rounds' inverse temperatures
    ``etas``: ``first``, the snapshot the live cloud took before round
    ``start`` of the round log ``log`` was recorded (each round's
    features, y and B, as :meth:`_History.arrays` lays them out), and one
    for each later round.  A later round's cumulative
    losses are its predecessor's plus the losses of the round between,
    added by :func:`_add_round_losses` from that round's features, y and B,
    as the live cloud's update added them; so each is the snapshot the
    live cloud would have taken, bit for bit.  Each is a copy of ``first``
    with its own eta and read-only losses, and only the first shares its
    losses with ``first``."""
    features, ys, bs = log
    snapshots, cum_loss = [], first.cum_loss
    for j, eta in enumerate(etas):
        if j:
            s = start + j - 1
            # The margin product reads a fresh copy of the round's
            # features, as the live cloud's did, not a view into the log.
            clipped = _clipped_margins(first.samples, np.array(features[s]), bs[s])
            cum_loss = _add_round_losses(cum_loss, clipped, ys[s])
            cum_loss.flags.writeable = False
        frozen = copy.copy(first)
        frozen.cum_loss, frozen.eta, frozen._base_eta = cum_loss, float(eta), float(eta)
        snapshots.append(frozen)
    return snapshots


class PosteriorCloud:
    """Single-owner mutable posterior approximation.

    Build with :func:`init`; then alternate :meth:`predict` and
    :meth:`update` following the online protocol.  The inverse temperature
    passed to ``update`` must never increase.

    Between rounds neither ``samples``, ``cum_loss`` nor the log base is
    written in place: an update rebinds ``cum_loss`` to a new array, and a
    move works on fresh arrays and rebinds the points, their losses and
    (at a finite eta) the log base to them, so a reference taken between
    rounds keeps that round's values.  :meth:`snapshot` relies on this to
    share the three arrays rather than copy them, and the batch estimators
    to store each distinct sample set once.
    """

    def __init__(self, prior: SparsityPrior, config: BackendConfig, rng: np.random.Generator | None) -> None:
        self._begin(prior, config, rng, None)

    def _begin(
        self, prior: SparsityPrior, config: BackendConfig, rng: np.random.Generator | None, unit: np.ndarray | None
    ) -> None:
        """Set the cloud up at the prior, with no data.  A stochastic
        cloud's points are ``prior.tau * unit``, a fresh array, when a
        unit-scale sample set is given, and otherwise its own draw from
        ``rng``."""
        self.prior = prior
        self.config = config
        self.backend = config.backend
        self.eta = math.inf
        self.history = _History(prior.dim)
        self._rng = rng
        self._step_multiplier = 1.0
        self.resample_count = 0
        # Normalised weights and their ESS for the current state, filled
        # on first use and dropped whenever the state changes.
        self._weights: np.ndarray | None = None
        self._ess: float | None = None
        # (features, threshold, clipped margins) of the last predict,
        # reused by an update of the same round.
        self._predicted: tuple[np.ndarray, float, np.ndarray] | None = None

        if self.backend == "quadrature":
            self.samples, self._log_base = _build_grid(prior, config)
        else:
            if rng is None:
                raise ArgumentError("stochastic backends need a random generator")
            # A draw is tau ((1 - v)^(-1/3) - 1) with 1 - v >= 2^-53.
            if not prior.tau * 2.0 ** (53 / 3) < math.inf:
                raise ArgumentError(f"prior scale tau = {prior.tau!r} is too large to sample: draws reach tau * 2^(53/3)")
            self.samples = prior_mod.sample(prior, rng, size=config.n_samples) if unit is None else prior.tau * unit
            self._log_base = np.zeros(config.n_samples)
        self.cum_loss = np.zeros(self.samples.shape[0])

    # -- weights ---------------------------------------------------------

    def weights(self) -> np.ndarray:
        """Normalised weights of the current state (read-only; computed
        once per state)."""
        if self._weights is None:
            try:
                weights = _normalized_log_weights(_log_weights(self._log_base, self.eta, self.cum_loss))
            except StateError as exc:
                raise StateError(f"posterior after round {len(self.history)}: {exc}") from None
            weights.flags.writeable = False
            self._weights = weights
        return self._weights

    def ess(self) -> float:
        if self._ess is None:
            self._ess = _ess_from_weights(self.weights())
        return self._ess

    def _state_changed(self) -> None:
        self._weights = self._ess = None

    # -- protocol --------------------------------------------------------

    def predict(self, features: np.ndarray, threshold: float) -> float:
        """Posterior mean of clip(u . features, threshold).  Features not of
        shape (d,) raise :class:`DimensionMismatchError`, features that are
        not finite or whose squared norm overflows :class:`DataError`, and
        a threshold outside [0, inf) :class:`ArgumentError`."""
        features = _checked_features(features, self.prior.dim)
        clipped = _clipped_margins(self.samples, features, threshold)
        self._predicted = (features.copy(), threshold, clipped)
        return _clipped_mean(self.weights(), clipped, threshold)

    def update(
        self,
        features: np.ndarray,
        y: float,
        threshold_used: float,
        new_eta: float,
    ) -> None:
        """Record one round, reweight, and move the points if this
        backend's policy asks for it.  ``threshold_used`` is the clip
        level that was in force when this round was predicted.

        Bad input is refused before any state changes.  Features and the
        threshold are checked as in :meth:`predict`.  A NaN or negative
        ``new_eta`` raises :class:`ArgumentError`, and one above the
        current eta :class:`ContractViolationError`.  An outcome that is
        not finite, or whose loss bound (|y| + threshold)^2 overflows,
        raises :class:`DataError` naming the round."""
        features = _checked_features(features, self.prior.dim)
        _checked_threshold(threshold_used)
        if not new_eta >= 0.0:
            raise ArgumentError(f"the inverse temperature must be >= 0, got {new_eta!r}")
        if new_eta > self.eta:
            raise ContractViolationError(
                f"inverse temperature must not increase: {new_eta} > {self.eta}"
            )
        # Python floats, so an overflow gives inf without a numpy warning.
        bound = abs(float(y)) + float(threshold_used)
        if not bound * bound < math.inf:
            raise DataError(f"round {len(self.history) + 1}: outcome must be finite with a finite loss bound (|y| + B)^2, got {y!r}")

        if self.backend == "chain":
            # The move writes every point's exact cumulative loss, so this
            # round's losses are not summed, and its margins are let go.
            self._predicted = None
        else:
            predicted, self._predicted = self._predicted, None
            if predicted is not None and predicted[1] == threshold_used and np.array_equal(predicted[0], features):
                clipped = predicted[2]
            else:
                clipped = _clipped_margins(self.samples, features, threshold_used)
            self.cum_loss = _add_round_losses(self.cum_loss, clipped, y)
        self.history.append(features, y, threshold_used)
        self.eta = float(new_eta)
        self._state_changed()

        if self.backend == "chain":
            self._move(self.samples.copy(order="F"), self.config.burn_in)
        elif self.backend == "importance" and self.ess() < self.config.ess_floor * self.samples.shape[0]:
            idx = _systematic_resample(self.weights(), self._rng)
            self.resample_count += 1
            # Taking idx makes a fresh array for the move to write; the
            # samples stay column-major.
            samples = np.take(self.samples.T, idx, axis=1).T
            self._move(samples, self.config.refresh_sweeps * self.prior.dim)

    def _move(self, samples: np.ndarray, n_steps: int) -> None:
        """Metropolis-move ``samples`` (a fresh array, written in place)
        toward the current posterior and make them the cloud's points, with
        the exact cumulative losses the move writes for them.  The moved
        points stand in for the posterior, so they become the proposal for
        all later reweighting."""
        # The old losses are let go before the kernel runs.
        self.cum_loss = cum_loss = np.empty(samples.shape[0])
        scales = self.config.proposal_scale * _robust_coordinate_scales(samples, floor=1e-3 * self.prior.tau)
        self._step_multiplier = _metropolis_coordinate_steps(
            samples,
            cum_loss,
            self.history.arrays(),
            self.eta,
            self.prior,
            self._rng,
            n_steps,
            scales,
            self._step_multiplier,
        )
        self.samples = samples
        if math.isfinite(self.eta):
            self._log_base = self.eta * cum_loss
        self._state_changed()

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> FrozenCloud:
        """The current posterior, frozen: the cloud's own ``samples``,
        ``cum_loss`` and log base, marked read-only and shared rather than
        copied (the cloud never writes them again), with its eta.  It
        allocates nothing, and a state whose weights are undefined raises
        the :class:`StateError` of :meth:`weights`."""
        self.weights()
        for array in (self.samples, self.cum_loss, self._log_base):
            array.flags.writeable = False
        frozen = FrozenCloud(self.samples, self._log_base, self.cum_loss, self.eta, self.backend)
        frozen._base_eta = self.eta
        return frozen


def init(prior: SparsityPrior, config: BackendConfig, rng: np.random.Generator | None = None) -> PosteriorCloud:
    """Fresh cloud representing the prior itself (no data, eta formally
    infinite)."""
    return PosteriorCloud(prior, config, rng)


def _unit_draw(dim: int, config: BackendConfig, rng: np.random.Generator | None) -> np.ndarray | None:
    """The one prior sample set, at scale 1, that the clouds of a forecaster
    restarting at several scales all scale from; None for the quadrature
    backend, which draws nothing.  The prior is an exact scale family in
    floating point: a draw at scale tau is a magnitude times tau, then a
    sign, both exact, so ``tau * unit`` equals, bit for bit, the draw at
    scale tau that ``rng`` would have made in its place."""
    if config.backend == "quadrature":
        return None
    return prior_mod.sample(SparsityPrior(1.0, dim), rng, size=config.n_samples)


def _scaled_init(
    prior: SparsityPrior, config: BackendConfig, rng: np.random.Generator | None, unit: np.ndarray | None
) -> PosteriorCloud:
    """Fresh cloud at ``prior``, as :func:`init` builds it, except that
    a stochastic cloud takes ``prior.tau * unit`` as its points and draws
    none (``unit`` from :func:`_unit_draw`; None draws as :func:`init`)."""
    if unit is None:
        return init(prior, config, rng)
    cloud = PosteriorCloud.__new__(PosteriorCloud)
    cloud._begin(prior, config, rng, unit)
    return cloud
