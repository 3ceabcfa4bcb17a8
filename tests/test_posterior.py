"""Tests for the posterior backends: exact grid oracle, importance
reweighting, Markov-chain walkers, and their agreement."""

import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqsew import posterior
from seqsew import prior as prior_mod
from seqsew.errors import (
    ArgumentError,
    ContractViolationError,
    DataError,
    DimensionMismatchError,
    StateError,
    UnsupportedDimensionError,
)
from seqsew.forecasters import SeqSEWAdaptive, run_protocol
from seqsew.posterior import BackendConfig, FrozenCloud, init
from seqsew.prior import SparsityPrior


def _prior_1d(tau=1.0):
    return SparsityPrior(tau=tau, dim=1)


class TestBackendConfig:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ArgumentError):
            BackendConfig(backend="magic")

    def test_rejects_tiny_sample_counts(self):
        with pytest.raises(ArgumentError):
            BackendConfig(backend="importance", n_samples=10)

    def test_rejects_coarse_grids(self):
        with pytest.raises(ArgumentError):
            BackendConfig(backend="quadrature", grid_points_per_dim=10)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BackendConfig(ess_floor=1.0), "ess_floor must lie in (0, 1)"),
            (lambda: BackendConfig(proposal_scale=0.0), "proposal_scale must be positive"),
            (lambda: BackendConfig(backend="quadrature", grid_radius_multiplier=-1.0), "grid_radius_multiplier must be positive"),
            (
                lambda: init(SparsityPrior(tau=1.0, dim=2), BackendConfig(backend="quadrature", grid_nodes=([0.0],))),
                "grid_nodes must provide one node array per dimension",
            ),
        ],
        ids=["ess-floor", "proposal-scale", "grid-radius", "grid-nodes-count"],
    )
    def test_rejects_out_of_range_knobs(self, build, message):
        with pytest.raises(ArgumentError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize(
        "key, value",
        [("n_samples", 150.7), ("burn_in", 2.5), ("refresh_sweeps", 1.5), ("grid_points_per_dim", 100.5), ("n_samples", "200")],
    )
    def test_counts_must_be_integers(self, key, value):
        with pytest.raises(ArgumentError, match=re.escape(f"{key} must be an integer, got {value!r}")):
            BackendConfig(**{key: value})

    def test_integral_counts_are_kept_as_ints(self):
        config = BackendConfig(n_samples=200.0, burn_in=np.int64(3), refresh_sweeps=2.0, grid_points_per_dim=np.float64(129.0))
        counts = (config.n_samples, config.burn_in, config.refresh_sweeps, config.grid_points_per_dim)
        assert counts == (200, 3, 2, 129) and all(type(v) is int for v in counts)
        assert config == BackendConfig(n_samples=200, burn_in=3, refresh_sweeps=2, grid_points_per_dim=129)

    def test_explicit_nodes_bypass_grid_size_check(self):
        BackendConfig(backend="quadrature", grid_points_per_dim=3, grid_nodes=([0.0],))

    @pytest.mark.parametrize("nodes", [[0.0, math.nan], [-1.0, math.inf], [0.0, 1.0, -0.0]], ids=["nan", "inf", "signed-zero-twice"])
    def test_rejects_non_finite_or_repeated_nodes(self, nodes):
        with pytest.raises(ArgumentError, match="grid_nodes must be finite and distinct"):
            BackendConfig(backend="quadrature", grid_nodes=([0.5], np.asarray(nodes)))

    @pytest.mark.parametrize("grid_nodes", [((),), ([0.5], [])], ids=["only-axis", "second-axis"])
    def test_rejects_an_empty_node_list(self, grid_nodes):
        # Refused here, so no cloud is ever built without support points.
        with pytest.raises(ArgumentError, match="each grid_nodes list must be non-empty"):
            BackendConfig(backend="quadrature", grid_nodes=grid_nodes)


class _LargestUniform:
    """A generator stub whose uniform draw is the largest below 1."""

    def random(self):
        return 1.0 - 2.0**-53


@pytest.mark.parametrize("n", [1, 2, 3, 10, 4097])
def test_systematic_resample_indices_stay_below_n(n):
    # The largest offset puts the last position at 1.0 after rounding, the
    # pinned last cumulative weight, and not past it.
    piled = np.zeros(n)
    piled[-1] = 1.0
    for weights in (piled, np.full(n, 1.0 / n)):
        idx = posterior._systematic_resample(weights, _LargestUniform())
        assert idx.shape == (n,) and 0 <= idx.min() and idx.max() < n
    assert np.all(posterior._systematic_resample(piled, _LargestUniform()) == n - 1)


def test_resample_move_and_explicit_grid_do_not_load_numpy_ma():
    # np.median and np.unique import numpy.ma, which then stays loaded for
    # the life of the process.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from seqsew.posterior import BackendConfig, init\n"
        "from seqsew.prior import SparsityPrior\n"
        "prior = SparsityPrior(0.5, 2)\n"
        "cloud = init(prior, BackendConfig(backend='importance', n_samples=500), np.random.default_rng(1))\n"
        "phi = np.array([10.0, 10.0])\n"
        "cloud.predict(phi, 64.0)\n"
        "cloud.update(phi, 50.0, 64.0, 1e3)\n"
        "assert cloud.resample_count == 1\n"
        "grid = init(prior, BackendConfig(backend='quadrature', grid_nodes=([-1.0, 0.0, 2.0], [0.5, -0.5])))\n"
        "assert grid.samples.shape == (6, 2)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestInitialCloud:
    def test_importance_starts_uniform(self):
        cloud = init(_prior_1d(), BackendConfig(backend="importance", n_samples=500), np.random.default_rng(0))
        w = cloud.weights()
        assert np.allclose(w, 1.0 / 500, atol=1e-15)
        assert cloud.ess() == pytest.approx(500.0, rel=1e-12)

    def test_quadrature_prior_mean_is_zero(self):
        cloud = init(_prior_1d(), BackendConfig(backend="quadrature", grid_points_per_dim=1001))
        w = cloud.weights()
        assert abs(float(w @ cloud.samples[:, 0])) < 1e-12
        assert abs(float(np.sum(w)) - 1.0) < 1e-12

    def test_quadrature_prior_second_moment(self):
        # Needs a radius far beyond the default: the tail contributes
        # 3/(1+R) to the second moment, so R ~ 3e6 for 1e-3 accuracy.
        cfg = BackendConfig(backend="quadrature", grid_points_per_dim=4097, grid_radius_multiplier=3e4)
        cloud = init(_prior_1d(), cfg)
        w = cloud.weights()
        m2 = float(w @ cloud.samples[:, 0] ** 2)
        assert m2 == pytest.approx(1.0, abs=1e-3)

    def test_quadrature_refuses_high_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            init(SparsityPrior(tau=1.0, dim=3), BackendConfig(backend="quadrature"))

    def test_stochastic_backend_needs_rng(self):
        with pytest.raises(ArgumentError):
            init(_prior_1d(), BackendConfig(backend="importance", n_samples=500), None)

    @pytest.mark.parametrize(
        "config, d, tau, largest",
        [
            (BackendConfig(backend="importance", n_samples=10000), 2, 8e307, 8.6e302),
            (BackendConfig(backend="chain", n_samples=200), 1, 8.7e302, 8.6e302),
            (BackendConfig(backend="quadrature"), 1, 1e306, 3.3e305),
            (BackendConfig(backend="quadrature", grid_points_per_dim=65), 2, 3.5e305, 3.3e305),
        ],
        ids=["importance", "chain", "quadrature-1d", "quadrature-2d"],
    )
    def test_prior_scale_that_overflows_is_refused_before_any_draw(self, config, d, tau, largest):
        # Draws reach tau * 2^(53/3) and the grid's cells tau * 530: a
        # scale past either is an ArgumentError naming tau, not a NaN
        # prediction after overflow warnings.
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match=rf"^prior scale tau = {re.escape(repr(tau))} is too large"):
                SeqSEWAdaptive(d, tau, config, seed=rng)
            assert rng.bit_generator.state == state
            forecaster = SeqSEWAdaptive(d, largest, config, seed=rng)
            assert np.isfinite(forecaster.cloud.samples).all()
            assert math.isfinite(forecaster.predict(np.ones(d)))


class TestPredict:
    def test_zero_threshold_returns_zero(self):
        cloud = init(_prior_1d(), BackendConfig(backend="importance", n_samples=500), np.random.default_rng(0))
        assert cloud.predict(np.array([1.0]), 0.0) == 0.0

    def test_prior_symmetry(self):
        cloud = init(_prior_1d(), BackendConfig(backend="quadrature", grid_points_per_dim=1001))
        assert cloud.predict(np.array([1.0]), 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_clips(self):
        # A discrete prior supported on the single point u = 2.
        cfg = BackendConfig(backend="quadrature", grid_points_per_dim=3, grid_nodes=([2.0],))
        cloud = init(_prior_1d(), cfg)
        assert cloud.predict(np.array([3.0]), 4.0) == pytest.approx(4.0, abs=1e-15)

    def test_dimension_checked(self):
        cloud = init(_prior_1d(), BackendConfig(backend="quadrature", grid_points_per_dim=65))
        with pytest.raises(DimensionMismatchError):
            cloud.predict(np.array([1.0, 2.0]), 1.0)

    def test_predictions_stay_within_threshold(self):
        rng = np.random.default_rng(2)
        cloud = init(_prior_1d(0.5), BackendConfig(backend="importance", n_samples=2000), rng)
        for t in range(15):
            phi = np.array([rng.uniform(-2, 2)])
            b = 0.5 * (t % 4)
            yhat = cloud.predict(phi, b)
            assert abs(yhat) <= b + 1e-12
            cloud.update(phi, rng.uniform(-2, 2), b, min(0.125, cloud.eta))


class TestInputChecks:
    """The live and the frozen cloud check features and thresholds alike."""

    @staticmethod
    def _clouds():
        cloud = init(SparsityPrior(0.5, 2), BackendConfig(backend="importance", n_samples=500), np.random.default_rng(0))
        cloud.update(np.array([1.0, -0.5]), 0.7, 1.0, 0.125)
        return cloud, cloud.snapshot()

    def test_frozen_cloud_checks_features_like_the_live_one(self):
        cloud, snap = self._clouds()
        bad = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError) as live:
            cloud.predict(bad, 1.0)
        with pytest.raises(DimensionMismatchError) as frozen:
            snap.predict_clipped_mean(bad, 1.0)
        assert str(frozen.value) == str(live.value) == "features have shape (3,), expected (2,)"

    @pytest.mark.parametrize("backend", ["quadrature", "importance", "chain"])
    @pytest.mark.parametrize("bad", [[math.nan, 1.0], [math.inf, 1.0], [1e200, 1e200]], ids=["nan", "inf", "norm-overflows"])
    def test_features_must_be_finite_with_a_finite_squared_norm(self, backend, bad):
        # Every entry point refuses them, rather than predicting NaN, and
        # without a numpy warning.
        cfg = BackendConfig(backend=backend, n_samples=200, burn_in=2, grid_points_per_dim=65)
        cloud = init(SparsityPrior(0.5, 2), cfg, np.random.default_rng(0))
        cloud.update(np.array([1.0, -0.5]), 0.7, 1.0, 0.125)
        snap, samples, cum_loss = cloud.snapshot(), cloud.samples, cloud.cum_loss
        message = re.escape(f"features must be finite with a finite squared norm, got {bad}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: cloud.predict(np.array(bad), 1.0),
                lambda: cloud.update(np.array(bad), 0.5, 1.0, 0.125),
                lambda: snap.predict_clipped_mean(np.array(bad), 1.0),
            ):
                with pytest.raises(DataError, match=f"^{message}$"):
                    call()
        assert len(cloud.history) == 1 and cloud.samples is samples and cloud.cum_loss is cum_loss

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, math.inf])
    def test_threshold_must_be_finite_and_nonnegative(self, threshold):
        cloud, snap = self._clouds()
        phi = np.array([0.3, 0.2])
        with pytest.raises(ArgumentError, match="clip threshold"):
            cloud.predict(phi, threshold)
        with pytest.raises(ArgumentError, match="clip threshold"):
            cloud.update(phi, 0.5, threshold, 0.125)
        with pytest.raises(ArgumentError, match="clip threshold"):
            snap.predict_clipped_mean(phi, threshold)
        assert len(cloud.history) == 1  # the failed update recorded nothing

    def test_frozen_mean_stays_within_the_threshold(self):
        # Every margin clips at B, so the mean is B times a sum of weights
        # that rounds above 1 about one time in six; the live and the
        # frozen cloud clamp it into [-B, B] alike.
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            snap = FrozenCloud(np.full((n, 1), 3.0), rng.standard_normal(n), np.zeros(n), 0.0, "importance")
            assert snap.predict_clipped_mean(np.array([1.0]), 1.0) <= 1.0
            assert snap.predict_clipped_mean(np.array([-1.0]), 1.0) >= -1.0


class TestUpdate:
    def test_zero_threshold_round_leaves_weights_uniform(self):
        cloud = init(_prior_1d(), BackendConfig(backend="importance", n_samples=500), np.random.default_rng(0))
        cloud.update(np.array([1.0]), 3.0, 0.0, 0.125)
        assert np.allclose(cloud.weights(), 1.0 / 500, atol=1e-15)

    def test_eta_zero_keeps_prior(self):
        cloud = init(_prior_1d(), BackendConfig(backend="quadrature", grid_points_per_dim=1001))
        base = cloud.predict(np.array([1.0]), 5.0)
        cloud.update(np.array([1.0]), 2.0, 1.0, 0.0)
        assert cloud.predict(np.array([1.0]), 5.0) == pytest.approx(base, abs=1e-14)

    @staticmethod
    def _played(backend):
        cfg = BackendConfig(backend=backend, n_samples=200, burn_in=2, grid_points_per_dim=65)
        cloud = init(SparsityPrior(0.5, 2), cfg, np.random.default_rng(0))
        cloud.predict(np.array([1.0, -0.5]), 1.0)
        cloud.update(np.array([1.0, -0.5]), 0.7, 1.0, 0.125)
        return cloud

    @staticmethod
    def _state(cloud):
        return len(cloud.history), cloud.eta, cloud.resample_count, cloud.samples, cloud.cum_loss, cloud._log_base

    @classmethod
    def _unchanged(cls, cloud, before):
        after = cls._state(cloud)
        return after[:3] == before[:3] and all(a is b for a, b in zip(after[3:], before[3:]))

    @pytest.mark.parametrize("backend", ["quadrature", "importance", "chain"])
    @pytest.mark.parametrize("eta", [math.nan, -1.0, -math.inf])
    def test_rejects_a_nan_or_negative_eta_before_any_state_changes(self, backend, eta):
        cloud = self._played(backend)
        before, prediction = self._state(cloud), cloud.predict(np.array([0.3, 0.2]), 1.0)
        with pytest.raises(ArgumentError, match=re.escape(f"the inverse temperature must be >= 0, got {eta!r}")):
            cloud.update(np.array([0.3, 0.2]), 0.5, 1.0, eta)
        assert self._unchanged(cloud, before)
        assert cloud.predict(np.array([0.3, 0.2]), 1.0) == prediction

    @pytest.mark.parametrize("backend", ["quadrature", "importance", "chain"])
    def test_rejects_increasing_eta(self, backend):
        cloud = self._played(backend)
        with pytest.raises(ContractViolationError, match="must not increase"):
            cloud.update(np.array([0.3, 0.2]), 0.5, 1.0, 0.25)
        assert len(cloud.history) == 1

    @pytest.mark.parametrize("backend", ["quadrature", "importance", "chain"])
    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf, 1e300, -1.5e154])
    def test_rejects_an_outcome_whose_loss_bound_overflows(self, backend, y):
        # (|y| + B)^2 is not finite, so the round's losses could not be.
        cloud = self._played(backend)
        before, prediction = self._state(cloud), cloud.predict(np.array([0.3, 0.2]), 1e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(f"round 2: outcome must be finite with a finite loss bound (|y| + B)^2, got {y!r}")):
                cloud.update(np.array([0.3, 0.2]), y, 1e154, 0.125)
        assert self._unchanged(cloud, before)
        assert cloud.predict(np.array([0.3, 0.2]), 1e154) == prediction

    def test_single_update_matches_manual_reweighting(self):
        cloud = init(_prior_1d(), BackendConfig(backend="quadrature", grid_points_per_dim=1001))
        base_log = cloud._log_base.copy()
        pts = cloud.samples[:, 0]
        cloud.update(np.array([1.0]), 2.0, 1.0, 0.125)
        got = cloud.predict(np.array([1.0]), 2.0)
        logw = base_log - 0.125 * (2.0 - np.clip(pts, -1.0, 1.0)) ** 2
        w = np.exp(logw - logw.max())
        w /= w.sum()
        manual = float(w @ np.clip(pts, -2.0, 2.0))
        assert got == pytest.approx(manual, abs=1e-14)

    def test_importance_log_weights_are_affine_in_cached_losses(self):
        # Before any rejuvenation the proposal is the prior, so the log
        # weight of each particle is -eta * (its cached cumulative clipped
        # loss) up to one shared constant.
        rng = np.random.default_rng(6)
        cloud = init(_prior_1d(), BackendConfig(backend="importance", n_samples=500, ess_floor=0.01), rng)
        for _ in range(5):
            phi = np.array([rng.uniform(-1, 1)])
            cloud.update(phi, rng.uniform(-1, 1), 1.0, 1.0 / 16.0)
        assert cloud.resample_count == 0
        offsets = np.log(cloud.weights()) + cloud.eta * cloud.cum_loss
        assert np.ptp(offsets) < 1e-10

    def test_importance_posterior_mean_matches_grid_oracle(self):
        rng = np.random.default_rng(8)
        prior = _prior_1d(0.5)
        imp = init(prior, BackendConfig(backend="importance", n_samples=20_000), np.random.default_rng(1))
        quad = init(prior, BackendConfig(backend="quadrature", grid_points_per_dim=1001))
        phi = np.array([1.3])
        for cloud in (imp, quad):
            cloud.update(phi, 1.0, 2.0, 1.0 / 32.0)
        b = 2.0
        assert imp.predict(phi, b) == pytest.approx(quad.predict(phi, b), abs=0.05 * b)


class TestQuadratureOracle:
    """The grid cloud is the exact oracle: its prediction is the posterior
    expectation of the clipped margin."""

    @staticmethod
    def _expectation(prior, cfg, rounds, eta, features, threshold):
        cloud = init(prior, cfg)
        for phi, y, b in rounds:
            cloud.update(phi, y, b, eta)
        return cloud.predict(features, threshold)

    def test_symmetric_prior_expectation_is_zero(self):
        cfg = BackendConfig(backend="quadrature", grid_points_per_dim=257)
        val = self._expectation(_prior_1d(), cfg, [], 0.0, np.array([2.0]), 3.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_matches_hand_computed_five_point_rule(self):
        # Same five support points, computed by hand with explicit softmax.
        nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        cfg = BackendConfig(backend="quadrature", grid_points_per_dim=5, grid_nodes=(nodes,))
        rounds = [(np.array([1.0]), 1.5, 1.0)]
        eta = 0.125
        got = self._expectation(_prior_1d(), cfg, rounds, eta, np.array([1.0]), 2.0)

        log_prior = np.log(1.5 / (1.0 + np.abs(nodes)) ** 4)
        loss = (1.5 - np.clip(nodes, -1.0, 1.0)) ** 2
        logw = log_prior - eta * loss
        w = np.exp(logw - logw.max())
        w /= w.sum()
        hand = float(w @ np.clip(nodes, -2.0, 2.0))
        assert got == pytest.approx(hand, abs=1e-14)

    def test_grid_doubling_is_stable(self):
        rng = np.random.default_rng(3)
        prior = _prior_1d(0.2)
        rounds = []
        b = 1.0
        for _ in range(20):
            rounds.append((np.array([rng.uniform(-2, 2)]), rng.uniform(-1.5, 1.5), b))
        coarse, fine = (
            self._expectation(
                prior, BackendConfig(backend="quadrature", grid_points_per_dim=m), rounds, 0.125, np.array([0.7]), b
            )
            for m in (2001, 4001)
        )
        assert abs(coarse - fine) < 1e-4


class TestBackendEquivalence:
    @pytest.mark.parametrize("d", [1, 2])
    def test_stochastic_backends_track_grid_oracle(self, d):
        rng = np.random.default_rng(42)
        T = 20
        xs = rng.uniform(-2, 2, size=(T, d))
        u_true = np.array([1.5, -0.8][:d])
        ys = xs @ u_true + 0.3 * rng.standard_normal(T)

        def run(cloud):
            preds, b_sq, eta, max_y = [], 0.0, math.inf, 0.0
            for t in range(T):
                b = math.sqrt(b_sq)
                preds.append(cloud.predict(xs[t], b))
                max_y = max(max_y, ys[t] ** 2)
                b_sq = 2.0 ** math.ceil(math.log2(max_y)) if max_y > 0 else 0.0
                eta = 1.0 / (8.0 * b_sq) if b_sq > 0 else math.inf
                cloud.update(xs[t], ys[t], b, eta)
            return np.asarray(preds)

        prior = SparsityPrior(tau=0.3, dim=d)
        grid_pts = 1001 if d == 1 else 257
        ref = run(init(prior, BackendConfig(backend="quadrature", grid_points_per_dim=grid_pts)))
        imp = run(init(prior, BackendConfig(backend="importance", n_samples=10_000), np.random.default_rng(1)))
        cha = run(init(prior, BackendConfig(backend="chain", n_samples=10_000, burn_in=20), np.random.default_rng(2)))

        bs = np.zeros(T)
        running = 0.0
        for t in range(T):
            bs[t] = math.sqrt(2.0 ** math.ceil(math.log2(running))) if running > 0 else 0.0
            running = max(running, ys[t] ** 2)
        tol = 0.05 * np.maximum(bs, 1.0)
        assert np.all(np.abs(imp - ref) <= tol)
        assert np.all(np.abs(cha - ref) <= tol)

    def test_bit_identical_under_same_seed(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1, 1, size=(10, 2))
        ys = rng.uniform(-1, 1, size=10)

        def run(seed):
            cloud = init(SparsityPrior(1.0, 2), BackendConfig(backend="importance", n_samples=1000), np.random.default_rng(seed))
            out = []
            for t in range(10):
                out.append(cloud.predict(xs[t], 1.0))
                cloud.update(xs[t], ys[t], 1.0, 0.125)
            return out

        assert run(9) == run(9)


class TestClippingDominance:
    def test_clipping_never_hurts_covered_rounds(self):
        # For |y| <= B, (y - clip(v, B))^2 <= (y - v)^2 for every margin v.
        rng = np.random.default_rng(4)
        cloud = init(_prior_1d(), BackendConfig(backend="importance", n_samples=500), rng)
        phi = np.array([1.0])
        b = 2.0
        y = 1.3  # |y| <= b
        margins = cloud.samples @ phi
        clipped = np.clip(margins, -b, b)
        assert np.all((y - clipped) ** 2 <= (y - margins) ** 2 + 1e-12)


_DROP = object()  # a payload edit that removes the key


class TestSnapshots:
    @pytest.mark.parametrize("eta", [0.125, math.inf])  # the initial eta = inf loads too
    def test_json_round_trip_preserves_predictions(self, eta):
        cloud = init(_prior_1d(), BackendConfig(backend="importance", n_samples=500), np.random.default_rng(0))
        if eta < math.inf:
            cloud.update(np.array([1.0]), 1.0, 1.0, eta)
        snap = cloud.snapshot()
        restored = FrozenCloud.from_json(snap.to_json())
        assert restored.eta == eta
        phi = np.array([0.7])
        assert restored.predict_clipped_mean(phi, 1.5) == pytest.approx(
            snap.predict_clipped_mean(phi, 1.5), abs=1e-12
        )

    @staticmethod
    def _payload():
        cloud = init(_prior_1d(), BackendConfig(backend="quadrature", grid_points_per_dim=65))
        cloud.update(np.array([1.0]), 1.0, 1.0, 0.125)
        return json.loads(cloud.snapshot().to_json())

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("schema", "something.else", "not a serialized posterior snapshot"),
            ("samples", _DROP, "lacks key 'samples'"),
            ("log_weights", _DROP, "lacks key 'log_weights'"),
            ("cum_loss", _DROP, "lacks key 'cum_loss'"),
            ("eta", _DROP, "lacks key 'eta'"),
            ("backend", _DROP, "lacks key 'backend'"),
            ("log_weights", lambda v: v[:-1], "'log_weights' has 64 entries for 65 samples"),
            ("cum_loss", lambda v: v + ["0.0"], "'cum_loss' has 66 entries for 65 samples"),
            ("samples", lambda v: v[:1] + [row + ["0.0"] for row in v[1:]], "'samples' must be a non-empty"),
            ("samples", [], "'samples' must be a non-empty"),
            ("samples", "1.0", "'samples' must be a non-empty"),
            ("samples", lambda v: [["nan"]] + v[1:], "'samples' must hold lists of finite numbers"),
            ("samples", lambda v: [["x"]] + v[1:], "'samples' must hold lists of finite numbers"),
            ("log_weights", lambda v: ["-inf"] + v[1:], "'log_weights' must hold lists of finite numbers"),
            ("cum_loss", lambda v: v[:-1] + ["inf"], "'cum_loss' must hold lists of finite numbers"),
            ("eta", "nan", "'eta' must be a number"),
            ("eta", "abc", "'eta' must be a number, got 'abc'"),
            ("backend", 3, "'backend' must be a string"),
        ],
        ids=[
            "foreign-schema", "no-samples", "no-log-weights", "no-cum-loss", "no-eta", "no-backend",
            "short-log-weights", "long-cum-loss", "ragged-samples", "empty-samples", "samples-not-a-list",
            "nan-sample", "text-sample", "infinite-log-weight", "infinite-loss", "nan-eta", "text-eta",
            "backend-not-a-string",
        ],
    )
    def test_rejects_foreign_payload(self, key, value, match):
        payload = self._payload()
        if value is _DROP:
            del payload[key]
        else:
            payload[key] = value(payload[key]) if callable(value) else value
        with pytest.raises(ArgumentError, match=match):
            FrozenCloud.from_json(json.dumps(payload))

    BACKENDS = {
        "quadrature": BackendConfig(backend="quadrature", grid_points_per_dim=65),
        "importance": BackendConfig(backend="importance", n_samples=300, ess_floor=0.9),
        "chain": BackendConfig(backend="chain", n_samples=300, burn_in=5),
    }

    @pytest.mark.parametrize("backend", ["quadrature", "importance", "chain"])
    def test_snapshot_is_independent_of_later_updates(self, backend):
        cloud = init(SparsityPrior(0.2, 2), self.BACKENDS[backend], np.random.default_rng(3))
        xs, ys = TestMovePolicies._data(2)
        rounds = _adaptive_rounds(cloud, xs, ys)
        for _ in range(5):  # past the zero outcomes, so eta is finite
            next(rounds)
        snap = cloud.snapshot()
        # Shared, not copied, and read-only.
        assert snap.samples is cloud.samples and snap.cum_loss is cloud.cum_loss
        arrays = (snap.samples, snap.log_weights, snap.cum_loss)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        copies = [array.copy() for array in arrays]
        phi = np.array([1.0, -0.5])
        before = snap.predict_clipped_mean(phi, 2.0)
        resamples = cloud.resample_count

        for _ in rounds:
            pass
        if backend == "importance":
            assert cloud.resample_count > resamples  # the particles moved after the snapshot
        assert snap.cum_loss is not cloud.cum_loss
        assert (snap.samples is cloud.samples) == (backend == "quadrature")  # only grid nodes never move
        for array, copy in zip(arrays, copies):
            assert array.tobytes() == copy.tobytes()
        assert snap.predict_clipped_mean(phi, 2.0) == before

    @pytest.mark.parametrize("backend", ["quadrature", "importance", "chain"])
    def test_snapshot_weights_are_the_live_weights(self, backend):
        # A snapshot derives its weights from the cloud's state with the
        # live cloud's formula, so the two agree bit for bit: at eta = inf
        # (round 1), at the finite-eta rounds, and at the round just after
        # an importance resample-move.
        cloud = init(SparsityPrior(0.2, 2), self.BACKENDS[backend], np.random.default_rng(3))
        xs, ys = TestMovePolicies._data(2)
        checked = []

        def check(kind):
            snap = cloud.snapshot()
            assert snap.weights().tobytes() == cloud.weights().tobytes()
            assert snap.log_weights.tobytes() == posterior._log_weights(cloud._log_base, cloud.eta, cloud.cum_loss).tobytes()
            checked.append(kind)

        check("inf")
        resamples = 0
        for _ in _adaptive_rounds(cloud, xs, ys):
            moved, resamples = cloud.resample_count > resamples, cloud.resample_count
            check("moved" if moved else "inf" if cloud.eta == math.inf else "finite")
        assert {"inf", "finite"} <= set(checked)
        assert ("moved" in checked) == (backend == "importance")

    @pytest.mark.parametrize("backend", ["quadrature", "importance", "chain"])
    def test_payload_with_normalised_log_weights_still_loads(self, backend):
        # Files written before snapshots derived their weights store the
        # normalised log(max(w, 1e-300)).  Such log-weights are kept as
        # given, and give the same weights to rounding.
        cloud = init(SparsityPrior(0.2, 2), self.BACKENDS[backend], np.random.default_rng(3))
        xs, ys = TestMovePolicies._data(2)
        for _ in _adaptive_rounds(cloud, xs, ys):
            pass
        payload = json.loads(cloud.snapshot().to_json())
        stored = np.log(np.maximum(cloud.weights(), 1e-300))
        payload["log_weights"] = [repr(v) for v in stored.tolist()]
        restored = FrozenCloud.from_json(json.dumps(payload))
        assert restored.eta == cloud.eta < math.inf
        assert restored.log_weights.tobytes() == stored.tobytes()
        np.testing.assert_allclose(restored.weights(), cloud.weights(), rtol=1e-12, atol=0.0)
        again = FrozenCloud.from_json(restored.to_json())
        for name in ("samples", "log_weights", "cum_loss"):
            assert getattr(again, name).tobytes() == getattr(restored, name).tobytes()
        built = FrozenCloud(restored.samples, stored, restored.cum_loss, restored.eta, restored.backend)
        assert built.log_weights.tobytes() == stored.tobytes()
        assert built.weights().tobytes() == restored.weights().tobytes()


def _recomputed_cum_loss(cloud):
    phi, y, b = cloud.history.arrays()
    clipped = np.clip(cloud.samples @ phi.T, -b, b)
    return np.sum((y - clipped) ** 2, axis=1)


def _adaptive_rounds(cloud, xs, ys):
    """Play the adaptive schedule; yields after every update."""
    b_sq, max_y = 0.0, 0.0
    for x, y in zip(xs, ys):
        b = math.sqrt(b_sq)
        cloud.predict(x, b)
        max_y = max(max_y, y**2)
        b_sq = 2.0 ** math.ceil(math.log2(max_y)) if max_y > 0 else 0.0
        cloud.update(x, y, b, 1.0 / (8.0 * b_sq) if b_sq > 0 else math.inf)
        yield


class TestMovePolicies:
    """Importance and chain share one move; only when they move differs."""

    @staticmethod
    def _data(d, T=25):
        rng = np.random.default_rng(17)
        xs = 10.0 * rng.uniform(-1, 1, size=(T, d))  # large features collapse the ESS
        ys = 1.5 * xs[:, 0] / 10.0 + 0.3 * rng.standard_normal(T)
        ys[:3] = 0.0  # eta stays infinite until the first nonzero outcome
        return xs, ys

    @pytest.mark.parametrize("backend", ["importance", "chain"])
    def test_cached_losses_match_history(self, backend):
        cfg = BackendConfig(backend=backend, n_samples=300, ess_floor=0.9, burn_in=5)
        cloud = init(SparsityPrior(0.2, 2), cfg, np.random.default_rng(3))
        xs, ys = self._data(2)
        for _ in _adaptive_rounds(cloud, xs, ys):
            np.testing.assert_allclose(cloud.cum_loss, _recomputed_cum_loss(cloud), rtol=1e-10, atol=0.0)
        if backend == "importance":
            assert cloud.resample_count >= 1  # the run must move its particles

    def test_chain_weights_stay_exactly_uniform(self):
        n = 300
        cfg = BackendConfig(backend="chain", n_samples=n, burn_in=5)
        cloud = init(SparsityPrior(0.2, 2), cfg, np.random.default_rng(4))
        xs, ys = self._data(2)
        etas = []
        for _ in _adaptive_rounds(cloud, xs, ys):
            etas.append(cloud.eta)
            assert np.all(cloud.weights() == 1.0 / n)
            assert cloud.resample_count == 0
        assert etas[:3] == [math.inf] * 3 and math.isfinite(etas[-1])

    def test_moves_never_write_a_previous_sample_set(self):
        cfg = BackendConfig(backend="chain", n_samples=200, burn_in=3)
        cloud = init(SparsityPrior(0.2, 1), cfg, np.random.default_rng(5))
        xs, ys = self._data(1, T=6)
        kept = []
        for _ in _adaptive_rounds(cloud, xs, ys):
            kept.append((cloud.samples, cloud.samples.copy()))
        assert len({id(s) for s, _ in kept}) == len(kept)
        for samples, copy in kept:
            assert np.array_equal(samples, copy)


class TestHistory:
    """The per-round history the moves read, kept in one array that
    doubles when full."""

    def test_views_keep_their_rounds_and_equal_the_stacked_rows(self):
        rng = np.random.default_rng(41)
        rounds = [(rng.standard_normal(2), rng.standard_normal(), rng.uniform()) for _ in range(40)]
        history = posterior._History(2)
        handed_out = []
        for features, y, b in rounds:
            history.append(features, y, b)
            views = history.arrays()
            handed_out.append((views, [view.copy() for view in views]))
        # Arrays handed out earlier keep their rounds after later appends,
        # and after the arrays grew (at 16 and 32 rounds): the first view
        # no longer shares the arrays' memory.
        assert not np.shares_memory(handed_out[0][0][0], history.arrays()[0])
        for views, copies in handed_out:
            assert all(np.array_equal(view, copy) for view, copy in zip(views, copies))
            assert not any(view.flags.writeable for view in views)
        phi, y, b = history.arrays()
        assert len(history) == 40
        assert np.array_equal(phi, np.vstack([features for features, _, _ in rounds]))
        assert np.array_equal(y, [y for _, y, _ in rounds])
        assert np.array_equal(b, [b for _, _, b in rounds])

    def test_arrays_are_views_not_copies(self):
        history = posterior._History(3)
        for t in range(5):
            history.append(np.full(3, float(t)), float(t), 1.0)
        first, second = history.arrays(), history.arrays()
        assert all(np.shares_memory(a, b) for a, b in zip(first, second))
        # A move reads each coordinate's features as one contiguous row.
        assert all(column.flags.c_contiguous for column in first[0].T)


class TestMetropolisKernel:
    """The shared-coordinate, cache-blocked Metropolis step."""

    N, T, D = 250, 7, 3

    def _run(self, n_steps, seed=11, shift_rows=slice(0)):
        rng = np.random.default_rng(seed)
        phi = 5.0 * rng.uniform(-1, 1, size=(self.T, self.D))
        y = rng.standard_normal(self.T)
        b = np.full(self.T, 1.5)
        prior = SparsityPrior(0.5, self.D)
        samples = 0.5 * rng.standard_normal((self.N, self.D))
        samples[shift_rows] += 0.25
        cum_loss = np.sum((y - np.clip(samples @ phi.T, -b, b)) ** 2, axis=1)
        before = samples.copy()
        multiplier = posterior._metropolis_coordinate_steps(
            samples, cum_loss, (phi, y, b), 0.1, prior, np.random.default_rng(seed + 1),
            n_steps, np.full(self.D, 0.5), 1.0,
        )
        return before, samples, cum_loss, multiplier

    def test_a_block_moves_on_its_own_rows_seed_and_coordinates(self, monkeypatch):
        # 250 rows in blocks of 16 (the last one of 10), two workers.
        rows = 16
        monkeypatch.setattr(posterior, "_usable_cores", lambda: 2)
        monkeypatch.setattr(posterior, "_BLOCK_BYTES", 4 * self.T * rows)
        before, samples, cum_loss, _ = self._run(n_steps=20)
        # Shift the points of block 3, so its moves change; every other
        # block, in either worker's run, must move exactly as before.
        other = slice(3 * rows, 4 * rows)
        shifted_before, shifted, shifted_loss, _ = self._run(n_steps=20, shift_rows=other)
        kept = np.ones(self.N, dtype=bool)
        kept[other] = False
        assert not np.array_equal(samples, before)
        assert not np.array_equal(shifted_before[other], before[other])
        assert not np.array_equal(shifted[other], samples[other])
        assert np.array_equal(shifted[kept], samples[kept])
        assert np.array_equal(shifted_loss[kept], cum_loss[kept])

    def test_one_step_moves_one_shared_coordinate(self):
        for seed in range(5):
            before, samples, _, _ = self._run(n_steps=1, seed=seed)
            changed = np.any(samples != before, axis=0)
            assert np.count_nonzero(changed) == 1

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("rows", [16, 60])
    def test_result_does_not_depend_on_worker_count(self, monkeypatch, cores, rows):
        # 250 rows: 16 blocks of 16 (the last one short) or 5 of 50, so
        # some worker's run of blocks is shorter than another's.
        assert self.N % rows != 0
        submitted = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append(args[0])
                return super().submit(fn, *args, **kwargs)

        # The kernel imports the pool when a move has a second worker.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(posterior, "_BLOCK_BYTES", 4 * self.T * rows)
        monkeypatch.setattr(posterior, "_usable_cores", lambda: 1)
        _, serial_samples, serial_loss, serial_multiplier = self._run(n_steps=20)
        assert submitted == []
        monkeypatch.setattr(posterior, "_usable_cores", lambda: cores)
        # Switch threads as often as the interpreter allows, so a worker
        # that wrote outside its own rows would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before, samples, cum_loss, multiplier = self._run(n_steps=20)
        finally:
            sys.setswitchinterval(interval)
        # The calling thread takes the first run of blocks; each other
        # worker gets one run per call, not one per step.
        assert sorted(submitted) == list(range(1, cores))
        assert not np.array_equal(samples, before)
        assert np.array_equal(samples, serial_samples)
        assert np.array_equal(cum_loss, serial_loss)
        assert multiplier == serial_multiplier

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_split_block_products_do_not_depend_on_worker_count(self, monkeypatch, cores):
        # Each block of 16 rows builds its residuals in pieces of 3 rows,
        # the last one short.
        monkeypatch.setattr(posterior, "_KERNEL_PIECE_MULADDS", 3 * self.D * self.T)
        self.test_result_does_not_depend_on_worker_count(monkeypatch, cores, rows=16)

    @pytest.mark.parametrize("k", [-80, -40, 40, 80])
    def test_move_is_bit_equivariant_under_power_of_two_rescaling(self, k):
        # Scaling u, y, B, tau and the proposal scales by s = 2^k and eta
        # by 1 / s^2 scales the residuals by s and the losses by s^2, and
        # each is exact in floating point, so the move must scale with them.
        def move(s):
            rng = np.random.default_rng(51)
            t, d, n = 40, 2, 2000
            phi = rng.uniform(-2.0, 2.0, size=(t, d))
            y = s * (phi @ np.array([1.5, -0.8]) + 0.3 * rng.standard_normal(t))
            b = np.full(t, 3.0 * s)
            samples = s * rng.standard_normal((n, d))
            cum_loss = np.sum((y - np.clip(samples @ phi.T, -b, b)) ** 2, axis=1)
            multiplier = posterior._metropolis_coordinate_steps(
                samples, cum_loss, (phi, y, b), 0.5 / (s * s), SparsityPrior(s, d), np.random.default_rng(52),
                20, np.full(d, 0.3 * s), 1.0,
            )
            return samples, cum_loss, multiplier

        samples, cum_loss, multiplier = move(1.0)
        s = math.ldexp(1.0, k)
        scaled_samples, scaled_loss, scaled_multiplier = move(s)
        assert np.array_equal(scaled_samples / s, samples)
        assert np.array_equal(scaled_loss / (s * s), cum_loss)
        assert scaled_multiplier == multiplier

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_blocks_that_dwarf_the_clip_band_do_not_depend_on_worker_count(self, monkeypatch, cores):
        # Round 2's features scaled by 1e40 put every block but block 3,
        # whose points are 1e-19 times smaller, beyond float32's reach:
        # those run in float64.  The outputs cannot tell the two paths
        # apart, so the block's own choice is read: a tighter float32
        # limit (_KERNEL_DELTA_EXPONENT 94) moves block 3 to float64 too.
        single = self._check_huge_features(monkeypatch, cores, shrink=1e-19)
        assert single == [block == 3 for block in range(16)]

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_points_at_zero_against_huge_features_do_not_depend_on_worker_count(self, monkeypatch, cores):
        # With block 3's points at 0 its residuals fit float32, but its
        # proposals times the 1e40 features do not, so it runs in float64
        # like every other block.  In float32 its deltas would overflow.
        assert self._check_huge_features(monkeypatch, cores, shrink=0.0) == [False] * 16

    def test_subnormal_band_against_tiny_features_keeps_its_deltas_finite(self):
        # A subnormal outcome and clip band against features of 1e-107: the
        # block runs in float64, in the band's unit 2^-1032, where the
        # proposals alone, not yet times the columns, would overflow.
        rng = np.random.default_rng(81)
        phi = 5e-108 * rng.uniform(-1, 1, size=(self.T, self.D))
        y = np.full(self.T, 2.225073858507e-311)
        b = np.abs(y)
        samples = 0.1 * rng.standard_normal((self.N, self.D))
        before = samples.copy()
        cum_loss = np.sum((y - np.clip(samples @ phi.T, -b, b)) ** 2, axis=1)
        posterior._metropolis_coordinate_steps(
            samples, cum_loss, (phi, y, b), 1.0, SparsityPrior(0.1, self.D), np.random.default_rng(82),
            20, np.full(self.D, 0.1), 1.0,
        )
        assert np.all(np.isfinite(samples)) and not np.array_equal(samples, before)
        assert np.array_equal(cum_loss, np.sum((y - np.clip(samples @ phi.T, -b, b)) ** 2, axis=1))

    def _huge_features_move(self, shrink):
        """A move against round 2's features scaled by 1e40, with block 3's
        points (in blocks of 16) scaled by ``shrink``: its samples, cached
        losses, multiplier and history."""
        rng = np.random.default_rng(61)
        phi = 5.0 * rng.uniform(-1, 1, size=(self.T, self.D))
        phi[1] *= 1e40
        y = rng.standard_normal(self.T)
        b = np.full(self.T, 1.5)
        samples = 0.5 * rng.standard_normal((self.N, self.D))
        samples[48:64] *= shrink
        cum_loss = np.sum((y - np.clip(samples @ phi.T, -b, b)) ** 2, axis=1)
        multiplier = posterior._metropolis_coordinate_steps(
            samples, cum_loss, (phi, y, b), 0.1, SparsityPrior(0.5, self.D), np.random.default_rng(62),
            20, np.full(self.D, 0.5), 1.0,
        )
        return samples, cum_loss, multiplier, phi, y, b

    def _check_huge_features(self, monkeypatch, cores, shrink):
        """Check that the move does not depend on the worker count, and
        return whether each block ran in float32, in block order."""
        block_unit, single = posterior._block_unit, []

        def spy(*args):
            unit = block_unit(*args)
            single.append(unit[1])
            return unit

        monkeypatch.setattr(posterior, "_BLOCK_BYTES", 4 * self.T * 16)
        monkeypatch.setattr(posterior, "_usable_cores", lambda: 1)
        # One worker runs the blocks in order.
        monkeypatch.setattr(posterior, "_block_unit", spy)
        serial = self._huge_features_move(shrink)
        monkeypatch.setattr(posterior, "_block_unit", block_unit)
        monkeypatch.setattr(posterior, "_usable_cores", lambda: cores)
        samples, cum_loss, multiplier, phi, y, b = self._huge_features_move(shrink)
        assert np.array_equal(samples, serial[0])
        assert np.array_equal(cum_loss, serial[1])
        assert multiplier == serial[2]
        np.testing.assert_allclose(cum_loss, np.sum((y - np.clip(samples @ phi.T, -b, b)) ** 2, axis=1), rtol=1e-12)
        return single

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("width", [T, 3 * T, posterior._KERNEL_CLIP_WIDTH], ids=["tile-1", "tile-3", "default"])
    def test_result_does_not_depend_on_the_clip_width(self, monkeypatch, cores, width):
        # Blocks of 16 rows, the last one of 10.  Tile 1 clips row by row,
        # as a narrow sweep would; tile 3 pads each block's buffers to 18
        # rows and clips the last block in 12, 2 of them pad; the default
        # clips each block as one wide row, mostly pad.
        monkeypatch.setattr(posterior, "_BLOCK_BYTES", 4 * self.T * 16)
        monkeypatch.setattr(posterior, "_KERNEL_CLIP_WIDTH", self.T)
        monkeypatch.setattr(posterior, "_usable_cores", lambda: 1)
        _, narrow_samples, narrow_loss, narrow_multiplier = self._run(n_steps=20)
        monkeypatch.setattr(posterior, "_KERNEL_CLIP_WIDTH", width)
        monkeypatch.setattr(posterior, "_usable_cores", lambda: cores)
        before, samples, cum_loss, multiplier = self._run(n_steps=20)
        assert not np.array_equal(samples, before)
        assert np.array_equal(samples, narrow_samples)
        assert np.array_equal(cum_loss, narrow_loss)
        assert multiplier == narrow_multiplier

    def test_float64_blocks_do_not_depend_on_the_clip_width(self, monkeypatch):
        # Every block but block 3 runs in float64 (see
        # test_blocks_that_dwarf_the_clip_band_do_not_depend_on_worker_count),
        # here in buffers padded to whole wide rows of tile 3.
        monkeypatch.setattr(posterior, "_BLOCK_BYTES", 4 * self.T * 16)
        monkeypatch.setattr(posterior, "_KERNEL_CLIP_WIDTH", self.T)
        monkeypatch.setattr(posterior, "_usable_cores", lambda: 1)
        narrow = self._huge_features_move(shrink=1e-19)
        monkeypatch.setattr(posterior, "_KERNEL_CLIP_WIDTH", 3 * self.T)
        monkeypatch.setattr(posterior, "_usable_cores", lambda: 2)
        samples, cum_loss, multiplier, *_ = self._huge_features_move(shrink=1e-19)
        assert np.array_equal(samples, narrow[0])
        assert np.array_equal(cum_loss, narrow[1])
        assert multiplier == narrow[2]

    def test_one_block_starts_no_thread(self, monkeypatch):
        def pool(*args, **kwargs):
            raise AssertionError("built a thread pool for a single block")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(posterior, "_usable_cores", lambda: 4)
        monkeypatch.setattr(posterior, "_BLOCK_BYTES", 4 * self.T * self.N)
        self._run(n_steps=5)

    @pytest.mark.parametrize("eta", [0.1, math.inf])
    def test_cached_losses_equal_recomputed_clipped_losses(self, eta):
        rng = np.random.default_rng(21)
        phi = 5.0 * rng.uniform(-1, 1, size=(self.T, self.D))
        y = 2.0 * rng.standard_normal(self.T)
        b = np.full(self.T, 1.5)
        b[3] = 0.0
        prior = SparsityPrior(0.5, self.D)

        def losses(samples, y):
            return np.sum((y - np.clip(samples @ phi.T, -b, b)) ** 2, axis=1)

        def run(y):
            samples = np.random.default_rng(23).standard_normal((self.N, self.D))
            cum_loss = losses(samples, y)
            posterior._metropolis_coordinate_steps(
                samples, cum_loss, (phi, y, b), eta, prior, np.random.default_rng(22), 30, np.full(self.D, 0.5), 1.0
            )
            return samples, cum_loss

        samples, cum_loss = run(y)
        margins = samples @ phi.T
        # Some rounds clip on both sides.
        assert np.any(np.any(margins > b, axis=0) & np.any(margins < -b, axis=0))
        np.testing.assert_allclose(cum_loss, losses(samples, y), rtol=1e-12, atol=0.0)
        # At eta = inf only the prior ratio decides, so the moves do not
        # depend on the outcomes.
        other_samples, _ = run(-y)
        assert np.array_equal(other_samples, samples) == (eta == math.inf)

    # At criterion 4's scale (4000, 450, 30) the full (n, t) residual
    # matrix, 14.4 MB, is over four times the bound.
    @pytest.mark.parametrize("n, t, d", [(2000, 200, 3), (4000, 450, 30)])
    def test_peak_memory_is_three_block_buffers_per_worker(self, monkeypatch, n, t, d):
        # No term grows with n * t: each worker holds its block's float32
        # residuals, candidates and clipped candidates, 12 bytes per (row,
        # round) cell against the 24 of float64 buffers, and the block's
        # float64 residuals borrow the two candidate buffers.
        monkeypatch.setattr(posterior, "_usable_cores", lambda: 2)
        rng = np.random.default_rng(31)
        phi = rng.uniform(-1, 1, size=(t, d))
        y = rng.standard_normal(t)
        b = np.full(t, 1.0)
        samples = rng.standard_normal((n, d))
        cum_loss = np.sum((y - np.clip(samples @ phi.T, -b, b)) ** 2, axis=1)
        n_blocks = -(-n // posterior._block_rows(t, 4))
        rows = -(-n // n_blocks)
        assert n_blocks >= 2  # both workers get blocks

        def move():
            posterior._metropolis_coordinate_steps(
                samples, cum_loss, (phi, y, b), 0.1, SparsityPrior(0.5, d), np.random.default_rng(32),
                5, np.full(d, 0.5), 1.0,
            )

        move()  # the first np.median imports numpy.ma, which is no part of a move
        tracemalloc.start()
        try:
            move()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_buffers = 2 * 3 * 4 * rows * t
        # The contiguous copy of phi and its float32 copy, the clip bounds,
        # each worker's float32 clip bounds, row vectors and prior terms of
        # its block's points, and small change.
        slack = 12 * d * t + 2 * 8 * t + 2 * 2 * 4 * t + 2 * (5 * 8 + 8 * d + 3 * 4 + 2) * rows + 256 * 1024
        assert peak < block_buffers + slack

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("piece_rows", [1, 3, None])
    def test_block_residuals_come_in_pieces_that_blas_runs_on_one_thread(self, monkeypatch, piece_rows, dtype):
        rows, t, d = 143, 450, 30
        if piece_rows is not None:
            monkeypatch.setattr(posterior, "_KERNEL_PIECE_MULADDS", piece_rows * d * t)
        rng = np.random.default_rng(33)
        points = rng.standard_normal((rows, d))
        columns = rng.uniform(-1, 1, size=(d, t))
        y = rng.standard_normal(t)
        pieces = []
        matmul = np.matmul

        def recording_matmul(a, b, out):
            pieces.append(a.shape[0] * a.shape[1] * b.shape[1])
            return matmul(a, b, out=out)

        monkeypatch.setattr(posterior.np, "matmul", recording_matmul)
        out = np.full((rows, t), np.nan, dtype=dtype)
        held = posterior._block_residuals(points, columns, y, out)
        assert held is out
        assert sum(pieces) == rows * d * t
        assert len(pieces) > 1 and max(pieces) <= posterior._KERNEL_PIECE_MULADDS
        # The one-piece product, to rounding: an error of the output's
        # precision per term of each sum, and in float32 two more roundings,
        # of the product and of the residual.
        one_piece = y - matmul(points, columns)
        scale = np.abs(y) + np.abs(points) @ np.abs(columns)
        eps = np.finfo(dtype).eps
        bound = 4 * d * eps * scale if dtype == np.float64 else 2 * eps * scale
        assert np.all(np.abs(held - one_piece) <= bound)

    def test_default_blocks_at_criterion_4_shape_do_not_depend_on_worker_count(self, monkeypatch):
        # n 4000, d 30 at round 450 under the block rule as it stands: the
        # blocks are sized by their float32 cells, and the partition must
        # not depend on the worker count.
        n, t, d = 4000, 450, 30
        assert -(-n // posterior._block_rows(t, 4)) >= 2
        rng = np.random.default_rng(71)
        phi = rng.uniform(-1.0, 1.0, size=(t, d))
        u_true = np.zeros(d)
        u_true[[2, 11, 25]] = [1.5, -2.0, 1.0]
        y = phi @ u_true + 0.5 * rng.standard_normal(t)
        b = np.full(t, float(np.max(np.abs(y))))
        start = 0.3 * rng.standard_normal((n, d))

        def run(cores):
            monkeypatch.setattr(posterior, "_usable_cores", lambda: cores)
            samples = np.asfortranarray(start)
            cum_loss = np.sum((y - np.clip(samples @ phi.T, -b, b)) ** 2, axis=1)
            multiplier = posterior._metropolis_coordinate_steps(
                samples, cum_loss, (phi, y, b), 0.05, SparsityPrior(3.0, d), np.random.default_rng(72),
                6, np.full(d, 0.1), 1.0,
            )
            return samples, cum_loss, multiplier

        serial, split = run(1), run(2)
        assert not np.array_equal(serial[0], start)
        assert np.array_equal(split[0], serial[0])
        assert np.array_equal(split[1], serial[1])
        assert split[2] == serial[2]

    def test_importance_run_does_not_depend_on_worker_count(self, monkeypatch):
        rng = np.random.default_rng(424242)
        T, d = 40, 30
        xs = rng.uniform(-1.0, 1.0, size=(T, d))
        u_true = np.zeros(d)
        u_true[[2, 11, 25]] = [1.5, -2.0, 1.0]
        seq = list(zip(xs, xs @ u_true + 0.5 * rng.standard_normal(T)))
        cfg = BackendConfig(backend="importance", n_samples=600, ess_floor=0.5, refresh_sweeps=1)
        # Blocks of 2000 / t rows, so any move after round 3 is split.
        monkeypatch.setattr(posterior, "_BLOCK_BYTES", 4 * T * 50)

        def run(cores):
            monkeypatch.setattr(posterior, "_usable_cores", lambda: cores)
            f = SeqSEWAdaptive(d, 3.0, cfg, seed=1000)
            return run_protocol(f, seq), f.cloud

        (serial, serial_cloud), (split, split_cloud) = run(1), run(2)
        assert split_cloud.resample_count == serial_cloud.resample_count >= 1
        assert np.array_equal(split.predictions, serial.predictions)
        assert np.array_equal(split_cloud.samples, serial_cloud.samples)
        assert np.array_equal(split_cloud.cum_loss, serial_cloud.cum_loss)

    def test_chain_run_does_not_depend_on_worker_count(self, monkeypatch):
        # A short d = 2 sequence shaped like criterion 3's.
        rng = np.random.default_rng(44)
        T, d = 20, 2
        xs = rng.uniform(-2.0, 2.0, size=(T, d))
        seq = list(zip(xs, xs @ np.array([1.5, -0.8]) + 0.3 * rng.standard_normal(T)))
        cfg = BackendConfig(backend="chain", n_samples=600, burn_in=5)
        # Blocks of at most 1000 / t rows, so every move after round 1 is
        # split.
        monkeypatch.setattr(posterior, "_BLOCK_BYTES", 4 * 1000)

        def run(cores):
            monkeypatch.setattr(posterior, "_usable_cores", lambda: cores)
            f = SeqSEWAdaptive(d, 1.0, cfg, seed=2)
            return run_protocol(f, seq), f.cloud

        (serial, serial_cloud), (split, split_cloud) = run(1), run(2)
        assert np.array_equal(split.predictions, serial.predictions)
        assert np.array_equal(split_cloud.samples, serial_cloud.samples)
        assert np.array_equal(split_cloud.cum_loss, serial_cloud.cum_loss)


_PROPERTY_BACKENDS = {
    "importance": BackendConfig(backend="importance", n_samples=200),
    "chain": BackendConfig(backend="chain", n_samples=200, burn_in=3),
    "quadrature": BackendConfig(backend="quadrature", grid_points_per_dim=65),
}


@st.composite
def _short_sequences(draw):
    d = draw(st.integers(1, 2))
    T = draw(st.integers(1, 12))
    coord = st.floats(-10.0, 10.0, allow_nan=False)
    xs = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=T, max_size=T))
    ys = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=T, max_size=T))
    return np.array(xs), ys


class TestOracleTrackingProperty:
    """Criterion 3's check on short drawn sequences: at d <= 2, with the
    criterion's n = 10^4 and tolerance, importance and chain predictions
    stay within 0.05 max(B, 1) of the grid oracle on >= 95% of rounds."""

    @settings(max_examples=15, deadline=None)
    @given(data=_short_sequences(), seed=st.integers(0, 2**32 - 1))
    def test_stochastic_backends_track_grid_oracle(self, data, seed):
        xs, ys = data
        d = xs.shape[1]
        seq = list(zip(xs, ys))
        grid_pts = 1001 if d == 1 else 257
        ref = run_protocol(SeqSEWAdaptive(d, 0.1, BackendConfig(backend="quadrature", grid_points_per_dim=grid_pts)), seq)
        imp = run_protocol(SeqSEWAdaptive(d, 0.1, BackendConfig(backend="importance", n_samples=10_000), seed=seed), seq)
        cha = run_protocol(
            SeqSEWAdaptive(d, 0.1, BackendConfig(backend="chain", n_samples=10_000, burn_in=20), seed=seed + 1), seq
        )
        tol = 0.05 * np.maximum(np.asarray([r.B for r in ref.records]), 1.0)
        for approx in (imp, cha):
            within = np.abs(approx.predictions - ref.predictions) <= tol
            assert float(np.mean(within)) >= 0.95


class TestOracleTrackingAtLargeTau:
    """Criterion 3's check at tau in {1, 3}, where the oracle's predictions
    move well away from zero: at tau = 0.1 the constant 0 predictor is
    within tolerance on every round, so only these scales see a kernel
    that targets the wrong posterior or never moves.  The importance run
    keeps ESS above 0.9 n, so its Metropolis move runs too."""

    @pytest.mark.parametrize("tau", [1.0, 3.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_stochastic_backends_track_grid_oracle(self, d, tau):
        # Criterion 3's sequence for this d.
        rng = np.random.default_rng(42 + d)
        xs = rng.uniform(-2.0, 2.0, size=(50, d))
        ys = xs @ np.array([1.5, -0.8][:d]) + 0.3 * rng.standard_normal(50)
        seq = list(zip(xs, ys))
        grid_pts = 1001 if d == 1 else 257
        ref = run_protocol(SeqSEWAdaptive(d, tau, BackendConfig(backend="quadrature", grid_points_per_dim=grid_pts)), seq)
        imp = SeqSEWAdaptive(d, tau, BackendConfig(backend="importance", n_samples=10_000, ess_floor=0.9), seed=1)
        cha = SeqSEWAdaptive(d, tau, BackendConfig(backend="chain", n_samples=10_000, burn_in=20), seed=2)
        tol = 0.05 * np.maximum(np.asarray([r.B for r in ref.records]), 1.0)
        for approx in (run_protocol(imp, seq), run_protocol(cha, seq)):
            within = np.abs(approx.predictions - ref.predictions) <= tol
            assert float(np.mean(within)) >= 0.95
        assert imp.cloud.resample_count >= 1


def _kernel_quantile_error(d, seed, scale=1.0):
    """Largest gap, in units of the grid posterior's sd, between the 10/50/90%
    quantiles of each coordinate after one ``100 d``-step move from a 10^4
    point prior draw and those of the quadrature posterior of the same
    history (T = 30, tau = 1, eta = 0.5, B = 3, criterion 3's design, with
    round 6's features multiplied by ``scale``)."""
    T, tau, eta, b = 30, 1.0, 0.5, 3.0
    rng = np.random.default_rng(42 + d)
    xs = rng.uniform(-2.0, 2.0, size=(T, d))
    ys = xs @ np.array([1.5, -0.8][:d]) + 0.3 * rng.standard_normal(T)
    xs[5] *= scale
    prior = SparsityPrior(tau, d)
    grid = init(prior, BackendConfig(backend="quadrature", grid_points_per_dim=1001 if d == 1 else 257))
    for x, y in zip(xs, ys):
        grid.update(x, y, b, eta)
    history = grid.history.arrays()
    phi, y, b_rounds = history
    rng = np.random.default_rng(seed)
    samples = prior_mod.sample(prior, rng, 10_000)
    cum_loss = np.sum((y - np.clip(samples @ phi.T, -b_rounds, b_rounds)) ** 2, axis=1)
    scales = 2.0 * posterior._robust_coordinate_scales(samples, floor=1e-3 * tau)
    posterior._metropolis_coordinate_steps(samples, cum_loss, history, eta, prior, rng, 100 * d, scales, 1.0)
    levels = np.array([0.1, 0.5, 0.9])
    weights = grid.weights()
    worst = 0.0
    for j in range(d):
        # The grid's marginal in u_j, its cdf read at the cell midpoints.
        nodes, inverse = np.unique(grid.samples[:, j], return_inverse=True)
        mass = np.bincount(inverse, weights=weights)
        grid_quantiles = np.interp(levels, np.cumsum(mass) - mass / 2.0, nodes)
        mean = float(mass @ nodes)
        sd = math.sqrt(float(mass @ (nodes - mean) ** 2))
        gap = np.abs(np.quantile(samples[:, j], levels) - grid_quantiles) / sd
        worst = max(worst, float(np.max(gap)))
    return worst


class TestKernelTarget:
    """The Metropolis move on its own, against the grid oracle.  Through a
    forecaster, reweighting after a resample corrects a move that targets
    the wrong posterior, so the importance backend stays near the oracle
    even under a broken kernel.  Here one move starts from prior draws, so
    only its target and its mixing decide where the points end up.  Over
    seeds 0-7 the errors read 0.009-0.040 at d = 1 and 0.16-0.23 at d = 2,
    in single and in double precision alike.  A move that never accepts
    reads about 11, and one that targets exp(-2 eta L) 0.40-0.43 at d = 1
    and 0.50-0.53 at d = 2."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d, tol", [(1, 0.1), (2, 0.35)])
    def test_one_move_from_the_prior_lands_on_the_grid_posterior(self, d, tol, seed):
        assert _kernel_quantile_error(d, seed) <= tol

    @pytest.mark.parametrize("scale", [1e40, 1e100])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d, tol", [(1, 0.1), (2, 0.35)])
    def test_a_round_whose_residuals_dwarf_the_clip_band(self, d, tol, seed, scale):
        # Round 6's residuals are then about 2^130 or 2^330 times the clip
        # band.  The band's squares must still register, or the move never
        # leaves its prior draw.
        assert _kernel_quantile_error(d, seed, scale) <= tol


def _criterion_4_predictions(n_samples, refresh_sweeps, seed):
    """Per-round predictions of criterion 4's importance run (T = 500,
    d = 30, tau = 3) with the given sample count, sweeps and seed."""
    T, d = 500, 30
    rng = np.random.default_rng(424242)
    xs = rng.uniform(-1.0, 1.0, size=(T, d))
    u_true = np.zeros(d)
    u_true[[2, 11, 25]] = [1.5, -2.0, 1.0]
    ys = xs @ u_true + 0.5 * rng.standard_normal(T)
    cfg = BackendConfig(backend="importance", n_samples=n_samples, ess_floor=0.5, refresh_sweeps=refresh_sweeps)
    return run_protocol(SeqSEWAdaptive(d, 3.0, cfg, seed=seed), list(zip(xs, ys))).predictions


class TestMixingAtD30:
    """At d = 30 there is no oracle, so criterion 4's runs are checked
    against a larger-budget reference: one run with 4x the samples and 2x
    the refresh sweeps, stored in ``tests/data``.  It catches a kernel that
    mixes too little per sweep, not one with a wrong target, since the
    reference came from the same kind of kernel.  Per-seed medians of
    |prediction - reference| read 0.039-0.045 with criterion 4's 3 sweeps
    and 0.081-0.096 with 1 sweep (seeds 1000-1003)."""

    def test_criterion_4_runs_stay_near_the_reference(self):
        with open(Path(__file__).parent / "data" / "criterion4_reference.json") as fh:
            reference = np.array([float(v) for v in json.load(fh)["predictions"]])
        for seed in (1000, 1001):
            gap = np.abs(_criterion_4_predictions(4000, 3, seed) - reference)
            assert float(np.median(gap)) <= 0.06


class TestBackendProperties:
    """Invariants every backend keeps on every round of any short sequence."""

    @settings(max_examples=25, deadline=None)
    @given(
        backend=st.sampled_from(sorted(_PROPERTY_BACKENDS)),
        data=_short_sequences(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prediction_weights_and_snapshot_round_trip(self, backend, data, seed):
        xs, ys = data
        f = SeqSEWAdaptive(xs.shape[1], 0.5, _PROPERTY_BACKENDS[backend], seed=seed)
        for x, y in zip(xs, ys):
            b = f.state.B
            assert abs(f.predict(x)) <= b
            f.observe(y)
            weights = f.cloud.weights()
            assert np.isfinite(weights).all()
            assert abs(weights.sum() - 1.0) <= 1e-12
            snap = f.cloud.snapshot()
            restored = FrozenCloud.from_json(snap.to_json())
            for name in ("samples", "log_weights", "cum_loss"):
                assert np.array_equal(getattr(restored, name), getattr(snap, name))
            assert restored.eta == snap.eta and restored.backend == snap.backend


class TestNumericalEdgeCases:
    @pytest.mark.parametrize("backend", ["importance", "chain", "quadrature"])
    def test_tiny_tau_keeps_predictions_finite_and_clipped(self, backend):
        cfg = BackendConfig(backend=backend, n_samples=300, burn_in=3, grid_points_per_dim=129)
        f = SeqSEWAdaptive(2, 1e-8, cfg, seed=0)
        rng = np.random.default_rng(2)
        for _ in range(15):
            b = f.state.B
            yhat = f.predict(rng.uniform(-1, 1, 2))
            assert math.isfinite(yhat) and abs(yhat) <= b
            f.observe(float(rng.standard_normal()))

    def test_fully_collapsed_ess_resamples_to_a_finite_cloud(self):
        cloud = init(SparsityPrior(0.5, 2), BackendConfig(backend="importance", n_samples=500), np.random.default_rng(1))
        phi = np.array([10.0, 10.0])
        cloud.predict(phi, 64.0)
        cloud.update(phi, 50.0, 64.0, 1e3)  # one particle holds all the weight
        assert cloud.resample_count == 1
        ess = cloud.ess()
        assert math.isfinite(ess) and ess > 0.0
        assert np.isfinite(cloud.cum_loss).all()
        assert math.isfinite(cloud.predict(phi, 64.0))
        cloud.update(phi, 50.0, 64.0, 1e3)
        assert math.isfinite(cloud.predict(np.array([1.0, -2.0]), 64.0))

    @pytest.mark.parametrize("backend", ["importance", "quadrature"])
    def test_overflowing_log_weights_are_a_state_error_naming_the_round(self, backend):
        # eta * cum_loss overflows to inf at every point, so every log
        # weight is -inf and normalising them would give NaN weights.
        cfg = BackendConfig(backend=backend, n_samples=300, grid_points_per_dim=129)
        cloud = init(_prior_1d(0.5), cfg, np.random.default_rng(4))
        phi = np.array([1.0])
        with np.errstate(over="ignore"), pytest.raises(StateError, match="posterior after round 1: the largest log weight is -inf"):
            cloud.predict(phi, 4.0)
            cloud.update(phi, 100.0, 4.0, 1e308)
            cloud.predict(phi, 4.0)
        # A snapshot of that state fails the same way, rather than freezing
        # weights that are undefined.
        with np.errstate(over="ignore"), pytest.raises(StateError, match="posterior after round 1: the largest log weight is -inf"):
            cloud.snapshot()


_CACHE_BACKENDS = {
    "importance": BackendConfig(backend="importance", n_samples=300, ess_floor=0.9),
    "chain": BackendConfig(backend="chain", n_samples=300, burn_in=5),
    "quadrature": BackendConfig(backend="quadrature", grid_points_per_dim=129),
}


def _cache_cloud(backend, d=2, seed=3):
    rng = None if backend == "quadrature" else np.random.default_rng(seed)
    return init(SparsityPrior(0.2, d), _CACHE_BACKENDS[backend], rng)


class TestOnePassPerRound:
    """The weights are normalised once per state and handed out read-only,
    and an update reuses the clipped margins of the round it predicted."""

    @pytest.mark.parametrize("backend", sorted(_CACHE_BACKENDS))
    def test_weights_are_read_only(self, backend):
        cloud = _cache_cloud(backend)
        phi = np.array([0.5, -1.0])
        for _ in range(2):
            cloud.predict(phi, 1.0)
            with pytest.raises(ValueError):
                cloud.weights()[0] = 1.0
            cloud.update(phi, 0.7, 1.0, 0.125)

    @pytest.mark.parametrize("backend", sorted(_CACHE_BACKENDS))
    def test_cached_weights_and_ess_match_a_fresh_normalisation(self, backend):
        cloud = _cache_cloud(backend)

        def assert_fresh():
            fresh = posterior._normalized_log_weights(posterior._log_weights(cloud._log_base, cloud.eta, cloud.cum_loss))
            assert np.array_equal(cloud.weights(), fresh)
            assert cloud.ess() == posterior._ess_from_weights(fresh)

        moves = []
        move = cloud._move

        def checked_move(*args):
            move(*args)
            moves.append(cloud.resample_count)
            assert_fresh()

        cloud._move = checked_move
        xs, ys = TestMovePolicies._data(2)
        for _ in _adaptive_rounds(cloud, xs, ys):
            assert_fresh()
        if backend == "importance":
            assert cloud.resample_count >= 1 and len(moves) == cloud.resample_count
        elif backend == "chain":
            assert len(moves) == len(xs)
        else:
            assert not moves

    @pytest.mark.parametrize("backend", sorted(_CACHE_BACKENDS))
    @pytest.mark.parametrize("change", ["features", "threshold", "buffer"])
    def test_update_off_the_predicted_round_recomputes(self, backend, change):
        rng = np.random.default_rng(8)
        predicted, reference = _cache_cloud(backend), _cache_cloud(backend)
        for _ in range(4):
            phi, other, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2), rng.uniform(-1, 1)
            b, b_used = 1.0, 1.0
            if change == "features":
                predicted.predict(phi, b)
            elif change == "threshold":
                predicted.predict(other, b)
                b_used = 0.5
            else:
                buffer = phi.copy()
                predicted.predict(buffer, b)
                buffer[:] = other  # the caller rewrites its buffer before the update
            predicted.update(other, y, b_used, 0.125)
            reference.update(other, y, b_used, 0.125)
            assert np.array_equal(predicted.cum_loss, reference.cum_loss)
            assert np.array_equal(predicted.samples, reference.samples)

    @pytest.mark.parametrize("backend", ["chain", "importance"])
    def test_cloud_fed_through_one_buffer_equals_fresh_arrays(self, backend):
        xs, ys = TestMovePolicies._data(2)
        fresh, reused = _cache_cloud(backend), _cache_cloud(backend)

        def one_buffer():
            buffer = np.empty(2)
            for x in xs:
                buffer[:] = x
                yield buffer

        for cloud, feed in ((fresh, (x.copy() for x in xs)), (reused, one_buffer())):
            for _ in _adaptive_rounds(cloud, feed, ys):
                pass
        assert np.array_equal(reused.history.arrays()[0], xs)
        assert np.array_equal(reused.samples, fresh.samples)
        assert np.array_equal(reused.cum_loss, fresh.cum_loss)
        if backend == "importance":
            assert reused.resample_count >= 1

    def test_importance_run_without_moves_normalises_once_per_round(self, monkeypatch):
        calls = []
        normalise = posterior._normalized_log_weights

        def counted(log_unnorm):
            calls.append(1)
            return normalise(log_unnorm)

        monkeypatch.setattr(posterior, "_normalized_log_weights", counted)
        T = 30
        rng = np.random.default_rng(4)
        f = SeqSEWAdaptive(2, 0.5, BackendConfig(backend="importance", n_samples=500, ess_floor=0.01), seed=1)
        for _ in range(T):
            f.predict(rng.uniform(-0.1, 0.1, 2))
            f.state_row()
            f.observe(rng.uniform(-0.1, 0.1))
        assert f.cloud.resample_count == 0
        assert 0 < len(calls) <= T + 1


class TestColumnMajorRound:
    """Every sample set is column-major, and a round allocates only the
    two n-vectors it keeps: the new cumulative losses and the weights."""

    N, D = 10_000, 20

    @classmethod
    def _round(cls, cloud, rng):
        phi = rng.uniform(-0.1, 0.1, cls.D)
        cloud.predict(phi, 1.0)
        cloud.update(phi, 0.05, 1.0, 0.01)

    @pytest.mark.parametrize("with_snapshot, bound", [(False, 2.5), (True, 2.5)])
    def test_round_allocates_only_what_it_keeps(self, with_snapshot, bound):
        cfg = BackendConfig(backend="importance", n_samples=self.N)
        cloud = init(SparsityPrior(1.0, self.D), cfg, np.random.default_rng(41))
        rng = np.random.default_rng(42)
        self._round(cloud, rng)  # eta turns finite; the weights are cached from here on
        tracemalloc.start()
        try:
            self._round(cloud, rng)
            if with_snapshot:
                cloud.snapshot()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cloud.resample_count == 0
        assert peak <= bound * 8 * self.N

    def test_chain_move_starts_holding_no_old_losses(self, monkeypatch):
        # The move writes every point's exact cumulative loss, so neither
        # the old losses nor the predicted margins outlive the update into
        # it: this round's losses are never summed.
        cfg = BackendConfig(backend="chain", n_samples=self.N, burn_in=1)
        cloud = init(SparsityPrior(1.0, self.D), cfg, np.random.default_rng(41))
        rng = np.random.default_rng(42)
        self._round(cloud, rng)
        phi = rng.uniform(-0.1, 0.1, self.D)
        cloud.predict(phi, 1.0)
        old = (weakref.ref(cloud.cum_loss), weakref.ref(cloud._predicted[2]))
        alive = []
        kernel = posterior._metropolis_coordinate_steps
        monkeypatch.setattr(
            posterior, "_metropolis_coordinate_steps",
            lambda *args: alive.append([ref() is not None for ref in old]) or kernel(*args),
        )
        cloud.update(phi, 0.05, 1.0, 0.01)
        assert alive == [[False, False]]

    @staticmethod
    def _assert_column_major(samples):
        assert samples.flags.f_contiguous and not samples.flags.c_contiguous

    @pytest.mark.parametrize("backend", ["importance", "chain", "quadrature"])
    def test_init_is_column_major(self, backend):
        cfg = BackendConfig(backend=backend, n_samples=300, grid_points_per_dim=65)
        self._assert_column_major(init(SparsityPrior(0.5, 2), cfg, np.random.default_rng(1)).samples)

    def test_resample_move_keeps_the_layout(self):
        cloud = init(SparsityPrior(0.5, 2), BackendConfig(backend="importance", n_samples=500), np.random.default_rng(1))
        phi = np.array([10.0, 10.0])
        cloud.predict(phi, 64.0)
        cloud.update(phi, 50.0, 64.0, 1e3)
        assert cloud.resample_count == 1
        self._assert_column_major(cloud.samples)

    def test_chain_round_and_snapshot_keep_the_layout(self):
        cloud = init(SparsityPrior(0.5, 3), BackendConfig(backend="chain", n_samples=300, burn_in=3), np.random.default_rng(2))
        before = cloud.samples
        phi = np.array([1.0, -0.5, 2.0])
        cloud.predict(phi, 2.0)
        cloud.update(phi, 1.0, 2.0, 0.125)
        assert cloud.samples is not before
        self._assert_column_major(cloud.samples)
        self._assert_column_major(cloud.snapshot().samples)

    def test_row_major_cloud_predicts_through_the_same_path(self):
        cfg = BackendConfig(backend="importance", n_samples=500, ess_floor=0.9)
        cloud = init(SparsityPrior(0.2, 3), cfg, np.random.default_rng(5))
        xs, ys = TestMovePolicies._data(3, T=8)
        for _ in _adaptive_rounds(cloud, xs, ys):
            pass
        snap = cloud.snapshot()
        restored = FrozenCloud.from_json(snap.to_json())
        assert restored.samples.flags.c_contiguous and not restored.samples.flags.f_contiguous
        for phi in np.random.default_rng(6).uniform(-3, 3, size=(4, 3)):
            live = snap.predict_clipped_mean(phi, 2.0)
            assert restored.predict_clipped_mean(phi, 2.0) == pytest.approx(live, rel=1e-12, abs=0.0)


class TestEffectiveSampleSize:
    def test_one_hot_weights_are_one_sample(self):
        weights = np.zeros(1000)
        weights[17] = 1.0
        assert posterior._ess_from_weights(weights) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 256, 4096])
    def test_uniform_weights_are_every_sample(self, n):
        assert posterior._ess_from_weights(np.full(n, 1.0 / n)) == n

    def test_random_weights_match_the_sum_of_squares(self):
        raw = np.random.default_rng(7).exponential(size=5000)
        weights = raw / raw.sum()
        expected = 1.0 / math.fsum(w * w for w in weights.tolist())
        assert posterior._ess_from_weights(weights) == pytest.approx(expected, rel=1e-12, abs=0.0)
