"""Tests for the posterior backends: exact grid oracle, importance
reweighting, Markov-chain walkers, and their agreement."""

import json
import math

import numpy as np
import pytest

from seqsew.errors import (
    ArgumentError,
    ContractViolationError,
    DimensionMismatchError,
    StateError,
    UnsupportedDimensionError,
)
from seqsew.posterior import (
    BackendConfig,
    FrozenCloud,
    clipped_margin_integrand,
    init,
    quadrature_expectation,
)
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

    def test_explicit_nodes_bypass_grid_size_check(self):
        BackendConfig(backend="quadrature", grid_points_per_dim=3, grid_nodes=([0.0],))


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

    def test_rejects_increasing_eta(self):
        cloud = init(_prior_1d(), BackendConfig(backend="quadrature", grid_points_per_dim=65))
        cloud.update(np.array([1.0]), 1.0, 1.0, 0.125)
        with pytest.raises(ContractViolationError):
            cloud.update(np.array([1.0]), 1.0, 1.0, 0.25)

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


class TestQuadratureExpectation:
    def test_normalization_integrand(self):
        prior = _prior_1d()
        cfg = BackendConfig(backend="quadrature", grid_points_per_dim=257)
        val = quadrature_expectation(prior, cfg, [], 0.0, lambda pts: np.ones(pts.shape[0]))
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_symmetric_prior_expectation_is_zero(self):
        prior = _prior_1d()
        cfg = BackendConfig(backend="quadrature", grid_points_per_dim=257)
        val = quadrature_expectation(prior, cfg, [], 0.0, clipped_margin_integrand(np.array([2.0]), 3.0))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_matches_hand_computed_five_point_rule(self):
        # Same five support points, computed by hand with explicit softmax.
        nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        prior = _prior_1d()
        cfg = BackendConfig(backend="quadrature", grid_points_per_dim=5, grid_nodes=(nodes,))
        rounds = [(np.array([1.0]), 1.5, 1.0)]
        eta = 0.125
        got = quadrature_expectation(prior, cfg, rounds, eta, clipped_margin_integrand(np.array([1.0]), 2.0))

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
        integrand = clipped_margin_integrand(np.array([0.7]), b)
        coarse = quadrature_expectation(prior, BackendConfig(backend="quadrature", grid_points_per_dim=2001), rounds, 0.125, integrand)
        fine = quadrature_expectation(prior, BackendConfig(backend="quadrature", grid_points_per_dim=4001), rounds, 0.125, integrand)
        assert abs(coarse - fine) < 1e-4

    def test_refuses_high_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            quadrature_expectation(
                SparsityPrior(tau=1.0, dim=3),
                BackendConfig(backend="quadrature"),
                [],
                0.0,
                lambda pts: np.ones(pts.shape[0]),
            )


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


class TestSnapshots:
    def test_json_round_trip_preserves_predictions(self):
        cloud = init(_prior_1d(), BackendConfig(backend="importance", n_samples=500), np.random.default_rng(0))
        cloud.update(np.array([1.0]), 1.0, 1.0, 0.125)
        snap = cloud.snapshot()
        restored = FrozenCloud.from_json(snap.to_json())
        phi = np.array([0.7])
        assert restored.predict_clipped_mean(phi, 1.5) == pytest.approx(
            snap.predict_clipped_mean(phi, 1.5), abs=1e-12
        )

    def test_rejects_foreign_payload(self):
        with pytest.raises(ArgumentError):
            FrozenCloud.from_json(json.dumps({"schema": "something.else"}))

    def test_snapshot_is_independent_of_later_updates(self):
        cloud = init(_prior_1d(), BackendConfig(backend="quadrature", grid_points_per_dim=65))
        snap = cloud.snapshot()
        phi = np.array([1.0])
        before = snap.predict_clipped_mean(phi, 2.0)
        cloud.update(phi, 1.0, 1.0, 0.125)
        assert snap.predict_clipped_mean(phi, 2.0) == before


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

    def test_quadrature_expectation_equals_quadrature_cloud(self):
        prior = _prior_1d(0.3)
        cfg = BackendConfig(backend="quadrature", grid_points_per_dim=257)
        rng = np.random.default_rng(9)
        rounds = [(np.array([rng.uniform(-2, 2)]), rng.uniform(-1, 1), 1.0) for _ in range(8)]
        cloud = init(prior, cfg)
        for phi, y, b in rounds:
            cloud.update(phi, y, b, 0.125)
        phi = np.array([0.4])
        got = quadrature_expectation(prior, cfg, rounds, 0.125, clipped_margin_integrand(phi, 1.5))
        assert got == pytest.approx(cloud.predict(phi, 1.5), abs=1e-15)
