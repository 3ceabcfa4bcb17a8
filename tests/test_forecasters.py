"""Tests for the online forecasters: dyadic threshold schedule, regime
restarts, causality, and agreement with a hand-coded recursion."""

import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from seqsew import forecasters, prior as prior_mod
from seqsew.batch import fit_random_design
from seqsew.errors import ArgumentError, DataError, DimensionMismatchError, StateError
from seqsew.forecasters import (
    RidgeBaseline,
    dyadic_ceil_pow2,
    regime_prior_scale,
    ridge_baseline,
    run_protocol,
    seqsew_adaptive,
    seqsew_auto,
    seqsew_fixed,
)
from seqsew.posterior import BackendConfig
from seqsew.prior import SparsityPrior, sample

QUAD = BackendConfig(backend="quadrature", grid_points_per_dim=513)


def _simple_sequence(T=20, d=1, seed=0, coef=1.5, noise=0.2, scale=2.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-scale, scale, size=(T, d))
    u = np.zeros(d)
    u[0] = coef
    ys = xs @ u + noise * rng.standard_normal(T)
    return list(zip(xs, ys))


class TestDyadicEnvelope:
    def test_values(self):
        assert dyadic_ceil_pow2(5.0) == 8.0
        assert dyadic_ceil_pow2(0.3) == 0.5
        assert dyadic_ceil_pow2(0.0) == 0.0

    @pytest.mark.parametrize("k", range(-10, 11))
    def test_exact_powers_map_to_themselves(self, k):
        z = 2.0**k
        assert dyadic_ceil_pow2(z) == z
        assert dyadic_ceil_pow2(z * (1 + 1e-12)) == 2.0 * z

    def test_envelope_bracket(self):
        rng = np.random.default_rng(1)
        for z in rng.uniform(1e-6, 1e6, size=200):
            b = dyadic_ceil_pow2(z)
            assert z <= b < 2.0 * z

    def test_rejects_bad_input(self):
        with pytest.raises(ArgumentError):
            dyadic_ceil_pow2(-1.0)
        with pytest.raises(ArgumentError):
            dyadic_ceil_pow2(math.inf)


class TestAdaptiveSchedule:
    def test_first_observation_sets_dyadic_threshold(self):
        f = seqsew_adaptive(1, 1.0, QUAD)
        f.predict(np.array([1.0]))
        f.observe(math.sqrt(5.0))  # y^2 = 5
        assert f.state.B_sq == 8.0
        assert f.state.eta == 1.0 / 64.0

    def test_all_zero_observations_keep_zero_threshold(self):
        seq = [(np.array([0.7]), 0.0) for _ in range(10)]
        res = run_protocol(seqsew_adaptive(1, 1.0, QUAD), seq)
        assert {r.B for r in res.records} == {0.0}
        assert res.cumulative_loss == 0.0
        assert all(r.yhat == 0.0 for r in res.records)

    def test_two_increases_for_flat_then_spike(self):
        seq = [(np.array([1.0]), 1.0) for _ in range(8)] + [(np.array([1.0]), 10.0)]
        f = seqsew_adaptive(1, 1.0, QUAD)
        b_after = []
        for x, y in seq:
            f.predict(x)
            f.observe(y)
            b_after.append(f.state.B_sq)
        increases = [b_after[0]] + [b for prev, b in zip(b_after, b_after[1:]) if b > prev]
        assert len(increases) == 2
        assert sum(increases) <= 2.0 * b_after[-1]

    def test_threshold_monotone_eta_antitone_and_dyadic(self):
        res = run_protocol(seqsew_adaptive(1, 0.3, QUAD), _simple_sequence(T=40, seed=3))
        bs = [r.B for r in res.records]
        etas = [r.eta for r in res.records]
        assert all(b1 <= b2 for b1, b2 in zip(bs, bs[1:]))
        assert all(e1 >= e2 for e1, e2 in zip(etas, etas[1:]))
        for b in bs:
            if b > 0:
                # The record stores B = sqrt(B^2); squaring back can be one
                # ulp off the exact power of two held in the state.
                mantissa, _ = math.frexp(b * b)
                assert mantissa == pytest.approx(0.5, abs=1e-12) or mantissa == pytest.approx(1.0, abs=1e-12)
        nonzero = [b * b for b in bs if b > 0]
        if nonzero:
            max_y_sq = max(r.y**2 for r in res.records)
            first = nonzero[0]
            assert len(set(nonzero)) <= 2 + math.log2(max(max_y_sq / first, 1.0))

    def test_rejects_bad_tau(self):
        # The prior refuses it, naming the range it accepts.
        for tau in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ArgumentError, match=re.escape("tau must lie in [2^-1022, 2^1023)")):
                seqsew_adaptive(1, tau, QUAD)


class TestFixedForecaster:
    def test_first_round_is_prior_mean(self):
        f = seqsew_fixed(1, B=2.0, eta=1.0 / 32.0, tau=1.0, backend=QUAD)
        assert f.predict(np.array([1.0])) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_nonpositive_parameters(self):
        tau_range = re.escape("tau must lie in [2^-1022, 2^1023)")
        for bad, message in (({"B": 0.0}, "B and eta"), ({"eta": 0.0}, "B and eta"), ({"tau": -1.0}, tau_range)):
            kwargs = {"B": 1.0, "eta": 0.1, "tau": 1.0, **bad}
            with pytest.raises(ArgumentError, match=message):
                seqsew_fixed(1, backend=QUAD, **kwargs)

    def test_matches_hand_run_recursion_on_three_point_grid(self):
        # Literal weight recursion on the discrete prior {-1, 0, 1}.
        nodes = np.array([-1.0, 0.0, 1.0])
        cfg = BackendConfig(backend="quadrature", grid_points_per_dim=3, grid_nodes=(nodes,))
        B, eta, tau = 2.0, 1.0 / 32.0, 1.0
        f = seqsew_fixed(1, B, eta, tau, cfg)

        rng = np.random.default_rng(5)
        weights = (1.5 / (1.0 + np.abs(nodes)) ** 4)
        weights = weights / weights.sum()
        cum = np.zeros(3)
        for t in range(20):
            phi = rng.uniform(-2.0, 2.0)
            y = 0.8 * phi + 0.1 * rng.standard_normal()
            clipped = np.clip(nodes * phi, -B, B)
            hand = float(np.dot(weights, clipped))
            got = f.predict(np.array([phi]))
            assert got == pytest.approx(hand, abs=1e-12)
            f.observe(y)
            cum += (y - clipped) ** 2
            logw = np.log(1.5 / (1.0 + np.abs(nodes)) ** 4) - eta * cum
            weights = np.exp(logw - logw.max())
            weights = weights / weights.sum()


class TestAutoForecaster:
    def test_initial_regime_scale(self):
        assert regime_prior_scale(0) == pytest.approx(0.581977, abs=1e-6)
        assert regime_prior_scale(1) == pytest.approx(1.0 / (math.e**2 - 1.0), rel=1e-12)

    def test_zero_features_never_leave_regime_zero(self):
        seq = [(np.array([0.0]), 1.0) for _ in range(15)]
        f = seqsew_auto(1, QUAD, seed=0)
        res = run_protocol(f, seq)
        assert all(r.regime == 0 for r in res.records)
        assert res.regime_bounds == ([1], [])
        assert np.all(res.gammas == 0.0)

    def test_feature_burst_closes_regime_zero(self):
        # gamma stays below 1 for small features, then a burst pushes it over.
        small = [(np.array([0.2]), 0.1) for _ in range(5)]  # gram 0.04/round
        burst = [(np.array([4.0]), 0.5)]  # gram jumps by 16 -> gamma > 1
        tail = [(np.array([0.2]), 0.1) for _ in range(4)]
        f = seqsew_auto(1, QUAD, seed=1)
        res = run_protocol(f, small + burst + tail)
        starts, ends = res.regime_bounds
        assert ends[0] == 6  # the burst round itself finishes regime 0
        assert starts[:2] == [1, 7]
        assert res.gammas[5] > 1.0 and res.gammas[4] <= 1.0
        assert res.records[6].regime == 1

    def test_regime_boundaries_satisfy_schedule(self):
        seq = _simple_sequence(T=100, seed=3, coef=1.2, scale=2.0)
        res = run_protocol(seqsew_auto(1, QUAD, seed=5), seq)
        starts, ends = res.regime_bounds
        assert len(ends) >= 1
        for r, t_r in enumerate(ends):
            assert res.gammas[t_r - 1] > 2.0**r
            # The round before the boundary is only constrained when it
            # belongs to the same regime (single-round regimes occur when
            # gamma jumps past several thresholds at once).
            if t_r - 1 >= starts[r]:
                assert res.gammas[t_r - 2] <= 2.0**r

    def test_giant_burst_cascades_single_round_regimes(self):
        # One burst can push gamma past several thresholds; each intermediate
        # regime then closes at its own first round.
        seq = [(np.array([0.1]), 0.5), (np.array([60.0]), 0.5)] + [(np.array([0.1]), 0.5)] * 4
        res = run_protocol(seqsew_auto(1, QUAD, seed=0), seq)
        starts, ends = res.regime_bounds
        assert ends == [2, 3, 4]  # gamma ~ 4.1 exceeds 2^0, 2^1, 2^2 at once
        assert starts == [1, 3, 4, 5]
        assert [r.regime for r in res.records] == [0, 0, 1, 2, 3, 3]

    def test_restart_at_the_last_round_is_a_boundary(self):
        # The regime column cannot step after the last round, but the
        # restart it triggers still ends the regime there.
        small = [(np.array([0.2]), 0.1) for _ in range(5)]
        res = run_protocol(seqsew_auto(1, QUAD, seed=1), small + [(np.array([4.0]), 0.5)])
        assert res.regime_bounds == ([1, 7], [6])
        assert [r.regime for r in res.records] == [0] * 6

    @pytest.mark.parametrize("backend", ["importance", "chain"])
    def test_regimes_draw_in_turn_from_one_generator(self, backend):
        # A Generator seed is taken like any other; an int seed is the
        # generator it builds.  The run's one unit-scale prior draw comes
        # from it, and every regime's moves draw on from it in turn.
        seq = [(np.array([0.2]), 0.1)] * 5 + [(np.array([4.0]), 0.5)] + [(np.array([0.3]), 0.2)] * 4
        config = BackendConfig(backend=backend, n_samples=200)
        seeds = (np.random.default_rng(1), np.random.default_rng(1), 1)
        runs = [run_protocol(seqsew_auto(1, config, seed=seed), seq) for seed in seeds]
        assert runs[0].regime_bounds == ([1, 7], [6])
        for run in runs[1:]:
            assert np.array_equal(run.predictions, runs[0].predictions)
            assert np.array_equal(run.ess, runs[0].ess)

    # Three restarts, each intermediate regime closed at its own first round.
    CASCADE = [(np.array([0.1]), 0.5), (np.array([60.0]), 0.5)] + [(np.array([0.1]), 0.5)] * 4

    @pytest.mark.parametrize("backend", ["importance", "chain"])
    def test_one_prior_draw_per_run(self, backend, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sample(*args, **kwargs)

        monkeypatch.setattr(prior_mod, "sample", counted)
        res = run_protocol(seqsew_auto(1, BackendConfig(backend=backend, n_samples=200), seed=4), self.CASCADE)
        assert res.regime_bounds[1] == [2, 3, 4]
        assert len(calls) == 1 and calls[0][0] == SparsityPrior(1.0, 1)

    @pytest.mark.parametrize("backend", ["importance", "chain"])
    def test_every_regime_starts_from_its_scale_times_the_unit_set(self, backend):
        n, seed = 300, 6
        f = seqsew_auto(1, BackendConfig(backend=backend, n_samples=n), seed=seed)
        # Regime 0 starts from the very points it drew before the unit set.
        today = sample(SparsityPrior(regime_prior_scale(0), 1), np.random.default_rng(seed), n)
        assert np.array_equal(f.cloud.samples, today)
        starts = {0: f.cloud.samples.copy()}
        for x, y in self.CASCADE:
            f.predict(x)
            f.observe(y)
            starts.setdefault(f.regime.r, f.cloud.samples.copy())
        assert sorted(starts) == [0, 1, 2, 3]
        for r, points in starts.items():
            assert np.array_equal(points, regime_prior_scale(r) * f._unit)
            assert points.flags.f_contiguous

    def test_quadrature_run_leaves_the_generator_alone(self):
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        res = run_protocol(seqsew_auto(1, QUAD, seed=rng), self.CASCADE)
        assert res.regime_bounds[1] == [2, 3, 4]
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("backend", ["importance", "chain"])
    def test_last_regime_cloud_goes_before_the_next_is_built(self, backend, monkeypatch):
        f = seqsew_auto(1, BackendConfig(backend=backend, n_samples=200), seed=9)
        built = forecasters._scaled_init
        last = [weakref.ref(f.cloud)]
        alive_at_build = []

        def watched(*args):
            alive_at_build.append(last[-1]() is not None)
            cloud = built(*args)
            last.append(weakref.ref(cloud))
            return cloud

        monkeypatch.setattr(forecasters, "_scaled_init", watched)
        run_protocol(f, self.CASCADE)
        assert alive_at_build == [False, False, False]
        assert [ref() is None for ref in last] == [True, True, True, False]

    def test_restarted_instance_sees_only_its_regime(self):
        # Immediately after a restart the inner threshold is back to zero.
        small = [(np.array([0.2]), 3.0) for _ in range(3)]
        burst = [(np.array([4.0]), 3.0)]
        f = seqsew_auto(1, QUAD, seed=2)
        for x, y in small + burst:
            f.predict(x)
            f.observe(y)
        assert f.regime.r == 1
        assert f.state.B == 0.0  # restarted scheme, no data yet


class TestRidgeBaseline:
    def test_predicts_zero_before_data(self):
        f = ridge_baseline(3, 1.0)
        assert f.predict(np.array([1.0, 2.0, 3.0])) == 0.0

    def test_single_observation_shrinks_halfway(self):
        f = ridge_baseline(1, 1.0)
        f.predict(np.array([1.0]))
        f.observe(1.0)
        assert f.predict(np.array([1.0])) == pytest.approx(0.5, rel=1e-12)

    def test_small_regularization_reaches_exact_fit(self):
        f = ridge_baseline(1, 1e-12)
        data = [(np.array([1.0]), 2.0), (np.array([2.0]), 4.0), (np.array([0.5]), 1.0)]
        for x, y in data:
            f.predict(x)
            f.observe(y)
        assert f.predict(np.array([3.0])) == pytest.approx(6.0, rel=1e-6)

    def test_rejects_nonpositive_regularization(self):
        with pytest.raises(ArgumentError):
            RidgeBaseline(1, 0.0)

    def test_singular_gram_falls_back_to_least_squares(self):
        # 1 + 1e-300 rounds to 1, so after one round on features (1, 1)
        # the regularised Gram matrix is exactly singular.
        f = RidgeBaseline(2, 1e-300)
        phi = np.array([1.0, 1.0])
        for y in (1.0, 2.0):
            f.predict(phi)
            f.observe(y)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(f._gram, f._xty)
        assert f.predict(phi) == pytest.approx(1.5, rel=1e-12)


class TestRunProtocol:
    def test_rejects_empty_sequence(self):
        with pytest.raises(ArgumentError):
            run_protocol(ridge_baseline(1, 1.0), [])

    def test_constant_zero_predictor_accumulates_y_squared(self):
        f = ridge_baseline(1, 1e18)  # effectively always predicts ~0
        seq = [(np.array([1.0]), y) for y in (1.0, -2.0, 0.5)]
        res = run_protocol(f, seq)
        assert res.cumulative_loss == pytest.approx(1.0 + 4.0 + 0.25, rel=1e-9)

    def test_feature_failure_names_the_round(self):
        class Fragile:
            d = 1

            def features(self, x):
                if x == "bad":
                    raise ValueError("unusable input")
                return np.array([float(x)])

        seq = [("1.0", 1.0), ("2.0", 2.0), ("bad", 3.0)]
        with pytest.raises(DataError, match="round 3"):
            run_protocol(ridge_baseline(1, 1.0), seq, Fragile())

    @pytest.mark.parametrize(
        "make",
        [
            lambda: seqsew_fixed(1, 8.0, 1.0 / 512.0, 0.5, BackendConfig(backend="chain", n_samples=200), seed=3),
            lambda: seqsew_adaptive(1, 0.5, BackendConfig(backend="importance", n_samples=300), seed=3),
            lambda: seqsew_auto(1, BackendConfig(backend="importance", n_samples=300), seed=3),
            lambda: ridge_baseline(1, 1.0),
        ],
        ids=["fixed", "adaptive", "auto", "ridge"],
    )
    def test_state_row_is_the_row_of_the_run(self, make):
        # state_row read between predict and observe is the five-tuple
        # that run_protocol stores as row t of its state columns.
        sequence = _simple_sequence(T=40, seed=5, scale=3.0)
        forecaster, rows = make(), []
        for x, y in sequence:
            forecaster.predict(x)
            rows.append(forecaster.state_row())
            forecaster.observe(y)
        assert all(type(row) is tuple and len(row) == 5 for row in rows)
        res = run_protocol(make(), sequence)
        assert res.regimes.dtype.kind == "i"
        for column, played in zip((res.B, res.eta, res.regimes, res.ess, res.gammas), zip(*rows)):
            np.testing.assert_array_equal(column, np.array(played))

    def test_base_state_row_has_no_adaptation_state(self):
        f = ridge_baseline(1, 1.0)
        f.predict(np.array([1.0]))
        B, eta, regime, ess, gamma = f.state_row()
        assert regime == 0 and all(math.isnan(v) for v in (B, eta, ess, gamma))

    def test_protocol_shape_is_enforced(self):
        f = ridge_baseline(1, 1.0)
        with pytest.raises(StateError):
            f.observe(1.0)
        f.predict(np.array([1.0]))
        with pytest.raises(StateError):
            f.predict(np.array([1.0]))

    def test_records_are_consistent(self):
        res = run_protocol(seqsew_adaptive(1, 0.5, QUAD), _simple_sequence(T=12, seed=7))
        assert [r.t for r in res.records] == list(range(1, 13))
        cum = np.cumsum([(r.y - r.yhat) ** 2 for r in res.records])
        assert np.allclose(cum, [r.cumloss for r in res.records], atol=1e-12)

    @staticmethod
    def _peak(T, d=1):
        sequence = _simple_sequence(T=T, d=d, seed=8)
        run_protocol(seqsew_adaptive(d, 0.1, BackendConfig(backend="quadrature")), sequence[:5])  # first-call allocations
        forecaster = seqsew_adaptive(d, 0.1, BackendConfig(backend="quadrature"))
        tracemalloc.start()
        try:
            run_protocol(forecaster, sequence)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_by_a_few_floats_per_round(self):
        # Each round is written into the run's d + 7 columns as it is
        # played, and the cloud's history keeps d + 2 floats a round in an
        # array that doubles when full: about 100 bytes a round at d 1.
        # A tuple and a dict kept per round would take about 720.
        T, d = 2000, 1
        assert self._peak(2 * T, d) - self._peak(T, d) <= 2 * (d + 8) * 8 * T


class TestCausality:
    def test_prefix_replay_reproduces_predictions(self):
        seq = _simple_sequence(T=30, seed=11)
        cfg = BackendConfig(backend="importance", n_samples=2000)
        full = run_protocol(seqsew_adaptive(1, 0.5, cfg, seed=4), seq)
        for cut in (1, 7, 19):
            partial = run_protocol(seqsew_adaptive(1, 0.5, cfg, seed=4), seq[:cut])
            assert np.array_equal(partial.predictions, full.predictions[:cut])

    def test_prefix_replay_for_auto_forecaster(self):
        seq = _simple_sequence(T=30, seed=13, scale=2.0)
        full = run_protocol(seqsew_auto(1, QUAD, seed=21), seq)
        partial = run_protocol(seqsew_auto(1, QUAD, seed=21), seq[:11])
        assert np.array_equal(partial.predictions, full.predictions[:11])

    def test_quadrature_runs_match_oracle_rerun(self):
        # Per-round loss of an adaptive run must replay identically from a
        # fresh instance of the same deterministic backend.
        seq = _simple_sequence(T=25, seed=17)
        a = run_protocol(seqsew_adaptive(1, 0.2, QUAD), seq)
        b = run_protocol(seqsew_adaptive(1, 0.2, QUAD), seq)
        assert np.array_equal(a.predictions, b.predictions)


class TestInputContract:
    """Bad input raises DataError naming the round, on every backend and
    through run_protocol, instead of turning into NaN predictions."""

    IMP = BackendConfig(backend="importance", n_samples=500)

    @staticmethod
    def _play(forecaster, bad_round, x=None, y=None):
        seq = _simple_sequence(T=6, seed=2)
        features, outcome = seq[bad_round - 1]
        seq[bad_round - 1] = (features if x is None else x, outcome if y is None else y)
        return run_protocol(forecaster, seq)

    @pytest.mark.parametrize("config", [QUAD, IMP], ids=["quadrature", "importance"])
    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_non_finite_outcome(self, config, y):
        with pytest.raises(DataError, match="round 3: outcome"):
            self._play(seqsew_adaptive(1, 0.5, config, seed=0), 3, y=y)

    @pytest.mark.parametrize("config", [QUAD, IMP], ids=["quadrature", "importance"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_feature(self, config, bad):
        with pytest.raises(DataError, match="round 4: features"):
            self._play(seqsew_adaptive(1, 0.5, config, seed=0), 4, x=np.array([bad]))

    @pytest.mark.parametrize("config", [QUAD, IMP], ids=["quadrature", "importance"])
    @pytest.mark.parametrize("x", [1.4e154, -1e200, 1e308])
    def test_feature_whose_squared_norm_overflows(self, config, x):
        # The feature is finite, but its square is not.
        with pytest.raises(DataError, match="round 4: features must be finite with a finite squared norm"):
            self._play(seqsew_adaptive(1, 0.5, config, seed=0), 4, x=np.array([x]))

    @pytest.mark.parametrize("y", [1e160, -1e155, 1e154])
    def test_outcome_whose_square_overflows_the_threshold(self, y):
        # 1e154**2 is finite, but 8 B^2 for its dyadic ceiling B^2 is not.
        with pytest.raises(DataError, match="round 2: outcome"):
            self._play(seqsew_adaptive(1, 0.5, QUAD), 2, y=y)

    def test_largest_outcome_keeps_predictions_finite(self):
        f = seqsew_adaptive(1, 0.5, QUAD)
        preds = []
        for y in (-(2.0**510), 2.0**510, -(2.0**510)):
            preds.append(f.predict(np.array([1e6])))
            f.observe(y)
        assert f.state.B_sq == 2.0**1020 and f.state.eta > 0.0
        assert np.all(np.isfinite(preds))

    @pytest.mark.parametrize("center", [math.inf, -math.inf, math.nan])
    def test_non_finite_clip_center_is_refused(self, center):
        with pytest.raises(ArgumentError, match="clip_center must be finite"):
            seqsew_adaptive(1, 0.5, QUAD, clip_center=center)

    def test_overflowing_residual_under_a_clip_center(self):
        f = seqsew_adaptive(1, 0.5, QUAD, clip_center=3e153)
        f.predict(np.array([1.0]))
        with pytest.raises(DataError, match="round 1: residual"):
            f.observe(-3e153)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: seqsew_fixed(1, 2.0, 1.0 / 32.0, 0.5, QUAD),
            lambda: seqsew_auto(1, QUAD, seed=0),
            lambda: ridge_baseline(1, 1.0),
        ],
        ids=["fixed", "auto", "ridge"],
    )
    def test_every_forecaster_enforces_the_contract(self, make):
        with pytest.raises(DataError, match="round 5: outcome"):
            self._play(make(), 5, y=math.nan)
        with pytest.raises(DataError, match="round 2: features"):
            self._play(make(), 2, x=np.array([-math.inf]))

    def test_rejected_features_leave_the_forecaster_usable(self):
        f = seqsew_adaptive(1, 0.5, QUAD)
        with pytest.raises(DataError):
            f.predict(np.array([math.nan]))
        f.predict(np.array([1.0]))
        f.observe(1.0)
        assert f.t == 1

    def test_batch_fit_reports_the_round(self):
        samples = [(np.array([0.5]), 1.0), (np.array([0.2]), math.nan), (np.array([0.1]), 0.0)]
        with pytest.raises(DataError, match="round 2: outcome"):
            fit_random_design(samples, None, QUAD)

    WRONG_SHAPE = [(np.array([0.5, -0.25]), 1.0), (np.array([0.1, 0.3, 0.2]), -0.5), (np.array([0.2, 0.1]), 0.0)]

    def test_wrong_shaped_features_name_their_round(self):
        with pytest.raises(DimensionMismatchError, match=r"^round 2: features have shape \(3,\), expected \(2,\)$"):
            run_protocol(ridge_baseline(2, 1.0), self.WRONG_SHAPE)

    def test_batch_fit_names_the_round_of_wrong_shaped_features(self):
        with pytest.raises(DimensionMismatchError, match=r"^round 2: features have shape \(3,\), expected \(2,\)$"):
            fit_random_design(self.WRONG_SHAPE, None, self.IMP, seed=0)


class TestIntegerDimension:
    """A forecaster's dimension is an integer: a non-integral one is refused
    rather than truncated, and an integral float or numpy integer passes."""

    @pytest.mark.parametrize(
        "make, dim",
        [
            (lambda d: seqsew_adaptive(d, 0.5, QUAD), 1.5),
            (lambda d: seqsew_fixed(d, 2.0, 1.0 / 32.0, 0.5, QUAD), 1.5),
            (lambda d: seqsew_auto(d, QUAD), 2.5),
            (lambda d: ridge_baseline(d, 1.0), 2.9),
        ],
        ids=["adaptive", "fixed", "auto", "ridge"],
    )
    def test_non_integral_dimension_is_refused(self, make, dim):
        with pytest.raises(ArgumentError, match=re.escape(f"dim must be an integer, got {dim!r}")):
            make(dim)
        assert make(2.0).dim == make(np.int64(2)).dim == 2
        assert type(make(2.0).dim) is int


class TestReusedFeatureBuffer:
    """A caller may fill one features buffer anew every round: the
    forecaster and the posterior history keep copies, so the run equals
    one fed fresh arrays bit for bit."""

    BACKENDS = {
        "chain": BackendConfig(backend="chain", n_samples=500, burn_in=5),
        "importance": BackendConfig(backend="importance", n_samples=500, ess_floor=0.9),
        "quadrature": BackendConfig(backend="quadrature", grid_points_per_dim=129),
    }

    @staticmethod
    def _play(config, xs, ys, reuse):
        f = seqsew_adaptive(xs.shape[1], 0.3, config, seed=6)
        buffer = np.empty(xs.shape[1])
        preds = []
        for x, y in zip(xs, ys):
            if reuse:
                buffer[:] = x
                preds.append(f.predict(buffer))
            else:
                preds.append(f.predict(x.copy()))
            f.observe(y)
        return f, np.asarray(preds)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_reused_buffer_run_equals_fresh_arrays(self, backend):
        rng = np.random.default_rng(12)
        xs = 5.0 * rng.uniform(-1, 1, size=(30, 2))  # large features make importance resample
        ys = 0.3 * xs[:, 0] + 0.3 * rng.standard_normal(30)
        fresh, fresh_preds = self._play(self.BACKENDS[backend], xs, ys, reuse=False)
        reused, reused_preds = self._play(self.BACKENDS[backend], xs, ys, reuse=True)
        assert np.array_equal(reused_preds, fresh_preds)
        assert np.array_equal(reused.cloud.history.arrays()[0], xs)
        assert np.array_equal(reused.cloud.cum_loss, fresh.cloud.cum_loss)
        if backend == "importance":
            assert reused.cloud.resample_count >= 1

    def test_buffer_rewritten_between_predict_and_observe(self):
        f = seqsew_adaptive(1, 0.3, self.BACKENDS["quadrature"])
        ref = seqsew_adaptive(1, 0.3, self.BACKENDS["quadrature"])
        buffer = np.empty(1)
        for x, y in ((0.5, 1.0), (1.0, -0.4), (-0.7, 0.2), (0.3, 0.9)):
            buffer[0] = x
            assert f.predict(buffer) == ref.predict(np.array([x]))
            buffer[0] = 99.0
            f.observe(y)
            ref.observe(y)
        assert np.array_equal(f.cloud.history.arrays()[0][:, 0], [0.5, 1.0, -0.7, 0.3])
