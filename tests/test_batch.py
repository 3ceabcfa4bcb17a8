"""Tests for online-to-batch conversion, noise families' maximal
inequalities, and the risk-bound evaluators."""

import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from seqsew import batch as batch_mod, posterior
from seqsew.batch import (
    NoiseFamily,
    empirical_max_sq,
    fit_fixed_design,
    fit_random_design,
    fit_remark15,
    psi_bound,
    risk,
    risk_bound_rhs,
)
from seqsew.datagen import Dictionary, DictionarySpec
from seqsew.errors import ArgumentError, DataError, DimensionMismatchError
from seqsew.forecasters import SeqSEWAdaptive, run_protocol, seqsew_adaptive
from seqsew.posterior import BackendConfig, FrozenCloud

QUAD = BackendConfig(backend="quadrature", grid_points_per_dim=257)
IMP = BackendConfig(backend="importance", n_samples=1000)


def _coord_dict(d=1, norm=1.0):
    return Dictionary(DictionarySpec(kind="coordinate", d=d, normalization=norm))


class TestPsiBound:
    def test_subgaussian_at_one_round(self):
        fam = NoiseFamily.subgaussian(1.0)
        assert psi_bound(fam, 1) == pytest.approx(2.0 * math.log(2.0 * math.e), rel=1e-12)
        assert psi_bound(fam, 1) == pytest.approx(3.386294, abs=1e-6)

    def test_bounded_decays_linearly(self):
        fam = NoiseFamily.bounded(1.0)
        for T in (1, 10, 100):
            assert psi_bound(fam, T) == pytest.approx(1.0 / T)

    def test_power_moment_value(self):
        fam = NoiseFamily.bounded_moment(alpha=4.0, M=1.0)
        assert psi_bound(fam, 16) == pytest.approx(0.25)

    def test_exp_moment_formula(self):
        fam = NoiseFamily.bounded_exp_moment(alpha=2.0, M=3.0)
        T = 7
        assert psi_bound(fam, T) == pytest.approx(math.log((3.0 + math.e) * T) ** 2 / (4.0 * T))

    def test_needs_positive_horizon(self):
        with pytest.raises(ArgumentError):
            psi_bound(NoiseFamily.bounded(1.0), 0)

    def test_huge_parameters_square_to_inf_not_an_error(self):
        # B^2 and alpha^2 are products: a huge B caps at inf and a huge
        # alpha sends the cap to 0, where ``**`` raises OverflowError.
        assert psi_bound(NoiseFamily.bounded(1e200), 10) == math.inf
        assert psi_bound(NoiseFamily.bounded_exp_moment(alpha=1e200, M=3.0), 10) == 0.0


class TestEmpiricalMaxSq:
    def test_zero_draws(self):
        assert empirical_max_sq(np.zeros((150, 5))) == 0.0

    def test_bounded_draws_capped(self):
        rng = np.random.default_rng(0)
        draws = rng.uniform(-2.0, 2.0, size=(200, 10))
        assert empirical_max_sq(draws) <= 4.0

    def test_single_gaussian_matches_second_moment(self):
        rng = np.random.default_rng(1)
        draws = rng.standard_normal((4000, 1))
        value = empirical_max_sq(draws)
        assert value == pytest.approx(1.0, abs=0.1)
        assert value <= 2.0 * math.log(2.0 * math.e)

    def test_demands_replications(self):
        with pytest.raises(ArgumentError):
            empirical_max_sq(np.zeros((10, 5)))

    @pytest.mark.parametrize("shape", [(100, 0), (100, 5, 2)])
    def test_demands_a_matrix_with_draws(self, shape):
        with pytest.raises(ArgumentError, match=r"\(replications, T\) matrix"):
            empirical_max_sq(np.zeros(shape))

    @pytest.mark.parametrize(
        "family",
        [
            NoiseFamily.bounded(0.5),
            NoiseFamily.subgaussian(2.0),
            NoiseFamily.bounded_exp_moment(1.0),
            NoiseFamily.bounded_moment(4.0, 2.0),
        ],
    )
    @pytest.mark.parametrize("T", [1, 8, 40])
    def test_maximal_inequalities_hold_empirically(self, family, T):
        rng = np.random.default_rng(99)
        draws = family.draw(rng, (200, T))
        assert empirical_max_sq(draws) <= T * psi_bound(family, T)


class TestRandomDesignFit:
    def test_single_round_average_is_the_single_regressor(self):
        samples = [(np.array([0.5]), 1.0)]
        est = fit_random_design(samples, _coord_dict(), QUAD)
        assert len(est.snapshots) == 1
        cloud, b = est.snapshots[0]
        x = np.array([0.8])
        assert est.predict(x) == pytest.approx(cloud.predict_clipped_mean(x, b))

    def test_all_zero_outcomes_give_zero_estimator(self):
        samples = [(np.array([v]), 0.0) for v in (0.2, -0.4, 1.0)]
        est = fit_random_design(samples, _coord_dict(), QUAD)
        assert est.predict(np.array([0.7])) == 0.0
        assert est.max_threshold == 0.0

    def test_predictions_bounded_by_max_threshold(self):
        rng = np.random.default_rng(2)
        samples = [(rng.uniform(-1, 1, size=1), float(rng.uniform(-3, 3))) for _ in range(20)]
        est = fit_random_design(samples, _coord_dict(), IMP, seed=0)
        for _ in range(10):
            x = rng.uniform(-5, 5, size=1)
            assert abs(est.predict(x)) <= est.max_threshold + 1e-12

    def test_predict_many_matches_scalar_path(self):
        rng = np.random.default_rng(3)
        samples = [(rng.uniform(-1, 1, size=2), float(rng.uniform(-2, 2))) for _ in range(12)]
        dictionary = _coord_dict(d=2)
        est = fit_random_design(samples, dictionary, IMP, seed=1)
        pts = [rng.uniform(-1, 1, size=2) for _ in range(5)]
        many = est.predict_many(pts)
        single = [est.predict(p) for p in pts]
        assert np.allclose(many, single, atol=1e-12)


class TestFixedDesignFit:
    def test_distinct_points_reduce_to_per_round_regressors(self):
        xs = [np.array([0.1]), np.array([0.5]), np.array([0.9])]
        samples = [(x, 1.0 + i) for i, x in enumerate(xs)]
        est = fit_fixed_design(samples, _coord_dict(), QUAD)
        for t, x in enumerate(xs):
            cloud, b = est.snapshots[t]
            assert est.predict(x) == pytest.approx(cloud.predict_clipped_mean(np.asarray(x), b))

    def test_unseen_point_predicts_zero(self):
        samples = [(np.array([0.1]), 1.0)]
        est = fit_fixed_design(samples, _coord_dict(), QUAD)
        assert est.predict(np.array([0.7])) == 0.0

    def test_duplicated_point_averages_those_rounds(self):
        a, b = np.array([0.5]), np.array([-0.25])
        samples = [(a, 1.0), (b, 0.5), (a, 2.0)]  # rounds 1 and 3 share a
        est = fit_fixed_design(samples, _coord_dict(), QUAD)
        c1, b1 = est.snapshots[0]
        c3, b3 = est.snapshots[2]
        by_hand = 0.5 * (c1.predict_clipped_mean(a, b1) + c3.predict_clipped_mean(a, b3))
        assert est.predict(a) == pytest.approx(by_hand, abs=1e-14)

    def test_signed_zero_is_the_design_point_zero(self):
        # -0.0 == 0.0, so both read the rounds played at 0.0; the Fourier
        # cosines are nonzero there, so the fit's value is too.
        fourier = Dictionary(DictionarySpec(kind="fourier", d=2))
        samples = [(0.0, 1.0), (0.25, -0.5), (0.0, 0.75)]
        est = fit_fixed_design(samples, fourier, QUAD)
        at_zero = est.predict(0.0)
        assert at_zero != 0.0
        assert est.predict(-0.0) == at_zero
        assert est.predict(np.array([-0.0])) == at_zero
        assert np.array_equal(est.predict_many([-0.0, 0.0, 0.5]), [at_zero, at_zero, 0.0])

    def test_exact_design_risk(self):
        samples = [(np.array([v]), 0.0) for v in (0.2, -0.4, 1.0)]  # estimator stays 0
        est = fit_fixed_design(samples, _coord_dict(), QUAD)
        truth = lambda x: 2.0 * float(np.asarray(x)[0])
        expected = float(np.mean([truth(x) ** 2 for x, _ in samples]))
        assert risk(est, truth) == pytest.approx(expected, rel=1e-12)


class TestOffsetVariant:
    def test_constant_outcomes_reproduce_the_constant(self):
        samples = [(np.array([v]), 3.25) for v in (0.2, -0.4, 1.0, 0.6)]
        est = fit_remark15(samples, _coord_dict(), QUAD)
        assert est.anchor == 3.25
        for x in (np.array([0.3]), np.array([-2.0])):
            assert est.predict(x) == 3.25  # threshold never leaves zero

    def test_round_two_predicts_the_anchor(self):
        samples = [(np.array([0.5]), 1.5), (np.array([0.7]), 4.0)]
        est = fit_remark15(samples, _coord_dict(), QUAD)
        cloud, b = est.snapshots[0]  # the round-2 snapshot
        assert b == 0.0
        assert est.anchor + cloud.predict_clipped_mean(np.array([0.7]), b) == 1.5

    def test_needs_two_samples(self):
        with pytest.raises(ArgumentError):
            fit_remark15([(np.array([0.1]), 1.0)], _coord_dict(), QUAD)

    @pytest.mark.parametrize("anchor", [math.nan, math.inf, -math.inf])
    def test_non_finite_anchor_is_refused_before_the_pass(self, anchor, monkeypatch):
        monkeypatch.setattr(batch_mod, "run_protocol", lambda *args: pytest.fail("the pass was played"))
        samples = [(np.array([0.1]), anchor), (np.array([0.2]), 1.0)]
        with pytest.raises(DataError, match="^sample 1: the anchor outcome must be finite"):
            fit_remark15(samples, _coord_dict(), QUAD)

    @pytest.mark.parametrize("fit", [fit_random_design, fit_fixed_design])
    def test_other_fits_need_a_sample(self, fit):
        with pytest.raises(ArgumentError, match="^need at least one sample$"):
            fit([], _coord_dict(), QUAD)

    def test_translation_equivariance_is_bitwise_on_dyadic_data(self):
        # Outcomes on the 2^-20 grid with a zero anchor: the shifted run's
        # residuals are bit-identical, so predictions shift by exactly c.
        rng = np.random.default_rng(7)
        quantum = 2.0**-20
        xs = [rng.uniform(-1, 1, size=1) for _ in range(12)]
        ys = [round(v / quantum) * quantum for v in rng.uniform(-2, 2, size=12)]
        ys[0] = 0.0
        samples = [(x, y) for x, y in zip(xs, ys)]
        shift = 5.25
        shifted = [(x, y + shift) for x, y in samples]

        cfg = BackendConfig(backend="importance", n_samples=500)
        est_a = fit_remark15(samples, _coord_dict(), cfg, seed=np.random.default_rng(11))
        est_b = fit_remark15(shifted, _coord_dict(), cfg, seed=np.random.default_rng(11))

        assert est_b.anchor == est_a.anchor + shift
        probe = [np.array([v]) for v in (-0.9, -0.1, 0.4, 1.3)]
        comp_a = [est_a.predict_components(x) for x in probe]
        comp_b = [est_b.predict_components(x) for x in probe]
        assert all(a[1] == b[1] for a, b in zip(comp_a, comp_b))
        preds_a = np.asarray([est_a.predict(x) for x in probe])
        preds_b = np.asarray([est_b.predict(x) for x in probe])
        assert np.array_equal(preds_b, preds_a + shift)  # exact: anchor_a is 0.0


class TestRisk:
    def test_perfect_estimator_has_zero_risk(self):
        samples = [(np.array([v]), 0.0) for v in (0.5, -0.5)]
        est = fit_random_design(samples, _coord_dict(), QUAD)
        sampler = lambda rng, n: [rng.uniform(-1, 1, size=1) for _ in range(n)]
        val = risk(est, lambda x: est.predict(x), sampler, n_eval=64, rng=np.random.default_rng(0))
        assert val == 0.0

    def test_zero_estimator_measures_truth_norm(self):
        samples = [(np.array([v]), 0.0) for v in (0.5, -0.5)]
        est = fit_random_design(samples, _coord_dict(), QUAD)  # predicts 0 everywhere
        truth = lambda x: math.sqrt(3.0) * float(np.asarray(x)[0])  # L2 norm 1 under U(-1,1)
        sampler = lambda rng, n: [rng.uniform(-1, 1, size=1) for _ in range(n)]
        val = risk(est, truth, sampler, n_eval=40_000, rng=np.random.default_rng(1))
        assert val == pytest.approx(1.0, abs=0.03)

    def test_random_design_needs_sampler(self):
        samples = [(np.array([0.5]), 0.0)]
        est = fit_random_design(samples, _coord_dict(), QUAD)
        with pytest.raises(ArgumentError):
            risk(est, lambda x: 0.0, None, n_eval=10, rng=np.random.default_rng(0))
        with pytest.raises(ArgumentError):
            risk(est, lambda x: 0.0, lambda r, n: [], n_eval=0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("returned", [0, 9, 11])
    def test_sampler_must_return_n_eval_points(self, returned):
        est = fit_random_design([(np.array([0.5]), 1.0)], _coord_dict(), QUAD)
        sampler = lambda rng, n: [rng.uniform(-1, 1, size=1) for _ in range(returned)]
        with pytest.raises(ArgumentError, match=f"returned {returned} points, not n_eval = 10"):
            risk(est, lambda x: 0.0, sampler, n_eval=10, rng=np.random.default_rng(0))

    def test_averaging_never_hurts(self):
        # Risk of the averaged estimator is at most the average of the
        # per-round risks (convexity of the square loss).
        rng = np.random.default_rng(4)
        samples = [(rng.uniform(-1, 1, size=1), float(1.2 * rng.uniform(-1, 1))) for _ in range(15)]
        est = fit_random_design(samples, _coord_dict(), IMP, seed=2)
        truth = lambda x: 1.2 * float(np.asarray(x)[0])
        pts = [rng.uniform(-1, 1, size=1) for _ in range(200)]
        averaged = float(np.mean([(truth(x) - p) ** 2 for x, p in zip(pts, est.predict_many(pts))]))
        per_round = [
            np.mean([(truth(x) - c.predict_clipped_mean(est.dictionary.features(x), b)) ** 2 for x in pts])
            for c, b in est.snapshots
        ]
        assert averaged <= float(np.mean(per_round)) + 1e-10


class TestRiskBoundRhs:
    def test_simple_subgaussian_case(self):
        # Zero truth, zero comparator, orthonormal features: the bound
        # collapses to 1/T plus the amplitude terms.
        T, d = 10, 3
        rhs = risk_bound_rhs(
            "cor12", T=T, d=d, l0=0, l1=0.0, approx_error=0.0, f_inf=0.0, sigma_sq=1.0, sum_feature_l2=float(d)
        )
        assert rhs == pytest.approx(1.0 / T + 64.0 * 2.0 * math.log(2.0 * math.e * T) / T, rel=1e-12)

    def test_measured_amplitude_case(self):
        rhs = risk_bound_rhs(
            "thm10", T=20, d=2, l0=0, l1=0.0, approx_error=4.0, e_max_y_sq=3.0, sum_feature_l2=2.0
        )
        assert rhs == pytest.approx(4.0 + 2.0 / 40.0 + 32.0 * 3.0 / 20.0, rel=1e-12)

    def test_fixed_design_mirrors_random_when_design_matches_moments(self):
        # design_gram_trace = T * sum ||phi_j||^2 makes the feature terms equal.
        T, d = 25, 2
        common = dict(T=T, d=d, l0=1, l1=1.0, approx_error=0.5, e_max_y_sq=2.0)
        random_rhs = risk_bound_rhs("thm10", sum_feature_l2=2.0, **common)
        fixed_rhs = risk_bound_rhs("thm13", design_gram_trace=2.0 * T, **common)
        assert random_rhs == pytest.approx(fixed_rhs, rel=1e-12)

    def test_cor14_includes_design_bias_terms(self):
        fam = NoiseFamily.subgaussian(1.0)
        rhs = risk_bound_rhs(
            "cor14",
            T=10,
            d=1,
            l0=0,
            l1=0.0,
            approx_error=0.0,
            max_f_sq=4.0,
            psi_t=psi_bound(fam, 10),
            design_gram_trace=10.0,
        )
        amp = 4.0 / 10 + psi_bound(fam, 10)
        assert rhs == pytest.approx(10.0 / (1 * 100) + 64.0 * amp, rel=1e-12)

    @pytest.mark.parametrize("T, d, l0, l1", [(10, 1, 0, 0.0), (37, 4, 2, 3.5), (1000, 30, 5, 0.01)])
    def test_corollaries_are_their_theorems_at_one_amplitude_cap(self, T, d, l0, l1):
        # Each corollary is Theorem 10 or 13 at e_max_y_sq = T r, with its
        # own cap r on E[max Y^2] / T.
        common = dict(T=T, d=d, l0=l0, l1=l1, approx_error=0.75)
        random, fixed = dict(sum_feature_l2=3.0), dict(design_gram_trace=3.0 * T)
        mean_y, psi_t, f_inf, sigma_sq, max_f_sq = -1.25, 0.4, 2.0, 0.3, 5.0
        cases = [
            ("cor11", dict(mean_y=mean_y, psi_t=psi_t, **random), "thm10", 2.0 * (mean_y**2 / T + psi_t)),
            (
                "cor12",
                dict(f_inf=f_inf, sigma_sq=sigma_sq, **random),
                "thm10",
                2.0 * (f_inf**2 + 2.0 * sigma_sq * math.log(2.0 * math.e * T)) / T,
            ),
            ("cor14", dict(max_f_sq=max_f_sq, psi_t=psi_t, **fixed), "thm13", 2.0 * (max_f_sq / T + psi_t)),
        ]
        for corollary, inputs, theorem, r in cases:
            theorem_inputs = random if theorem == "thm10" else fixed
            expected = risk_bound_rhs(theorem, e_max_y_sq=T * r, **theorem_inputs, **common)
            assert risk_bound_rhs(corollary, **inputs, **common) == pytest.approx(expected, rel=1e-14)

    def test_missing_inputs_are_named(self):
        with pytest.raises(ArgumentError, match="missing input"):
            risk_bound_rhs("thm10", T=5, d=1, l0=0, l1=0.0)

    VARIANT_INPUTS = {
        "thm10": ("e_max_y_sq", "sum_feature_l2"),
        "cor11": ("mean_y", "psi_t", "sum_feature_l2"),
        "cor12": ("f_inf", "sigma_sq", "sum_feature_l2"),
        "thm13": ("e_max_y_sq", "design_gram_trace"),
        "cor14": ("max_f_sq", "psi_t", "design_gram_trace"),
    }

    @pytest.mark.parametrize(
        "variant, dropped",
        [
            (variant, key)
            for variant, keys in VARIANT_INPUTS.items()
            for key in ("T", "d", "l0", "l1", "approx_error", *keys)
        ],
    )
    def test_every_missing_input_is_named(self, variant, dropped):
        inputs = dict(T=10, d=2, l0=1, l1=1.0, approx_error=0.0)
        inputs.update({key: 1.0 for key in self.VARIANT_INPUTS[variant]})
        assert math.isfinite(risk_bound_rhs(variant, **inputs))
        del inputs[dropped]
        with pytest.raises(ArgumentError, match=f"risk_bound_rhs missing input '{dropped}'"):
            risk_bound_rhs(variant, **inputs)

    def test_unknown_variant(self):
        with pytest.raises(ArgumentError):
            risk_bound_rhs("thm99", T=5, d=1, l0=0, l1=0.0, approx_error=0.0)

    @pytest.mark.parametrize("variant, key", [("cor12", "f_inf"), ("cor11", "mean_y")])
    def test_huge_amplitude_squares_to_inf(self, variant, key):
        inputs = dict(T=10, d=2, l0=1, l1=1.0, approx_error=0.0)
        inputs.update({k: 1.0 for k in self.VARIANT_INPUTS[variant]})
        inputs[key] = 1e200
        assert risk_bound_rhs(variant, **inputs) == math.inf


class TestThm10EndToEnd:
    def test_quadrature_risk_bounded_by_rhs(self):
        # d=1, orthonormal features, known truth: measured risk must sit
        # below the guarantee evaluated at the generating coefficient.
        rng = np.random.default_rng(8)
        T = 30
        norm = math.sqrt(3.0)
        dictionary = _coord_dict(d=1, norm=norm)
        xs = [rng.uniform(-1, 1, size=1) for _ in range(T)]
        u_star = 1.2
        eps = 0.5 * rng.standard_normal(T)
        samples = [(x, u_star * norm * float(x[0]) + e) for x, e in zip(xs, eps)]
        truth = lambda x: u_star * norm * float(np.asarray(x)[0])

        est = fit_random_design(samples, dictionary, QUAD)
        sampler = lambda r, n: [r.uniform(-1, 1, size=1) for _ in range(n)]
        measured = risk(est, truth, sampler, n_eval=4000, rng=np.random.default_rng(9))
        e_max = max(y * y for _, y in samples)
        rhs = risk_bound_rhs(
            "thm10", T=T, d=1, l0=1, l1=abs(u_star), approx_error=0.0, e_max_y_sq=e_max, sum_feature_l2=1.0
        )
        assert measured <= rhs


class TestCor12GateThatBinds:
    """cor12 for ``fit_random_design`` at d = 1, T = 10^4, where the
    estimator that always predicts 0 fails the gate.  Criterion 7's recipe
    at d 1: coordinate features normalised by sqrt(3), truth slope u = 1.5
    on x uniform in [-1, 1], its seed scheme, and the mean risk of
    replications 0-2, each on 200 fresh points.  The fit is never told
    sigma."""

    T, NORM = 10_000, math.sqrt(3.0)
    QUADRATURE = BackendConfig(backend="quadrature")
    IMPORTANCE = BackendConfig(backend="importance", n_samples=2000)

    def _rhs(self, sigma):
        return risk_bound_rhs(
            "cor12", T=self.T, d=1, l0=1, l1=1.5, approx_error=0.0, f_inf=1.5 * self.NORM, sigma_sq=sigma**2,
            sum_feature_l2=1.0,
        )

    def _mean_risk(self, sigma, backend):
        dictionary = _coord_dict(d=1, norm=self.NORM)
        truth = lambda x: 1.5 * self.NORM * float(np.asarray(x)[0])
        sampler = lambda r, n: [r.uniform(-1.0, 1.0, size=1) for _ in range(n)]
        risks = []
        for rep in range(3):
            rng = np.random.default_rng(np.random.SeedSequence([777, int(sigma * 10), rep]))
            xs = [rng.uniform(-1.0, 1.0, size=1) for _ in range(self.T)]
            eps = sigma * rng.standard_normal(self.T)
            samples = [(x, truth(x) + e) for x, e in zip(xs, eps)]
            est = fit_random_design(samples, dictionary, backend, seed=np.random.default_rng(rep))
            risks.append(risk(est, truth, sampler, n_eval=200, rng=np.random.default_rng(10_000 + rep)))
        return float(np.mean(risks))

    @pytest.mark.parametrize("sigma, rhs", [(0.3, 0.615), (1.0, 2.017)])
    def test_zero_estimator_fails_the_gate(self, sigma, rhs):
        # ||f||^2 = (1.5 sqrt(3))^2 E[x^2] with E[x^2] = 1/3.
        zero_risk = (1.5 * self.NORM) ** 2 / 3.0
        assert zero_risk == pytest.approx(2.25, rel=1e-12)
        assert self._rhs(sigma) == pytest.approx(rhs, abs=5e-4)
        assert zero_risk > self._rhs(sigma)

    @pytest.mark.parametrize(
        "sigma, backend",
        [(0.3, QUADRATURE), (0.3, IMPORTANCE), (1.0, QUADRATURE)],
        ids=["sigma0.3-quadrature", "sigma0.3-importance", "sigma1-quadrature"],
    )
    def test_fit_passes_a_gate_the_zero_estimator_fails(self, sigma, backend):
        # Measured per replication: 0.35-0.42, 0.24-0.26 and 0.51-0.95.
        assert self._mean_risk(sigma, backend) <= self._rhs(sigma)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP.md item 12: the importance particles do not reach the witness slope at sigma 1 "
        "(measured: risk 2.03-2.43 per replication, mean 2.19, against rhs 2.017)",
    )
    def test_importance_fit_passes_at_sigma_1(self):
        assert self._mean_risk(1.0, self.IMPORTANCE) <= self._rhs(1.0)


class TestStoredPassMatchesFullSnapshots:
    """The estimators against a hand-written adaptive run that keeps a full
    ``cloud.snapshot()`` every round, kept as the reference."""

    BACKENDS = {
        "quadrature": (1, QUAD),
        "importance": (2, BackendConfig(backend="importance", n_samples=300, ess_floor=0.9)),
        "chain": (2, BackendConfig(backend="chain", n_samples=100, burn_in=5)),
    }

    @staticmethod
    def _samples(d):
        rng = np.random.default_rng(21)
        grid = [rng.uniform(-1, 1, size=d) for _ in range(6)]
        xs = [grid[i] for i in rng.integers(0, 6, size=40)]  # repeated design points
        return [(x, float(1.5 * x[0] + 0.3 * rng.standard_normal())) for x in xs]

    @staticmethod
    def _reference(rounds, dictionary, backend, tau, clip_center=0.0):
        forecaster = SeqSEWAdaptive(dictionary.d, tau, backend, seed=5, clip_center=clip_center)
        snapshots = []
        for x, y in rounds:
            forecaster.predict(dictionary.features(x))
            snapshots.append((forecaster.cloud.snapshot(), forecaster.state.B))
            forecaster.observe(y)
        return snapshots, forecaster.cloud.resample_count

    @pytest.mark.parametrize("fit", [fit_random_design, fit_fixed_design, fit_remark15])
    @pytest.mark.parametrize("backend_name", ["quadrature", "importance", "chain"])
    def test_matches_reference(self, backend_name, fit):
        d, backend = self.BACKENDS[backend_name]
        dictionary = _coord_dict(d=d, norm=10.0)  # large features collapse the ESS
        samples = self._samples(d)
        anchor, rounds = (samples[0][1], samples[1:]) if fit is fit_remark15 else (0.0, samples)
        tau = 1.0 / math.sqrt(d * len(rounds))
        ref, resamples = self._reference(rounds, dictionary, backend, tau, clip_center=anchor)
        est = fit(samples, dictionary, backend, seed=5)

        assert len(est.snapshots) == len(ref)
        for (cloud, b), (ref_cloud, ref_b) in zip(est.snapshots, ref):
            assert b == ref_b
            assert cloud.eta == ref_cloud.eta and cloud.backend == ref_cloud.backend
            for field in ("samples", "log_weights", "cum_loss"):
                assert np.array_equal(getattr(cloud, field), getattr(ref_cloud, field))
            assert cloud.to_json() == ref_cloud.to_json()
        # Each read replays the pass afresh, to the same values.
        for (cloud, b), (again, b_again) in zip(est.snapshots, est.snapshots):
            assert b == b_again and cloud.eta == again.eta
            for field in ("samples", "log_weights", "cum_loss"):
                assert np.array_equal(getattr(cloud, field), getattr(again, field))
        distinct = len({id(cloud.samples) for cloud, _ in est.snapshots})
        expected = {"quadrature": 1, "importance": 1 + resamples, "chain": len(ref)}[backend_name]
        assert distinct == expected
        if backend_name == "importance":
            assert resamples >= 1  # the case must span more than one epoch

        def round_means(x):
            return np.asarray([c.predict_clipped_mean(dictionary.features(x), b) for c, b in ref])

        def ref_predict(x):
            if fit is not fit_fixed_design:
                return anchor + float(np.mean(round_means(x)))
            visits = [t for t, (p, _) in enumerate(rounds) if np.array_equal(p, x)]
            return float(np.mean(round_means(x)[visits])) if visits else 0.0

        truth = lambda x: 1.5 * float(np.asarray(x)[0])
        rng = np.random.default_rng(3)
        probe = [x for x, _ in samples[:8]] + [rng.uniform(-2, 2, size=d) for _ in range(4)]
        expected_preds = np.asarray([ref_predict(x) for x in probe])
        tol = dict(rtol=0.0, atol=1e-12)
        np.testing.assert_allclose([est.predict(x) for x in probe], expected_preds, **tol)
        np.testing.assert_allclose(est.predict_many(probe), expected_preds, **tol)

        sampler = lambda r, n: [r.uniform(-1, 1, size=d) for _ in range(n)]
        if fit is fit_fixed_design:
            eval_points = [x for x, _ in samples]
        else:
            eval_points = sampler(np.random.default_rng(9), 50)
        ref_risk = np.mean([(truth(x) - ref_predict(x)) ** 2 for x in eval_points])
        measured = risk(est, truth, sampler, n_eval=50, rng=np.random.default_rng(9))
        np.testing.assert_allclose(measured, ref_risk, **tol)


class TestStoredPassIsAReadOnlyList:
    """``est.snapshots`` is a plain list of read-only ``(FrozenCloud, B)``."""

    @pytest.mark.parametrize("fit", [fit_random_design, fit_fixed_design, fit_remark15])
    @pytest.mark.parametrize("backend_name", ["quadrature", "importance", "chain"])
    def test_list_of_read_only_snapshots(self, backend_name, fit):
        d, backend = TestStoredPassMatchesFullSnapshots.BACKENDS[backend_name]
        samples = TestStoredPassMatchesFullSnapshots._samples(d)
        est = fit(samples, _coord_dict(d=d, norm=10.0), backend, seed=5)

        assert type(est.snapshots) is list
        assert len(est.snapshots) == len(samples) - (fit is fit_remark15)
        for cloud, b in est.snapshots:
            assert type(cloud) is FrozenCloud and type(b) is float
            for array in (cloud.samples, cloud.log_weights, cloud.cum_loss):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0



class TestFixedDesignReadsItsPass:
    """At a design point the fixed-design estimator is the mean of the
    predictions its online pass made there, so predicting reads no
    snapshot's weights."""

    @pytest.mark.parametrize("backend_name", ["quadrature", "importance", "chain"])
    def test_design_means_of_the_replayed_predictions(self, backend_name):
        d, backend = TestStoredPassMatchesFullSnapshots.BACKENDS[backend_name]
        dictionary = _coord_dict(d=d, norm=10.0)
        samples = TestStoredPassMatchesFullSnapshots._samples(d)
        est = fit_fixed_design(samples, dictionary, backend, seed=5)
        tau = 1.0 / math.sqrt(d * len(samples))
        played = run_protocol(seqsew_adaptive(d, tau, backend, seed=5), samples, dictionary).predictions
        design = [x for x, _ in samples]
        expected = []
        for x in design:
            visits = [played[t] for t, p in enumerate(design) if np.array_equal(p, x)]
            expected.append(sum(visits) / len(visits))
        assert est.predict_many(design).tolist() == expected
        assert [est.predict(x) for x in design[:8]] == expected[:8]

    @pytest.mark.parametrize("backend_name", ["quadrature", "importance", "chain"])
    def test_every_snapshot_predicts_its_own_round(self, backend_name):
        # A round's snapshot and the live cloud that predicted the round
        # form their means by one function of one state, so the fit's
        # predictions are its snapshots' means bit for bit.
        d, backend = TestStoredPassMatchesFullSnapshots.BACKENDS[backend_name]
        dictionary = _coord_dict(d=d, norm=10.0)
        samples = TestStoredPassMatchesFullSnapshots._samples(d)
        est = fit_fixed_design(samples, dictionary, backend, seed=5)
        means = [cloud.predict_clipped_mean(dictionary.features(x), b) for (cloud, b), (x, _) in zip(est.snapshots, samples)]
        assert means == est.predictions.tolist()

    def test_prediction_reads_no_weights(self, monkeypatch):
        d, backend = TestStoredPassMatchesFullSnapshots.BACKENDS["importance"]
        samples = TestStoredPassMatchesFullSnapshots._samples(d)
        est = fit_fixed_design(samples, _coord_dict(d=d, norm=10.0), backend, seed=5)
        points = [x for x, _ in samples[:8]] + [np.full(d, 0.125)]
        truth = lambda x: 1.5 * float(np.asarray(x)[0])
        preds, measured = est.predict_many(points), risk(est, truth)

        def weights(self):
            raise AssertionError("fixed-design prediction read a snapshot's weights")

        monkeypatch.setattr(FrozenCloud, "weights", weights)
        assert np.array_equal(est.predict_many(points), preds)
        assert [est.predict(x) for x in points] == preds.tolist()
        assert risk(est, truth) == measured


class TestAveragedPredictionReadsNoRoundWeights:
    """Random-design and offset predictions read the weight sums their
    pass kept, one per group, and never a round's weights."""

    @pytest.mark.parametrize("fit", [fit_random_design, fit_remark15])
    @pytest.mark.parametrize("backend_name", ["quadrature", "importance", "chain"])
    def test_predictions_without_snapshot_weights(self, monkeypatch, backend_name, fit):
        d, backend = TestStoredPassMatchesFullSnapshots.BACKENDS[backend_name]
        samples = TestStoredPassMatchesFullSnapshots._samples(d)
        est = fit(samples, _coord_dict(d=d, norm=10.0), backend, seed=5)
        points = [x for x, _ in samples[:8]] + list(np.random.default_rng(8).uniform(-2, 2, size=(4, d)))
        preds = est.predict_many(points)
        singles = [est.predict(x) for x in points]

        def weights(self):
            raise AssertionError("an averaged prediction read a snapshot's weights")

        monkeypatch.setattr(FrozenCloud, "weights", weights)
        monkeypatch.setattr(FrozenCloud, "log_weights", property(weights))
        assert est.predict_many(points).tobytes() == preds.tobytes()
        assert [est.predict(x) for x in points] == singles


FITS = [fit_random_design, fit_fixed_design, fit_remark15]


class TestEvaluationPoints:
    """Evaluation points must be finite; no points is an empty answer."""

    @pytest.mark.parametrize("fit", FITS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_is_named(self, fit, bad):
        samples = [(np.array([0.5, -0.25]), 1.0), (np.array([0.1, 0.3]), -0.5)]
        est = fit(samples, _coord_dict(d=2), IMP, seed=0)
        point = np.array([bad, 0.0])
        with pytest.raises(DataError, match="evaluation point 0: must be finite"):
            est.predict(point)
        with pytest.raises(DataError, match="evaluation point 0: must be finite"):
            est.predict_components(point)
        with pytest.raises(DataError, match="evaluation point 2: must be finite"):
            est.predict_many([samples[0][0], samples[1][0], point])

    def test_non_finite_features_are_named(self):
        # A finite point whose normalised features overflow.
        est = fit_random_design([(np.array([0.5]), 1.0)], _coord_dict(norm=10.0), QUAD)
        with np.errstate(over="ignore"), pytest.raises(DataError, match="evaluation point 1: features must be finite"):
            est.predict_many([np.array([0.5]), np.array([1e308])])

    @pytest.mark.parametrize("fit", FITS)
    def test_features_whose_squared_norm_overflows_are_named(self, fit):
        # Finite features, refused as a training round's would be.
        samples = [(np.array([0.5, -0.25]), 1.0), (np.array([0.1, 0.3]), -0.5)]
        est = fit(samples, None, IMP, seed=0)
        message = re.escape("evaluation point 1: features must be finite with a finite squared norm, got [1e+200, 1e+200]")
        with pytest.raises(DataError, match=f"^{message}$"):
            est.predict_many([samples[0][0], np.array([1e200, 1e200])])

    @pytest.mark.parametrize("fit", FITS)
    def test_no_points_predict_nothing(self, fit):
        samples = [(np.array([0.5]), 1.0), (np.array([-0.5]), 2.0)]
        est = fit(samples, _coord_dict(), QUAD)
        preds = est.predict_many([])
        assert preds.shape == (0,) and preds.dtype == np.float64


class TestFeatureFailures:
    """A failing dictionary raises DataError naming the input, in a batch
    fit and at evaluation points as in the online protocol."""

    @staticmethod
    def _samples():
        rng = np.random.default_rng(2)
        samples = [(rng.uniform(-1, 1, size=2), float(rng.standard_normal())) for _ in range(5)]
        samples[2] = (np.zeros(3), 1.0)  # the third sample has no R^2 features
        return samples

    @pytest.mark.parametrize("fit", FITS)
    def test_fit_names_the_round_of_its_pass(self, fit):
        # The offset variant's pass starts at the second sample.
        round_ = 2 if fit is fit_remark15 else 3
        with pytest.raises(DataError, match=rf"^round {round_}: feature evaluation failed: coordinate dictionary"):
            fit(self._samples(), _coord_dict(d=2), IMP, seed=0)

    def test_fit_fails_like_the_protocol(self):
        samples, dictionary = self._samples(), _coord_dict(d=2)
        with pytest.raises(DataError) as online:
            run_protocol(SeqSEWAdaptive(2, 0.5, IMP, seed=0), samples, dictionary)
        with pytest.raises(DataError) as batch_fit:
            fit_random_design(samples, dictionary, IMP, seed=0)
        assert str(batch_fit.value) == str(online.value)

    def test_predict_many_names_the_point(self):
        samples = [sample for i, sample in enumerate(self._samples()) if i != 2]
        est = fit_random_design(samples, _coord_dict(d=2), IMP, seed=0)
        points = [samples[0][0], samples[1][0], np.zeros(3)]
        with pytest.raises(DataError, match="^evaluation point 2: feature evaluation failed: coordinate dictionary"):
            est.predict_many(points)

    @pytest.mark.parametrize("point", [np.array([0.4]), np.array([0.4, 0.1, 0.2])], ids=["short", "long"])
    def test_wrong_shaped_point_is_named(self, point):
        # Without a dictionary the point is its feature vector, which must
        # have the fit's d entries: no broadcasting of a short one.
        samples = [(np.array([0.5, -0.25]), 1.0), (np.array([0.1, 0.3]), -0.5)]
        est = fit_random_design(samples, None, IMP, seed=0)
        message = rf"^evaluation point 1: features have shape \({len(point)},\), expected \(2,\)$"
        with pytest.raises(DimensionMismatchError, match=message):
            est.predict_many([samples[0][0], point])


class TestBlockedAverage:
    """Random-design and offset predictions sum each group's weights and
    evaluate one block at a time; block edges must not show.  Fixed-design
    predictions average the pass's own predictions, so the block size must
    not matter to them.  The reference evaluates every snapshot on its own
    and averages, as the estimators are defined."""

    @staticmethod
    def _fit(backend_name, fit):
        d, backend = TestStoredPassMatchesFullSnapshots.BACKENDS[backend_name]
        samples = TestStoredPassMatchesFullSnapshots._samples(d)
        est = fit(samples, _coord_dict(d=d, norm=10.0), backend, seed=5)
        sets = len({id(cloud.samples) for cloud, _ in est.snapshots})
        if backend_name == "chain":
            assert sets == len(est.snapshots)  # one group per round
        else:
            assert sets >= 2  # at least one resample
        return est, samples, backend.n_samples

    @staticmethod
    def _reference(est, x):
        features = est.dictionary.features(x)
        means = np.asarray([cloud.predict_clipped_mean(features, b) for cloud, b in est.snapshots])
        if est.mode != "fixed_design_grouped":
            return est.anchor + float(np.mean(means))
        visits = [t for t, p in enumerate(est.design_points) if np.array_equal(p, x)]
        return float(np.mean(means[visits])) if visits else 0.0

    @pytest.mark.parametrize("excess", [-1, 0, 1])  # points just below, at and above one block
    @pytest.mark.parametrize("fit", [fit_random_design, fit_remark15])
    @pytest.mark.parametrize("backend_name", ["importance", "chain"])
    def test_point_blocks(self, monkeypatch, backend_name, fit, excess):
        est, samples, n = self._fit(backend_name, fit)
        height = 5
        monkeypatch.setattr(posterior, "_BLOCK_BYTES", 8 * n * height)
        d = len(samples[0][0])
        rng = np.random.default_rng(30)
        points = [rng.uniform(-2, 2, size=d) for _ in range(height + excess)]
        expected = [self._reference(est, x) for x in points]
        np.testing.assert_allclose(est.predict_many(points), expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("excess", [-1, 0, 1])  # block sizes just below, at and above the largest group
    @pytest.mark.parametrize("backend_name", ["importance", "chain"])
    def test_round_blocks(self, monkeypatch, backend_name, excess):
        est, samples, n = self._fit(backend_name, fit_fixed_design)
        largest = max(Counter((id(cloud.samples), b) for cloud, b in est.snapshots).values())
        assert largest >= (2 if backend_name == "importance" else 1)
        monkeypatch.setattr(posterior, "_BLOCK_BYTES", 8 * n * max(1, largest - excess))
        d = len(samples[0][0])
        points = [x for x, _ in samples[:10]] + [np.full(d, 0.125)]  # design points and one off it
        expected = [self._reference(est, x) for x in points]
        np.testing.assert_allclose(est.predict_many(points), expected, rtol=0.0, atol=1e-12)


    @pytest.mark.parametrize("height", [1, 2, 3, 64])
    @pytest.mark.parametrize("backend_name", ["importance", "chain"])
    def test_scattered_design_rows(self, monkeypatch, backend_name, height):
        # Design points asked for out of order, twice, and between points
        # off the design, under block sizes that would split them.
        est, samples, n = self._fit(backend_name, fit_fixed_design)
        monkeypatch.setattr(posterior, "_BLOCK_BYTES", 8 * n * height)
        d = len(samples[0][0])
        design = [x for x, _ in samples]
        order = np.random.default_rng(31).permutation(len(design))
        points = []
        for i in order[:20]:
            points += [design[i], np.full(d, 0.125 + i)]
        points += [design[i] for i in order[:5]]
        expected = [self._reference(est, x) for x in points]
        np.testing.assert_allclose(est.predict_many(points), expected, rtol=0.0, atol=1e-12)


class TestPredictionScratch:
    """One ``predict_many`` call holds a few cache-sized blocks, not the
    (T, m) matrix of per-round means or (n, m) margins."""

    @pytest.mark.parametrize("fit", [fit_random_design, fit_fixed_design])
    def test_transient_peak_is_a_few_blocks(self, fit):
        rng = np.random.default_rng(12)
        n, d, T = 2000, 2, 200
        samples = [(x, float(x[0] + 0.3 * rng.standard_normal())) for x in rng.uniform(-1, 1, size=(T, d))]
        est = fit(samples, _coord_dict(d=d), BackendConfig(backend="importance", n_samples=n), seed=4)
        points = [x for x, _ in samples] if fit is fit_fixed_design else list(rng.uniform(-1, 1, size=(T, d)))
        est.predict_many(points)  # first-call allocations are not the path's own
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            est.predict_many(points)
            transient = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Two (rows, n) blocks plus O(m d + n) arrays; an (n, m) margin
        # array alone is 3.2 MB here.
        assert transient <= 3 * posterior._BLOCK_BYTES


class TestStoredFitSize:
    """A fit keeps at most one n-vector per round, plus each epoch's
    sample set and log base: no second copy of a round's weights.  (It
    keeps one weight sum per group and replays the losses on demand;
    ``TestStoredFitGrowth`` bounds its growth with T.)"""

    def test_importance_fit_keeps_one_vector_per_round(self):
        rng = np.random.default_rng(13)
        n, d, T = 2000, 4, 100
        samples = [(x, float(1.5 * x[0] + 0.3 * rng.standard_normal())) for x in rng.uniform(-1, 1, size=(T, d))]
        dictionary = _coord_dict(d=d, norm=10.0)  # large features collapse the ESS
        tracemalloc.start()
        try:
            est = fit_random_design(samples, dictionary, BackendConfig(backend="importance", n_samples=n), seed=4)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        epochs = len({id(cloud.samples) for cloud, _ in est.snapshots})
        assert epochs >= 2  # the fit spans a resample-move
        # Two n-vectors per round would be 2 T n 8 bytes.
        assert kept <= 1.25 * T * n * 8 + epochs * n * (d + 1) * 8


class TestStoredFitGrowth:
    """A fit keeps O(T d + groups n) floats beyond its epochs: d + 7 per
    round (its run's columns: features, y, prediction, threshold, eta,
    regime, ess and gamma) and one weight sum per (sample set, threshold)
    group, never an n-vector per round."""

    @staticmethod
    def _kept(T, backend, d=1):
        rng = np.random.default_rng(14)
        samples = [(x, float(1.5 * x[0] + 0.3 * rng.standard_normal())) for x in rng.uniform(-1, 1, size=(T, d))]
        dictionary = _coord_dict(d=d)
        fit_random_design(samples[:5], dictionary, backend, seed=4)  # first-call allocations are not the fit's
        tracemalloc.start()
        try:
            est = fit_random_design(samples, dictionary, backend, seed=4)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return kept, est

    @pytest.mark.parametrize(
        "backend",
        [BackendConfig(backend="quadrature"), BackendConfig(backend="importance", n_samples=2000, ess_floor=0.01)],
        ids=["quadrature", "importance"],
    )
    def test_growth_is_not_n_per_round(self, backend):
        T, d = 250, 1
        kept, _ = self._kept(T, backend, d)
        kept_4t, est = self._kept(4 * T, backend, d)
        snapshots = est.snapshots
        n = snapshots[0][0].samples.shape[0]
        assert len({id(cloud.samples) for cloud, _ in snapshots}) == 1  # no resample
        groups = len({b for _, b in snapshots})
        # The 3 T (d + 7) floats of the new rounds fit within this bound
        # at d 1, with the new groups' sums; keeping every round's losses
        # would grow by 3 T n floats.
        assert kept_4t - kept <= 2 * 3 * T * (d + 4) * 8 + groups * n * 8

    def test_long_default_grid_fit_keeps_a_few_mb(self):
        # d 1, T 10^4 on the default 257-node grid, a shape whose risk gate
        # binds: per-round losses alone would be T n 8 = 20.6 MB.
        T, d, n = 10**4, 1, 257
        kept, _ = self._kept(T, BackendConfig(backend="quadrature"), d)
        # The rounds' T (d + 7) floats, 0.64 MB, and the grid's epoch
        # with its groups' sums within this bound of about 0.9 MB.
        assert kept <= 2 * T * (d + 4) * 8 + 64 * n * 8
