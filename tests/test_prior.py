"""Tests for the sparsity prior: closed forms against independent
quadrature, exact sampling, and the finite-support duality."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, stats

from seqsew.errors import ArgumentError, DimensionMismatchError
from seqsew.forecasters import _REGIME_CAP, regime_prior_scale
from seqsew.prior import (
    SparsityPrior,
    TranslatedPrior,
    coordinate_density_integral,
    coordinate_magnitude_cdf,
    coordinate_second_moment,
    kl_duality_check,
    kl_translated_quadrature,
    kl_upper_bound,
    log_density,
    magnitude_from_uniform,
    refined_sparsity_term,
    s_ln_term,
    sample,
    translated_loss_identity_check,
)


class TestLogDensity:
    def test_origin(self):
        prior = SparsityPrior(tau=1.0, dim=1)
        assert log_density(prior, [0.0]) == pytest.approx(math.log(1.5), abs=1e-15)

    def test_unit_point(self):
        prior = SparsityPrior(tau=1.0, dim=1)
        expected = math.log(1.5) - 4.0 * math.log(2.0)
        assert log_density(prior, [1.0]) == pytest.approx(expected, abs=1e-15)

    def test_product_of_identical_coordinates(self):
        prior = SparsityPrior(tau=2.0, dim=2)
        assert log_density(prior, [0.0, 0.0]) == pytest.approx(2.0 * math.log(0.75), abs=1e-15)

    def test_dimension_mismatch(self):
        prior = SparsityPrior(tau=1.0, dim=2)
        with pytest.raises(DimensionMismatchError):
            log_density(prior, [1.0])

    def test_invalid_parameters(self):
        with pytest.raises(ArgumentError):
            SparsityPrior(tau=0.0, dim=1)
        with pytest.raises(ArgumentError):
            SparsityPrior(tau=1.0, dim=0)


class TestSampler:
    def test_inverse_cdf_at_zero(self):
        assert magnitude_from_uniform(0.0, 1.0) == 0.0

    def test_inverse_cdf_median(self):
        assert magnitude_from_uniform(0.5, 1.0) == pytest.approx(2.0 ** (1.0 / 3.0) - 1.0, rel=1e-12)

    def test_inverse_matches_numeric_root(self):
        # Invert the one-sided magnitude CDF numerically and compare.
        for tau in (1.0, 3.0):
            for v in (0.1, 0.5, 0.9):
                numeric = optimize.brentq(
                    lambda x: coordinate_magnitude_cdf(x, tau) - v, 0.0, 1e6
                )
                assert magnitude_from_uniform(v, tau) == pytest.approx(numeric, rel=1e-9)

    def test_scale_equivariance(self):
        assert magnitude_from_uniform(0.5, 3.0) == pytest.approx(
            3.0 * (2.0 ** (1.0 / 3.0) - 1.0), rel=1e-12
        )

    def test_ks_distance_of_magnitudes(self):
        prior = SparsityPrior(tau=1.0, dim=1)
        draws = sample(prior, np.random.default_rng(7), size=20_000)[:, 0]
        result = stats.kstest(np.abs(draws), lambda x: coordinate_magnitude_cdf(x, 1.0))
        assert result.statistic < 0.02

    def test_shape_and_determinism(self):
        prior = SparsityPrior(tau=0.5, dim=3)
        a = sample(prior, np.random.default_rng(3), size=10)
        b = sample(prior, np.random.default_rng(3), size=10)
        assert a.shape == (10, 3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("tau", [3.0, 1e-3, 0.5])
    @pytest.mark.parametrize("size", [None, 500])
    def test_draw_is_signs_times_inverse_cdf(self, tau, size):
        prior = SparsityPrior(tau=tau, dim=4)
        draws = sample(prior, np.random.default_rng(9), size=size)
        rng = np.random.default_rng(9)
        v = rng.random(draws.shape)
        signs = np.where(rng.random(draws.shape) < 0.5, -1.0, 1.0)
        expected = signs * magnitude_from_uniform(v, tau)
        # Compared as bit patterns, so the sign of a zero counts too.
        assert np.array_equal(draws.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("r", range(_REGIME_CAP + 1))
    def test_draw_is_an_exact_scale_family(self, r):
        # Every regime's points can be its scale times one unit-scale set.
        tau = regime_prior_scale(r)
        draws = sample(SparsityPrior(tau, 5), np.random.default_rng(r), size=2000)
        unit = sample(SparsityPrior(1.0, 5), np.random.default_rng(r), size=2000)
        assert np.array_equal(draws.view(np.int64), (tau * unit).view(np.int64))

    def test_empty_draw(self):
        draws = sample(SparsityPrior(tau=1.0, dim=3), np.random.default_rng(0), size=0)
        assert draws.shape == (0, 3)

    def test_matrix_draw_is_column_major(self):
        draws = sample(SparsityPrior(tau=1.0, dim=7), np.random.default_rng(2), size=500)
        assert draws.shape == (500, 7) and draws.flags.f_contiguous

    def test_draw_holds_under_two_and_a_half_output_arrays(self):
        prior = SparsityPrior(tau=1.0, dim=20)
        rng = np.random.default_rng(5)
        sample(prior, rng, size=10)
        tracemalloc.start()
        try:
            draws = sample(prior, rng, size=10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * draws.nbytes


class TestQuadratureMoments:
    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_density_normalizes(self, tau):
        assert coordinate_density_integral(tau) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_second_moment_is_tau_squared(self, tau):
        assert coordinate_second_moment(tau) == pytest.approx(tau**2, abs=1e-6)


class TestDivergenceBudgets:
    def test_zero_vector_convention(self):
        assert kl_upper_bound(np.zeros(4), 1.0) == 0.0
        assert refined_sparsity_term(np.zeros(4), 1.0) == 0.0

    def test_one_sparse(self):
        assert kl_upper_bound([1.0, 0.0, 0.0], 1.0) == pytest.approx(4.0 * math.log(2.0), rel=1e-12)
        assert refined_sparsity_term([1.0, 0.0], 1.0) == pytest.approx(4.0 * math.log(2.0), rel=1e-12)

    def test_two_sparse(self):
        assert kl_upper_bound([1.0, 1.0], 1.0) == pytest.approx(8.0 * math.log(2.0), rel=1e-12)
        assert refined_sparsity_term([1.0, 1.0], 1.0) == pytest.approx(8.0 * math.log(2.0), rel=1e-12)

    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8),
        st.floats(0.01, 20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_refined_never_exceeds_hard_count_budget(self, u, tau):
        u = np.asarray(u)
        assert refined_sparsity_term(u, tau) <= kl_upper_bound(u, tau) + 1e-9

    @pytest.mark.parametrize("center", [0.3, 1.0, 5.0, -2.0])
    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_quadrature_kl_below_both_budgets(self, center, tau):
        kl = kl_translated_quadrature([center], tau)
        assert kl >= 0.0
        assert kl <= refined_sparsity_term([center], tau) + 1e-9
        assert kl <= kl_upper_bound([center], tau) + 1e-9

    def test_quadrature_kl_multidimensional(self):
        u = np.array([1.0, 0.0, -3.0])
        kl = kl_translated_quadrature(u, 0.7)
        assert kl <= refined_sparsity_term(u, 0.7) + 1e-9 <= kl_upper_bound(u, 0.7) + 1e-8


class TestTranslatedPrior:
    def test_density_is_translated_pointwise(self):
        base = SparsityPrior(tau=0.8, dim=2)
        rho = TranslatedPrior(base=base, center=np.array([1.0, -2.0]))
        for u in ([0.0, 0.0], [1.0, -2.0], [3.0, 4.0]):
            shifted = np.asarray(u) - rho.center
            assert rho.log_density(u) == pytest.approx(log_density(base, shifted), abs=1e-14)

    def test_center_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            TranslatedPrior(base=SparsityPrior(tau=1.0, dim=2), center=np.array([1.0]))


class TestTranslatedLossIdentity:
    def test_degenerate_translation(self):
        # tau -> 0 collapses the translated prior onto its center.
        features = np.array([[1.0], [2.0], [0.5]])
        y = np.array([1.0, -2.0, 0.3])
        est, exact, se = translated_loss_identity_check(
            [0.0], 1e-9, features, y, n_mc=4000, rng=np.random.default_rng(0)
        )
        assert exact == pytest.approx(float(np.sum(y**2)), rel=1e-9)
        assert abs(est - exact) <= 3.0 * se

    def test_exact_fit_center(self):
        features = np.array([[1.0], [2.0], [0.5]])
        u_star = np.array([1.5])
        y = features @ u_star
        _, exact, _ = translated_loss_identity_check(
            u_star, 0.1, features, y, n_mc=10, rng=np.random.default_rng(0)
        )
        assert exact == pytest.approx(0.01 * float(np.sum(features**2)), rel=1e-12)

    def test_monte_carlo_agrees(self):
        rng = np.random.default_rng(11)
        features = rng.uniform(-1, 1, size=(5, 2))
        y = rng.uniform(-1, 1, size=5)
        est, exact, se = translated_loss_identity_check(
            [0.5, -0.2], 0.5, features, y, n_mc=4000, rng=rng
        )
        assert abs(est - exact) <= 3.0 * se

    def test_rejects_empty_or_bad_mc(self):
        with pytest.raises(ArgumentError):
            translated_loss_identity_check([0.0], 1.0, np.zeros((1, 1)), np.zeros(1), 0, np.random.default_rng(0))


class TestArgumentRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: s_ln_term(1.0, -1.0), ArgumentError, "s and U must be nonnegative"),
            (lambda: kl_upper_bound([1.0], 0.0), ArgumentError, "tau must be positive, got 0.0"),
            (lambda: refined_sparsity_term([1.0], -1.0), ArgumentError, "tau must be positive, got -1.0"),
            (
                lambda: translated_loss_identity_check([0.0], 1.0, np.zeros((2, 1)), np.zeros(3), 10, np.random.default_rng(0)),
                ArgumentError,
                "features and y must be nonempty with matching round counts",
            ),
            (
                lambda: translated_loss_identity_check([0.0, 1.0], 1.0, np.zeros((2, 1)), np.zeros(2), 10, np.random.default_rng(0)),
                DimensionMismatchError,
                "u_star has shape (2,), expected (1,)",
            ),
            (lambda: kl_duality_check([0.5, 0.5], [0.0]), ArgumentError, "weights_pi and h must be 1-d arrays of equal positive length"),
            (lambda: sample(SparsityPrior(1.0, 2), np.random.default_rng(0), size=2.5), ArgumentError, "size must be an integer, got 2.5"),
            (lambda: sample(SparsityPrior(1.0, 2), np.random.default_rng(0), size=-1), ArgumentError, "size must lie in [0, "),
            (lambda: sample(SparsityPrior(1.0, 2), np.random.default_rng(0), size=-1.0), ArgumentError, "got -1.0"),
            (lambda: sample(SparsityPrior(1.0, 2), np.random.default_rng(0), size=1e308), ArgumentError, "size must lie in [0, "),
        ],
        ids=[
            "s-ln-term", "kl-upper-bound", "refined-sparsity-term", "identity-rounds", "identity-witness", "kl-duality-shapes",
            "sample-size", "sample-size-negative", "sample-size-negative-float", "sample-size-beyond-intp",
        ],
    )
    def test_out_of_range_argument_is_refused(self, call, error, message):
        with pytest.raises(error, match=re.escape(message)):
            call()


class TestKLDuality:
    def test_constant_exponent(self):
        lhs, rhs = kl_duality_check([0.5, 0.5], [0.0, 0.0])
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_hand_evaluated_instance(self):
        lhs, rhs = kl_duality_check([0.5, 0.5], [0.0, math.log(2.0)])
        assert lhs == pytest.approx(-math.log(0.75), rel=1e-12)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_degenerate_prior(self):
        lhs, rhs = kl_duality_check([1.0, 0.0], [3.7, 99.0])
        assert lhs == pytest.approx(3.7, abs=1e-15)
        assert rhs == pytest.approx(3.7, abs=1e-13)

    def test_rejects_non_probability(self):
        with pytest.raises(ArgumentError):
            kl_duality_check([0.5, 0.6], [0.0, 0.0])

    def test_random_instances_match_to_float_precision(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 30))
            pi = rng.dirichlet(np.ones(k))
            h = rng.uniform(-5.0, 20.0, size=k)
            lhs, rhs = kl_duality_check(pi, h)
            assert abs(lhs - rhs) < 1e-12
