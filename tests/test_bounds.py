"""Tests for the bound evaluators, the comparator oracle, and the
verification machinery."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqsew.bounds import (
    Comparator,
    SequenceStats,
    _within_fixed_limit,
    best_sparse_comparator,
    cor3_rhs,
    cor6_rhs,
    cor7_rhs,
    cor9_rhs,
    mc_allowance_from_replays,
    prop2_rhs,
    prop5_rhs,
    s_ln_term,
    thm8_rhs,
    verify,
)
from seqsew.errors import ArgumentError, ContractViolationError, DataError
from seqsew.forecasters import ProtocolResult, ridge_baseline, run_protocol, seqsew_adaptive, seqsew_auto, seqsew_fixed
from seqsew.posterior import BackendConfig

QUAD = BackendConfig(backend="quadrature", grid_points_per_dim=513)


def _stats(T=10, max_y_sq=1.0, gram=0.0):
    return SequenceStats(T=T, max_y_sq=max_y_sq, gram_trace=gram)


def _comp(u, loss):
    u = np.asarray(u, dtype=float)
    return Comparator(
        u=u, l0=int(np.count_nonzero(u)), l1=float(np.sum(np.abs(u))), cumulative_loss=float(loss)
    )


class TestSequenceStats:
    def test_dyadic_envelope_bracket(self):
        s = _stats(max_y_sq=5.0)
        assert s.B_T1_sq == 8.0
        assert s.B_T1_sq <= 2.0 * s.max_y_sq

    def test_zero_sequence(self):
        s = _stats(max_y_sq=0.0, gram=0.0)
        assert s.B_T1_sq == 0.0
        assert s.A_T == 2.0  # log2(ln e) = 0

    def test_from_arrays(self):
        s = SequenceStats.from_arrays(np.array([[1.0, 2.0], [0.5, 0.0]]), np.array([1.0, -3.0]))
        assert s.T == 2
        assert s.max_y_sq == 9.0
        assert s.gram_trace == pytest.approx(5.25)


class TestFixedForecasterBounds:
    def test_prop2_zero_comparator(self):
        stats = _stats(gram=7.0)
        assert prop2_rhs(_comp([0.0, 0.0], 3.0), eta=0.125, tau=0.5, stats=stats) == pytest.approx(
            3.0 + 0.25 * 7.0
        )

    def test_prop2_one_sparse_unit(self):
        stats = _stats(gram=2.0)
        got = prop2_rhs(_comp([1.0], 5.0), eta=0.125, tau=1.0, stats=stats)
        assert got == pytest.approx(5.0 + 32.0 * math.log(2.0) + 2.0)

    def test_prop2_diverges_as_tau_vanishes(self):
        stats = _stats(gram=1.0)
        comp = _comp([1.0], 0.0)
        assert prop2_rhs(comp, 0.125, 1e-6, stats) > prop2_rhs(comp, 0.125, 1e-3, stats)

    def test_cor3_zero_comparator(self):
        assert cor3_rhs(_comp([0.0], 2.0), B_y=3.0, B_Phi=10.0) == pytest.approx(2.0 + 16.0 * 9.0)

    def test_cor3_hand_value(self):
        got = cor3_rhs(_comp([1.0, 0.0], 5.0), B_y=1.0, B_Phi=16.0)
        assert got == pytest.approx(5.0 + 32.0 * math.log(2.0) + 16.0)

    def test_cor3_monotone_in_gram_bound(self):
        comp = _comp([1.0, 0.0], 0.0)
        assert cor3_rhs(comp, 1.0, 64.0) > cor3_rhs(comp, 1.0, 16.0)


class TestAdaptiveBounds:
    def test_prop5_composition(self):
        stats = _stats(max_y_sq=5.0, gram=3.0)  # B^2 = 8
        got = prop5_rhs(_comp([1.0], 2.0), tau=1.0, stats=stats)
        assert got == pytest.approx(2.0 + 32.0 * 8.0 * math.log(2.0) + 3.0 + 16.0 * 8.0)

    def test_cor6_zero_comparator(self):
        stats = _stats(max_y_sq=1.0, gram=4.0)
        assert cor6_rhs(_comp([0.0], 7.0), B_Phi=4.0, stats=stats) == pytest.approx(7.0 + 16.0 + 1.0)

    def test_cor7_unit_gram_ratio(self):
        # gram = d T makes the feature term exactly 1.
        stats = _stats(T=10, max_y_sq=0.0, gram=30.0)
        assert cor7_rhs(_comp([0.0, 0.0, 0.0], 0.0), d=3, stats=stats) == pytest.approx(1.0)

    def test_constants_scale_with_dyadic_envelope(self):
        lo = prop5_rhs(_comp([0.0], 0.0), tau=1.0, stats=_stats(max_y_sq=1.0))
        hi = prop5_rhs(_comp([0.0], 0.0), tau=1.0, stats=_stats(max_y_sq=5.0))
        assert hi == pytest.approx(8.0 * lo)


class TestCorollariesAreTheirPropositionsAtOneTuning:
    """Each corollary's right-hand side is its proposition's at the
    corollary's tuning, to rounding."""

    CASES = [
        (_comp([0.0, 0.0, 0.0], 2.5), 3, _stats(T=40, max_y_sq=5.0, gram=17.0)),
        (_comp([1.5, 0.0, -0.25], 11.0), 3, _stats(T=7, max_y_sq=0.3, gram=2.0)),
        (_comp([3.0, 1e-3, 0.0, 40.0], 1e3), 4, _stats(T=500, max_y_sq=12.0, gram=900.0)),
    ]

    @pytest.mark.parametrize("comp, d, stats", CASES)
    def test_cor7_is_prop5_at_tau_one_over_root_dt(self, comp, d, stats):
        tau = 1.0 / math.sqrt(d * stats.T)
        assert cor7_rhs(comp, d, stats) == pytest.approx(prop5_rhs(comp, tau, stats), rel=1e-14)

    @pytest.mark.parametrize("comp, d, stats", CASES)
    def test_cor6_is_prop5_at_tau_one_over_root_b_phi(self, comp, d, stats):
        B_Phi = stats.gram_trace
        tau = 1.0 / math.sqrt(B_Phi)
        assert cor6_rhs(comp, B_Phi, stats) == pytest.approx(prop5_rhs(comp, tau, stats), rel=1e-14)

    @pytest.mark.parametrize("comp, d, stats", CASES)
    @pytest.mark.parametrize("B_y", [0.5, 1.0, 7.0])
    def test_cor3_is_prop2_at_the_oracle_tuning(self, comp, d, stats, B_y):
        B_Phi = stats.gram_trace
        eta, tau = 1.0 / (8.0 * B_y**2), 4.0 * B_y / math.sqrt(B_Phi)
        assert cor3_rhs(comp, B_y, B_Phi) == pytest.approx(prop2_rhs(comp, eta, tau, stats), rel=1e-14)


class TestAutomaticBounds:
    def test_thm8_zero_comparator(self):
        stats = _stats(max_y_sq=2.0, gram=9.0)
        got = thm8_rhs(_comp([0.0], 4.0), stats)
        assert got == pytest.approx(4.0 + (1.0 + 38.0 * 2.0) * stats.A_T)

    def test_thm8_zero_gram(self):
        stats = _stats(max_y_sq=1.0, gram=0.0)
        got = thm8_rhs(_comp([2.0], 0.0), stats)
        # ln(e + 0) = 1 and A_T = 2.
        assert got == pytest.approx(256.0 + 64.0 * 2.0 * math.log(3.0) + 39.0 * 2.0)

    def test_cor9_hand_value(self):
        stats = _stats(max_y_sq=1.0, gram=0.0)
        assert cor9_rhs(1.0, 1.0, stats) == pytest.approx(256.0 + 128.0 * math.log(2.0) + 78.0)

    def test_cor9_zero_sparsity(self):
        stats = _stats(max_y_sq=3.0, gram=5.0)
        assert cor9_rhs(0.0, 10.0, stats) == pytest.approx((1.0 + 114.0) * stats.A_T)

    def test_cor9_monotone_in_s_and_U(self):
        stats = _stats(max_y_sq=1.0, gram=2.0)
        grid = np.linspace(0.0, 12.0, 200)
        values_s = [cor9_rhs(s, 3.0, stats) for s in grid]
        values_u = [cor9_rhs(2.0, u, stats) for u in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values_s, values_s[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(values_u, values_u[1:]))


class TestSLnTerm:
    def test_continuous_extension(self):
        assert s_ln_term(0.0, 5.0) == 0.0

    def test_nondecreasing_on_dense_grid(self):
        for U in (0.0, 0.3, 2.0, 50.0):
            grid = np.linspace(0.0, 20.0, 500)
            vals = [s_ln_term(s, U) for s in grid]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_property(self, s, ds, U):
        assert s_ln_term(s, U) <= s_ln_term(s + ds, U) + 1e-9

    def test_subnormal_s_takes_the_log_difference(self):
        # U / s overflows, so s ln(1 + U/s) is read as s (ln U - ln s).
        s = 5e-324
        value = s_ln_term(s, 1.0)
        assert value == s * (math.log(1.0) - math.log(s))
        assert value == pytest.approx(3.68e-321, rel=1e-3)


class TestMonotonicity:
    @pytest.mark.parametrize(
        "evaluator",
        [
            lambda c, st_: prop2_rhs(c, 0.125, 0.7, st_),
            lambda c, st_: cor3_rhs(c, 2.0, 9.0),
            lambda c, st_: prop5_rhs(c, 0.7, st_),
            lambda c, st_: cor6_rhs(c, 9.0, st_),
            lambda c, st_: cor7_rhs(c, 4, st_),
            lambda c, st_: thm8_rhs(c, st_),
        ],
    )
    def test_rhs_nondecreasing_in_l1_and_amplitude(self, evaluator):
        lo_stats, hi_stats = _stats(max_y_sq=1.0, gram=9.0), _stats(max_y_sq=4.0, gram=9.0)
        small = Comparator(u=np.array([1.0, 0.0]), l0=1, l1=1.0, cumulative_loss=5.0)
        large = Comparator(u=np.array([3.0, 0.0]), l0=1, l1=3.0, cumulative_loss=5.0)
        assert evaluator(small, lo_stats) <= evaluator(large, lo_stats) + 1e-12
        assert evaluator(small, lo_stats) <= evaluator(small, hi_stats) + 1e-12

    def test_finite_for_finite_inputs(self):
        stats = _stats(max_y_sq=1e6, gram=1e8)
        comp = _comp(np.full(5, 1e3), 1e7)
        for val in (
            prop2_rhs(comp, 1e-6, 1e-4, stats),
            prop5_rhs(comp, 1e-4, stats),
            thm8_rhs(comp, stats),
        ):
            assert math.isfinite(val)


class TestArgumentRefusals:
    @pytest.mark.parametrize(
        "evaluate, message",
        [
            (lambda c: prop2_rhs(c, 0.0, 0.7, _stats()), "eta and tau must be positive"),
            (lambda c: cor3_rhs(c, 2.0, -9.0), "B_y and B_Phi must be positive"),
            (lambda c: prop5_rhs(c, 0.0, _stats()), "tau must be positive"),
            (lambda c: cor6_rhs(c, 0.0, _stats()), "B_Phi must be positive"),
            (lambda c: cor7_rhs(c, 0, _stats()), "d must be a positive integer"),
            (lambda c: cor7_rhs(c, 1.5, _stats()), "d must be an integer, got 1.5"),
            (lambda c: best_sparse_comparator(np.eye(3), np.ones(3), 1.5), "s must be an integer, got 1.5"),
            (lambda c: cor9_rhs(-1.0, 1.0, _stats()), "s and U must be nonnegative"),
            (lambda c: verify(_quad_run(), "prop5", None), "a comparator witness is required"),
            (
                lambda c: verify(run_protocol(seqsew_auto(1, QUAD, seed=0), [(np.array([1.0]), 1.0)] * 3), "cor9", c),
                "cor9 needs the ball parameters s and U",
            ),
        ],
        ids=[
            "prop2", "cor3", "prop5", "cor6", "cor7", "cor7-fractional-d", "comparator-fractional-s", "cor9-rhs",
            "verify-no-witness", "verify-cor9-no-ball",
        ],
    )
    def test_out_of_range_argument_is_refused(self, evaluate, message):
        with pytest.raises(ArgumentError, match=re.escape(message)):
            evaluate(_comp([1.0], 2.0))

    def test_integral_float_counts_give_the_int_results(self):
        comp = _comp([1.0, 0.0, 0.0], 2.0)
        assert cor7_rhs(comp, 3.0, _stats(gram=1.0)) == cor7_rhs(comp, 3, _stats(gram=1.0))
        features = np.random.default_rng(3).uniform(-1, 1, size=(12, 3))
        y = features @ [1.0, -2.0, 0.0]
        by_float, by_int = best_sparse_comparator(features, y, 1.0), best_sparse_comparator(features, y, 1)
        assert np.array_equal(by_float.u, by_int.u) and by_float.cumulative_loss == by_int.cumulative_loss


class TestBestSparseComparator:
    def test_exact_fit_recovers_support(self):
        rng = np.random.default_rng(0)
        features = rng.uniform(-1, 1, size=(30, 4))
        y = 2.0 * features[:, 0]
        comp = best_sparse_comparator(features, y, s=1)
        assert comp.cumulative_loss == pytest.approx(0.0, abs=1e-18)
        assert np.allclose(comp.u, [2.0, 0.0, 0.0, 0.0], atol=1e-10)

    def test_zero_support(self):
        features = np.ones((5, 2))
        y = np.arange(5.0)
        comp = best_sparse_comparator(features, y, s=0)
        assert np.all(comp.u == 0.0)
        assert comp.cumulative_loss == pytest.approx(float(np.sum(y**2)))

    def test_full_support_equals_least_squares(self):
        rng = np.random.default_rng(1)
        features = rng.uniform(-1, 1, size=(40, 5))
        y = rng.uniform(-1, 1, size=40)
        comp = best_sparse_comparator(features, y, s=5)
        ols = np.linalg.lstsq(features, y, rcond=None)[0]
        assert np.linalg.norm(features @ (comp.u - ols)) < 1e-8

    def test_high_dimension_refused_without_flag(self):
        features = np.zeros((3, 25))
        with pytest.raises(ArgumentError, match="allow_greedy"):
            best_sparse_comparator(features, np.zeros(3), s=1)

    def test_greedy_fallback_is_labelled(self):
        rng = np.random.default_rng(2)
        features = rng.uniform(-1, 1, size=(60, 25))
        y = 1.5 * features[:, 3] - 0.5 * features[:, 17]
        comp = best_sparse_comparator(features, y, s=2, allow_greedy=True)
        assert comp.exact is False
        assert comp.cumulative_loss == pytest.approx(0.0, abs=1e-16)

    def test_rejects_s_out_of_range(self):
        with pytest.raises(ArgumentError):
            best_sparse_comparator(np.zeros((2, 2)), np.zeros(2), s=3)

    def test_equal_loss_breaks_ties_by_smaller_l1(self):
        # Both supports fit y = 2x exactly; the later one has the smaller l1.
        x = np.linspace(-1.0, 1.0, 7)
        comp = best_sparse_comparator(np.column_stack([x, 2.0 * x]), 2.0 * x, s=1)
        assert comp.u[0] == 0.0
        assert comp.u[1] == pytest.approx(1.0, rel=1e-12)

    def test_equal_loss_and_l1_break_ties_by_first_support(self):
        x = np.linspace(-1.0, 1.0, 7)
        comp = best_sparse_comparator(np.column_stack([x, x]), x, s=1)
        assert comp.u[1] == 0.0
        assert comp.u[0] == pytest.approx(1.0, rel=1e-12)


def _quad_run(T=25, seed=3, tau=0.2):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2, 2, size=(T, 1))
    ys = 1.3 * xs[:, 0] + 0.2 * rng.standard_normal(T)
    return run_protocol(seqsew_adaptive(1, tau, QUAD), list(zip(xs, ys)))


class TestVerify:
    def test_quadrature_prop5_passes_with_zero_allowance(self):
        res = _quad_run()
        comp = best_sparse_comparator(res.features, res.y, 1)
        report = verify(res, "prop5", comp)
        assert report.passed
        assert report.slack >= 0.0
        assert report.mc_allowance == 0.0
        assert report.lhs == pytest.approx(res.cumulative_loss)

    def test_report_serializes(self):
        res = _quad_run()
        comp = best_sparse_comparator(res.features, res.y, 1)
        d = verify(res, "prop5", comp).to_json_dict()
        assert set(d) == {"bound", "lhs", "rhs", "slack", "mc_allowance", "witness_u", "witness_exact", "pass"}

    def test_forecaster_kind_mismatch_is_a_contract_error(self):
        res = _quad_run()
        comp = best_sparse_comparator(res.features, res.y, 1)
        with pytest.raises(ContractViolationError):
            verify(res, "thm8", comp)

    def test_ridge_run_supports_no_bound(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(-1, 1, size=(10, 1))
        seq = list(zip(xs, xs[:, 0]))
        res = run_protocol(ridge_baseline(1, 1.0), seq)
        comp = best_sparse_comparator(res.features, res.y, 1)
        for bound in ("prop2", "prop5", "thm8"):
            with pytest.raises(ContractViolationError):
                verify(res, bound, comp)

    def test_cor7_rejects_wrong_prior_scale(self):
        res = _quad_run(T=25, tau=0.2)  # cor7 needs tau = 1/sqrt(25) = 0.2 ... which matches
        comp = best_sparse_comparator(res.features, res.y, 1)
        assert verify(res, "cor7", comp).passed
        res_bad = _quad_run(T=25, tau=0.3)
        with pytest.raises(ContractViolationError):
            verify(res_bad, "cor7", comp)

    def test_cor6_checks_gram_bound(self):
        res = _quad_run(tau=0.2)
        gram = float(np.sum(res.features**2))
        comp = best_sparse_comparator(res.features, res.y, 1)
        with pytest.raises(ContractViolationError):
            verify(res, "cor6", comp, B_Phi=gram / 2.0)  # tau mismatch and trace over bound

    def test_oracle_tuned_fixed_run_passes_cor3(self):
        # B = B_y, eta = 1/(8 B_y^2), tau = sqrt(16 B_y^2 / B_Phi).
        rng = np.random.default_rng(12)
        xs = rng.uniform(-2, 2, size=(30, 1))
        ys = np.clip(1.4 * xs[:, 0] + 0.2 * rng.standard_normal(30), -2.5, 2.5)
        B_y = 2.5
        B_Phi = float(np.sum(xs**2)) * 1.1  # a legal a-priori bound on the trace
        forecaster = seqsew_fixed(
            1,
            B=B_y,
            eta=1.0 / (8.0 * B_y**2),
            tau=math.sqrt(16.0 * B_y**2 / B_Phi),
            backend=QUAD,
        )
        res = run_protocol(forecaster, list(zip(xs, ys)))
        for comp in (
            best_sparse_comparator(res.features, res.y, 1),
            Comparator.from_vector(np.zeros(1), res.features, res.y),
        ):
            report = verify(res, "cor3", comp, B_y=B_y, B_Phi=B_Phi)
            assert report.passed and report.slack >= 0.0

    @staticmethod
    def _fixed_run(B=2.5, eta=None, tau=0.5):
        rng = np.random.default_rng(12)
        xs = rng.uniform(-2, 2, size=(30, 1))
        ys = np.clip(1.4 * xs[:, 0] + 0.2 * rng.standard_normal(30), -B, B)
        eta = 1.0 / (8.0 * B**2) if eta is None else eta
        return run_protocol(seqsew_fixed(1, B=B, eta=eta, tau=tau, backend=QUAD), list(zip(xs, ys)))

    @pytest.mark.parametrize("bound", ["cor3", "cor6"])
    def test_corollary_reads_its_tuning_off_the_run(self, bound):
        # The explicit values are the ones the CLI used to work out itself.
        if bound == "cor3":
            res = self._fixed_run()
            B, tau = res.forecaster_info["B"], res.forecaster_info["tau"]
            explicit = {"B_y": B, "B_Phi": 16.0 * B**2 / tau**2}
        else:
            res = _quad_run(tau=0.1)  # Gram trace about 33, under 1 / tau^2 = 100
            explicit = {"B_Phi": 1.0 / res.forecaster_info["tau"] ** 2}
        for comp in (
            best_sparse_comparator(res.features, res.y, 1),
            Comparator.from_vector(np.zeros(1), res.features, res.y),
        ):
            read, given = verify(res, bound, comp), verify(res, bound, comp, **explicit)
            assert read.passed and (read.lhs, read.rhs, read.slack) == (given.lhs, given.rhs, given.slack)
            assert read.to_json_dict() == given.to_json_dict()

    @pytest.mark.parametrize(
        "bound, tuning, message",
        [
            ("cor3", {"eta": 1.0 / (16.0 * 2.5**2)}, "cor3 requires eta = 1/(8 B_y^2)"),
            ("cor3", {"tau": 20.0}, "cor3 requires Gram trace <= B_Phi"),  # B_Phi = 0.25
            ("cor6", {"tau": 0.5}, "cor6 requires Gram trace <= B_Phi"),  # B_Phi = 4
        ],
        ids=["cor3-eta", "cor3-trace", "cor6-trace"],
    )
    def test_tuning_read_off_the_run_is_still_checked(self, bound, tuning, message):
        res = self._fixed_run(**tuning) if bound == "cor3" else _quad_run(**tuning)
        with pytest.raises(ContractViolationError, match=re.escape(message)):
            verify(res, bound, Comparator.from_vector(np.zeros(1), res.features, res.y))

    @pytest.mark.parametrize("excess, covered", [(1e-10, True), (1e-8, False)])
    def test_prop2_allows_eta_over_its_limit_by_the_relative_tolerance(self, excess, covered):
        B = 2.0
        eta = (1.0 + excess) / (8.0 * B * B)
        assert _within_fixed_limit(B, eta) is covered
        res = self._fixed_run(B=B, eta=eta)
        comp = best_sparse_comparator(res.features, res.y, 1)
        if covered:
            assert verify(res, "prop2", comp).passed
        else:
            with pytest.raises(ContractViolationError, match=re.escape("prop2 requires eta <= 1/(8 B^2)")):
                verify(res, "prop2", comp)

    def test_gram_trace_that_overflows_is_a_data_error(self):
        # Each round's squared norm is finite; their sum is not.  Under the
        # suite's error::RuntimeWarning filter a leaked numpy overflow
        # warning would surface instead of the DataError.
        res = run_protocol(seqsew_adaptive(1, 0.5, QUAD), [(np.array([1e154]), 1.0)] * 3)
        assert SequenceStats.from_arrays(res.features, res.y).gram_trace == math.inf
        with pytest.raises(DataError, match="prop5: lhs .* and rhs inf must both be finite"):
            verify(res, "prop5", Comparator.from_vector(np.zeros(1), res.features, res.y))

    def test_prop5_holds_at_arbitrary_comparators(self):
        # The guarantee is uniform over u, not just at the oracle witnesses.
        res = _quad_run(T=40, seed=21)
        rng = np.random.default_rng(0)
        for _ in range(25):
            u = rng.uniform(-4.0, 4.0, size=1) * (rng.random() < 0.8)
            comp = Comparator.from_vector(u, res.features, res.y)
            assert verify(res, "prop5", comp).slack >= 0.0

    def test_fixed_run_with_legal_tuning_passes_prop2(self):
        rng = np.random.default_rng(9)
        xs = rng.uniform(-1, 1, size=(20, 1))
        ys = np.clip(1.1 * xs[:, 0], -1.5, 1.5)
        B = 2.0
        res = run_protocol(
            seqsew_fixed(1, B=B, eta=1.0 / (8.0 * B * B), tau=0.5, backend=QUAD), list(zip(xs, ys))
        )
        comp = best_sparse_comparator(res.features, res.y, 1)
        report = verify(res, "prop2", comp)
        assert report.passed and report.slack >= 0.0

    def test_prop2_requires_threshold_to_cover_observations(self):
        rng = np.random.default_rng(10)
        xs = rng.uniform(-1, 1, size=(10, 1))
        ys = 10.0 * np.ones(10)  # way above B
        res = run_protocol(seqsew_fixed(1, B=1.0, eta=0.125, tau=0.5, backend=QUAD), list(zip(xs, ys)))
        comp = best_sparse_comparator(res.features, res.y, 1)
        with pytest.raises(ContractViolationError):
            verify(res, "prop2", comp)

    def test_cor9_checks_ball_membership(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-2, 2, size=(30, 1))
        ys = 1.5 * xs[:, 0]
        res = run_protocol(seqsew_auto(1, QUAD, seed=0), list(zip(xs, ys)))
        comp = best_sparse_comparator(res.features, res.y, 1)
        report = verify(res, "cor9", comp, s=1, U=comp.l1 + 1.0)
        assert report.passed
        with pytest.raises(ContractViolationError):
            verify(res, "cor9", comp, s=0, U=comp.l1 + 1.0)

    def test_unknown_bound_rejected(self):
        res = _quad_run()
        comp = best_sparse_comparator(res.features, res.y, 1)
        with pytest.raises(ArgumentError):
            verify(res, "prop99", comp)

    @staticmethod
    def _hand_built(predictions, features=((1.0,), (0.5,))):
        return ProtocolResult(
            features=np.array(features),
            y=np.array([1.0, 0.5]),
            predictions=np.array(predictions),
            forecaster_info={"kind": "adaptive", "dim": 1, "tau": 0.5, "clip_center": 0.0},
            B=np.array([0.0, 1.0]),
            eta=np.array([math.inf, 0.125]),
            regimes=np.zeros(2, dtype=int),
            ess=np.full(2, math.nan),
            gammas=np.full(2, math.nan),
        )

    def test_nan_lhs_is_a_data_error(self):
        with pytest.raises(DataError, match="prop5"):
            verify(self._hand_built([0.0, math.nan]), "prop5", _comp([0.0], 1.25))

    @pytest.mark.parametrize(
        "features, comparator",
        [
            (((1e200,), (1.0,)), _comp([1.0], 1.0)),  # the Gram trace overflows
            (((1.0,), (0.5,)), _comp([1e200], 0.0)),  # the witness's loss on the run overflows
        ],
        ids=["gram", "comparator"],
    )
    def test_infinite_rhs_is_a_data_error(self, features, comparator):
        with pytest.raises(DataError, match="rhs inf"):
            verify(self._hand_built([0.0, 0.0], features), "prop5", comparator)

    @pytest.mark.parametrize("u", [[0.0, 0.0, 0.0], [], [[0.0]]], ids=["R^3", "empty", "matrix"])
    def test_witness_of_another_dimension_is_refused(self, u):
        with pytest.raises(ArgumentError, match=r"witness u has shape .*, expected \(1,\)"):
            verify(self._hand_built([0.0, 0.0]), "prop5", _comp(u, 0.0))

    def test_witness_loss_and_norms_are_read_off_the_run(self):
        # Only u is trusted: a cached loss, l0 or l1 that disagrees with
        # the run gives the report of the witness built on the run.
        res = _quad_run()
        honest = Comparator.from_vector(np.array([1.3]), res.features, res.y)
        forged = replace(honest, cumulative_loss=1e9, l0=0, l1=0.0)
        assert verify(res, "prop5", forged).to_json_dict() == verify(res, "prop5", honest).to_json_dict()

    def test_hand_built_finite_run_still_verifies(self):
        report = verify(self._hand_built([0.0, 0.0]), "prop5", _comp([0.0], 1.25))
        assert report.lhs == 1.25 and math.isfinite(report.rhs) and report.passed

    def test_allowance_rescues_small_stochastic_deficits(self):
        res = _quad_run()
        comp = best_sparse_comparator(res.features, res.y, 1)
        base = verify(res, "prop5", comp)
        shifted = verify(res, "prop5", comp, mc_allowance=base.slack + 1.0)
        assert shifted.mc_allowance > 0.0


class TestOneLoss:
    """A run has one cumulative loss: verify's lhs, the records' running
    sum and every prefix loss are the same floats, not sums that agree
    to rounding."""

    @staticmethod
    def _sequence(T=300, d=4, seed=8):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-1.0, 1.0, size=(T, d))
        ys = xs @ np.array([1.5, 0.0, -0.7, 0.0]) + 0.5 * rng.standard_normal(T)
        return list(zip(xs, ys))

    @staticmethod
    def _check(res, report):
        T = len(res.y)
        records = res.records
        assert report.lhs == res.cumulative_loss == records[-1].cumloss == res.prefix_cumulative_loss(T)
        assert [res.prefix_cumulative_loss(t) for t in range(1, T + 1)] == [r.cumloss for r in records]

    def test_stochastic_automatic_run(self):
        res = run_protocol(seqsew_auto(4, BackendConfig(backend="importance", n_samples=200), seed=3), self._sequence())
        comp = best_sparse_comparator(res.features, res.y, 2)
        self._check(res, verify(res, "thm8", comp))

    def test_ridge_run(self):
        res = run_protocol(ridge_baseline(4, 1.0), self._sequence())
        # No bound covers the ridge baseline, so verify is handed the run
        # under an adaptive label; its lhs reads the losses only.
        relabelled = replace(res, forecaster_info={"kind": "adaptive", "dim": 4, "tau": 1.0, "clip_center": 0.0})
        self._check(res, verify(relabelled, "prop5", best_sparse_comparator(res.features, res.y, 2)))

    def test_prefix_outside_the_run_is_refused(self):
        res = run_protocol(ridge_baseline(1, 1.0), [(np.array([1.0]), 2.0)])
        assert res.prefix_cumulative_loss(0) == 0.0
        for t in (-1, 2, 0.5, 1.0, math.nan):
            with pytest.raises(ArgumentError, match=r"prefix length must lie in \[0, 1\]"):
                res.prefix_cumulative_loss(t)


class TestMcAllowance:
    def test_three_sample_standard_deviations(self):
        losses = [10.0, 12.0, 11.0, 9.0]
        assert mc_allowance_from_replays(losses) == pytest.approx(3.0 * float(np.std(losses, ddof=1)))

    def test_needs_at_least_two(self):
        with pytest.raises(ArgumentError):
            mc_allowance_from_replays([1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_loss_is_a_data_error(self, bad):
        with pytest.raises(DataError, match="replay losses must be finite"):
            mc_allowance_from_replays([1.0, bad])


class TestCor7GateThatBinds:
    """cor7 at d = 1, T = 10^4, where forecasting 0 every round fails the
    gate: only a forecaster that learns the slope passes it.  Probe: x
    uniform on [-1, 1], y = 1.5 x + 0.5 N(0, 1), witness the best 1-sparse
    comparator (slope 1.489)."""

    T = 10_000

    @pytest.fixture(scope="class")
    def probe(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-1, 1, size=(self.T, 1))
        ys = 1.5 * xs[:, 0] + 0.5 * rng.standard_normal(self.T)
        return xs, ys, best_sparse_comparator(xs, ys, 1)

    def _play(self, probe, backend, seed=None):
        xs, ys, _ = probe
        return run_protocol(seqsew_adaptive(1, 1.0 / math.sqrt(self.T), backend, seed=seed), list(zip(xs, ys)))

    def _report(self, probe, **grid):
        return verify(self._play(probe, BackendConfig(backend="quadrature", **grid)), "cor7", probe[2])

    @pytest.fixture(scope="class")
    def wide_grid(self, probe):
        """The exact forecaster on a grid 100x wider than the default, played once."""
        return self._play(probe, BackendConfig(backend="quadrature", grid_points_per_dim=4097, grid_radius_multiplier=100.0))

    def test_wide_grid_passes_a_gate_the_zero_forecaster_fails(self, probe, wide_grid):
        # Measured: loss 4329.1 against rhs 5290.2.
        report = verify(wide_grid, "cor7", probe[2])
        assert report.passed
        # The zero forecaster's loss is sum y^2 = 9854.1.
        assert float(probe[1] @ probe[1]) > report.rhs

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP.md item 12: one coordinate step per resample cannot carry the particles out to the "
        "witness (measured: loss 9191.3 against rhs 5290.2, 38.6% of rounds within tolerance)",
    )
    def test_importance_backend_passes_and_tracks_the_wide_grid(self, probe, wide_grid):
        run = self._play(probe, BackendConfig(backend="importance", n_samples=10_000), seed=1)
        report = verify(run, "cor7", probe[2])
        # Criterion 3's tolerance: 0.05 max(B_t, 1) on at least 95% of rounds.
        within = np.abs(run.predictions - wide_grid.predictions) <= 0.05 * np.maximum(wide_grid.B, 1.0)
        share = float(np.mean(within))
        assert report.passed and share >= 0.95, f"slack {report.slack:.1f}, {share:.1%} of rounds within tolerance"

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP.md item 11: the witness 1.489 lies beyond the default grid's outer node 100 tau = 1.0 "
        "(measured: loss 5325.8, slack -35.5)",
    )
    def test_default_grid_passes_the_same_gate(self, probe):
        assert self._report(probe, grid_points_per_dim=513).passed
