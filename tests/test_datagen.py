"""Tests for the data generators: determinism under seed and the noise
family contracts the risk corollaries assume."""

import math
import re

import numpy as np
import pytest

from seqsew.batch import NoiseFamily
from seqsew.datagen import (
    Dictionary,
    DictionarySpec,
    ScenarioSpec,
    _student_abs_moment,
    design_sampler,
    gen_individual_sequence,
    gen_stochastic,
    scenario_from_dict,
)
from seqsew.errors import ArgumentError
from seqsew.forecasters import run_protocol, seqsew_adaptive
from seqsew.posterior import BackendConfig


def _spec(**kw):
    base = dict(
        T=30,
        d=2,
        s=1,
        u_true=(1.5, 0.0),
        design="iid_uniform",
        seed=3,
        dictionary=DictionarySpec(kind="coordinate", d=2),
    )
    base.update(kw)
    return ScenarioSpec(**base)


class TestDeterminism:
    def test_same_spec_same_data(self):
        a = gen_individual_sequence(_spec())
        b = gen_individual_sequence(_spec())
        assert all(np.array_equal(xa, xb) and ya == yb for (xa, ya), (xb, yb) in zip(a, b))

    def test_seed_changes_data(self):
        a = gen_individual_sequence(_spec(seed=3))
        b = gen_individual_sequence(_spec(seed=4))
        assert any(ya != yb for (_, ya), (_, yb) in zip(a, b))

    def test_noiseless_sparse_sequence_is_exact(self):
        seq = gen_individual_sequence(_spec())
        for x, y in seq:
            assert y == pytest.approx(1.5 * x[0], rel=1e-12)

    def test_zero_truth_zero_noise(self):
        seq = gen_individual_sequence(_spec(u_true=(0.0, 0.0), s=0))
        assert all(y == 0.0 for _, y in seq)


class TestScenarioValidation:
    def test_support_size_must_match(self):
        with pytest.raises(ArgumentError):
            _spec(u_true=(1.0, 2.0), s=1)

    def test_unknown_design_rejected(self):
        with pytest.raises(ArgumentError):
            _spec(design="surprising")

    def test_resolved_support_size(self):
        spec = ScenarioSpec(T=5, d=8, s=3, seed=1, dictionary=DictionarySpec(kind="coordinate", d=8))
        u = spec.resolved_u_true()
        assert int(np.count_nonzero(u)) == 3


class TestIntegerKeys:
    """Counts and indices are integers: a non-integral one is refused
    rather than truncated, and an integral float or numpy integer passes."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: _spec(T=3.5), "scenario key 'T' must be an integer, got 3.5"),
            (lambda: _spec(s=0.5, u_true=None), "scenario key 's' must be an integer, got 0.5"),
            (lambda: _spec(design="fixed_grid", grid_size=2.5), "scenario key 'grid_size' must be an integer, got 2.5"),
            (lambda: DictionarySpec(d=1.5), "dictionary key 'd' must be an integer, got 1.5"),
            (
                lambda: Dictionary(DictionarySpec(kind="random_signs", d=3)).features(1.7),
                "random_signs dictionary input must be an integer, got 1.7",
            ),
        ],
        ids=["T", "s", "grid_size", "dictionary-d", "random-signs-input"],
    )
    def test_non_integral_value_is_refused(self, build, message):
        with pytest.raises(ArgumentError, match=re.escape(message)):
            build()

    def test_integral_values_pass(self):
        spec = _spec(T=30.0, d=np.int64(2), s=1.0, design="fixed_grid", grid_size=np.float64(4.0))
        assert (spec.T, spec.d, spec.s, spec.grid_size) == (30, 2, 1, 4)
        assert all(type(v) is int for v in (spec.T, spec.d, spec.s, spec.grid_size))
        played, expected = gen_individual_sequence(spec), gen_individual_sequence(_spec(design="fixed_grid", grid_size=4))
        assert len(played) == len(expected) == 30
        assert all(np.array_equal(x, x0) and y == y0 for (x, y), (x0, y0) in zip(played, expected))
        dictionary = Dictionary(DictionarySpec(kind="random_signs", d=3.0))
        assert dictionary.d == 3 and np.array_equal(dictionary.features(2.0), dictionary.features(np.int64(2)))


class TestAmplitudeScript:
    def test_jump_forces_threshold_increase(self):
        spec = _spec(T=40, amplitude_script=((25, 6.0),), noise=None)
        seq = gen_individual_sequence(spec)
        ys = np.asarray([y for _, y in seq])
        assert np.max(np.abs(ys[24:])) > np.max(np.abs(ys[:24]))
        res = run_protocol(
            seqsew_adaptive(2, 0.5, BackendConfig(backend="importance", n_samples=500), seed=0), seq
        )
        bs = [r.B for r in res.records]
        assert bs[25] > bs[24]  # the dyadic schedule reacts right after the jump

    def test_script_round_validated(self):
        with pytest.raises(ArgumentError):
            gen_individual_sequence(_spec(amplitude_script=((99, 2.0),)))


class TestNoiseFamilies:
    def test_bounded_draws_never_leave_range(self):
        fam = NoiseFamily.bounded(1.0)
        draws = fam.draw(np.random.default_rng(0), 100_000)
        assert np.max(np.abs(draws)) <= 1.0

    def test_gaussian_variance_matches(self):
        fam = NoiseFamily.subgaussian(1.0)
        draws = fam.draw(np.random.default_rng(1), 100_000)
        se = math.sqrt(2.0 / len(draws))  # std error of the sample variance
        assert abs(float(np.var(draws)) - 1.0) <= 3.0 * se

    def test_subgaussian_mgf_spot_check(self):
        fam = NoiseFamily.subgaussian(0.7)
        draws = fam.draw(np.random.default_rng(2), 200_000)
        for lam in (-1.0, -0.3, 0.5, 1.2):
            mgf = float(np.mean(np.exp(lam * draws)))
            assert mgf <= math.exp(lam**2 * 0.7 / 2.0) * 1.02

    def test_exp_moment_certified(self):
        fam = NoiseFamily.bounded_exp_moment(alpha=1.5, M=2.0)
        draws = fam.draw(np.random.default_rng(3), 400_000)
        measured = float(np.mean(np.exp(1.5 * np.abs(draws))))
        assert measured == pytest.approx(2.0, rel=0.05)

    def test_power_moment_certified(self):
        fam = NoiseFamily.bounded_moment(alpha=4.0, M=3.0)
        draws = fam.draw(np.random.default_rng(4), 400_000)
        measured = float(np.mean(np.abs(draws) ** 4))
        assert measured == pytest.approx(3.0, rel=0.25)  # heavy-tailed, noisy estimate

    @staticmethod
    def _abs_moment_by_gammaln(nu, alpha):
        from scipy.special import gammaln

        log_m = 0.5 * alpha * math.log(nu) + gammaln((alpha + 1) / 2) + gammaln((nu - alpha) / 2) - gammaln(nu / 2)
        return math.exp(log_m) / math.sqrt(math.pi)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.5, 3.0, 4.0, 8.0, 16.0, 30.0])
    @pytest.mark.parametrize("excess", [0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
    def test_student_abs_moment_matches_gammaln(self, alpha, excess):
        nu = alpha + excess
        assert _student_abs_moment(nu, alpha) == pytest.approx(self._abs_moment_by_gammaln(nu, alpha), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", [64.0, 128.0, 200.0, 256.0])
    def test_student_abs_moment_matches_gammaln_up_to_bm_alpha_limit(self, alpha):
        # The moment of a bm draw (nu = alpha + 2) reaches e^700 at alpha =
        # 256; each route rounds its log to ~1e-13 absolute there.
        nu = alpha + 2.0
        assert _student_abs_moment(nu, alpha) == pytest.approx(self._abs_moment_by_gammaln(nu, alpha), rel=1e-12, abs=0.0)

    def test_student_abs_moment_closed_form(self):
        # E |T_3| = 2 sqrt(3) / pi.
        assert _student_abs_moment(3.0, 1.0) == pytest.approx(2.0 * math.sqrt(3.0) / math.pi, rel=1e-15, abs=0.0)

    def test_parameter_validation(self):
        with pytest.raises(ArgumentError):
            NoiseFamily.bounded_moment(alpha=2.0, M=1.0)
        with pytest.raises(ArgumentError):
            NoiseFamily.bounded_exp_moment(alpha=1.0, M=1.0)
        with pytest.raises(ArgumentError):
            NoiseFamily.bounded(0.0)
        with pytest.raises(ArgumentError):
            NoiseFamily.subgaussian(-1.0)


class TestStochasticGeneration:
    def test_truth_and_samples_consistent(self):
        spec = _spec(noise=NoiseFamily.bounded(1e-12))
        samples, f_truth, _ = gen_stochastic(spec)
        for x, y in samples:
            assert y == pytest.approx(f_truth(x), abs=1e-10)

    def test_orthonormal_closed_forms(self):
        spec = _spec(
            noise=NoiseFamily.subgaussian(1.0),
            dictionary=DictionarySpec(kind="coordinate", d=2, normalization=math.sqrt(3.0)),
            u_true=(1.5, 0.0),
        )
        _, _, closed = gen_stochastic(spec)
        assert closed["feature_l2_sq"] == pytest.approx([1.0, 1.0])
        assert closed["f_inf"] == pytest.approx(math.sqrt(3.0) * 1.5)

    def test_requires_noise_family(self):
        with pytest.raises(ArgumentError):
            gen_stochastic(_spec(noise=None))

    def test_fourier_features_orthonormal_under_uniform_design(self):
        d = 4
        dictionary = Dictionary(DictionarySpec(kind="fourier", d=d))
        rng = np.random.default_rng(5)
        xs = rng.random(60_000)
        phi = np.vstack([dictionary.features(x) for x in xs])
        gram = phi.T @ phi / len(xs)
        assert np.allclose(gram, np.eye(d), atol=0.03)

    def test_random_signs_deterministic_per_input(self):
        dictionary = Dictionary(DictionarySpec(kind="random_signs", d=6, seed=9))
        a = dictionary.features(17)
        b = dictionary.features(17)
        c = dictionary.features(18)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert set(np.abs(a)) == {1.0}

    def test_design_sampler_draws_fresh_points(self):
        spec = _spec(noise=NoiseFamily.subgaussian(1.0))
        sampler = design_sampler(spec)
        pts = sampler(np.random.default_rng(0), 50)
        assert len(pts) == 50
        assert all(np.all(np.abs(p) <= spec.design_scale) for p in pts)

    @pytest.mark.parametrize(
        "kind, design", [("coordinate", "iid_uniform"), ("coordinate", "iid_gaussian"), ("fourier", "iid_uniform")]
    )
    def test_iid_training_inputs_are_design_sampler_draws(self, kind, design):
        spec = _spec(
            design=design, design_scale=1.7, noise=NoiseFamily.subgaussian(0.5), dictionary=DictionarySpec(kind=kind, d=2)
        )
        samples, _, _ = gen_stochastic(spec)
        expected = design_sampler(spec)(np.random.default_rng(np.random.SeedSequence([spec.seed, 0])), spec.T)
        assert len(samples) == len(expected) == spec.T
        for (x, _), e in zip(samples, expected):
            assert np.array_equal(x, e)


class TestDesignLaw:
    """The closed forms are read off the scenario's i.i.d. input law."""

    @pytest.mark.parametrize(
        "kind, design, norm, scale, per, f_inf",
        [
            ("coordinate", "iid_uniform", math.sqrt(3.0), 1.0, 0.9999999999999999, 2.598076211353316),
            ("coordinate", "iid_uniform", 1.0, 1.7, 0.9633333333333333, 2.55),
            ("coordinate", "iid_gaussian", 0.5, 1.7, 0.7224999999999999, None),
            ("fourier", "iid_uniform", 1.3, 1.0, 1.6900000000000002, 2.7577164466275357),
            ("fourier", "fixed_grid", -0.8, 1.0, 0.6400000000000001, 1.6970562748477143),
            ("random_signs", "iid_uniform", 1.7, 1.0, 2.8899999999999997, 2.55),
            ("random_signs", "adversarial_script", -2.5, 1.0, 6.25, 3.75),
        ],
    )
    def test_pinned_closed_forms(self, kind, design, norm, scale, per, f_inf):
        spec = _spec(
            design=design,
            design_scale=scale,
            noise=NoiseFamily.subgaussian(1.0),
            dictionary=DictionarySpec(kind=kind, d=2, normalization=norm),
        )
        _, _, closed = gen_stochastic(spec)
        assert closed["feature_l2_sq"] == [per, per]
        assert closed["f_inf"] == f_inf

    @pytest.mark.parametrize("design", ["iid_gaussian", "adversarial_script"])
    def test_fourier_inputs_are_uniform_off_the_grid(self, design):
        def closed_forms(design):
            dictionary = DictionarySpec(kind="fourier", d=2, normalization=0.7)
            return gen_stochastic(_spec(design=design, noise=NoiseFamily.subgaussian(1.0), dictionary=dictionary))[2]

        closed, uniform = closed_forms(design), closed_forms("iid_uniform")
        assert closed["feature_l2_sq"] == uniform["feature_l2_sq"] == [0.7 * 0.7] * 2
        assert closed["f_inf"] == uniform["f_inf"] == 0.7 * math.sqrt(2.0) * 1.5

    @pytest.mark.parametrize(
        "kind, design",
        [("coordinate", "iid_uniform"), ("coordinate", "iid_gaussian"), ("fourier", "iid_gaussian"), ("random_signs", "fixed_grid")],
    )
    def test_overflowing_norms_are_inf(self, kind, design):
        dictionary = DictionarySpec(kind=kind, d=2, normalization=1e200)
        spec = _spec(design=design, noise=NoiseFamily.subgaussian(1.0), dictionary=dictionary)
        _, _, closed = gen_stochastic(spec)
        assert closed["feature_l2_sq"] == [math.inf] * 2

    @pytest.mark.parametrize(
        "design, norm, scale, per",
        [("iid_uniform", 1e200, 1e-200, 1.0 / 3.0), ("iid_gaussian", 1e200, 1e-200, 1.0), ("iid_uniform", 1e-200, 1e200, 1.0 / 3.0)],
    )
    def test_norm_and_scale_squares_that_overflow_and_underflow_are_not_nan(self, design, norm, scale, per):
        # norm^2 * scale^2 would be inf * 0, though |phi_j| = norm * scale is ordinary.
        dictionary = DictionarySpec(kind="coordinate", d=2, normalization=norm)
        spec = _spec(design=design, design_scale=scale, noise=NoiseFamily.subgaussian(1.0), dictionary=dictionary)
        _, _, closed = gen_stochastic(spec)
        assert closed["feature_l2_sq"] == pytest.approx([per, per], rel=1e-14)

    @pytest.mark.parametrize("design", ["fixed_grid", "adversarial_script"])
    def test_coordinate_inputs_without_a_law_have_no_closed_forms(self, design):
        spec = _spec(design=design, noise=NoiseFamily.subgaussian(1.0))
        _, _, closed = gen_stochastic(spec)
        assert closed["feature_l2_sq"] is None and closed["f_inf"] is None
        with pytest.raises(ArgumentError, match="no sampling distribution"):
            design_sampler(spec)(np.random.default_rng(0), 1)


class TestFixedGrid:
    def test_duplicates_appear_when_grid_smaller_than_horizon(self):
        spec = _spec(
            T=9,
            d=1,
            s=1,
            u_true=(2.0,),
            design="fixed_grid",
            grid_size=3,
            dictionary=DictionarySpec(kind="coordinate", d=1),
        )
        seq = gen_individual_sequence(spec)
        xs = [float(np.asarray(x)[0]) for x, _ in seq]
        assert len(set(xs)) == 3
        assert xs[0] == xs[3] == xs[6]


# The section _spec() builds, every field written out.
_SPEC_DICT = {
    "T": 30,
    "d": 2,
    "s": 1,
    "u_true": [1.5, 0.0],
    "design": "iid_uniform",
    "seed": 3,
    "design_scale": 1.0,
    "grid_size": None,
    "dictionary": {"kind": "coordinate", "d": 2, "normalization": 1.0, "seed": 0},
}


class TestSpecRanges:
    """Range checks live in the specs, so library callers get them too."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: _spec(design_scale=0.0), "scenario key 'design_scale' must lie in (0, 2^1023), got 0.0"),
            (lambda: _spec(design_scale=math.nan), "scenario key 'design_scale' must lie in (0, 2^1023), got nan"),
            (lambda: _spec(dictionary=DictionarySpec(d=3)), "scenario key 'd' is 2 but the dictionary's d is 3"),
            (lambda: DictionarySpec(normalization=-0.0), "dictionary key 'normalization' must be nonzero, got -0.0"),
            (lambda: NoiseFamily(kind="sg", sigma_sq=-1.0), "sg needs sigma_sq > 0, got -1.0"),
            (lambda: NoiseFamily(kind="bd"), "bd needs 0 < B < 2^1023, got 0.0"),
            (lambda: NoiseFamily(kind="bem", alpha=1.0, M=1.0), "bem needs alpha > 0 and M > 1, got 1.0 and 1.0"),
            (lambda: NoiseFamily(kind="bm", alpha=3.0, M=0.0), "bm needs 2 < alpha <= 256 and M > 0, got 3.0 and 0.0"),
            (lambda: NoiseFamily(kind="bm", alpha=257.0, M=3.0), "bm needs 2 < alpha <= 256 and M > 0, got 257.0 and 3.0"),
            (lambda: NoiseFamily(kind="zz"), "unknown noise kind 'zz'"),
            (lambda: DictionarySpec(kind="wavelet"), "unknown dictionary kind 'wavelet'"),
            (lambda: DictionarySpec(d=0), "dictionary needs d >= 1"),
            (lambda: _spec(T=0), "scenario needs T >= 1"),
            (lambda: _spec(u_true=(1.5,)), "u_true must have length d"),
            (
                lambda: gen_stochastic(_spec(noise=NoiseFamily.subgaussian(1.0), amplitude_script=((5, 2.0),))),
                "amplitude scripts apply to individual sequences only",
            ),
        ],
        ids=[
            "design-scale-zero", "design-scale-nan", "d-mismatch", "normalization-zero", "sg", "bd-missing-B", "bem", "bm",
            "bm-huge-alpha", "kind", "dictionary-kind", "dictionary-d-zero", "T-zero", "u-true-short", "stochastic-amplitude-script",
        ],
    )
    def test_out_of_range_spec_is_refused(self, build, message):
        with pytest.raises(ArgumentError, match=re.escape(message)):
            build()


class TestConfigRoundTrip:
    def test_scenario_dict_reads_every_field(self):
        spec = _spec(
            noise=NoiseFamily.bounded_moment(alpha=3.0, M=2.0),
            amplitude_script=((5, 2.0),),
            grid_size=None,
        )
        data = {
            **_SPEC_DICT,
            "noise": {"kind": "bm", "B": 0.0, "sigma_sq": 0.0, "alpha": 3.0, "M": 2.0},
            "amplitude_script": [[5, 2.0]],
        }
        assert scenario_from_dict(data) == spec

    def test_invalid_config_reports_cleanly(self):
        with pytest.raises(ArgumentError):
            scenario_from_dict({"d": 2})  # T missing

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"d": 2}, "scenario needs key 'T'"),
            ({"T": 5, "d": 1, "noise": {"B": 1.0}}, "scenario 'noise' needs key 'kind'"),
            ({"T": 5, "d": 1, "design": 3}, "scenario key 'design' must be a string, got 3"),
        ],
        ids=["missing-T", "missing-noise-kind", "text-design"],
    )
    def test_reader_names_the_key(self, data, message):
        with pytest.raises(ArgumentError, match=re.escape(message)):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "extra, field, value",
        [
            ({"u_true": None}, "u_true", None),
            ({"grid_size": None}, "grid_size", None),
            ({"amplitude_script": [[2, 3]]}, "amplitude_script", ((2, 3.0),)),
            ({"noise": {"kind": "bem", "alpha": 1.0}}, "noise", NoiseFamily.bounded_exp_moment(1.0)),
        ],
        ids=["null-u-true", "null-grid-size", "integer-factor", "bem-default-M"],
    )
    def test_reader_reads_the_declared_type(self, extra, field, value):
        assert getattr(scenario_from_dict({"T": 5, "d": 1, **extra}), field) == value

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"T": 5, "d": 1, "desing_scale": 2.0}, "scenario has unknown key 'desing_scale'"),
            ({"T": 5, "d": 1, "dictionary": {"normalisation": 2.0}}, "scenario 'dictionary' has unknown key 'normalisation'"),
            ({"T": 5, "d": 1, "noise": {"kind": "sg", "sigma": 1.0}}, "scenario 'noise' has unknown key 'sigma'"),
            ({"T": 5, "d": 1, "noise": [1]}, "scenario 'noise' must be a JSON object, got list"),
            ([1], "scenario must be a JSON object, got list"),
        ],
        ids=["scenario-key", "dictionary-key", "noise-key", "noise-list", "scenario-list"],
    )
    def test_unknown_keys_and_non_objects_are_refused(self, data, message):
        with pytest.raises(ArgumentError, match=re.escape(message)):
            scenario_from_dict(data)

    def test_every_noise_field_is_an_accepted_key(self):
        spec = _spec(noise=NoiseFamily.bounded(2.0))
        data = {**_SPEC_DICT, "noise": {"kind": "bd", "B": 2.0, "sigma_sq": 0.0, "alpha": 0.0, "M": 0.0}}
        assert scenario_from_dict(data) == spec
