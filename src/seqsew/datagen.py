"""Reproducible generators for sequences, dictionaries, and noisy samples.

Everything here is a pure function of its seed: two calls with the same
spec produce identical data, and changing only the seed changes the data.
The noise families of the risk corollaries live here too, with generators
that certify the parameters they satisfy.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NewType, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ArgumentError, _checked_integer

__all__ = [
    "NoiseFamily",
    "DictionarySpec",
    "Dictionary",
    "ScenarioSpec",
    "gen_individual_sequence",
    "gen_stochastic",
    "design_sampler",
    "scenario_from_dict",
]

# A seed for ``np.random.SeedSequence``: a config reads it as a
# non-negative integer.
Seed = NewType("Seed", int)


@dataclass(frozen=True)
class NoiseFamily:
    """A centred noise assumption: bd (bounded), sg (subgaussian),
    bem (bounded exponential moment), or bm (bounded alpha-th moment).

    Every family checks its own parameters on construction, so the draws
    are certified to satisfy exactly the advertised condition; the
    classmethods build each family from its own parameters only."""

    kind: str
    B: float = 0.0
    sigma_sq: float = 0.0
    alpha: float = 0.0
    M: float = 0.0

    def __post_init__(self) -> None:
        conditions = {
            # Below 2^1023 the uniform draw's width 2 B is finite.
            "bd": (0.0 < self.B < 2.0**1023, f"bd needs 0 < B < 2^1023, got {self.B!r}"),
            "sg": (self.sigma_sq > 0.0, f"sg needs sigma_sq > 0, got {self.sigma_sq!r}"),
            "bem": (self.alpha > 0.0 and self.M > 1.0, f"bem needs alpha > 0 and M > 1, got {self.alpha!r} and {self.M!r}"),
            # Above alpha ~ 256.6 the scale's moment E |T|^alpha overflows.
            "bm": (2.0 < self.alpha <= 256.0 and self.M > 0.0, f"bm needs 2 < alpha <= 256 and M > 0, got {self.alpha!r} and {self.M!r}"),
        }
        if self.kind not in conditions:
            raise ArgumentError(f"unknown noise kind {self.kind!r}")
        holds, message = conditions[self.kind]
        if not holds:
            raise ArgumentError(message)

    @classmethod
    def bounded(cls, B: float) -> "NoiseFamily":
        return cls(kind="bd", B=float(B))

    @classmethod
    def subgaussian(cls, sigma_sq: float) -> "NoiseFamily":
        return cls(kind="sg", sigma_sq=float(sigma_sq))

    @classmethod
    def bounded_exp_moment(cls, alpha: float, M: float = 2.0) -> "NoiseFamily":
        return cls(kind="bem", alpha=float(alpha), M=float(M))

    @classmethod
    def bounded_moment(cls, alpha: float, M: float) -> "NoiseFamily":
        return cls(kind="bm", alpha=float(alpha), M=float(M))

    def draw(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        """Centred draws certified to satisfy this family's condition.

        bd: uniform on [-B, B]. sg: Gaussian with variance sigma_sq (the
        subgaussian bound holds with equality).  bem: Laplace with scale
        (1 - 1/M) / alpha, so E exp(alpha |Z|) = M exactly.  bm: Student t
        with alpha + 2 degrees of freedom, scaled so E |Z|^alpha = M.
        """
        if self.kind == "bd":
            return rng.uniform(-self.B, self.B, size=size)
        if self.kind == "sg":
            return math.sqrt(self.sigma_sq) * rng.standard_normal(size)
        if self.kind == "bem":
            scale = (1.0 - 1.0 / self.M) / self.alpha
            return rng.laplace(0.0, scale, size=size)
        nu = self.alpha + 2.0
        scale = (self.M / _student_abs_moment(nu, self.alpha)) ** (1.0 / self.alpha)
        return scale * rng.standard_t(nu, size=size)


def _student_abs_moment(nu: float, alpha: float) -> float:
    """E |T_nu|^alpha for Student t with nu > alpha degrees of freedom."""
    log_m = (
        0.5 * alpha * math.log(nu)
        + math.lgamma((alpha + 1.0) / 2.0)
        + math.lgamma((nu - alpha) / 2.0)
        - 0.5 * math.log(math.pi)
        - math.lgamma(nu / 2.0)
    )
    return math.exp(log_m)


@dataclass(frozen=True)
class DictionarySpec:
    """Which base features to use.

    coordinate      phi_j(x) = normalization * x_j       (x a vector in R^d)
    fourier         sine/cosine harmonics of a scalar x, scaled by sqrt(2)
                    so they are orthonormal under the uniform law on [0, 1]
    random_signs    phi_j(x) = normalization * sign_j(x) for integer x,
                    signs drawn once per input from a seeded stream
    """

    kind: str = "coordinate"
    d: int = 1
    normalization: float = 1.0
    seed: Seed = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _checked_integer("dictionary key 'd'", self.d))
        object.__setattr__(self, "seed", _checked_seed("dictionary key 'seed'", self.seed))
        if self.kind not in ("coordinate", "fourier", "random_signs"):
            raise ArgumentError(f"unknown dictionary kind {self.kind!r}")
        if self.d < 1:
            raise ArgumentError("dictionary needs d >= 1")
        if self.normalization == 0.0:
            raise ArgumentError(f"dictionary key 'normalization' must be nonzero, got {self.normalization!r}")


def _checked_seed(label: str, value: object) -> int:
    """``value`` as a Seed: an integer (an integral float passes) that is
    not negative, else an ArgumentError that starts with ``label``."""
    seed = _checked_integer(label, value)
    if seed < 0:
        raise ArgumentError(f"{label} must be a non-negative integer, got {value!r}")
    return seed


class Dictionary:
    """Feature evaluation for a :class:`DictionarySpec`."""

    def __init__(self, spec: DictionarySpec) -> None:
        self.spec = spec
        self.d = spec.d

    def features(self, x: Any) -> np.ndarray:
        kind = self.spec.kind
        if kind == "coordinate":
            arr = np.asarray(x, dtype=float)
            if arr.shape != (self.d,):
                raise ArgumentError(f"coordinate dictionary needs x in R^{self.d}, got shape {arr.shape}")
            return self.spec.normalization * arr
        if kind == "fourier":
            t = float(np.asarray(x).reshape(()))
            out = np.empty(self.d)
            for j in range(self.d):
                k = j // 2 + 1
                angle = 2.0 * math.pi * k * t
                out[j] = math.sin(angle) if j % 2 == 0 else math.cos(angle)
            return self.spec.normalization * math.sqrt(2.0) * out
        idx = _checked_integer("random_signs dictionary input", x)
        row_rng = np.random.default_rng(np.random.SeedSequence([self.spec.seed, idx]))
        signs = np.where(row_rng.random(self.d) < 0.5, -1.0, 1.0)
        return self.spec.normalization * signs


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully seeded data-generation recipe.

    ``amplitude_script`` lists (round, factor) pairs: from each listed
    round on, outcomes are multiplied by the factor (compounding), which
    exercises the doubling schedule of the adaptive forecasters.
    """

    T: int
    d: int
    s: int = 0
    u_true: tuple[float, ...] | None = None
    design: str = "iid_uniform"
    noise: NoiseFamily | None = None
    seed: Seed = 0
    dictionary: DictionarySpec = field(default_factory=DictionarySpec)
    amplitude_script: tuple[tuple[int, float], ...] = ()
    design_scale: float = 1.0
    grid_size: int | None = None

    def __post_init__(self) -> None:
        for key in ("T", "d", "s", "grid_size"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _checked_integer(f"scenario key {key!r}", getattr(self, key)))
        object.__setattr__(self, "seed", _checked_seed("scenario key 'seed'", self.seed))
        script = tuple((_checked_integer("amplitude script round", start), factor) for start, factor in self.amplitude_script)
        object.__setattr__(self, "amplitude_script", script)
        if self.T < 1:
            raise ArgumentError("scenario needs T >= 1")
        if self.design not in ("iid_uniform", "iid_gaussian", "fixed_grid", "adversarial_script"):
            raise ArgumentError(f"unknown design {self.design!r}")
        if self.grid_size is not None and self.grid_size < 1:
            raise ArgumentError(f"scenario key 'grid_size' must be >= 1, got {self.grid_size!r}")
        if self.dictionary.d != self.d:
            raise ArgumentError(f"scenario key 'd' is {self.d} but the dictionary's d is {self.dictionary.d}")
        if not 0 <= self.s <= self.d:
            raise ArgumentError(f"scenario key 's' must lie in [0, d] = [0, {self.d}], got {self.s!r}")
        # Below 2^1023 the uniform design's width 2 * design_scale is finite.
        if not 0.0 < self.design_scale < 2.0**1023:
            raise ArgumentError(f"scenario key 'design_scale' must lie in (0, 2^1023), got {self.design_scale!r}")
        if self.u_true is not None:
            u = tuple(float(v) for v in self.u_true)
            if len(u) != self.d:
                raise ArgumentError("u_true must have length d")
            if int(np.count_nonzero(u)) != self.s:
                raise ArgumentError("u_true must have exactly s nonzero entries")
            object.__setattr__(self, "u_true", u)

    def resolved_u_true(self) -> np.ndarray:
        if self.u_true is not None:
            return np.asarray(self.u_true, dtype=float)
        u = np.zeros(self.d)
        if self.s > 0:
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 7]))
            support = rng.choice(self.d, size=self.s, replace=False)
            signs = np.where(rng.random(self.s) < 0.5, -1.0, 1.0)
            u[support] = signs * rng.uniform(0.5, 2.0, size=self.s)
        return u


def _design_law(
    spec: ScenarioSpec,
) -> tuple[Callable[[np.random.Generator, int], list[Any]] | None, float | None, float | None]:
    """The scenario's i.i.d. input law: a sampler of n inputs, each
    feature's squared L2 norm under it, and a bound on |phi_j|; each is
    None where the scenario has none.  Fourier inputs are uniform on
    [0, 1) whatever the design (a fixed grid plays its own points), and
    random_signs inputs are indices, with no law to sample.  Squares are
    products, which overflow to inf where ``**`` raises; where norm^2
    overflows while scale^2 underflows, (norm * scale)^2 is formed instead
    of inf * 0."""
    norm, scale, d = spec.dictionary.normalization, spec.design_scale, spec.d
    scaled_sq = (norm * norm) * (scale * scale)
    if math.isnan(scaled_sq):
        scaled_sq = (norm * scale) * (norm * scale)
    if spec.dictionary.kind == "fourier":
        return (lambda rng, n: [float(v) for v in rng.random(n)]), norm * norm, abs(norm) * math.sqrt(2.0)
    if spec.dictionary.kind == "random_signs":
        return None, norm * norm, abs(norm)
    if spec.design == "iid_uniform":
        uniform = lambda rng, n: [rng.uniform(-scale, scale, size=d) for _ in range(n)]
        return uniform, scaled_sq / 3.0, abs(norm) * scale
    if spec.design == "iid_gaussian":
        gaussian = lambda rng, n: [scale * rng.standard_normal(d) for _ in range(n)]
        return gaussian, scaled_sq, None
    return None, None, None


def _dictionary_inputs(spec: ScenarioSpec, rng: np.random.Generator) -> list[Any]:
    kind = spec.dictionary.kind
    scale = spec.design_scale
    if kind == "random_signs":
        return list(range(spec.T))
    if spec.design == "fixed_grid":
        size = spec.T if spec.grid_size is None else spec.grid_size
        if kind == "fourier":
            grid = np.linspace(0.0, 1.0, size, endpoint=False)
            return [float(grid[t % size]) for t in range(spec.T)]
        base = np.linspace(-scale, scale, size)
        return [np.full(spec.d, base[t % size]) for t in range(spec.T)]
    sampler = _design_law(spec)[0]
    if sampler is not None:
        # The i.i.d. law: the same draws as the risk evaluation's.
        return sampler(rng, spec.T)
    # adversarial_script on coordinate inputs: deterministic alternating ramp
    out = []
    for t in range(spec.T):
        v = np.zeros(spec.d)
        v[t % spec.d] = scale * (1.0 if t % 2 == 0 else -1.0)
        out.append(v)
    return out


def _amplitude_factors(spec: ScenarioSpec) -> np.ndarray:
    factors = np.ones(spec.T)
    for start, factor in spec.amplitude_script:
        if not 1 <= start <= spec.T:
            raise ArgumentError(f"amplitude script round {start} outside 1..{spec.T}")
        factors[start - 1 :] *= float(factor)
    return factors


def _samples(spec: ScenarioSpec) -> tuple[list[tuple[Any, float]], Dictionary, np.ndarray]:
    """The (x_t, u_true . phi(x_t) + noise_t) pairs both generators draw,
    with the dictionary and the u_true they used."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    dictionary = Dictionary(spec.dictionary)
    xs = _dictionary_inputs(spec, rng)
    u = spec.resolved_u_true()
    noise = spec.noise.draw(rng, spec.T) if spec.noise is not None else np.zeros(spec.T)
    # An outcome that overflows comes out infinite, without a warning: the
    # finiteness check of whoever reads the sequence reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        samples = [(x, float(u @ dictionary.features(x)) + float(noise[t])) for t, x in enumerate(xs)]
    return samples, dictionary, u


def gen_individual_sequence(spec: ScenarioSpec) -> list[tuple[Any, float]]:
    """A deterministic (x_t, y_t) sequence: y = u_true . phi(x) plus the
    scenario's noise, then scaled by the amplitude script."""
    samples, _, _ = _samples(spec)
    factors = _amplitude_factors(spec)
    # As in _samples, an outcome that overflows is left to the reader's check.
    with np.errstate(over="ignore", invalid="ignore"):
        return [(x, factors[t] * y) for t, (x, y) in enumerate(samples)]


def gen_stochastic(
    spec: ScenarioSpec,
) -> tuple[list[tuple[Any, float]], Callable[[Any], float], dict[str, Any]]:
    """I.i.d. regression data Y = f(X) + eps with f = u_true . phi.

    Returns (samples, f_truth, closed_forms).  ``closed_forms`` reads the
    scenario's i.i.d. input law.  It holds the per-feature squared L2 norms
    under it as ``feature_l2_sq`` (None without a law: coordinate inputs
    under ``fixed_grid`` or ``adversarial_script``; inf where a norm
    overflows), the sup-norm bound on f that |phi_j|'s bound gives as
    ``f_inf`` (None where |phi_j| is unbounded), and the ``u_true`` used.
    Fourier inputs are uniform on [0, 1) under every design but
    ``fixed_grid``, so they have the closed forms of ``iid_uniform`` under
    each; random_signs inputs have them under every design.
    """
    if spec.noise is None:
        raise ArgumentError("stochastic generation needs a noise family")
    if spec.amplitude_script:
        raise ArgumentError("amplitude scripts apply to individual sequences only")
    samples, dictionary, u = _samples(spec)

    def f_truth(x: Any) -> float:
        return float(u @ dictionary.features(x))

    closed = _closed_forms(spec, u)
    return samples, f_truth, closed


def _closed_forms(spec: ScenarioSpec, u: np.ndarray) -> dict[str, Any]:
    _, per, bound = _design_law(spec)
    return {
        "feature_l2_sq": None if per is None else [per] * spec.d,
        "f_inf": None if bound is None else bound * float(np.sum(np.abs(u))),
        "u_true": u.copy(),
    }


def design_sampler(spec: ScenarioSpec) -> Callable[[np.random.Generator, int], list[Any]]:
    """Fresh-draw sampler over the scenario's i.i.d. input law, for
    Monte-Carlo risk evaluation.  A scenario without one gets a sampler
    that raises :class:`ArgumentError` when called."""

    def unsampled(rng: np.random.Generator, n: int) -> list[Any]:
        raise ArgumentError(f"{spec.dictionary.kind} inputs under design {spec.design!r} have no sampling distribution")

    return _design_law(spec)[0] or unsampled


# ---------------------------------------------------------------------------
# Declarative (JSON-friendly) scenario schema, used by the CLI.
# ---------------------------------------------------------------------------


def checked_section(where: str, data: Any, keys: Iterable[str]) -> dict[str, Any]:
    """``data`` if it is a JSON object with no key outside ``keys``; else an
    ArgumentError naming ``where`` and the offending key."""
    if not isinstance(data, dict):
        raise ArgumentError(f"{where} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ArgumentError(f"{where} has unknown key {unknown[0]!r}")
    return data


def checked_value(label: str, value: Any, kind: Any) -> Any:
    """``value`` read from JSON as the annotated type ``kind``, or an
    ArgumentError that starts with ``label``.  An int is an integer within
    int64 and a float a finite real, never a bool, and nothing is
    truncated; a Seed is a non-negative integer of any size, the only seed
    ``np.random.SeedSequence`` takes; ``X | None`` is null or an X; and a
    tuple (``tuple[T, ...]`` or a fixed ``tuple[A, B]``) is a JSON list."""
    if kind in (int, float, Seed):
        if isinstance(value, bool) or not isinstance(value, numbers.Real if kind is float else numbers.Integral):
            noun = "a number" if kind is float else "an integer"
            raise ArgumentError(f"{label} must be {noun}, got {value!r}")
        # An integer compares exactly, so one beyond the float range is
        # refused here rather than overflowing in float().
        if kind is float and not abs(value) <= sys.float_info.max:
            raise ArgumentError(f"{label} must be a finite number, got {value!r}")
        if kind is Seed and value < 0:
            raise ArgumentError(f"{label} must be a non-negative integer, got {value!r}")
        # A count goes into numpy, which holds no integer beyond int64 (a
        # seed goes to SeedSequence, which takes any size).
        if kind is int and not np.iinfo(np.int64).min <= value <= np.iinfo(np.int64).max:
            raise ArgumentError(f"{label} must fit in a 64-bit integer, got {value!r}")
        return float(value) if kind is float else int(value)
    if kind is str:
        if not isinstance(value, str):
            raise ArgumentError(f"{label} must be a string, got {value!r}")
        return value
    args = get_args(kind)
    if get_origin(kind) in (Union, types.UnionType):
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else checked_value(label, value, inner)
    if get_origin(kind) is not tuple:
        raise TypeError(f"no config reader for {kind!r}")
    if not isinstance(value, list):
        raise ArgumentError(f"{label} must be a list, got {value!r}")
    if args[-1] is Ellipsis:
        return tuple(checked_value(label, v, args[0]) for v in value)
    if len(value) != len(args):
        raise ArgumentError(f"{label} must be a list of {len(args)} items, got {value!r}")
    return tuple(checked_value(label, v, a) for v, a in zip(value, args))


def checked_fields(where: str, data: Any, cls: type) -> dict[str, Any]:
    """The fields of dataclass ``cls`` that the JSON object ``data`` sets,
    each checked against its annotated type.  Refuses a non-object, an
    unknown key, a missing required field and a value of the wrong type,
    with an ArgumentError naming ``where`` and the key.  Fields that hold
    a dataclass are returned as written, for their own call."""
    hints = get_type_hints(cls)
    checked_section(where, data, hints)
    for f in dataclasses.fields(cls):
        if f.name not in data and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ArgumentError(f"{where} needs key {f.name!r}")
    return {
        key: value if any(map(dataclasses.is_dataclass, get_args(hints[key]) or (hints[key],)))
        else checked_value(f"{where} key {key!r}", value, hints[key])
        for key, value in data.items()
    }


def scenario_from_dict(data: dict[str, Any]) -> ScenarioSpec:
    """The ScenarioSpec a JSON scenario section describes; refuses a key
    that is no spec field and a value of the wrong type."""
    fields = checked_fields("scenario", data, ScenarioSpec)
    dict_fields = checked_fields("scenario 'dictionary'", fields.get("dictionary", {}), DictionarySpec)
    fields["dictionary"] = DictionarySpec(**{"d": fields["d"], **dict_fields})
    if fields.get("noise") is not None:
        noise = checked_fields("scenario 'noise'", fields["noise"], NoiseFamily)
        if noise["kind"] == "bem":
            noise.setdefault("M", 2.0)  # as NoiseFamily.bounded_exp_moment
        fields["noise"] = NoiseFamily(**noise)
    return ScenarioSpec(**fields)
