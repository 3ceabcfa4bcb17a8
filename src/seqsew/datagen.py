"""Reproducible generators for sequences, dictionaries, and noisy samples.

Everything here is a pure function of its seed: two calls with the same
spec produce identical data, and changing only the seed changes the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .batch import NoiseFamily
from .errors import ArgumentError

__all__ = [
    "DictionarySpec",
    "Dictionary",
    "ScenarioSpec",
    "gen_individual_sequence",
    "gen_stochastic",
    "design_sampler",
    "scenario_from_dict",
    "scenario_to_dict",
]


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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("coordinate", "fourier", "random_signs"):
            raise ArgumentError(f"unknown dictionary kind {self.kind!r}")
        if self.d < 1:
            raise ArgumentError("dictionary needs d >= 1")


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
        idx = int(x)
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
    seed: int = 0
    dictionary: DictionarySpec = field(default_factory=DictionarySpec)
    amplitude_script: tuple[tuple[int, float], ...] = ()
    design_scale: float = 1.0
    grid_size: int | None = None

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ArgumentError("scenario needs T >= 1")
        if self.design not in ("iid_uniform", "iid_gaussian", "fixed_grid", "adversarial_script"):
            raise ArgumentError(f"unknown design {self.design!r}")
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


def _dictionary_inputs(spec: ScenarioSpec, rng: np.random.Generator) -> list[Any]:
    kind = spec.dictionary.kind
    scale = spec.design_scale
    if kind == "random_signs":
        return list(range(spec.T))
    if kind == "fourier":
        if spec.design == "fixed_grid":
            size = spec.grid_size or spec.T
            grid = np.linspace(0.0, 1.0, size, endpoint=False)
            return [float(grid[t % size]) for t in range(spec.T)]
        return [float(v) for v in rng.random(spec.T)]
    # coordinate features: inputs are vectors in R^d
    if spec.design == "iid_uniform":
        return [rng.uniform(-scale, scale, size=spec.d) for _ in range(spec.T)]
    if spec.design == "iid_gaussian":
        return [scale * rng.standard_normal(spec.d) for _ in range(spec.T)]
    if spec.design == "fixed_grid":
        size = spec.grid_size or spec.T
        base = np.linspace(-scale, scale, size)
        return [np.full(spec.d, base[t % size]) for t in range(spec.T)]
    # adversarial_script: deterministic alternating ramp, no randomness
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


def gen_individual_sequence(spec: ScenarioSpec) -> list[tuple[Any, float]]:
    """A deterministic (x_t, y_t) sequence: y = u_true . phi(x) plus the
    scenario's noise, then scaled by the amplitude script."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    dictionary = Dictionary(spec.dictionary)
    xs = _dictionary_inputs(spec, rng)
    u = spec.resolved_u_true()
    noise = (
        spec.noise.draw(rng, spec.T)
        if spec.noise is not None
        else np.zeros(spec.T)
    )
    factors = _amplitude_factors(spec)
    sequence = []
    for t, x in enumerate(xs):
        y = float(u @ dictionary.features(x)) + float(noise[t])
        sequence.append((x, factors[t] * y))
    return sequence


def gen_stochastic(
    spec: ScenarioSpec,
) -> tuple[list[tuple[Any, float]], Callable[[Any], float], dict[str, Any]]:
    """I.i.d. regression data Y = f(X) + eps with f = u_true . phi.

    Returns (samples, f_truth, closed_forms).  ``closed_forms`` reports
    per-feature squared L2 norms under the design (exact for the built-in
    orthonormal pairs, None otherwise), whether the features are
    orthonormal, a sup-norm bound on f when derivable, and for the
    orthonormal case a callable giving the exact approximation error
    ||f - u . phi||_L2^2 of any comparator.
    """
    if spec.noise is None:
        raise ArgumentError("stochastic generation needs a noise family")
    if spec.amplitude_script:
        raise ArgumentError("amplitude scripts apply to individual sequences only")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    dictionary = Dictionary(spec.dictionary)
    xs = _dictionary_inputs(spec, rng)
    u = spec.resolved_u_true()
    eps = spec.noise.draw(rng, spec.T)
    samples = [
        (x, float(u @ dictionary.features(x)) + float(eps[t])) for t, x in enumerate(xs)
    ]

    def f_truth(x: Any) -> float:
        return float(u @ dictionary.features(x))

    closed = _closed_forms(spec, dictionary, u)
    return samples, f_truth, closed


def _closed_forms(spec: ScenarioSpec, dictionary: Dictionary, u: np.ndarray) -> dict[str, Any]:
    kind = spec.dictionary.kind
    norm = spec.dictionary.normalization
    scale = spec.design_scale
    feature_l2_sq: list[float] | None = None
    orthonormal = False
    f_inf: float | None = None

    if kind == "coordinate" and spec.design == "iid_uniform":
        per = norm**2 * scale**2 / 3.0
        feature_l2_sq = [per] * spec.d
        orthonormal = math.isclose(per, 1.0, rel_tol=1e-12)
        f_inf = abs(norm) * scale * float(np.sum(np.abs(u)))
    elif kind == "coordinate" and spec.design == "iid_gaussian":
        feature_l2_sq = [norm**2 * scale**2] * spec.d
        orthonormal = math.isclose(norm**2 * scale**2, 1.0, rel_tol=1e-12)
    elif kind == "fourier" and spec.design in ("iid_uniform", "fixed_grid"):
        feature_l2_sq = [norm**2] * spec.d
        orthonormal = math.isclose(norm**2, 1.0, rel_tol=1e-12)
        f_inf = abs(norm) * math.sqrt(2.0) * float(np.sum(np.abs(u)))
    elif kind == "random_signs":
        feature_l2_sq = [norm**2] * spec.d
        orthonormal = math.isclose(norm**2, 1.0, rel_tol=1e-12)
        f_inf = abs(norm) * float(np.sum(np.abs(u)))

    forms: dict[str, Any] = {
        "feature_l2_sq": feature_l2_sq,
        "orthonormal": orthonormal,
        "f_inf": f_inf,
        "u_true": u.copy(),
    }
    if orthonormal:
        per = feature_l2_sq[0]

        def approx_error(v: np.ndarray) -> float:
            return per * float(np.sum((u - np.asarray(v, dtype=float)) ** 2))

        forms["approx_error_fn"] = approx_error
    return forms


def design_sampler(spec: ScenarioSpec) -> Callable[[np.random.Generator, int], list[Any]]:
    """Fresh-draw sampler over the scenario's design distribution, for
    Monte-Carlo risk evaluation."""

    def sampler(rng: np.random.Generator, n: int) -> list[Any]:
        kind = spec.dictionary.kind
        if kind == "fourier":
            return [float(v) for v in rng.random(n)]
        if kind == "random_signs":
            raise ArgumentError("random_signs has no off-design distribution to sample")
        if spec.design == "iid_uniform":
            return [rng.uniform(-spec.design_scale, spec.design_scale, size=spec.d) for _ in range(n)]
        if spec.design == "iid_gaussian":
            return [spec.design_scale * rng.standard_normal(spec.d) for _ in range(n)]
        raise ArgumentError(f"design {spec.design!r} has no sampling distribution")

    return sampler


# ---------------------------------------------------------------------------
# Declarative (JSON-friendly) scenario schema, used by the CLI.
# ---------------------------------------------------------------------------


def scenario_to_dict(spec: ScenarioSpec) -> dict[str, Any]:
    out: dict[str, Any] = {
        "T": spec.T,
        "d": spec.d,
        "s": spec.s,
        "design": spec.design,
        "seed": spec.seed,
        "design_scale": spec.design_scale,
        "dictionary": {
            "kind": spec.dictionary.kind,
            "d": spec.dictionary.d,
            "normalization": spec.dictionary.normalization,
            "seed": spec.dictionary.seed,
        },
    }
    if spec.u_true is not None:
        out["u_true"] = list(spec.u_true)
    if spec.noise is not None:
        out["noise"] = {
            "kind": spec.noise.kind,
            "B": spec.noise.B,
            "sigma_sq": spec.noise.sigma_sq,
            "alpha": spec.noise.alpha,
            "M": spec.noise.M,
        }
    if spec.amplitude_script:
        out["amplitude_script"] = [[t, f] for t, f in spec.amplitude_script]
    if spec.grid_size is not None:
        out["grid_size"] = spec.grid_size
    return out


def scenario_from_dict(data: dict[str, Any]) -> ScenarioSpec:
    try:
        dict_data = data.get("dictionary", {})
        dictionary = DictionarySpec(
            kind=dict_data.get("kind", "coordinate"),
            d=int(dict_data.get("d", data["d"])),
            normalization=float(dict_data.get("normalization", 1.0)),
            seed=int(dict_data.get("seed", 0)),
        )
        noise = None
        if "noise" in data and data["noise"] is not None:
            nd = data["noise"]
            kind = nd["kind"]
            if kind == "bd":
                noise = NoiseFamily.bounded(float(nd["B"]))
            elif kind == "sg":
                noise = NoiseFamily.subgaussian(float(nd["sigma_sq"]))
            elif kind == "bem":
                noise = NoiseFamily.bounded_exp_moment(float(nd["alpha"]), float(nd.get("M", 2.0)))
            elif kind == "bm":
                noise = NoiseFamily.bounded_moment(float(nd["alpha"]), float(nd["M"]))
            else:
                raise ArgumentError(f"unknown noise kind {kind!r}")
        return ScenarioSpec(
            T=int(data["T"]),
            d=int(data["d"]),
            s=int(data.get("s", 0)),
            u_true=tuple(float(v) for v in data["u_true"]) if "u_true" in data else None,
            design=data.get("design", "iid_uniform"),
            noise=noise,
            seed=int(data.get("seed", 0)),
            dictionary=dictionary,
            amplitude_script=tuple((int(t), float(f)) for t, f in data.get("amplitude_script", [])),
            design_scale=float(data.get("design_scale", 1.0)),
            grid_size=int(data["grid_size"]) if data.get("grid_size") is not None else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"invalid scenario config: {exc}") from exc
