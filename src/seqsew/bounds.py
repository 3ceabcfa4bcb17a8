"""Closed-form regret bounds, comparator oracles, and verification reports.

Every bound evaluator returns the full right-hand side of its guarantee,
including the comparator's own cumulative loss, so that a report's check is
simply ``measured cumulative loss <= rhs``.  Evaluation follows the
conventions ``0 * ln(1 + U / 0) = 0`` and the continuous extension of
``s -> s ln(1 + U / s)`` at s = 0.

Bound identifiers (also the names accepted by the CLI ``verify`` command):

========  ==================================================================
prop2     fixed forecaster, any valid (B, eta, tau)
cor3      fixed forecaster at the oracle tuning driven by (B_y, B_Phi)
prop5     adaptive-threshold forecaster, any tau
cor6      adaptive forecaster at tau = 1 / sqrt(B_Phi)
cor7      adaptive forecaster at tau = 1 / sqrt(d T)
thm8      fully automatic forecaster
cor9      fully automatic forecaster, uniform over an (l0 <= s, l1 <= U) ball
========  ==================================================================

The five bounds at a fixed prior scale share one shape, the comparator's
loss plus a coefficient times ``s_ln_term(l0, l1 / tau)`` plus scale
terms, and each corollary is its proposition at one tuning.  thm8 is the
comparator's loss plus cor9's regret cap at s = l0 and U = l1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Any, Sequence

import numpy as np

from .errors import ArgumentError, ContractViolationError, DataError, _checked_integer
from .forecasters import ProtocolResult, dyadic_ceil_pow2
from .prior import s_ln_term

__all__ = [
    "SequenceStats",
    "Comparator",
    "BoundReport",
    "prop2_rhs",
    "cor3_rhs",
    "prop5_rhs",
    "cor6_rhs",
    "cor7_rhs",
    "thm8_rhs",
    "cor9_rhs",
    "s_ln_term",
    "best_sparse_comparator",
    "verify",
    "mc_allowance_from_replays",
    "BOUND_NAMES",
]

# The forecaster kind each bound is a statement about, and its name in messages.
_BOUND_KINDS = {
    **dict.fromkeys(("prop2", "cor3"), "fixed"),
    **dict.fromkeys(("prop5", "cor6", "cor7"), "adaptive"),
    **dict.fromkeys(("thm8", "cor9"), "auto"),
}
_KIND_WORDS = {"fixed": "fixed", "adaptive": "adaptive", "auto": "automatic"}

BOUND_NAMES = tuple(_BOUND_KINDS)

_MAX_ENUMERATED_SUPPORTS = 200_000
_REL_TOL = 1e-9


@dataclass(frozen=True)
class SequenceStats:
    """Scale statistics of a played sequence that the bounds depend on."""

    T: int
    max_y_sq: float
    gram_trace: float

    @classmethod
    def from_arrays(cls, features: np.ndarray, y: np.ndarray) -> "SequenceStats":
        features = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(y, dtype=float)
        # A sum that overflows is inf, without a warning (verify then refuses).
        with np.errstate(over="ignore"):
            return cls(
                T=int(y.shape[0]),
                max_y_sq=float(np.max(y**2)) if y.size else 0.0,
                gram_trace=float(np.sum(features**2)),
            )

    @property
    def B_T1_sq(self) -> float:
        """Dyadic envelope of max y^2: the final squared threshold."""
        return dyadic_ceil_pow2(self.max_y_sq)

    @property
    def A_T(self) -> float:
        """2 + log2 ln(e + sqrt(gram trace)): the regime-count factor."""
        return 2.0 + math.log2(math.log(math.e + math.sqrt(self.gram_trace)))


@dataclass(frozen=True)
class Comparator:
    """A reference weight vector with its norms and cumulative loss cached."""

    u: np.ndarray
    l0: int
    l1: float
    cumulative_loss: float
    exact: bool = True

    @classmethod
    def from_vector(cls, u: np.ndarray, features: np.ndarray, y: np.ndarray, exact: bool = True) -> "Comparator":
        u = np.asarray(u, dtype=float)
        features = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(y, dtype=float)
        loss = float(np.sum((y - features @ u) ** 2))
        return cls(
            u=u,
            l0=int(np.count_nonzero(u)),
            l1=float(np.sum(np.abs(u))),
            cumulative_loss=loss,
            exact=exact,
        )


def _tau_sq_term(tau: float, gram_trace: float) -> float:
    """tau^2 times the Gram trace.  Squared by a multiplication, which
    overflows to inf where ``**`` raises; a zero trace gives 0 at any tau,
    where inf * 0 would give NaN."""
    return tau * tau * gram_trace if gram_trace else 0.0


def _tuned_b_phi(bound_name: str, numerator: float, tau: float) -> float:
    """The B_Phi = numerator / tau^2 of a run's tuning.  Raises
    :class:`DataError` when it is not a positive finite float."""
    tau_sq = tau * tau
    b_phi = numerator / tau_sq if tau_sq else math.inf
    if not 0.0 < b_phi < math.inf:
        raise DataError(f"{bound_name}: B_Phi = {numerator!r} / tau^2 at tau {tau!r} is out of floating-point range")
    return b_phi


def _sparsity_rhs(comparator: Comparator, coefficient: float, scale: float, *terms: float) -> float:
    """The shape every fixed-tau guarantee shares: loss(u) + coefficient *
    s_ln_term(l0, scale * l1), plus the remaining terms in order."""
    rhs = comparator.cumulative_loss + coefficient * s_ln_term(comparator.l0, scale * comparator.l1)
    for term in terms:
        rhs += term
    return rhs


def prop2_rhs(comparator: Comparator, eta: float, tau: float, stats: SequenceStats) -> float:
    """Guarantee for the fixed forecaster: loss(u) + (4/eta) * sparsity term
    + tau^2 * Gram trace."""
    if not (eta > 0.0 and tau > 0.0):
        raise ArgumentError("eta and tau must be positive")
    return _sparsity_rhs(comparator, 4.0 / eta, 1.0 / tau, _tau_sq_term(tau, stats.gram_trace))


def cor3_rhs(comparator: Comparator, B_y: float, B_Phi: float) -> float:
    """Fixed forecaster at the oracle tuning B = B_y, eta = 1/(8 B_y^2),
    tau = sqrt(16 B_y^2 / B_Phi)."""
    if not (B_y > 0.0 and B_Phi > 0.0):
        raise ArgumentError("B_y and B_Phi must be positive")
    return _sparsity_rhs(comparator, 32.0 * B_y * B_y, math.sqrt(B_Phi) / (4.0 * B_y), 16.0 * B_y * B_y)


def prop5_rhs(comparator: Comparator, tau: float, stats: SequenceStats) -> float:
    """Guarantee for the adaptive-threshold forecaster at prior scale tau."""
    if not tau > 0.0:
        raise ArgumentError("tau must be positive")
    b_sq = stats.B_T1_sq
    return _sparsity_rhs(comparator, 32.0 * b_sq, 1.0 / tau, _tau_sq_term(tau, stats.gram_trace), 16.0 * b_sq)


def cor6_rhs(comparator: Comparator, B_Phi: float, stats: SequenceStats) -> float:
    """Adaptive forecaster at tau = 1 / sqrt(B_Phi)."""
    if not B_Phi > 0.0:
        raise ArgumentError("B_Phi must be positive")
    b_sq = stats.B_T1_sq
    return _sparsity_rhs(comparator, 32.0 * b_sq, math.sqrt(B_Phi), 16.0 * b_sq, 1.0)


def cor7_rhs(comparator: Comparator, d: int, stats: SequenceStats) -> float:
    """Adaptive forecaster at tau = 1 / sqrt(d T)."""
    d = _checked_integer("d", d)
    if d < 1:
        raise ArgumentError("d must be a positive integer")
    b_sq = stats.B_T1_sq
    return _sparsity_rhs(comparator, 32.0 * b_sq, math.sqrt(d * stats.T), stats.gram_trace / (d * stats.T), 16.0 * b_sq)


def thm8_rhs(comparator: Comparator, stats: SequenceStats) -> float:
    """Guarantee for the fully automatic forecaster: the comparator's loss
    plus the regret cap of :func:`cor9_rhs` at s = l0 and U = l1."""
    return comparator.cumulative_loss + cor9_rhs(comparator.l0, comparator.l1, stats)


def cor9_rhs(s: float, U: float, stats: SequenceStats) -> float:
    """Regret cap of the automatic forecaster, uniform over the ball
    {l0 <= s, l1 <= U}.  Add the ball's best cumulative loss to compare
    against a measured run.  A negative s or U raises ``ArgumentError``
    from :func:`~seqsew.prior.s_ln_term`."""
    log_gram = math.log(math.e + math.sqrt(stats.gram_trace))
    a_t = stats.A_T
    return (
        256.0 * stats.max_y_sq * s * log_gram
        + 64.0 * stats.max_y_sq * a_t * s_ln_term(s, U)
        + (1.0 + 38.0 * stats.max_y_sq) * a_t
    )


# ---------------------------------------------------------------------------
# Comparator oracle.
# ---------------------------------------------------------------------------


def _support_count(d: int, s: int) -> int:
    return sum(math.comb(d, k) for k in range(s + 1))


def best_sparse_comparator(
    features: np.ndarray,
    y: np.ndarray,
    s: int,
    allow_greedy: bool = False,
) -> Comparator:
    """Exact minimiser of the cumulative square loss over ||u||_0 <= s.

    Enumerates every support of size at most s and solves least squares on
    each (minimum-norm solution on rank deficiency).  Ties broken by
    smaller l1 norm, then lexicographic support.  Refuses d > 20 unless
    ``allow_greedy`` is set, in which case forward selection provides a
    clearly-labelled approximate answer (``exact=False``).
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(y, dtype=float)
    T, d = features.shape
    s = _checked_integer("s", s)
    if s < 0 or s > d:
        raise ArgumentError(f"s must lie in [0, d]; got s={s}, d={d}")

    if d > 20 or _support_count(d, s) > _MAX_ENUMERATED_SUPPORTS:
        if not allow_greedy:
            raise ArgumentError(
                f"support enumeration refused for d={d}, s={s}; pass allow_greedy=True "
                "for approximate forward selection"
            )
        return _greedy_sparse_comparator(features, y, s)

    best: tuple[float, float, tuple[int, ...], np.ndarray] | None = None
    loss_scale = max(float(np.sum(y**2)), 1.0)
    tol = 1e-12 * loss_scale
    for k in range(s + 1):
        for support in combinations(range(d), k):
            u = np.zeros(d)
            if k > 0:
                cols = features[:, list(support)]
                coef = np.linalg.lstsq(cols, y, rcond=None)[0]
                u[list(support)] = coef
            loss = float(np.sum((y - features @ u) ** 2))
            l1 = float(np.sum(np.abs(u)))
            if best is None:
                best = (loss, l1, support, u)
                continue
            b_loss, b_l1, b_support, _ = best
            if loss < b_loss - tol:
                best = (loss, l1, support, u)
            elif abs(loss - b_loss) <= tol:
                if l1 < b_l1 - tol or (abs(l1 - b_l1) <= tol and support < b_support):
                    best = (loss, l1, support, u)
    return Comparator.from_vector(best[3], features, y, exact=True)


def _greedy_sparse_comparator(features: np.ndarray, y: np.ndarray, s: int) -> Comparator:
    T, d = features.shape
    support: list[int] = []
    for _ in range(min(s, d)):
        best_j, best_loss = None, None
        for j in range(d):
            if j in support:
                continue
            cols = features[:, support + [j]]
            coef = np.linalg.lstsq(cols, y, rcond=None)[0]
            loss = float(np.sum((y - cols @ coef) ** 2))
            if best_loss is None or loss < best_loss:
                best_j, best_loss = j, loss
        support.append(best_j)
    u = np.zeros(d)
    if support:
        cols = features[:, support]
        u[support] = np.linalg.lstsq(cols, y, rcond=None)[0]
    return Comparator.from_vector(u, features, y, exact=False)


# ---------------------------------------------------------------------------
# Verification reports.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one bound against one run."""

    bound: str
    lhs: float
    rhs: float
    slack: float
    mc_allowance: float
    witness_u: np.ndarray
    passed: bool
    witness_exact: bool = True

    def with_allowance(self, mc_allowance: float) -> "BoundReport":
        """This report with ``mc_allowance`` granted: it passes when the
        slack plus the allowance is non-negative."""
        return replace(self, mc_allowance=float(mc_allowance), passed=bool(self.slack + mc_allowance >= 0.0))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "bound": self.bound,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "mc_allowance": self.mc_allowance,
            "witness_u": [float(v) for v in np.asarray(self.witness_u).ravel()],
            "witness_exact": self.witness_exact,
            "pass": bool(self.passed),
        }


def mc_allowance_from_replays(replay_losses: Sequence[float]) -> float:
    """Three sample standard deviations of the cumulative loss across
    reseeded replays: the slack granted to stochastic backends, whose
    integrals the guarantees assume exact."""
    losses = np.asarray(list(replay_losses), dtype=float)
    if losses.size < 2:
        raise ArgumentError("need at least two replays to size an allowance")
    if not np.isfinite(losses).all():
        raise DataError(f"replay losses must be finite, got {losses.tolist()}")
    return 3.0 * float(np.std(losses, ddof=1))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ContractViolationError(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=1e-300)


def _within_fixed_limit(B: float, eta: float) -> bool:
    """Whether eta is within Proposition 2's limit 1/(8 B^2), up to _REL_TOL."""
    return eta <= 1.0 / (8.0 * B * B) * (1.0 + _REL_TOL)  # B * B overflows to inf; B**2 raises


def verify(
    result: ProtocolResult,
    bound_name: str,
    comparator: Comparator,
    *,
    B_y: float | None = None,
    B_Phi: float | None = None,
    s: float | None = None,
    U: float | None = None,
    mc_allowance: float = 0.0,
) -> BoundReport:
    """Check one named bound against a finished run at a comparator.

    Raises :class:`ContractViolationError` when the requested bound does not
    apply to the run's forecaster or tuning (every bound is a statement
    about a specific algorithm; checking it elsewhere would be vacuous).
    Any comparator gives a valid right-hand side, so passing at the supplied
    witness is sound; the report records the witness used.  Only the
    witness's vector u is trusted: its loss and norms are re-derived on the
    run, and a u whose shape is not (d,) raises :class:`ArgumentError`.

    cor3 and cor6 read (B_y, B_Phi) = (B, 16 B^2 / tau^2) and B_Phi =
    1 / tau^2 off the run's tuning unless given; given values are checked
    against it, and the Gram trace must not exceed B_Phi.  Raises
    :class:`DataError` when either side is not finite, since a NaN would
    fail and an infinite right-hand side would pass without meaning.
    """
    if bound_name not in BOUND_NAMES:
        raise ArgumentError(f"unknown bound {bound_name!r}; expected one of {BOUND_NAMES}")
    if comparator is None:
        raise ArgumentError("a comparator witness is required")
    u = np.asarray(comparator.u, dtype=float)
    if u.shape != result.features.shape[1:]:
        raise ArgumentError(f"witness u has shape {u.shape}, expected ({result.features.shape[1]},)")
    with np.errstate(over="ignore", invalid="ignore"):  # a loss that overflows reaches the finite check below
        comparator = Comparator.from_vector(u, result.features, result.y, comparator.exact)

    info = result.forecaster_info
    kind = info.get("kind")
    stats = SequenceStats.from_arrays(result.features, result.y)
    lhs = result.cumulative_loss
    max_abs_y = math.sqrt(stats.max_y_sq)
    wanted = _BOUND_KINDS[bound_name]
    _require(kind == wanted, f"{bound_name} applies to the {_KIND_WORDS[wanted]} forecaster, run used {kind!r}")

    if bound_name == "prop2":
        B, eta, tau = info["B"], info["eta"], info["tau"]
        _require(max_abs_y <= B * (1.0 + _REL_TOL), "prop2 requires B >= max |y_t| on the run")
        _require(_within_fixed_limit(B, eta), "prop2 requires eta <= 1/(8 B^2)")
        rhs = prop2_rhs(comparator, eta, tau, stats)
    elif bound_name == "cor3":
        B_y = info["B"] if B_y is None else B_y
        if B_Phi is None:
            B_Phi = _tuned_b_phi(bound_name, 16.0 * info["B"] * info["B"], info["tau"])
        _require(_close(info["B"], B_y), "cor3 requires the run tuning B = B_y")
        _require(_close(info["eta"], 1.0 / (8.0 * B_y * B_y)), "cor3 requires eta = 1/(8 B_y^2)")
        _require(
            _close(info["tau"], math.sqrt(16.0 * B_y * B_y / B_Phi)),
            "cor3 requires tau = sqrt(16 B_y^2 / B_Phi)",
        )
        _require(max_abs_y <= B_y * (1.0 + _REL_TOL), "cor3 requires max |y_t| <= B_y")
        _require(stats.gram_trace <= B_Phi * (1.0 + _REL_TOL), "cor3 requires Gram trace <= B_Phi")
        rhs = cor3_rhs(comparator, B_y, B_Phi)
    elif wanted == "adaptive":
        _require(
            float(info.get("clip_center", 0.0)) == 0.0,
            f"{bound_name} applies to the plain (uncentred) clipping scheme",
        )
        tau = info["tau"]
        if bound_name == "prop5":
            rhs = prop5_rhs(comparator, tau, stats)
        elif bound_name == "cor6":
            B_Phi = _tuned_b_phi(bound_name, 1.0, tau) if B_Phi is None else B_Phi
            _require(_close(tau, 1.0 / math.sqrt(B_Phi)), "cor6 requires tau = 1/sqrt(B_Phi)")
            _require(stats.gram_trace <= B_Phi * (1.0 + _REL_TOL), "cor6 requires Gram trace <= B_Phi")
            rhs = cor6_rhs(comparator, B_Phi, stats)
        else:
            d = int(info["dim"])
            _require(
                _close(tau, 1.0 / math.sqrt(d * stats.T)),
                "cor7 requires tau = 1/sqrt(d T)",
            )
            rhs = cor7_rhs(comparator, d, stats)
    elif bound_name == "thm8":
        rhs = thm8_rhs(comparator, stats)
    else:  # cor9
        if s is None or U is None:
            raise ArgumentError("cor9 needs the ball parameters s and U")
        _require(comparator.l0 <= s, "cor9 witness must satisfy ||u||_0 <= s")
        _require(comparator.l1 <= U * (1.0 + _REL_TOL), "cor9 witness must satisfy ||u||_1 <= U")
        rhs = comparator.cumulative_loss + cor9_rhs(s, U, stats)

    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise DataError(f"{bound_name}: lhs {lhs!r} and rhs {rhs!r} must both be finite")
    slack = rhs - lhs
    return BoundReport(
        bound=bound_name,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        mc_allowance=0.0,
        witness_u=np.asarray(comparator.u, dtype=float),
        passed=slack >= 0.0,
        witness_exact=comparator.exact,
    ).with_allowance(mc_allowance)
