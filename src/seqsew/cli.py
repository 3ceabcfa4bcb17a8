"""Command-line surface: run forecasters, verify bounds, run batch-risk
experiments, generate data, and plot results.

One JSON config document is the single source of truth for an experiment.
It is checked once, with the flags applied, into the `_Config` that every
command reads.  Every command is deterministic given (config, seed):
identical invocations produce byte-identical outputs.

Exit codes: 0 success, 2 usage or config error, 3 bound-verification
failure, 4 I/O or input-parse failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, TextIO

import numpy as np

from . import _svg, batch as batch_mod, bounds as bounds_mod, posterior as posterior_mod
from .datagen import Dictionary, NoiseFamily, ScenarioSpec, Seed, checked_fields, checked_section, checked_value, design_sampler, gen_individual_sequence, gen_stochastic, scenario_from_dict
from .errors import ArgumentError, ContractViolationError, DataError, StateError
from .forecasters import ProtocolResult, ridge_baseline, run_protocol, seqsew_adaptive, seqsew_auto, seqsew_fixed
from .posterior import BackendConfig

CONFIG_SCHEMA = "seqsew.config.v1"
RUN_CSV_SCHEMA = "seqsew.run.v1"
DATASET_CSV_SCHEMA = "seqsew.dataset.v1"
REPS_CSV_SCHEMA = "seqsew.batch-reps.v1"
RUN_SUMMARY_SCHEMA = "seqsew.run-summary.v1"
VERIFY_SCHEMA = "seqsew.verify.v1"
BATCH_SCHEMA = "seqsew.batch.v1"

_EXIT_OK, _EXIT_USAGE, _EXIT_VERIFY, _EXIT_IO = 0, 2, 3, 4


# ---------------------------------------------------------------------------
# Serialization helpers (deterministic output is a contract).
# ---------------------------------------------------------------------------


def _sanitize(obj: Any) -> Any:
    """JSON-safe copy: non-finite floats become the strings 'inf', '-inf',
    'nan' so the output is strict JSON."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _read_text(path: Path) -> str:
    """The text of ``path``, read as UTF-8.  A file that is missing,
    unreadable or not UTF-8 raises a :class:`DataError` naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _open_output(path: Path) -> TextIO:
    """``path`` opened to be written as UTF-8, its directory created.  No
    newline translation, so every platform writes ``\\n`` line ends.  A CSV
    streams into it row by row rather than being built whole in memory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", encoding="utf-8", newline="")


def _dump_json(path: Path, schema: str, payload: dict[str, Any]) -> None:
    with _open_output(path) as fh:
        fh.write(json.dumps(_sanitize({"schema": schema, **payload}), sort_keys=True, indent=1) + "\n")


def _cell(v: Any) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, schema: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with _open_output(path) as fh:
        fh.write(f"# schema={schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _read_json(path: Path) -> Any:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def _require_keys(path: Path, entry: Any, keys: Sequence[str]) -> dict[str, Any]:
    if not isinstance(entry, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(entry).__name__}")
    for key in keys:
        if key not in entry:
            raise DataError(f"{path}: missing key {key!r}")
    return entry


def _number(path: Path, entry: dict[str, Any], key: str) -> float:
    try:
        return float(entry[key])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: key {key!r} is not a number: {entry[key]!r}") from exc


def _finite(path: Path, where: str, value: float) -> float:
    """``value``, which a chart is to plot.  A value that is not finite
    raises a :class:`DataError` naming the file and ``where`` in it."""
    if not math.isfinite(value):
        raise DataError(f"{path}: {where} is not finite: {value!r}")
    return value


def _csv_floats(path: Path, *columns: str, nonfinite_ok: str | None = None) -> list[list[float]]:
    """The named columns of one read of the CSV at ``path``, as floats,
    each finite but those of the column ``nonfinite_ok``."""
    rows: list[list[str]] = []
    header: list[str] | None = None
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        cells = next(csv.reader([line]))
        if header is None:
            header = cells
        elif len(cells) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}")
        else:
            rows.append(cells)
    if header is None:
        raise ArgumentError(f"{path}: no data")
    out = []
    for column in columns:
        if column not in header:
            raise DataError(f"{path}: missing column {column!r}")
        idx = header.index(column)
        values = []
        for lineno, row in enumerate(rows, start=1):
            try:
                value = float(row[idx])
            except ValueError as exc:
                raise DataError(f"{path}: row {lineno}: bad float in {column!r}: {row[idx]!r}") from exc
            values.append(value if column == nonfinite_ok else _finite(path, f"row {lineno}: {column!r}", value))
        out.append(values)
    return out


# ---------------------------------------------------------------------------
# Config handling.
# ---------------------------------------------------------------------------


# Each forecaster kind's constructor, and its parameters with their
# defaults (None: required).  A forecaster section holds "kind" and its
# kind's parameters, nothing else, and the constructor takes them by name.
_FORECASTERS: dict[str, tuple[Callable[..., Any], dict[str, float | None]]] = {
    "fixed": (seqsew_fixed, {"B": None, "eta": None, "tau": None}),
    "adaptive": (seqsew_adaptive, {"tau": None}),
    "auto": (seqsew_auto, {}),
    "ridge": (ridge_baseline, {"regularization": 1.0}),
}


# The most elements one array of a command may hold: T * d (the sequence),
# n_samples * d (the particles), grid_points_per_dim^d (the grid),
# n_eval * d (the risk evaluation points) and replications * T (the cor11
# noise draws).  2^24 float64 values are 128 MiB; the largest shipped
# config (n_samples = 10^4 at d = 30) is 3 * 10^5.  A count beyond it is a
# config error rather than a run that grows until memory runs out.
_MAX_ELEMENTS = 2**24


def _check_size(name: str, formula: str, count: int) -> None:
    if count > _MAX_ELEMENTS:
        raise ArgumentError(f"{name} is too large: {formula} = {count} exceeds the size budget of 2^24 elements")


@dataclass(frozen=True)
class _Config:
    """The checked config document with the flags applied; commands read only this."""

    seed: int
    scenario: dict[str, Any]  # the section as written; run_summary.json echoes it
    spec: ScenarioSpec
    backend: BackendConfig
    forecaster_kind: str
    forecaster: dict[str, float]
    out_dir: Path


def _load_config(args: argparse.Namespace) -> _Config:
    path = Path(args.config)
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"config {path} is not valid JSON: {exc}") from exc
    checked_section(f"config {path}", raw, ("schema", "seed", "scenario", "forecaster", "backend", "outputs"))
    if raw.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
        raise ArgumentError(f"unsupported config schema {raw.get('schema')!r}")
    if args.seed is None:
        seed = checked_value("config 'seed'", raw.get("seed", 0), Seed)
    else:
        seed = checked_value("--seed", args.seed, Seed)

    if "scenario" not in raw:
        raise ArgumentError("config needs a 'scenario' section")
    spec = scenario_from_dict(raw["scenario"])
    if "seed" not in raw["scenario"]:
        spec = replace(spec, seed=seed)

    backend = checked_fields("config section 'backend'", raw.get("backend", {}), BackendConfig)
    for key, flag in (("backend", args.backend), ("n_samples", args.samples)):
        if flag is not None:
            backend[key] = flag
    backend_config = BackendConfig(**backend)
    _check_size("scenario key 'T'", "T * d", spec.T * spec.d)
    if backend_config.backend != "quadrature":
        name = "--samples" if args.samples is not None else "config section 'backend' key 'n_samples'"
        _check_size(name, "n_samples * d", backend_config.n_samples * spec.d)
    elif backend_config.grid_nodes is not None:
        grid = math.prod(map(len, backend_config.grid_nodes))
        _check_size("config section 'backend' key 'grid_nodes'", "the product of its lengths", grid)
    elif spec.d <= 2:  # no grid is built beyond d = 2
        # The grid keeps a node at the origin, so an even count gains one.
        points = posterior_mod._grid_axis_points(backend_config.grid_points_per_dim)
        formula = "grid_points_per_dim^d" if points == backend_config.grid_points_per_dim else "(grid_points_per_dim + 1)^d"
        _check_size("config section 'backend' key 'grid_points_per_dim'", formula, points**spec.d)

    fc = raw.get("forecaster", {"kind": "adaptive", "tau": 1.0})
    kind = fc.get("kind", "adaptive") if isinstance(fc, dict) else "adaptive"
    if not isinstance(kind, str) or kind not in _FORECASTERS:
        raise ArgumentError(f"unknown forecaster kind {kind!r}")
    defaults = _FORECASTERS[kind][1]
    checked_section("config section 'forecaster'", fc, ("kind", *defaults))
    params = {}
    for key, default in defaults.items():
        if key not in fc and default is None:
            raise ArgumentError(f"forecaster kind {kind!r} needs {key!r}")
        params[key] = checked_value(f"forecaster {key!r}", fc.get(key, default), float)

    out_dir = args.out or checked_section("config section 'outputs'", raw.get("outputs", {}), ("dir",)).get("dir", ".")
    if not isinstance(out_dir, str):
        raise ArgumentError(f"config section 'outputs' key 'dir' must be a string, got {out_dir!r}")
    return _Config(seed, raw["scenario"], spec, backend_config, kind, params, Path(out_dir))


def _forecaster(config: _Config, seed_offset: int):
    """A fresh forecaster of the config's kind seeded ``seed_offset``; ridge draws nothing."""
    kind = config.forecaster_kind
    draws = {} if kind == "ridge" else {"backend": config.backend, "seed": _seed(config, seed_offset)}
    return _FORECASTERS[kind][0](config.spec.dictionary.d, **config.forecaster, **draws)


def _seed(config: _Config, offset: int) -> np.random.SeedSequence:
    """The seed of a command's ``offset``-th stream of draws."""
    return np.random.SeedSequence([config.seed, offset])


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _play(config: _Config, seed_offset: int) -> ProtocolResult:
    """A fresh forecaster, seeded ``seed_offset``, played on the scenario's one sequence."""
    sequence = gen_individual_sequence(config.spec)
    return run_protocol(_forecaster(config, seed_offset), sequence, Dictionary(config.spec.dictionary))


def _first_run(config: _Config) -> ProtocolResult:
    """The run seeded 1, which every command reports on.  An overheated
    fixed tuning is warned about here, once per command."""
    p = config.forecaster
    if config.forecaster_kind == "fixed" and not bounds_mod._within_fixed_limit(p["B"], p["eta"]):
        print(f"warning: eta={p['eta']} exceeds 1/(8 B^2)={1.0 / (8 * p['B'] * p['B'])}; "
              "the fixed-forecaster guarantee does not cover this tuning", file=sys.stderr)
    return _play(config, 1)


def _replay_loss(config: _Config, seed_offset: int) -> float:
    """The cumulative loss of the replay seeded ``seed_offset``.  At module
    level, so a worker process can be sent it by name."""
    return _play(config, seed_offset).cumulative_loss


def _replay_losses(config: _Config, seed_offsets: Sequence[int]) -> list[float]:
    """``_replay_loss`` at each seed offset, in offset order, on one worker
    process per usable core and replay.

    Processes, since the per-round path holds the interpreter lock.
    Forked, so a worker starts from the parent's imported modules rather
    than importing numpy and seqsew again.  With one worker, or where the
    platform cannot fork, the replays run inline and no process starts.
    Each loss depends only on its offset, so the list does not depend on
    the worker count.  Each worker runs on a budget of one core, so the
    Metropolis kernel starts no threads of its own in it: the workers
    already take every core.  ``multiprocessing`` is imported here so that
    commands without replays do not load it."""
    workers = min(posterior_mod._usable_cores(), len(seed_offsets))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=posterior_mod._set_core_budget,
                initargs=(1,),
            ) as pool:
                return list(pool.map(_replay_loss, itertools.repeat(config), seed_offsets))
    return [_replay_loss(config, seed_offset) for seed_offset in seed_offsets]


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result = _first_run(config)
    out = config.out_dir

    # The file's header and columns, in order, written row by row.
    loss, cumloss = result._losses()
    columns = {
        "t": np.arange(1, len(result.y) + 1), "y": result.y, "yhat": result.predictions, "loss": loss, "cumloss": cumloss,
        "B_t": result.B, "eta_t": result.eta, "regime": result.regimes, "ess": result.ess,
    }
    _write_csv(out / "run.csv", RUN_CSV_SCHEMA, list(columns), zip(*(c.tolist() for c in columns.values())))

    stats = bounds_mod.SequenceStats.from_arrays(result.features, result.y)
    starts, ends = result.regime_bounds
    summary = {
        "seed": config.seed,
        "T": stats.T,
        "cumulative_loss": result.cumulative_loss,
        "forecaster": result.forecaster_info,
        "adaptation": {
            # NaN != NaN, so one math.nan object stands for every NaN B
            # (the ridge baseline's) and the set keeps one.
            "B_values": sorted({b if b == b else math.nan for b in result.B.tolist()}),
            "final_eta": float(result.eta[-1]),
            "max_y_sq": stats.max_y_sq,
            "gram_trace": stats.gram_trace,
            "regimes": {"starts": starts, "ends": ends},
        },
        "scenario": config.scenario,
    }
    _dump_json(out / "run_summary.json", RUN_SUMMARY_SCHEMA, summary)
    print(f"wrote {out / 'run.csv'} and {out / 'run_summary.json'}")
    return _EXIT_OK


def _comparator_set(result: ProtocolResult, spec: ScenarioSpec, names: Sequence[str]) -> dict[str, bounds_mod.Comparator]:
    out: dict[str, bounds_mod.Comparator] = {}
    for name in names:
        if name == "sparse":
            out[name] = bounds_mod.best_sparse_comparator(
                result.features, result.y, max(spec.s, 1), allow_greedy=True
            )
        else:
            if name == "zero":
                coef = np.zeros(result.features.shape[1])
            else:
                coef = np.linalg.lstsq(result.features, result.y, rcond=None)[0]
            out[name] = bounds_mod.Comparator.from_vector(coef, result.features, result.y)
    return out


def _names(flag: str, noun: str, value: str, known: Sequence[str]) -> list[str]:
    """The comma-separated names in ``value``: at least one, each from ``known``
    and named once."""
    names = [n.strip() for n in value.split(",") if n.strip()]
    if not names:
        raise ArgumentError(f"{flag} names no {noun}; choose from {', '.join(known)}")
    for i, name in enumerate(names):
        if name not in known:
            raise ArgumentError(f"unknown {noun} {name!r}; choose from {', '.join(known)}")
        if name in names[:i]:
            raise ArgumentError(f"{flag} names {noun} {name!r} twice")
    return names


def cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args)
    bound_names = _names("--bounds", "bound", args.bounds, bounds_mod.BOUND_NAMES)
    comparator_names = _names("--comparators", "comparator", args.comparators, ("zero", "sparse", "ols"))

    if args.replays < 0:
        raise ArgumentError(f"verify needs replays >= 0, got {args.replays}")

    result = _first_run(config)

    # Every report is made before any replay, so a bound that does not
    # apply to this run is refused before the replays are played.
    # cor3 and cor6 read their tuning off the run; cor9 needs its ball.
    comparators = _comparator_set(result, config.spec, comparator_names)
    verified = []
    for bound in bound_names:
        for cname, comp in comparators.items():
            ball = {"s": max(comp.l0, config.spec.s), "U": max(comp.l1, 1.0)} if bound == "cor9" else {}
            verified.append((cname, bounds_mod.verify(result, bound, comp, **ball)))

    replays = args.replays if config.backend.backend != "quadrature" else 0
    mc_allowance = 0.0
    if replays >= 2:
        losses = [result.cumulative_loss] + _replay_losses(config, range(2, replays + 1))
        mc_allowance = bounds_mod.mc_allowance_from_replays(losses)
    reports = [{**report.with_allowance(mc_allowance).to_json_dict(), "comparator": cname} for cname, report in verified]

    out = config.out_dir
    payload = {
        "seed": config.seed,
        "backend": config.backend.backend,
        "replays": replays,
        "mc_allowance": mc_allowance,
        "T": len(result.y),
        "reports": reports,
    }
    _dump_json(out / "verify.json", VERIFY_SCHEMA, payload)
    n_fail = sum(1 for r in reports if not r["pass"])
    print(f"wrote {out / 'verify.json'}: {len(reports) - n_fail}/{len(reports)} reports pass")
    return _EXIT_VERIFY if n_fail else _EXIT_OK


def cmd_batch(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = config.out_dir
    variant = args.variant
    if variant != "remark15" and args.replications < 1:
        raise ArgumentError(f"batch {variant} needs replications >= 1, got {args.replications}")
    if variant in ("thm10", "cor12", "thm13", "cor14"):
        payload, reps = _batch_risk(config, variant, args.replications, args.n_eval)
    elif variant == "cor11":
        payload, reps = _batch_family_sweep(config, args.replications)
    else:  # remark15, the parser's last choice
        payload, reps = _batch_remark15(config, args.shift)

    _dump_json(out / f"batch_{variant}.json", BATCH_SCHEMA, {"variant": variant, "T": config.spec.T, **payload})
    if reps is not None:
        header, rows = reps
        _write_csv(out / f"batch_{variant}_reps.csv", REPS_CSV_SCHEMA, header, rows)
    print(f"wrote {out / f'batch_{variant}.json'}")
    return _EXIT_OK


def _batch_risk(config: _Config, variant: str, replications: int, n_eval: int):
    """Fit and score reseeded draws of the scenario, and compare the mean
    risk with the variant's bound at the truth, which is the witness.  A
    replication redraws the design and the noise, never the truth.  Every
    precondition of the variant is checked before the first fit, and a
    non-finite risk or bound raises :class:`DataError`."""
    spec = config.spec
    fixed_design = variant in ("thm13", "cor14")
    if fixed_design and spec.design != "fixed_grid":
        raise ArgumentError(f"{variant} needs the fixed_grid design")
    if not fixed_design:
        if n_eval < 1:
            raise ArgumentError(f"random-design risk needs n_eval >= 1, got {n_eval}")
        _check_size("--n-eval", "n_eval * d", n_eval * spec.d)
    base_samples, f_truth, closed = gen_stochastic(spec)
    if not fixed_design and not closed["feature_l2_sq"]:
        raise ArgumentError("batch risk bounds need a design with known feature norms")
    sampler = design_sampler(spec)
    if not fixed_design:
        sampler(np.random.default_rng(0), 0)  # a scenario without an input law raises here
    if variant == "cor12":
        if spec.noise.kind != "sg":
            raise ArgumentError("cor12 applies under subgaussian noise")
        if closed.get("f_inf") is None:
            raise ArgumentError("cor12 needs a bounded regression function")

    u_true = closed["u_true"]
    spec = replace(spec, u_true=tuple(u_true))
    dictionary = Dictionary(spec.dictionary)
    fit = batch_mod.fit_fixed_design if fixed_design else batch_mod.fit_random_design
    risks, max_y_sq = [], []
    for i in range(replications):
        samples, _, _ = gen_stochastic(replace(spec, seed=spec.seed + 1000 * (i + 1)))
        est = fit(samples, dictionary, config.backend, seed=_seed(config, 50 + i))
        rng_eval = np.random.default_rng(_seed(config, 90 + i))
        risks.append(batch_mod.risk(est, f_truth, sampler, n_eval=n_eval, rng=rng_eval))
        # Let the fit go before the next replication's fit allocates: it
        # keeps each epoch's first snapshot and each group's weight sum.
        del est
        max_y_sq.append(max(y * y for _, y in samples))

    # The witness is the truth, so its approximation error is 0.
    inputs: dict[str, Any] = dict(
        T=spec.T, d=spec.d, l0=int(np.count_nonzero(u_true)), l1=float(np.sum(np.abs(u_true))), approx_error=0.0,
        e_max_y_sq=float(np.mean(max_y_sq)), psi_t=batch_mod.psi_bound(spec.noise, spec.T),
        sigma_sq=spec.noise.sigma_sq, f_inf=closed["f_inf"],
    )
    if fixed_design:
        # The truth at each design point as the risk scores it: a matrix
        # product would round some of them differently.
        features = np.vstack([dictionary.features(x) for x, _ in base_samples])
        stats = bounds_mod.SequenceStats.from_arrays(features, [f_truth(x) for x, _ in base_samples])
        inputs.update(design_gram_trace=stats.gram_trace, max_f_sq=stats.max_y_sq)
    else:
        inputs["sum_feature_l2"] = float(np.sum(closed["feature_l2_sq"]))
    rhs = batch_mod.risk_bound_rhs(variant, **inputs)

    mean_risk = float(np.mean(risks))
    if not (math.isfinite(mean_risk) and math.isfinite(rhs)):
        raise DataError(f"{variant}: measured risk {mean_risk!r} and rhs {rhs!r} must both be finite")
    payload = {
        "d": spec.d,
        "family": spec.noise.kind,
        "replications": replications,
        "measured_risk": mean_risk,
        "rhs": rhs,
        "witness": [float(v) for v in u_true],
        "pass": bool(mean_risk <= rhs),
    }
    if not fixed_design:
        payload["risk_stderr"] = float(np.std(risks, ddof=1) / math.sqrt(len(risks))) if len(risks) > 1 else None
        payload["amplitude_source"] = "analytic" if variant == "cor12" else "measured"
    return payload, (["rep", "risk"], [[i, r] for i, r in enumerate(risks)])


def _batch_family_sweep(config: _Config, replications: int):
    families = [
        NoiseFamily.bounded(1.0),
        NoiseFamily.subgaussian(1.0),
        NoiseFamily.bounded_exp_moment(1.0),
        NoiseFamily.bounded_moment(4.0, 3.0),
    ]
    table = []
    reps = max(replications, 100)
    _check_size("--replications", "replications * T", reps * config.spec.T)
    for k, family in enumerate(families):
        rng = np.random.default_rng(_seed(config, 300 + k))
        draws = family.draw(rng, (reps, config.spec.T))
        measured = batch_mod.empirical_max_sq(draws)
        cap = config.spec.T * batch_mod.psi_bound(family, config.spec.T)
        table.append(
            {
                "family": family.kind,
                "measured_e_max_sq": measured,
                "analytic_cap": cap,
                "pass": bool(measured <= cap),
            }
        )
    payload = {
        "replications": reps,
        "families": table,
        "pass": bool(all(e["pass"] for e in table)),
    }
    columns = ["family", "measured_e_max_sq", "analytic_cap"]
    return payload, (columns, [[entry[c] for c in columns] for entry in table])


def _batch_remark15(config: _Config, shift: float):
    # Quantize outcomes (and the shift) to multiples of 2^-20 so that every
    # shifted sum y + c is exact in binary floating point; the internal
    # residuals y - Y_1 are then bit-identical across the two runs and the
    # equivariance check is exact rather than within-rounding.
    quantum = 2.0**-20
    if not math.isfinite(shift / quantum):
        raise ArgumentError(f"remark15 needs a finite --shift of magnitude below 2^1004, got {shift!r}")
    spec = config.spec
    dictionary = Dictionary(spec.dictionary)
    raw_samples, f_truth, _ = gen_stochastic(spec)
    shift = round(shift / quantum) * quantum
    samples = [(x, round(y / quantum) * quantum) for x, y in raw_samples]
    shifted = [(x, y + shift) for x, y in samples]

    est_base, est_shift = (
        batch_mod.fit_remark15(data, dictionary, config.backend, seed=_seed(config, 50)) for data in (samples, shifted)
    )
    probe = [x for x, _ in samples[: min(16, len(samples))]]
    comps_base = [est_base.predict_components(x) for x in probe]
    comps_shift = [est_shift.predict_components(x) for x in probe]
    anchor_shift_exact = est_shift.anchor == est_base.anchor + shift
    deltas_equal = all(b[1] == s[1] for b, s in zip(comps_base, comps_shift))
    max_pred_gap = max(
        abs((s[0] + s[1]) - (b[0] + b[1] + shift)) for b, s in zip(comps_base, comps_shift)
    )
    payload = {
        "d": spec.d,
        "shift": shift,
        "y_quantum": quantum,
        "anchor_base": est_base.anchor,
        "anchor_shifted": est_shift.anchor,
        "anchor_shift_exact": bool(anchor_shift_exact),
        "deltas_bit_identical": bool(deltas_equal),
        "max_prediction_gap": max_pred_gap,
        "pass": bool(anchor_shift_exact and deltas_equal),
    }
    return payload, None


def cmd_gen(args: argparse.Namespace) -> int:
    config = _load_config(args)
    sequence = gen_individual_sequence(config.spec)
    out = config.out_dir
    rows = [[t, *np.atleast_1d(np.asarray(x, dtype=float)).tolist(), y] for t, (x, y) in enumerate(sequence, start=1)]
    for row in rows:
        if not all(map(math.isfinite, row)):
            raise DataError(f"round {row[0]}: x and y must be finite, got {row[1:]}")
    header = ["t"] + [f"x_{j}" for j in range(1, len(rows[0]) - 1)] + ["y"]
    path = out / "dataset.csv"
    _write_csv(path, DATASET_CSV_SCHEMA, header, rows)
    print(f"wrote {path}")
    return _EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.input]
    if args.kind in ("staircase", "margins") and len(paths) > 1:
        raise ArgumentError(f"plot --kind {args.kind} takes one input file, got {len(paths)}")
    try:
        svg = _chart(args.kind, paths)
    except _svg.AxisError as exc:
        raise DataError(f"{', '.join(map(str, paths))}: {exc}") from None
    out_path = Path(args.out)
    with _open_output(out_path) as fh:
        fh.write(svg)
    print(f"wrote {out_path}")
    return _EXIT_OK


def _chart(kind: str, paths: Sequence[Path]) -> str:
    """The SVG of ``kind`` drawn from ``paths``.  Every value it plots is
    checked finite where it is read."""
    if kind == "cumloss":
        series = []
        for p in paths:
            ts, cl = _csv_floats(p, "t", "cumloss")
            if not ts:
                raise ArgumentError(f"{p}: no rounds to plot")
            series.append((p.stem, ts, cl))
        return _svg.line_chart("cumulative square loss", "round t", "cumulative loss", series)
    if kind == "staircase":
        p = paths[0]
        pairs = [(t, b) for t, b in zip(*_csv_floats(p, "t", "B_t", nonfinite_ok="B_t")) if math.isfinite(b)]
        if not pairs:
            raise ArgumentError(f"{p}: no rounds with a finite threshold to plot")
        xs, ys = [], []
        for t, b in pairs:
            if ys:
                xs.append(t)
                ys.append(ys[-1])
            xs.append(t)
            ys.append(b)
        return _svg.line_chart("clip threshold schedule", "round t", "B_t", [("B_t", xs, ys)])
    if kind == "margins":
        p = paths[0]
        reports = _require_keys(p, _read_json(p), ()).get("reports", [])
        if not isinstance(reports, list):
            raise DataError(f"{p}: key 'reports' is not a list")
        if not reports:
            raise ArgumentError(f"{p}: no reports to plot")
        reports = [_require_keys(p, r, ("bound", "slack", "mc_allowance")) for r in reports]
        labels = [f"{r['bound']}/{r.get('comparator', '?')}" for r in reports]
        values = [
            _finite(p, f"report {i}: slack + mc_allowance", _number(p, r, "slack") + _number(p, r, "mc_allowance"))
            for i, r in enumerate(reports, start=1)
        ]
        return _svg.bar_chart("bound margins (slack + allowance)", "report", "margin", labels, values)
    # risk, the parser's last choice
    points = []
    for p in paths:
        payload = _require_keys(p, _read_json(p), ("T", "measured_risk", "rhs"))
        points.append(tuple(_finite(p, f"key {key!r}", _number(p, payload, key)) for key in ("T", "measured_risk", "rhs")))
    ts, measured, rhs = zip(*sorted(points))
    return _svg.line_chart("batch risk vs horizon", "T", "risk", [("measured", ts, measured), ("bound rhs", ts, rhs)])


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqsew",
        description="Online sparse regression forecasters and their bounds engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--backend", choices=["importance", "chain", "quadrature"], default=None)
        p.add_argument("--samples", type=int, default=None, help="override backend n_samples")
        p.add_argument("--out", default=None, help="override output directory")

    p_run = sub.add_parser("run", help="play the online protocol; write per-round CSV + summary JSON")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="check named bounds against a run")
    common(p_verify)
    p_verify.add_argument("--bounds", required=True, help="comma list from " + ",".join(bounds_mod.BOUND_NAMES))
    p_verify.add_argument("--comparators", default="zero,sparse,ols")
    p_verify.add_argument("--replays", type=int, default=10, help="reseeded replays for the MC allowance")
    p_verify.set_defaults(func=cmd_verify)

    p_batch = sub.add_parser("batch", help="batch-risk experiments")
    common(p_batch)
    p_batch.add_argument("--variant", required=True, choices=["thm10", "cor11", "cor12", "thm13", "cor14", "remark15"])
    p_batch.add_argument("--replications", type=int, default=20)
    p_batch.add_argument("--n-eval", type=int, default=400, dest="n_eval")
    p_batch.add_argument("--shift", type=float, default=4.0, help="outcome shift for the remark15 check")
    p_batch.set_defaults(func=cmd_batch)

    p_gen = sub.add_parser("gen", help="generate a dataset CSV from a scenario config")
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_plot = sub.add_parser("plot", help="render a static SVG from run/verify/batch outputs")
    p_plot.add_argument("--input", nargs="+", required=True)
    p_plot.add_argument("--kind", required=True, choices=["cumloss", "staircase", "margins", "risk"])
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArgumentError, ContractViolationError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
