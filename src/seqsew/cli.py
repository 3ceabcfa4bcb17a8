"""Command-line surface: run forecasters, verify bounds, run batch-risk
experiments, generate data, and plot results.

One JSON config document is the single source of truth for an experiment;
flags override individual fields.  Every command is deterministic given
(config, seed): identical invocations produce byte-identical outputs.

Exit codes: 0 success, 2 usage or config error, 3 bound-verification
failure, 4 I/O or input-parse failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import _svg, batch as batch_mod, bounds as bounds_mod
from .datagen import Dictionary, NoiseFamily, ScenarioSpec, design_sampler, gen_individual_sequence, gen_stochastic, scenario_from_dict
from .errors import ArgumentError, ContractViolationError, DataError, StateError
from .forecasters import ProtocolResult, ridge_baseline, run_protocol, seqsew_adaptive, seqsew_auto, seqsew_fixed
from .posterior import BackendConfig

CONFIG_SCHEMA = "seqsew.config.v1"
RUN_CSV_SCHEMA = "seqsew.run.v1"
DATASET_CSV_SCHEMA = "seqsew.dataset.v1"
REPS_CSV_SCHEMA = "seqsew.batch-reps.v1"

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
    if isinstance(obj, (np.floating, np.integer)):
        return _sanitize(obj.item())
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _dump_json(path: Path, payload: dict[str, Any]) -> None:
    path.write_text(json.dumps(_sanitize(payload), sort_keys=True, indent=1) + "\n")


def _cell(v: Any) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, schema: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with path.open("w", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    rows: list[list[str]] = []
    header: list[str] | None = None
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        cells = next(csv.reader([line]))
        if header is None:
            header = cells
            continue
        if len(cells) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}")
        rows.append(cells)
    if header is None:
        raise ArgumentError(f"{path}: no data")
    return header, rows


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def _csv_floats(path: Path, column: str) -> list[float]:
    header, rows = _read_csv(path)
    if column not in header:
        raise DataError(f"{path}: missing column {column!r}")
    idx = header.index(column)
    out = []
    for lineno, row in enumerate(rows, start=1):
        try:
            out.append(float(row[idx]))
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: bad float in {column!r}: {row[idx]!r}") from exc
    return out


# ---------------------------------------------------------------------------
# Config handling.
# ---------------------------------------------------------------------------


def _load_config(args: argparse.Namespace) -> dict[str, Any]:
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"config {path} is not valid JSON: {exc}") from exc
    if config.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
        raise ArgumentError(f"unsupported config schema {config.get('schema')!r}")
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    backend = dict(config.get("backend", {}))
    if getattr(args, "backend", None):
        backend["backend"] = args.backend
    if getattr(args, "samples", None):
        backend["n_samples"] = args.samples
    config["backend"] = backend
    if getattr(args, "out", None):
        config.setdefault("outputs", {})["dir"] = args.out
    return config


def _backend_config(config: dict[str, Any]) -> BackendConfig:
    known = {f for f in BackendConfig.__dataclass_fields__}
    fields = {k: v for k, v in config.get("backend", {}).items() if k in known}
    return BackendConfig(**fields)


def _scenario(config: dict[str, Any]) -> ScenarioSpec:
    if "scenario" not in config:
        raise ArgumentError("config needs a 'scenario' section")
    scenario = dict(config["scenario"])
    scenario.setdefault("seed", int(config.get("seed", 0)))
    return scenario_from_dict(scenario)


def _forecaster(config: dict[str, Any], dim: int, backend: BackendConfig, seed_offset: int = 1):
    fc = config.get("forecaster", {"kind": "adaptive", "tau": 1.0})
    kind = fc.get("kind", "adaptive")
    master = int(config.get("seed", 0))
    rng = np.random.default_rng(np.random.SeedSequence([master, seed_offset]))
    if kind == "fixed":
        B, eta, tau = float(fc["B"]), float(fc["eta"]), float(fc["tau"])
        if eta > 1.0 / (8.0 * B * B) * (1.0 + 1e-12):
            print(
                f"warning: eta={eta} exceeds 1/(8 B^2)={1.0 / (8 * B * B)}; "
                "the fixed-forecaster guarantee does not cover this tuning",
                file=sys.stderr,
            )
        return seqsew_fixed(dim, B, eta, tau, backend, seed=rng)
    if kind == "adaptive":
        return seqsew_adaptive(dim, float(fc["tau"]), backend, seed=rng)
    if kind == "auto":
        return seqsew_auto(dim, backend, seed=np.random.SeedSequence([master, seed_offset]))
    if kind == "ridge":
        return ridge_baseline(dim, float(fc.get("regularization", 1.0)))
    raise ArgumentError(f"unknown forecaster kind {kind!r}")


def _out_dir(config: dict[str, Any]) -> Path:
    out = Path(config.get("outputs", {}).get("dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _execute_run(config: dict[str, Any], seed_offset: int = 1) -> tuple[ProtocolResult, ScenarioSpec]:
    spec = _scenario(config)
    dictionary = Dictionary(spec.dictionary)
    sequence = gen_individual_sequence(spec)
    backend = _backend_config(config)
    forecaster = _forecaster(config, dictionary.d, backend, seed_offset=seed_offset)
    return run_protocol(forecaster, sequence, dictionary), spec


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result, spec = _execute_run(config)
    out = _out_dir(config)

    rows = [
        [r.t, r.y, r.yhat, r.loss, r.cumloss, r.B, r.eta, r.regime, r.ess]
        for r in result.records
    ]
    _write_csv(out / "run.csv", RUN_CSV_SCHEMA, ["t", "y", "yhat", "loss", "cumloss", "B_t", "eta_t", "regime", "ess"], rows)

    stats = bounds_mod.SequenceStats.from_arrays(result.features, result.y)
    summary = {
        "schema": "seqsew.run-summary.v1",
        "seed": int(config.get("seed", 0)),
        "T": stats.T,
        "cumulative_loss": result.cumulative_loss,
        "forecaster": result.forecaster_info,
        "adaptation": {
            "B_values": sorted({r.B for r in result.records}),
            "final_eta": result.records[-1].eta,
            "max_y_sq": stats.max_y_sq,
            "gram_trace": stats.gram_trace,
            "regimes": {
                "starts": result.regime_bounds[0] if result.regime_bounds else [1],
                "ends": result.regime_bounds[1] if result.regime_bounds else [],
            },
        },
        "scenario": config.get("scenario", {}),
    }
    _dump_json(out / "run_summary.json", summary)
    print(f"wrote {out / 'run.csv'} and {out / 'run_summary.json'}")
    return _EXIT_OK


def _comparator_set(result: ProtocolResult, spec: ScenarioSpec, names: Sequence[str]) -> dict[str, bounds_mod.Comparator]:
    out: dict[str, bounds_mod.Comparator] = {}
    d = result.features.shape[1]
    for name in names:
        if name == "zero":
            out[name] = bounds_mod.Comparator.from_vector(np.zeros(d), result.features, result.y)
        elif name == "sparse":
            out[name] = bounds_mod.best_sparse_comparator(
                result.features, result.y, max(spec.s, 1), allow_greedy=True
            )
        elif name == "ols":
            coef = np.linalg.lstsq(result.features, result.y, rcond=None)[0]
            out[name] = bounds_mod.Comparator.from_vector(coef, result.features, result.y)
        else:
            raise ArgumentError(f"unknown comparator {name!r} (use zero, sparse, ols)")
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args)
    bound_names = [b.strip() for b in args.bounds.split(",") if b.strip()]
    for b in bound_names:
        if b not in bounds_mod.BOUND_NAMES:
            raise ArgumentError(f"unknown bound {b!r}; choose from {', '.join(bounds_mod.BOUND_NAMES)}")

    result, spec = _execute_run(config)
    backend = _backend_config(config)
    stats = bounds_mod.SequenceStats.from_arrays(result.features, result.y)

    mc_allowance = 0.0
    if backend.backend != "quadrature" and args.replays >= 2:
        losses = [result.cumulative_loss]
        for i in range(1, args.replays):
            replay, _ = _execute_run(config, seed_offset=1 + i)
            losses.append(replay.cumulative_loss)
        mc_allowance = bounds_mod.mc_allowance_from_replays(losses)

    comparators = _comparator_set(result, spec, [c.strip() for c in args.comparators.split(",")])
    info = result.forecaster_info
    reports = []
    for bound in bound_names:
        for cname, comp in comparators.items():
            kwargs: dict[str, Any] = {"mc_allowance": mc_allowance}
            if bound == "cor3":
                kwargs["B_y"] = info["B"]
                kwargs["B_Phi"] = 16.0 * info["B"] ** 2 / info["tau"] ** 2
            elif bound == "cor6":
                kwargs["B_Phi"] = 1.0 / info["tau"] ** 2
            elif bound == "cor9":
                kwargs["s"] = max(comp.l0, spec.s)
                kwargs["U"] = max(comp.l1, 1.0)
            report = bounds_mod.verify(result, bound, comp, **kwargs)
            entry = report.to_json_dict()
            entry["comparator"] = cname
            reports.append(entry)

    out = _out_dir(config)
    payload = {
        "schema": "seqsew.verify.v1",
        "seed": int(config.get("seed", 0)),
        "backend": backend.backend,
        "replays": args.replays if backend.backend != "quadrature" else 0,
        "mc_allowance": mc_allowance,
        "T": stats.T,
        "reports": reports,
    }
    _dump_json(out / "verify.json", payload)
    n_fail = sum(1 for r in reports if not r["pass"])
    print(f"wrote {out / 'verify.json'}: {len(reports) - n_fail}/{len(reports)} reports pass")
    return _EXIT_VERIFY if n_fail else _EXIT_OK


def cmd_batch(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    variant = args.variant
    if variant in ("thm10", "cor12"):
        payload, reps = _batch_random_design(config, variant, args.replications, args.n_eval)
    elif variant in ("thm13", "cor14"):
        payload, reps = _batch_fixed_design(config, variant, args.replications)
    elif variant == "cor11":
        payload, reps = _batch_family_sweep(config, args.replications)
    elif variant == "remark15":
        payload, reps = _batch_remark15(config, args.shift)
    else:
        raise ArgumentError(f"unknown batch variant {variant!r}")

    _dump_json(out / f"batch_{variant}.json", payload)
    if reps is not None:
        header, rows = reps
        _write_csv(out / f"batch_{variant}_reps.csv", REPS_CSV_SCHEMA, header, rows)
    print(f"wrote {out / f'batch_{variant}.json'}")
    return _EXIT_OK


def _replicate(config: dict[str, Any], spec: ScenarioSpec, fit, replications: int, n_eval: int = 0):
    """Fit and score reseeded draws of the scenario; returns the per-draw
    risks and the mean over draws of max_t Y_t^2."""
    backend = _backend_config(config)
    master = int(config.get("seed", 0))
    dictionary = Dictionary(spec.dictionary)
    risks, max_y_sq = [], []
    for i in range(replications):
        rep_spec = replace(spec, seed=spec.seed + 1000 * (i + 1))
        samples, f_truth, _ = gen_stochastic(rep_spec)
        fit_rng = np.random.default_rng(np.random.SeedSequence([master, 50 + i]))
        est = fit(samples, dictionary, backend, seed=fit_rng)
        rng_eval = np.random.default_rng(np.random.SeedSequence([master, 90 + i]))
        risks.append(batch_mod.risk(est, f_truth, design_sampler(rep_spec), n_eval=n_eval, rng=rng_eval))
        max_y_sq.append(max(y * y for _, y in samples))
    return risks, float(np.mean(max_y_sq))


def _batch_random_design(config: dict[str, Any], variant: str, replications: int, n_eval: int):
    spec = _scenario(config)
    risks, e_max_y_sq = _replicate(config, spec, batch_mod.fit_random_design, replications, n_eval)

    _, _, closed = gen_stochastic(spec)
    u_true = closed["u_true"]
    l0, l1 = int(np.count_nonzero(u_true)), float(np.sum(np.abs(u_true)))
    approx = closed["approx_error_fn"](u_true) if closed.get("approx_error_fn") else 0.0
    feat_sum = float(np.sum(closed["feature_l2_sq"])) if closed["feature_l2_sq"] else None
    if feat_sum is None:
        raise ArgumentError("batch risk bounds need a design with known feature norms")

    kw = dict(T=spec.T, d=spec.d, l0=l0, l1=l1, approx_error=approx, sum_feature_l2=feat_sum)
    if variant == "thm10":
        rhs = batch_mod.risk_bound_rhs("thm10", e_max_y_sq=e_max_y_sq, **kw)
        amplitude_source = "measured"
    else:
        if spec.noise is None or spec.noise.kind != "sg":
            raise ArgumentError("cor12 applies under subgaussian noise")
        if closed.get("f_inf") is None:
            raise ArgumentError("cor12 needs a bounded regression function")
        rhs = batch_mod.risk_bound_rhs(
            "cor12", f_inf=closed["f_inf"], sigma_sq=spec.noise.sigma_sq, **kw
        )
        amplitude_source = "analytic"
    mean_risk = float(np.mean(risks))
    payload = {
        "schema": "seqsew.batch.v1",
        "variant": variant,
        "T": spec.T,
        "d": spec.d,
        "family": spec.noise.kind if spec.noise else None,
        "replications": replications,
        "measured_risk": mean_risk,
        "risk_stderr": float(np.std(risks, ddof=1) / math.sqrt(len(risks))) if len(risks) > 1 else None,
        "rhs": rhs,
        "amplitude_source": amplitude_source,
        "witness": [float(v) for v in u_true],
        "pass": bool(mean_risk <= rhs),
    }
    reps = (["rep", "risk"], [[i, r] for i, r in enumerate(risks)])
    return payload, reps


def _batch_fixed_design(config: dict[str, Any], variant: str, replications: int):
    spec = _scenario(config)
    if spec.design != "fixed_grid":
        raise ArgumentError(f"{variant} needs the fixed_grid design")
    risks, e_max_y_sq = _replicate(config, spec, batch_mod.fit_fixed_design, replications)

    dictionary = Dictionary(spec.dictionary)
    base_samples, f_truth, closed = gen_stochastic(spec)
    u_true = closed["u_true"]
    features = np.vstack([dictionary.features(x) for x, _ in base_samples])
    f_vals = np.asarray([f_truth(x) for x, _ in base_samples])
    approx = float(np.mean((f_vals - features @ u_true) ** 2))
    gram = float(np.sum(features**2))
    kw = dict(
        T=spec.T,
        d=spec.d,
        l0=int(np.count_nonzero(u_true)),
        l1=float(np.sum(np.abs(u_true))),
        approx_error=approx,
        design_gram_trace=gram,
    )
    if variant == "thm13":
        rhs = batch_mod.risk_bound_rhs("thm13", e_max_y_sq=e_max_y_sq, **kw)
    else:
        if spec.noise is None:
            raise ArgumentError("cor14 needs a noise family")
        rhs = batch_mod.risk_bound_rhs(
            "cor14",
            max_f_sq=float(np.max(f_vals**2)),
            psi_t=batch_mod.psi_bound(spec.noise, spec.T),
            **kw,
        )
    mean_risk = float(np.mean(risks))
    payload = {
        "schema": "seqsew.batch.v1",
        "variant": variant,
        "T": spec.T,
        "d": spec.d,
        "family": spec.noise.kind if spec.noise else None,
        "replications": replications,
        "measured_risk": mean_risk,
        "rhs": rhs,
        "witness": [float(v) for v in u_true],
        "pass": bool(mean_risk <= rhs),
    }
    reps = (["rep", "risk"], [[i, r] for i, r in enumerate(risks)])
    return payload, reps


def _batch_family_sweep(config: dict[str, Any], replications: int):
    spec = _scenario(config)
    master = int(config.get("seed", 0))
    families = [
        NoiseFamily.bounded(1.0),
        NoiseFamily.subgaussian(1.0),
        NoiseFamily.bounded_exp_moment(1.0),
        NoiseFamily.bounded_moment(4.0, 3.0),
    ]
    table = []
    rows = []
    reps = max(replications, 100)
    for k, family in enumerate(families):
        rng = np.random.default_rng(np.random.SeedSequence([master, 300 + k]))
        draws = family.draw(rng, (reps, spec.T))
        measured = batch_mod.empirical_max_sq(draws)
        cap = spec.T * batch_mod.psi_bound(family, spec.T)
        table.append(
            {
                "family": family.kind,
                "measured_e_max_sq": measured,
                "analytic_cap": cap,
                "pass": bool(measured <= cap),
            }
        )
        rows.append([family.kind, measured, cap])
    payload = {
        "schema": "seqsew.batch.v1",
        "variant": "cor11",
        "T": spec.T,
        "replications": reps,
        "families": table,
        "pass": bool(all(e["pass"] for e in table)),
    }
    return payload, (["family", "measured_e_max_sq", "analytic_cap"], rows)


def _batch_remark15(config: dict[str, Any], shift: float):
    spec = _scenario(config)
    backend = _backend_config(config)
    master = int(config.get("seed", 0))
    dictionary = Dictionary(spec.dictionary)
    raw_samples, f_truth, _ = gen_stochastic(spec)
    # Quantize outcomes (and the shift) to multiples of 2^-20 so that every
    # shifted sum y + c is exact in binary floating point; the internal
    # residuals y - Y_1 are then bit-identical across the two runs and the
    # equivariance check is exact rather than within-rounding.
    quantum = 2.0**-20
    shift = round(shift / quantum) * quantum
    samples = [(x, round(y / quantum) * quantum) for x, y in raw_samples]
    shifted = [(x, y + shift) for x, y in samples]

    est_base = batch_mod.fit_remark15(
        samples, dictionary, backend, seed=np.random.default_rng(np.random.SeedSequence([master, 50]))
    )
    est_shift = batch_mod.fit_remark15(
        shifted, dictionary, backend, seed=np.random.default_rng(np.random.SeedSequence([master, 50]))
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
        "schema": "seqsew.batch.v1",
        "variant": "remark15",
        "T": spec.T,
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
    spec = _scenario(config)
    sequence = gen_individual_sequence(spec)
    out = _out_dir(config)
    first_x = np.atleast_1d(np.asarray(sequence[0][0], dtype=float))
    header = ["t"] + [f"x_{j + 1}" for j in range(first_x.size)] + ["y"]
    rows = []
    for t, (x, y) in enumerate(sequence, start=1):
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        rows.append([t, *xv.tolist(), y])
    path = out / "dataset.csv"
    _write_csv(path, DATASET_CSV_SCHEMA, header, rows)
    print(f"wrote {path}")
    return _EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.input]
    if not paths:
        raise ArgumentError("plot needs at least one input file")
    kind = args.kind
    if kind == "cumloss":
        series = []
        for p in paths:
            ts = _csv_floats(p, "t")
            cl = _csv_floats(p, "cumloss")
            if not ts:
                raise ArgumentError(f"{p}: no rounds to plot")
            series.append((p.stem, ts, cl))
        svg = _svg.line_chart("cumulative square loss", "round t", "cumulative loss", series)
    elif kind == "staircase":
        p = paths[0]
        pairs = [(t, b) for t, b in zip(_csv_floats(p, "t"), _csv_floats(p, "B_t")) if math.isfinite(b)]
        if not pairs:
            raise ArgumentError(f"{p}: no rounds with a finite threshold to plot")
        ts = [t for t, _ in pairs]
        bs = [b for _, b in pairs]
        xs, ys = [], []
        for i, (t, b) in enumerate(zip(ts, bs)):
            if i > 0:
                xs.append(t)
                ys.append(ys[-1])
            xs.append(t)
            ys.append(b)
        svg = _svg.line_chart("clip threshold schedule", "round t", "B_t", [("B_t", xs, ys)])
    elif kind == "margins":
        p = paths[0]
        reports = _read_json(p).get("reports", [])
        if not reports:
            raise ArgumentError(f"{p}: no reports to plot")
        labels = [f"{r['bound']}/{r.get('comparator', '?')}" for r in reports]
        values = [float(r["slack"]) + float(r["mc_allowance"]) for r in reports]
        svg = _svg.bar_chart("bound margins (slack + allowance)", "report", "margin", labels, values)
    elif kind == "risk":
        points = []
        for p in paths:
            payload = _read_json(p)
            points.append((float(payload["T"]), float(payload["measured_risk"]), float(payload["rhs"])))
        if not points:
            raise ArgumentError("no risk points to plot")
        points.sort()
        ts = [t for t, _, _ in points]
        svg = _svg.line_chart(
            "batch risk vs horizon",
            "T",
            "risk",
            [
                ("measured", ts, [m for _, m, _ in points]),
                ("bound rhs", ts, [r for _, _, r in points]),
            ],
        )
    else:
        raise ArgumentError(f"unknown plot kind {kind!r}")

    out_path = Path(args.out)
    out_path.write_text(svg)
    print(f"wrote {out_path}")
    return _EXIT_OK


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
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
