"""The four benchmark workloads.

Each workload builds its inputs from the workload seed only, drives
seqsew through its public API or CLI, and checks every answer it times.
A *job* is one checked answer; the number of jobs in a run is fixed by
``--seconds`` and the workload's nominal job time (measured at the seed
on a 2-core machine), never by the clock, so a run's work and its exact
work counts depend only on the seed and ``--seconds``.

Every call into seqsew goes through a module attribute looked up at call
time (``sq.run_protocol``, ``sq.cli.main``), so the tracer's wrappers see
it.
"""

from __future__ import annotations

import json
import math
import statistics
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np


def _rng(*words: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(words)))


def _coordinate_scenario(sq, *, T, d, s, u_true, design_scale, sigma_sq, seed):
    return sq.ScenarioSpec(
        T=T,
        d=d,
        s=s,
        u_true=tuple(float(v) for v in u_true) if u_true is not None else None,
        design="iid_uniform",
        noise=sq.NoiseFamily.subgaussian(sigma_sq),
        seed=seed,
        dictionary=sq.DictionarySpec(kind="coordinate", d=d),
        design_scale=design_scale,
    )


def _scenario_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class Workload:
    name = ""
    nominal_job_s = 1.0
    min_jobs = 1

    def __init__(self, sq, seed: int, seconds: int, workdir: Path) -> None:
        self.sq = sq
        self.seed = int(seed)
        self.workdir = workdir
        self.n_jobs = max(self.min_jobs, round(seconds / self.nominal_job_s))
        self.notes: list[str] = []

    def setup(self) -> None:
        """Generate inputs and build what the jobs need, up to the first
        timed operation."""

    def warmup(self) -> tuple[int, int]:
        """An untimed cut-down job that pages in code and data; returns
        (ops attempted, ops failed) for the checks it makes, if any."""
        return 0, 0

    def job(self, k: int) -> tuple[int, int, object]:
        """Run job ``k``; return (ops attempted, ops failed, fingerprint).
        The fingerprint is a deterministic digest of the answer."""
        raise NotImplementedError

    def extra_metrics(self) -> dict[str, float]:
        """Per-layer metrics the workload measures itself."""
        return {}

    def fit_peak_mb(self) -> float:
        """``tracemalloc`` peak of one untimed fit, where the workload fits."""
        return 0.0

    def fail(self, message: str) -> None:
        self.notes.append(message)


# ---------------------------------------------------------------------------


class OnlineD30(Workload):
    """Criterion-4 shape: adaptive forecaster, importance backend, on the
    sparse d=30 sequence of ``test_criterion_4`` in
    ``tests/test_acceptance.py``, built the same way; the seed picks the
    forecaster seeds, one per job.

    The sequence is fixed on purpose: how many rounds rejuvenate and when
    depends on the sequence, and that sets most of a job's cost, so a
    per-seed sequence would make job_s a property of the seed rather than
    of the code."""

    name = "online_d30"
    nominal_job_s = 6.5
    min_jobs = 3
    T, D, S, N_SAMPLES, SWEEPS, TAU = 500, 30, 3, 4000, 3, 3.0
    SEQUENCE_SEED, SUPPORT = 424242, (2, 11, 25)

    def setup(self) -> None:
        sq = self.sq
        rng = np.random.default_rng(self.SEQUENCE_SEED)
        self.xs = rng.uniform(-1.0, 1.0, size=(self.T, self.D))
        u = np.zeros(self.D)
        u[list(self.SUPPORT)] = [1.5, -2.0, 1.0]
        self.ys = self.xs @ u + 0.5 * rng.standard_normal(self.T)
        self.sequence = list(zip(self.xs, self.ys))
        self.config = sq.BackendConfig(
            backend="importance", n_samples=self.N_SAMPLES, ess_floor=0.5, refresh_sweeps=self.SWEEPS
        )
        self.first = self._forecaster(0)

    def _forecaster(self, k: int):
        return self.sq.seqsew_adaptive(self.D, self.TAU, self.config, seed=_rng(self.seed, 1, k))

    def warmup(self) -> tuple[int, int]:
        self.sq.run_protocol(self.first, self.sequence[:150])
        return 0, 0

    def job(self, k: int):
        sq = self.sq
        res = sq.run_protocol(self._forecaster(k), self.sequence)
        w_full = sq.best_sparse_comparator(self.xs, self.ys, self.S, allow_greedy=True)
        quarter = self.T // 4
        w_quarter = sq.best_sparse_comparator(self.xs[:quarter], self.ys[:quarter], self.S, allow_greedy=True)
        report = sq.verify(res, "prop5", w_full)
        regret_full = res.cumulative_loss - w_full.cumulative_loss
        regret_quarter = res.prefix_cumulative_loss(quarter) - w_quarter.cumulative_loss
        sublinear = regret_full / self.T < 0.5 * regret_quarter / quarter
        failed = 0
        if not report.passed:
            failed += 1
            self.fail(f"job {k}: prop5 slack {report.slack}")
        if not sublinear:
            failed += 1
            self.fail(f"job {k}: regret not sublinear ({regret_full / self.T} vs {regret_quarter / quarter})")
        return 2, failed, (res.cumulative_loss, report.rhs)


# ---------------------------------------------------------------------------


class BatchRisk(Workload):
    """Criterion-7 shape scaled up: random-design online-to-batch fit and
    Monte-Carlo risk, one replication per job, gated by the cor12 bound."""

    name = "batch_risk"
    nominal_job_s = 1.5
    min_jobs = 3
    T, D, S, N_SAMPLES, N_EVAL, SIGMA_SQ = 400, 8, 3, 4000, 400, 1.0

    def _replication(self, k: int, T: int):
        sq = self.sq
        spec = _coordinate_scenario(
            sq, T=T, d=self.D, s=self.S, u_true=None, design_scale=1.0, sigma_sq=self.SIGMA_SQ,
            seed=_scenario_seed(self.seed, 70 + k),
        )
        samples, truth, closed = sq.gen_stochastic(spec)
        u = closed["u_true"]
        rhs = sq.risk_bound_rhs(
            "cor12",
            T=T,
            d=self.D,
            l0=int(np.count_nonzero(u)),
            l1=float(np.sum(np.abs(u))),
            approx_error=0.0,
            f_inf=closed["f_inf"],
            sigma_sq=self.SIGMA_SQ,
            sum_feature_l2=float(np.sum(closed["feature_l2_sq"])),
        )
        return spec, samples, truth, rhs

    def setup(self) -> None:
        sq = self.sq
        self.dictionary = sq.Dictionary(sq.DictionarySpec(kind="coordinate", d=self.D))
        self.config = sq.BackendConfig(backend="importance", n_samples=self.N_SAMPLES)
        self.reps = [self._replication(k, self.T) for k in range(self.n_jobs)]
        self.warm = self._replication(-1, 100)

    def _fit_and_risk(self, rep, k: int) -> float:
        sq = self.sq
        spec, samples, truth, _ = rep
        est = sq.fit_random_design(samples, self.dictionary, self.config, seed=_rng(self.seed, 50, k))
        return sq.risk(est, truth, sq.design_sampler(spec), n_eval=self.N_EVAL, rng=_rng(self.seed, 90, k))

    def warmup(self) -> tuple[int, int]:
        self._fit_and_risk(self.warm, 10**6)
        return 0, 0

    def fit_peak_mb(self) -> float:
        sq = self.sq
        samples = self.reps[0][1]
        tracemalloc.start()
        try:
            sq.fit_random_design(samples, self.dictionary, self.config, seed=_rng(self.seed, 50, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def job(self, k: int):
        measured = self._fit_and_risk(self.reps[k], k)
        rhs = self.reps[k][3]
        if math.isfinite(measured) and measured <= rhs:
            return 1, 0, measured
        self.fail(f"job {k}: risk {measured} above cor12 rhs {rhs}")
        return 1, 1, measured


# ---------------------------------------------------------------------------


class OracleD2(Workload):
    """Criterion-3 shape: one T=50 sequence per job (d alternating 1, 2)
    on the quadrature oracle and both stochastic backends; at least 95% of
    rounds within 0.05 max(B, 1) of the oracle, per backend."""

    name = "oracle_d2"
    nominal_job_s = 3.75
    min_jobs = 2
    T, TAU, N_SAMPLES, BURN_IN = 50, 0.1, 10_000, 20

    def setup(self) -> None:
        sq = self.sq
        self.sequences = []
        for k in range(self.n_jobs):
            d = 1 + k % 2
            pick = _rng(self.seed, 3, k)
            u = pick.uniform(0.5, 2.0, size=d) * np.where(pick.random(d) < 0.5, -1.0, 1.0)
            spec = _coordinate_scenario(
                sq, T=self.T, d=d, s=d, u_true=u, design_scale=2.0, sigma_sq=0.09,
                seed=_scenario_seed(self.seed, 300 + k),
            )
            self.sequences.append((d, sq.gen_individual_sequence(spec)))
        self.gaps: dict[str, list[float]] = {"importance": [], "chain": []}
        self.first = self._forecasters(0)

    def _forecasters(self, k: int):
        sq = self.sq
        d = self.sequences[k][0]
        grid = 1001 if d == 1 else 257
        return {
            "quadrature": sq.seqsew_adaptive(
                d, self.TAU, sq.BackendConfig(backend="quadrature", grid_points_per_dim=grid)
            ),
            "importance": sq.seqsew_adaptive(
                d, self.TAU, sq.BackendConfig(backend="importance", n_samples=self.N_SAMPLES),
                seed=_rng(self.seed, 4, k),
            ),
            "chain": sq.seqsew_adaptive(
                d, self.TAU, sq.BackendConfig(backend="chain", n_samples=self.N_SAMPLES, burn_in=self.BURN_IN),
                seed=_rng(self.seed, 5, k),
            ),
        }

    def warmup(self) -> tuple[int, int]:
        # The whole first sequence: a shorter one leaves the first job to
        # grow the chain's T-long arrays, and it read up to 40% slow.
        for fc in self.first.values():
            self.sq.run_protocol(fc, self.sequences[0][1])
        return 0, 0

    def job(self, k: int):
        sq = self.sq
        sequence = self.sequences[k][1]
        results = {name: sq.run_protocol(fc, sequence) for name, fc in self._forecasters(k).items()}
        ref = results["quadrature"]
        tol = 0.05 * np.maximum(np.asarray([r.B for r in ref.records]), 1.0)
        failed = 0
        for name in ("importance", "chain"):
            gap = np.abs(results[name].predictions - ref.predictions) / tol
            self.gaps[name].extend(gap.tolist())
            within = float(np.mean(gap <= 1.0))
            if within < 0.95:
                failed += 1
                self.fail(f"job {k}: {name} within tolerance on {within:.3f} of rounds")
        return 2, failed, tuple(float(results[n].cumulative_loss) for n in sorted(results))

    def extra_metrics(self) -> dict[str, float]:
        return {
            f"posterior.oracle_gap_p50.{name}": statistics.median(vals)
            for name, vals in self.gaps.items()
            if vals
        }


# ---------------------------------------------------------------------------


class CliAuto(Workload):
    """The CLI on one automatic-forecaster config: gen, run, verify, batch,
    and two plots per job, run in-process through ``seqsew.cli.main``.
    The untimed first repetition is the reference every later repetition
    must reproduce byte for byte."""

    name = "cli_auto"
    nominal_job_s = 3.8
    min_jobs = 3
    BATCH_SAMPLES = 500

    def config(self) -> dict:
        return {
            "schema": "seqsew.config.v1",
            "seed": self.seed,
            "scenario": {
                "T": 500,
                "d": 20,
                "s": 3,
                "design": "iid_uniform",
                "noise": {"kind": "sg", "sigma_sq": 0.25},
                "dictionary": {"kind": "coordinate", "d": 20},
            },
            "forecaster": {"kind": "auto"},
            "backend": {"backend": "importance", "n_samples": 10_000},
        }

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config(), sort_keys=True))
        self.reference: dict[str, bytes] | None = None
        self.output_bytes = 0

    def batch_argv(self, out: Path) -> list[str]:
        return [
            "batch", "--config", str(self.config_path), "--out", str(out),
            "--variant", "thm10", "--replications", "2", "--samples", str(self.BATCH_SAMPLES),
        ]

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        base = ["--config", str(self.config_path), "--out", str(out)]
        return [
            ("gen", ["gen", *base]),
            ("run", ["run", *base]),
            ("verify", ["verify", *base, "--bounds", "thm8,cor9", "--replays", "10"]),
            ("batch", self.batch_argv(out)),
            ("plot", ["plot", "--input", str(out / "run.csv"), "--kind", "cumloss", "--out", str(out / "cumloss.svg")]),
            ("plot", ["plot", "--input", str(out / "verify.json"), "--kind", "margins", "--out", str(out / "margins.svg")]),
        ]

    def _repetition(self, label: str) -> tuple[int, int, dict[str, bytes]]:
        out = self.workdir / label
        commands = self.commands(out)
        failed = 0
        sink = StringIO()
        for name, argv in commands:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = self.sq.cli.main(argv)
            if code == 0 and name == "verify":
                reports = json.loads((out / "verify.json").read_text())["reports"]
                if not reports or not all(r["pass"] for r in reports):
                    code = -1
            if code != 0:
                failed += 1
                self.fail(f"{label}: {name} exited {code}")
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
        for path in out.iterdir() if out.is_dir() else ():
            path.unlink()
        return len(commands), failed, files

    def warmup(self) -> tuple[int, int]:
        ops, failed, self.reference = self._repetition("reference")
        return ops, failed

    def job(self, k: int):
        ops, failed, files = self._repetition(f"rep{k}")
        self.output_bytes = sum(len(b) for b in files.values())
        if files != self.reference:
            failed += 1
            differ = sorted(n for n in set(files) | set(self.reference) if files.get(n) != self.reference.get(n))
            self.fail(f"rep{k}: outputs differ from the first repetition: {', '.join(differ)}")
        return ops + 1, failed, self.output_bytes

    def extra_metrics(self) -> dict[str, float]:
        return {"cli.output_bytes": float(self.output_bytes)}


WORKLOADS = {cls.name: cls for cls in (OnlineD30, BatchRisk, OracleD2, CliAuto)}
