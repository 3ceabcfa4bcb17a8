"""seqsew benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload online_d30 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src/`` (nothing to build).  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run.  The
lines before it are a human-readable report, and the full result,
with the environment record, is written under ``.perfbench/results/``.

This process only orchestrates; every workload runs in child processes
(``child.py``): fresh set-up probes, then one measured process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("online_d30", "batch_risk", "oracle_d2", "cli_auto")
SETUP_PROBES = 4  # fresh processes; the measured process gives one more sample
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, args: argparse.Namespace, digest: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("SEQSEW_THREADS", None)  # the CLI's default pool size
    env.pop("PYTHONPATH", None)  # the child imports seqsew from this checkout only
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        result = Path(tmp) / "result.json"
        cmd = [
            sys.executable, str(HERE / "child.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--source-digest", digest, "--result", str(result),
        ]
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed(f"no time left for the {mode} process")
        # Own session, so a timeout can stop the child and anything it started.
        proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{mode} process timed out") from exc
        if proc.returncode != 0 or not result.is_file():
            raise ChildFailed(f"{mode} process exited {proc.returncode}:\n{stderr[-4000:]}")
        return json.loads(result.read_text())


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def source_digest() -> str:
    """Digest of the package and benchmark sources: it changes with any
    edit to either, committed or not."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def source_revision() -> str:
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown (not a git checkout)"


def cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def environment(child_env: dict, digest: str) -> dict:
    return {
        "revision": source_revision(),
        "source_digest": digest,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "caches": cache_sizes(),
        **child_env,
    }


def end_to_end(doc: dict, setup_samples: list[float]) -> tuple[dict, list[str]]:
    jobs = doc["job_s"]
    job_tail, job_pct = tail(jobs)
    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "job_s": {"value": statistics.median(jobs), "unit": "s"},
        "peak_rss_mb": {"value": doc["peak_rss_mb"], "unit": "MB"},
    }
    lines = [
        f"setup_s      median {metrics['setup_s']['value']:.4f} s over {len(setup_samples)} fresh processes "
        f"({', '.join(f'{v:.3f}' for v in setup_samples)})",
        f"job_s        median {metrics['job_s']['value']:.4f} s over {len(jobs)} jobs"
        + (f"; p{job_pct:.1f} {job_tail:.4f} s" if len(jobs) > 10 else f"; no tail (max {max(jobs):.4f} s)"),
        f"peak_rss_mb  {doc['peak_rss_mb']:.1f} MB (ru_maxrss of the measured process)",
    ]
    return metrics, lines


def _layer_metrics() -> list[tuple[str, str]]:
    s, n = "s", "count"
    rows = [
        ("prior.sample_s", s), ("prior.sample_calls", n), ("prior.draws", n),
        ("posterior.predict_s", s), ("posterior.predict_calls", n), ("posterior.update_s", s),
        ("posterior.updates", n), ("posterior.rejuvenate_s", s), ("posterior.rejuvenations", n),
        ("posterior.kernel_work", n), ("posterior.chain_advance_s", s), ("posterior.chain_work", n),
        ("posterior.ess_s", s), ("posterior.weights_calls", n), ("posterior.snapshot_s", s),
        ("posterior.snapshots", n), ("posterior.snapshot_bytes", "bytes"), ("posterior.grid_points", n),
        ("posterior.oracle_gap_p50.importance", "ratio"), ("posterior.oracle_gap_p50.chain", "ratio"),
        ("forecasters.predict_s", s), ("forecasters.observe_s", s), ("forecasters.state_row_s", s),
        ("forecasters.run_protocol_s", s), ("forecasters.rounds", n), ("forecasters.restarts", n),
        ("bounds.comparator_s", s), ("bounds.comparator_supports", n), ("bounds.verify_s", s),
        ("bounds.verify_calls", n),
        ("batch.fit_s", s), ("batch.fits", n), ("batch.predict_many_s", s), ("batch.snapshot_evals", n),
        ("batch.risk_s", s), ("batch.distinct_sample_sets", n), ("batch.distinct_thresholds", n),
        ("batch.fit_peak_mb", "MB"),
        ("datagen.gen_s", s), ("datagen.gen_calls", n),
        ("cli.gen_s", s), ("cli.run_s", s), ("cli.verify_s", s), ("cli.batch_s", s), ("cli.plot_s", s),
        ("cli.output_bytes", "bytes"), ("cli.batch_threads1_s", s), ("cli.batch_threads2_s", s),
        ("cli.batch_threads2_time_ratio", "ratio"), ("cli.batch_threads2_rss_ratio", "ratio"),
    ]
    rows += [(f"{layer}.self_s", s) for layer in LAYERS]
    rows += [
        ("share.rejuvenate_of_job", "ratio"), ("share.snapshot_predict_many_of_job", "ratio"),
        ("share.chain_advance_of_job", "ratio"), ("share.round_path_of_verify", "ratio"),
        ("trace.overhead_s", s), ("trace.job_s", s), ("trace.spans", n),
    ]
    return rows


# Per-layer metrics of a traced run, as (name, unit).  Figures that do not
# apply to a workload (no CLI step, no oracle) read 0.
PER_LAYER = _layer_metrics()

# Predicted dominant layer of each workload, as (metric, floor).
PREDICTIONS = {
    "online_d30": ("share.rejuvenate_of_job", 0.80),
    "batch_risk": ("share.snapshot_predict_many_of_job", 0.60),
    "oracle_d2": ("share.chain_advance_of_job", 0.60),
    "cli_auto": ("share.round_path_of_verify", 0.50),
}


def per_layer(doc: dict, workload: str) -> tuple[dict, list[str]]:
    layers = doc["layers"]
    metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
    key, floor = PREDICTIONS[workload]
    share = layers.get(key, 0.0)
    verdict = "as predicted" if share >= floor else "MISS (finding)"
    lines = [
        f"traced job_s median {layers['trace.job_s']:.4f} s; overhead {layers['trace.overhead_s']:+.4f} s per job; "
        f"{int(layers['trace.spans'])} spans",
        "self time: " + ", ".join(
            f"{layer} {layers[f'{layer}.self_s']:.3f}s"
            for layer in LAYERS
        ),
        f"dominant layer: {key} = {share:.3f} (predicted >= {floor}): {verdict}",
    ]
    if workload == "cli_auto" and "cli.batch_threads2_time_ratio" in layers:
        lines.append(
            f"thread pool: batch at SEQSEW_THREADS=2 takes {layers['cli.batch_threads2_time_ratio']:.3f}x the "
            f"time ({layers['cli.batch_threads2_s']:.3f}s vs {layers['cli.batch_threads1_s']:.3f}s) and "
            f"{layers['cli.batch_threads2_rss_ratio']:.3f}x the peak RSS of SEQSEW_THREADS=1"
        )
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "seqsew" / "__init__.py").is_file():
        print(f"error: no seqsew package under {ROOT / 'src'}; run from a seqsew checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    digest = source_digest()
    try:
        probes = (
            [] if args.trace else [run_child("probe", args, digest, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        )
        doc = run_child("measure", args, digest, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(doc["env"], digest)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, lines = per_layer(doc, args.workload)
    else:
        metrics, lines = end_to_end(doc, probes + [doc["setup_s"]])
    for line in lines:
        print(line)
    for note in doc["notes"]:
        print(f"FAILED: {note}")
    print(f"ops attempted {doc['ops']}, failed {doc['failed']}")

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"args": vars(args), "env": env, "metrics": metrics, "raw": doc}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": int(doc["ops"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
