"""One workload process of the benchmark (started by ``run.py``).

Modes:

``probe``      import seqsew and set the workload up, then stop: one
               sample of the set-up time, in a fresh process.
``measure``    set up, run an untimed warm-up, then the workload's jobs.
               Untraced, it times every job.  Traced (``--trace 1``), it
               runs each job once untraced and once under the span tracer
               and reports per-layer metrics.
``cli-batch``  time one ``seqsew batch`` call in a fresh process, for the
               thread-pool comparison.

The result is one JSON document written to ``--result``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before anything of seqsew (or numpy) is imported

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def load_seqsew():
    """Import seqsew from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "seqsew" / "__init__.py").is_file():
        raise SystemExit(f"no seqsew package under {src}")
    sys.path.insert(0, str(src))
    import seqsew
    import seqsew.cli  # noqa: F401  (the CLI workload drives it; import cost is set-up)

    if Path(seqsew.__file__).resolve().parent != (src / "seqsew").resolve():
        raise SystemExit(f"imported seqsew from {seqsew.__file__}, not from {src}")
    return seqsew


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info() -> dict:
    import numpy as np
    import scipy

    info = {"numpy": np.__version__, "scipy": scipy.__version__, "blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                break
    return info


def run_jobs(wl, tracer, sq) -> dict:
    ops, failed = wl.warmup()
    out: dict = {"n_jobs": wl.n_jobs}
    perf = time.perf_counter
    if tracer is None:
        times = []
        for k in range(wl.n_jobs):
            start = perf()
            job_ops, job_failed, _ = wl.job(k)
            times.append(perf() - start)
            ops += job_ops
            failed += job_failed
        out.update(job_s=times)
    else:
        plain, traced, overhead = [], [], []
        for k in range(wl.n_jobs):
            # Alternate which side goes first so drift does not favour one.
            order = (False, True) if k % 2 == 0 else (True, False)
            prints = {}
            for with_trace in order:
                if with_trace:
                    tracer.install(sq)
                start = perf()
                try:
                    job_ops, job_failed, prints[with_trace] = wl.job(k)
                finally:
                    elapsed = perf() - start
                    if with_trace:
                        tracer.uninstall()
                (traced if with_trace else plain).append(elapsed)
                ops += job_ops
                failed += job_failed
            overhead.append(traced[-1] - plain[-1])
            ops += 1
            if prints[True] != prints[False]:
                failed += 1
                wl.fail(f"job {k}: traced answer differs from the untraced one")
        out.update(job_s=plain, traced_job_s=traced, overhead_s=overhead)
    out.update(ops=ops, failed=failed)
    return out


# Per-layer time metrics and the spans whose outermost calls they add up.
SPAN_TIMES = {
    "prior.sample_s": ("prior.sample",),
    "posterior.predict_s": ("posterior.predict",),
    "posterior.update_s": ("posterior.update",),
    "posterior.rejuvenate_s": ("posterior.rejuvenate",),
    "posterior.chain_advance_s": ("posterior.chain_advance",),
    "posterior.ess_s": ("posterior.ess",),
    "posterior.snapshot_s": ("posterior.snapshot",),
    "forecasters.predict_s": ("forecasters.predict",),
    "forecasters.observe_s": ("forecasters.observe",),
    "forecasters.state_row_s": ("forecasters.state_row",),
    "forecasters.run_protocol_s": ("forecasters.run_protocol",),
    "bounds.comparator_s": ("bounds.best_sparse_comparator",),
    "bounds.verify_s": ("bounds.verify",),
    "batch.fit_s": ("batch.fit_random_design",),
    "batch.predict_many_s": ("batch.predict_many",),
    "batch.risk_s": ("batch.risk",),
    "datagen.gen_s": ("datagen.gen_individual_sequence", "datagen.gen_stochastic"),
    **{f"cli.{cmd}_s": (f"cli.cmd_{cmd}",) for cmd in ("gen", "run", "verify", "batch", "plot")},
}


def layer_metrics(tracer, wl, since: int, jobs: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run.  Time shares are of the traced
    jobs only; other figures cover set-up and the traced jobs."""
    m: dict[str, float] = dict(tracer.counts)  # work counts, named as their metrics
    for metric, names in SPAN_TIMES.items():
        m[metric] = sum(tracer.span_seconds(name) for name in names)
    m["forecasters.rounds"] = float(
        sum(1 for span in tracer.spans if span[3] == "forecasters.observe" and span[6])
    )
    for layer, seconds in tracer.self_times().items():
        m[f"{layer}.self_s"] = seconds

    traced_total = sum(jobs["traced_job_s"])
    job_s = lambda name: tracer.span_seconds(name, since)  # noqa: E731
    m["share.rejuvenate_of_job"] = job_s("posterior.rejuvenate") / traced_total
    m["share.snapshot_predict_many_of_job"] = (
        job_s("posterior.snapshot") + job_s("batch.predict_many")
    ) / traced_total
    m["share.chain_advance_of_job"] = job_s("posterior.chain_advance") / traced_total
    verify_step = job_s("cli.cmd_verify")
    round_path = {
        "posterior.predict", "posterior.update", "posterior.ess", "posterior.weights",
        "forecasters.predict", "forecasters.observe", "forecasters.state_row", "forecasters.run_protocol",
        "bounds.best_sparse_comparator", "bounds.verify", "cli.cmd_verify",
    }
    m["share.round_path_of_verify"] = (
        tracer.covered_seconds("cli.cmd_verify", round_path, since) / verify_step if verify_step else 0.0
    )
    m["trace.overhead_s"] = statistics.median(jobs["overhead_s"])
    m["trace.job_s"] = statistics.median(jobs["traced_job_s"])
    m["trace.spans"] = float(len(tracer.spans))
    m.update(wl.extra_metrics())
    return m


def _wait_with_usage(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` (killing it after ``timeout`` seconds) and return
    its exit code and its own resource usage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def thread_pool_check(wl) -> tuple[dict[str, float], int, int]:
    """Time the CLI workload's batch step in fresh processes at
    SEQSEW_THREADS=1 and =2 (alternating, twice each); outputs must match."""
    runs: dict[int, list[tuple[float, float]]] = {1: [], 2: []}
    outputs: dict[int, dict[str, bytes]] = {}
    failed = 0
    for threads in (1, 2, 1, 2):
        out = wl.workdir / f"threads{threads}"
        result = wl.workdir / f"threads{threads}.json"
        env = dict(os.environ, SEQSEW_THREADS=str(threads))
        cmd = [sys.executable, str(Path(__file__).resolve()), "cli-batch", "--result", str(result), "--",
               *wl.batch_argv(out)]
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        status, usage = _wait_with_usage(proc, timeout=60.0)
        doc = json.loads(result.read_text()) if status == 0 and result.is_file() else {"code": -1}
        if doc["code"] != 0:
            failed += 1
            wl.fail(f"batch at SEQSEW_THREADS={threads} failed")
            continue
        runs[threads].append((doc["seconds"], usage.ru_maxrss / 1024.0))
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.setdefault(threads, files)
        shutil.rmtree(out)
    if outputs.get(1) != outputs.get(2):
        failed += 1
        wl.fail("batch outputs differ between SEQSEW_THREADS=1 and =2")
    metrics = {}
    if runs[1] and runs[2]:
        t1 = statistics.median(t for t, _ in runs[1])
        t2 = statistics.median(t for t, _ in runs[2])
        r1 = statistics.median(r for _, r in runs[1])
        r2 = statistics.median(r for _, r in runs[2])
        metrics = {
            "cli.batch_threads1_s": t1,
            "cli.batch_threads2_s": t2,
            "cli.batch_threads2_time_ratio": t2 / t1,
            "cli.batch_threads2_rss_ratio": r2 / r1,
        }
    return metrics, 5, failed


def counts_check(metrics: dict[str, float], key: str, wl) -> int:
    """Exact work counts must repeat between runs of the same sources,
    workload, seed and length; compare with the first such run in this
    checkout.  The key holds a digest of the sources, so a code change
    that changes a count starts a new reference instead of failing."""
    exact = {
        name: metrics.get(name, 0.0)
        for name in (
            "posterior.kernel_work", "posterior.weights_calls", "posterior.snapshot_bytes",
            "batch.distinct_sample_sets", "bounds.comparator_supports", "prior.draws", "posterior.grid_points",
            "posterior.rejuvenations", "posterior.chain_work", "forecasters.rounds",
        )
    }
    path = ROOT / ".perfbench" / "counts" / f"{key}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        if before != exact:
            differ = sorted(k for k in exact if before.get(k) != exact[k])
            wl.fail(f"exact work counts differ from an earlier run: {', '.join(differ)}")
            return 1
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(exact, sort_keys=True))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["probe", "measure", "cli-batch"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--source-digest", default="")
    parser.add_argument("--result", required=True)
    argv = sys.argv[1:]
    cli_argv = argv[argv.index("--") + 1 :] if "--" in argv else []
    args = parser.parse_args(argv[: len(argv) - len(cli_argv) - (1 if cli_argv else 0)])
    result_path = Path(args.result)

    if args.mode == "cli-batch":
        sq = load_seqsew()
        start = time.perf_counter()
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = sq.cli.main(cli_argv)
        result_path.write_text(json.dumps({"code": code, "seconds": time.perf_counter() - start}))
        return 0

    from spans import Tracer
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        sq = load_seqsew()
        wl = WORKLOADS[args.workload](sq, args.seed, args.seconds, workdir)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install(sq)
        try:
            wl.setup()
        finally:
            if tracer:
                tracer.uninstall()
        setup_s = time.perf_counter() - _T0
        doc: dict = {"setup_s": setup_s}
        if args.mode == "measure":
            since = len(tracer.spans) if tracer else 0
            jobs = run_jobs(wl, tracer, sq)
            doc.update(jobs)
            doc["peak_rss_mb"] = peak_rss_mb()
            if tracer:
                metrics = layer_metrics(tracer, wl, since, jobs)
                # After the timed jobs, untraced, so tracemalloc's cost is in
                # no time figure.
                metrics["batch.fit_peak_mb"] = wl.fit_peak_mb()
                threads, ops, failed = (
                    thread_pool_check(wl) if args.workload == "cli_auto" else ({}, 0, 0)
                )
                metrics.update(threads)
                doc["ops"] += ops + 1
                digest = args.source_digest.removeprefix("sha256:") or "unknown"
                doc["failed"] += failed + counts_check(
                    metrics, f"{digest}-{args.workload}-seed{args.seed}-s{args.seconds}", wl
                )
                doc["layers"] = metrics
                tracer.write(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz")
            doc["env"] = blas_info()
            doc["notes"] = wl.notes
        result_path.write_text(json.dumps(doc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
