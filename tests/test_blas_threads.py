"""Outputs do not depend on OpenBLAS's thread count.

OpenBLAS runs a product or a dot product on more threads once it passes a
size threshold, and its threads split the sum differently.  Every product
and sum over a cloud's particles is cut into pieces that run on the
calling thread, so a run, a fit and the CLI's files read the same bits at
one and at two BLAS threads.  The thread count is set in process through
the entry points of the OpenBLAS build numpy bundles; the tests skip
where numpy links another BLAS."""

import contextlib
import ctypes
import json

import numpy as np
import pytest

import seqsew.cli as cli
from seqsew.batch import fit_random_design
from seqsew.datagen import Dictionary, DictionarySpec
from seqsew.forecasters import run_protocol, seqsew_adaptive
from seqsew.posterior import BackendConfig


def _openblas():
    """numpy's bundled OpenBLAS, through the library that links it."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        return lib
    except (AttributeError, OSError):
        pytest.skip("numpy does not bundle scipy-openblas64")


@contextlib.contextmanager
def _blas_threads(count: int):
    """Run the body at ``count`` OpenBLAS threads, then restore the count."""
    lib = _openblas()
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(count)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _at_one_and_two_threads(compute):
    """``compute(count)`` at one and at two OpenBLAS threads."""
    results = []
    for count in (1, 2):
        with _blas_threads(count):
            results.append(compute(count))
    return results


def test_quadrature_run_csv_does_not_depend_on_the_thread_count(tmp_path):
    # 257^2 = 66 049 grid points: the mean and the ESS sum far past one
    # single-thread dot product.
    config = {
        "schema": "seqsew.config.v1",
        "seed": 5,
        "scenario": {
            "T": 60,
            "d": 2,
            "s": 2,
            "u_true": [1.5, -0.8],
            "design": "iid_uniform",
            "design_scale": 2.0,
            "noise": {"kind": "sg", "sigma_sq": 0.09},
            "dictionary": {"kind": "coordinate", "d": 2},
        },
        "forecaster": {"kind": "adaptive", "tau": 0.1},
        "backend": {"backend": "quadrature", "grid_points_per_dim": 257},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))

    def run(count: int) -> bytes:
        out = tmp_path / f"threads{count}"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        return (out / "run.csv").read_bytes()

    one, two = _at_one_and_two_threads(run)
    assert one == two


def test_importance_run_does_not_depend_on_the_thread_count():
    # 20 000 particles: each mean and ESS sums past one single-thread dot.
    rng = np.random.default_rng(5)
    xs = rng.uniform(-2.0, 2.0, size=(40, 2))
    sequence = list(zip(xs, (xs @ np.array([1.5, -0.8]) + 0.3 * rng.standard_normal(40)).tolist()))

    def run(count: int):
        forecaster = seqsew_adaptive(2, 0.1, BackendConfig(backend="importance", n_samples=20_000), seed=5)
        result = run_protocol(forecaster, sequence)
        return result.predictions, result.ess

    (p1, e1), (p2, e2) = _at_one_and_two_threads(run)
    assert np.array_equal(p1, p2)
    assert np.array_equal(e1, e2)


@pytest.mark.parametrize(
    "T, d, n_samples, n_points",
    [
        # The batch shape of the CLI tour's automatic config.
        (500, 20, 500, 200),
        # 20 000 particles: each point's weighted sum runs past one
        # single-thread dot product, and a block holds only three points.
        (200, 8, 20_000, 100),
    ],
)
def test_random_design_predictions_do_not_depend_on_the_thread_count(T, d, n_samples, n_points):
    rng = np.random.default_rng(11)
    u = np.zeros(d)
    u[:3] = (1.0, -0.5, 0.8)
    xs = rng.uniform(-1.0, 1.0, size=(T, d))
    ys = xs @ u + 0.5 * rng.standard_normal(T)
    dictionary = Dictionary(DictionarySpec(kind="coordinate", d=d))
    config = BackendConfig(backend="importance", n_samples=n_samples)
    est = fit_random_design(list(zip(xs, ys.tolist())), dictionary, config, seed=12)
    points = list(rng.uniform(-1.0, 1.0, size=(n_points, d)))
    # predict_many averages blocks of points; predict averages one point.
    one, two = _at_one_and_two_threads(lambda count: (est.predict_many(points), [est.predict(x) for x in points[:5]]))
    assert np.array_equal(one[0], two[0])
    assert one[1] == two[1]
