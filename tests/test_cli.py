"""End-to-end tests of the command-line surface: schemas, exit codes,
and byte-level determinism."""

import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import seqsew.cli as cli
from seqsew import posterior
from seqsew.bounds import BoundReport
from seqsew.errors import ArgumentError, DataError


def _write_config(path: Path, **overrides) -> Path:
    config = {
        "schema": "seqsew.config.v1",
        "seed": 11,
        "scenario": {
            "T": 25,
            "d": 1,
            "s": 1,
            "u_true": [1.5],
            "design": "iid_uniform",
            "design_scale": 2.0,
            "noise": {"kind": "sg", "sigma_sq": 0.04},
            "dictionary": {"kind": "coordinate", "d": 1},
            "amplitude_script": [[15, 4.0]],
        },
        "forecaster": {"kind": "adaptive", "tau": 0.2},
        "backend": {"backend": "quadrature", "grid_points_per_dim": 257},
        "outputs": {"dir": str(path.parent / "out")},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def _stochastic_scenario(**overrides):
    """A scenario the batch commands accept: noisy and without an
    amplitude script."""
    scenario = {
        "T": 12,
        "d": 1,
        "s": 1,
        "u_true": [1.0],
        "design": "iid_uniform",
        "noise": {"kind": "sg", "sigma_sq": 0.25},
        "dictionary": {"kind": "coordinate", "d": 1},
    }
    scenario.update(overrides)
    return scenario


def _log_runs(monkeypatch, log: Path) -> None:
    """Make every run the CLI plays append its process id to ``log``, so
    replays in worker processes are seen too."""
    play = cli.run_protocol

    def logged(*args, **kwargs):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return play(*args, **kwargs)

    monkeypatch.setattr(cli, "run_protocol", logged)


def _stand_in_verify(slack: float):
    """A stand-in for ``bounds.verify`` that fits any run and reports ``slack``."""

    def verify(result, bound, comparator, **kw):
        return BoundReport(
            bound=bound,
            lhs=1.0,
            rhs=1.0 + slack,
            slack=slack,
            mc_allowance=0.0,
            witness_u=np.zeros(1),
            passed=slack >= 0.0,
        )

    return verify


class TestRun:
    def test_writes_csv_with_schema_and_one_row_per_round(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert cli.main(["run", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "run.csv").read_text().splitlines()
        assert lines[0] == "# schema=seqsew.run.v1"
        assert lines[1] == "t,y,yhat,loss,cumloss,B_t,eta_t,regime,ess"
        assert len(lines) == 2 + 25

    def test_amplitude_jump_shows_in_threshold_column(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        cli.main(["run", "--config", str(cfg)])
        lines = (tmp_path / "out" / "run.csv").read_text().splitlines()[2:]
        b_col = [float(line.split(",")[5]) for line in lines]
        assert b_col[15] > b_col[14]  # scripted jump at round 15 raises B for round 16

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "run.csv").read_bytes() == (tmp_path / "b" / "run.csv").read_bytes()
        assert (
            (tmp_path / "a" / "run_summary.json").read_bytes()
            == (tmp_path / "b" / "run_summary.json").read_bytes()
        )

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["run", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "run.csv").read_bytes() != (tmp_path / "b" / "run.csv").read_bytes()

    def test_missing_config_is_io_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 4

    def test_invalid_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command", [["run"], ["verify", "--bounds", "prop5"]])
    def test_overflowing_outcome_is_input_error_naming_the_round(self, tmp_path, capsys, command):
        scenario = json.loads(_write_config(tmp_path / "base.json").read_text())["scenario"]
        cfg = _write_config(tmp_path / "cfg.json", scenario={**scenario, "amplitude_script": [[15, 1e160]]})
        assert cli.main([*command, "--config", str(cfg)]) == 4
        assert "error: round 15: outcome" in capsys.readouterr().err

    def test_overheated_fixed_tuning_warns_once_per_command(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "cfg.json",
            forecaster={"kind": "fixed", "B": 16.0, "eta": 1.0, "tau": 0.5},
            backend={"backend": "importance", "n_samples": 200},
        )
        # prop2 refuses the tuning after the first run, before any replay.
        assert cli.main(["verify", "--config", str(cfg), "--bounds", "prop2", "--replays", "4"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: prop2 requires eta <= 1/(8 B^2)"
        warnings = [line for line in err if line.startswith("warning:")]
        assert len(warnings) == 1 and "guarantee" in warnings[0]

    @pytest.mark.parametrize("excess, warned, code", [(1e-10, False, 0), (1e-8, True, 2)], ids=["within", "over"])
    def test_fixed_tuning_warning_and_prop2_share_one_limit(self, tmp_path, capsys, excess, warned, code):
        # 8 eta B^2 = 1 + excess: the warning fires exactly where prop2's
        # precondition, eta <= (1 + 1e-9) / (8 B^2), refuses the run.
        cfg = _write_config(tmp_path / "cfg.json", forecaster={"kind": "fixed", "B": 16.0, "eta": (1.0 + excess) / 2048.0, "tau": 0.5})
        assert cli.main(["verify", "--config", str(cfg), "--bounds", "prop2"]) == code
        err = capsys.readouterr().err.splitlines()
        assert [line.startswith("warning:") for line in err] == ([True, False] if warned else [])
        if warned:
            assert err[-1] == "error: prop2 requires eta <= 1/(8 B^2)"

    def test_gram_trace_that_overflows(self, tmp_path, capsys):
        # Each round's squared norm is finite, and their sum is not: run
        # writes it as "inf", and no bound on it is finite.  Under the
        # suite's error::RuntimeWarning filter a leaked numpy overflow
        # warning would surface instead.
        scenario = _stochastic_scenario(
            T=10, u_true=[1e-160], dictionary={"kind": "coordinate", "d": 1, "normalization": 1.3e154}
        )
        cfg = _write_config(tmp_path / "cfg.json", scenario=scenario, backend={"backend": "quadrature", "grid_points_per_dim": 65})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
        assert summary["adaptation"]["gram_trace"] == "inf"
        assert cli.main(["verify", "--config", str(cfg), "--bounds", "prop5"]) == 4
        assert capsys.readouterr().err.splitlines()[-1].endswith("and rhs inf must both be finite")

    @pytest.mark.parametrize(
        "forecaster, bound, message",
        [
            ({"kind": "fixed", "B": 64.0, "eta": 1.0 / 32768, "tau": 1e300}, "prop2", "and rhs inf must both be finite"),
            ({"kind": "fixed", "B": 64.0, "eta": 1.0 / 32768, "tau": 1e300}, "cor3", "is out of floating-point range"),
            ({"kind": "adaptive", "tau": 1e300}, "prop5", "and rhs inf must both be finite"),
            ({"kind": "adaptive", "tau": 1e300}, "cor6", "is out of floating-point range"),
        ],
        ids=["prop2", "cor3", "prop5", "cor6"],
    )
    def test_tau_whose_square_overflows(self, tmp_path, capsys, forecaster, bound, message):
        # tau = 1e300 passes the config check, and tau^2 is beyond float
        # range: the bound's scale term, or the B_Phi its tuning implies,
        # is a data error, not an OverflowError traceback.
        cfg = _write_config(tmp_path / "cfg.json", forecaster=forecaster)
        assert cli.main(["verify", "--config", str(cfg), "--bounds", bound, "--comparators", "zero"]) == 4
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith(f"error: {bound}: ") and err.endswith(message)

    @pytest.mark.parametrize("samples", [0, 50])
    def test_too_few_samples_flag_is_usage_error(self, tmp_path, capsys, samples):
        cfg = _write_config(tmp_path / "cfg.json", backend={"backend": "importance", "n_samples": 400})
        assert cli.main(["run", "--config", str(cfg), "--samples", str(samples)]) == 2
        assert "error: stochastic backends need n_samples >= 100" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overheated_fixed_tuning_warns_but_runs(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "cfg.json",
            forecaster={"kind": "fixed", "B": 1.0, "eta": 1.0, "tau": 0.5},  # eta > 1/(8 B^2)
        )
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert "guarantee" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["verify", "--bounds", "prop5"]])
    @pytest.mark.parametrize(
        "forecaster, message",
        [
            ({"kind": "adaptive"}, "forecaster kind 'adaptive' needs 'tau'"),
            ({"kind": "fixed", "eta": 0.1, "tau": 0.5}, "forecaster kind 'fixed' needs 'B'"),
            ({"kind": "fixed", "B": 1.0, "tau": 0.5}, "forecaster kind 'fixed' needs 'eta'"),
            ({"kind": "fixed", "B": 1.0, "eta": 0.1}, "forecaster kind 'fixed' needs 'tau'"),
            ({"kind": "adaptive", "tau": "x"}, "forecaster 'tau' must be a number, got 'x'"),
            ({"kind": "adaptive", "tau": 1e-313}, "prior scale tau must lie in [2^-1022, 2^1023), got 1e-313"),
            ({"kind": "adaptive", "tau": 1e308}, "prior scale tau must lie in [2^-1022, 2^1023), got 1e+308"),
            ({"kind": "fixed", "B": 1e160, "eta": 0.1, "tau": 0.5}, "B^2 must be finite, got B = 1e+160"),
            ({"kind": "adaptive", "tau": 1e306}, "prior scale tau = 1e+306 is too large for a grid of radius 100.0 tau"),
        ],
        ids=[
            "adaptive-tau", "fixed-B", "fixed-eta", "fixed-tau", "adaptive-text-tau", "tau-subnormal", "tau-huge", "fixed-B-huge",
            "tau-overflows-grid",
        ],
    )
    def test_forecaster_without_a_parameter_is_usage_error(self, tmp_path, capsys, command, forecaster, message):
        cfg = _write_config(tmp_path / "cfg.json", forecaster=forecaster)
        assert cli.main([*command, "--config", str(cfg)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_prior_scale_whose_draws_overflow_is_usage_error(self, tmp_path, capsys):
        scenario = _stochastic_scenario(d=2, u_true=[1.0, 0.0], dictionary={"kind": "coordinate", "d": 2})
        backend = {"backend": "importance", "n_samples": 10000}
        cfg = _write_config(tmp_path / "cfg.json", scenario=scenario, forecaster={"kind": "adaptive", "tau": 8e307}, backend=backend)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "error: prior scale tau = 8e+307 is too large to sample" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_python_dash_m_runs_the_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqsew", "--help"], env=_src_env(), capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: seqsew")

    def test_import_and_help_load_no_scipy(self):
        # Only the quadrature oracles in seqsew.prior use scipy, and they
        # import it on first call.
        imported = subprocess.run(
            [sys.executable, "-c", "import sys, seqsew, seqsew.cli; print(*sys.modules)"],
            env=_src_env(), capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        # -X importtime lists every module the real `python -m` start imports.
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "seqsew", "--help"],
            env=_src_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        at_help = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
        for modules in (imported, at_help):
            assert {"numpy", "seqsew.cli", "seqsew.prior"} <= set(modules)
            assert [m for m in modules if m.split(".")[0] in ("scipy", "multiprocessing")] == []

    @pytest.mark.parametrize("command", [["run"], ["verify", "--bounds", "prop2", "--replays", "0"]])
    def test_overflowing_eta_exits_two_naming_the_round(self, tmp_path, capsys, command):
        # After round 6, eta * cum_loss overflows to inf at every grid
        # point: no log weight is finite, and normalising would give NaN.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**_SMALL_README, "forecaster": {"kind": "fixed", "B": 4, "eta": 1e308, "tau": 0.5}}))
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert cli.main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        message = "error: posterior after round 6: the largest log weight is -inf, so the weights are undefined"
        assert capsys.readouterr().err.splitlines()[-1] == message
        assert not (tmp_path / "out").exists()


def _src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _edited_config(path: Path, edit) -> Path:
    """A valid config with ``edit`` applied to its parsed JSON; ``edit``
    returns the document to write."""
    config = edit(json.loads(_write_config(path).read_text()))
    path.write_text(json.dumps(config))
    return path


class TestConfig:
    """The config is checked once, before any command does work: a
    malformed one exits 2 naming the key or section and writes nothing."""

    @pytest.mark.parametrize("command", [["gen"], ["run"], ["verify", "--bounds", "prop5"], ["batch", "--variant", "thm10"]])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: {**c, "forecaster": 5}, "config section 'forecaster' must be a JSON object, got int"),
            (lambda c: {**c, "backend": 5}, "config section 'backend' must be a JSON object, got int"),
            (lambda c: {**c, "scenario": [1]}, "scenario must be a JSON object, got list"),
            (lambda c: {**c, "seed": "x"}, "config 'seed' must be an integer, got 'x'"),
            (lambda c: [c], "cfg.json must be a JSON object, got list"),
            (
                lambda c: {**c, "backend": {"backend": "importance", "n_sample": 100, "ess_flor": 0.9}},
                "config section 'backend' has unknown key 'ess_flor'",
            ),
            (lambda c: {**c, "scenario": {**c["scenario"], "desing_scale": 2.0}}, "scenario has unknown key 'desing_scale'"),
            (
                lambda c: {**c, "forecaster": {"kind": "ridge", "regularisation": 2.0}},
                "config section 'forecaster' has unknown key 'regularisation'",
            ),
            (lambda c: {**c, "ouputs": c["outputs"]}, "cfg.json has unknown key 'ouputs'"),
            (lambda c: {**c, "seed": 1.7}, "config 'seed' must be an integer, got 1.7"),
            (
                lambda c: {**c, "backend": {"backend": "importance", "n_samples": 200.0}},
                "config section 'backend' key 'n_samples' must be an integer, got 200.0",
            ),
            (
                lambda c: {**c, "backend": {"backend": "chain", "burn_in": True}},
                "config section 'backend' key 'burn_in' must be an integer, got True",
            ),
            (
                lambda c: {**c, "backend": {"backend": "importance", "ess_floor": "0.5"}},
                "config section 'backend' key 'ess_floor' must be a number, got '0.5'",
            ),
            (lambda c: {**c, "scenario": {**c["scenario"], "T": 2.5}}, "scenario key 'T' must be an integer, got 2.5"),
            (lambda c: {**c, "scenario": {**c["scenario"], "s": 1.9}}, "scenario key 's' must be an integer, got 1.9"),
            (lambda c: {**c, "scenario": {**c["scenario"], "seed": 1.7}}, "scenario key 'seed' must be an integer, got 1.7"),
            (lambda c: {**c, "scenario": {**c["scenario"], "d": True}}, "scenario key 'd' must be an integer, got True"),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "design_scale": "2"}},
                "scenario key 'design_scale' must be a number, got '2'",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "noise": {"kind": "sg", "sigma_sq": False}}},
                "scenario 'noise' key 'sigma_sq' must be a number, got False",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "dictionary": {"kind": "coordinate", "d": 1.0}}},
                "scenario 'dictionary' key 'd' must be an integer, got 1.0",
            ),
            (
                lambda c: {**c, "backend": {"backend": "quadrature", "grid_nodes": 5}},
                "config section 'backend' key 'grid_nodes' must be a list, got 5",
            ),
            (
                lambda c: {**c, "backend": {"backend": "quadrature", "grid_nodes": [["x", 1.0]]}},
                "config section 'backend' key 'grid_nodes' must be a number, got 'x'",
            ),
            (lambda c: {**c, "backend": {"backend": "chain", "burn_in": 0}}, "burn_in must be >= 1, got 0"),
            (
                lambda c: {**c, "backend": {"backend": "importance", "refresh_sweeps": 0}},
                "refresh_sweeps must be >= 1, got 0",
            ),
            (lambda c: {**c, "seed": -2}, "config 'seed' must be a non-negative integer, got -2"),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "seed": -1}},
                "scenario key 'seed' must be a non-negative integer, got -1",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "dictionary": {"kind": "coordinate", "d": 1, "seed": -3}}},
                "scenario 'dictionary' key 'seed' must be a non-negative integer, got -3",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "design": "fixed_grid", "grid_size": -3}},
                "scenario key 'grid_size' must be >= 1, got -3",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "design": "fixed_grid", "grid_size": 0}},
                "scenario key 'grid_size' must be >= 1, got 0",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "design_scale": -1.0}},
                "scenario key 'design_scale' must lie in (0, 2^1023), got -1.0",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "design_scale": math.nan}},
                "scenario key 'design_scale' must be a finite number, got nan",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "design_scale": 0}},
                "scenario key 'design_scale' must lie in (0, 2^1023), got 0.0",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "u_true": [math.nan]}},
                "scenario key 'u_true' must be a finite number, got nan",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "amplitude_script": [[15, math.nan]]}},
                "scenario key 'amplitude_script' must be a finite number, got nan",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "amplitude_script": "x"}},
                "scenario key 'amplitude_script' must be a list, got 'x'",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "amplitude_script": [[5]]}},
                "scenario key 'amplitude_script' must be a list of 2 items, got [5]",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "dictionary": {"kind": "coordinate", "normalization": math.nan}}},
                "scenario 'dictionary' key 'normalization' must be a finite number, got nan",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "dictionary": {"kind": "coordinate", "normalization": 0}}},
                "dictionary key 'normalization' must be nonzero, got 0.0",
            ),
            (
                lambda c: {**c, "backend": {"backend": "quadrature", "grid_nodes": [[0.0, math.nan]]}},
                "config section 'backend' key 'grid_nodes' must be a finite number, got nan",
            ),
            (
                lambda c: {**c, "backend": {"backend": "quadrature", "grid_nodes": [[0.0, 1.0, 0.0]]}},
                "grid_nodes must be finite and distinct, got [0.0, 1.0, 0.0]",
            ),
            (
                lambda c: {**c, "backend": {"backend": "quadrature", "grid_nodes": [[]]}},
                "each grid_nodes list must be non-empty, got []",
            ),
            (
                lambda c: {**c, "forecaster": {"kind": "fixed", "B": math.inf, "eta": 0.1, "tau": 0.5}},
                "forecaster 'B' must be a finite number, got inf",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "noise": {"kind": "sg", "sigma_sq": math.inf}}},
                "scenario 'noise' key 'sigma_sq' must be a finite number, got inf",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "design_scale": 1e308}},
                "scenario key 'design_scale' must lie in (0, 2^1023), got 1e+308",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "design_scale": 10**400}},
                "scenario key 'design_scale' must be a finite number, got 1000",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "noise": {"kind": "bd", "B": 1e308}}},
                "bd needs 0 < B < 2^1023, got 1e+308",
            ),
            (
                lambda c: {**c, "scenario": {**c["scenario"], "dictionary": {"kind": "fourier", "d": 2}}},
                "scenario key 'd' is 1 but the dictionary's d is 2",
            ),
            (lambda c: {**c, "scenario": {"T": 10, "d": 2, "s": 3}}, "scenario key 's' must lie in [0, d] = [0, 2], got 3"),
            (lambda c: {**c, "scenario": {"T": 10, "d": 2, "s": -1}}, "scenario key 's' must lie in [0, d] = [0, 2], got -1"),
            (lambda c: {k: v for k, v in c.items() if k != "scenario"}, "config needs a 'scenario' section"),
            (lambda c: {**c, "forecaster": {"kind": "magic"}}, "unknown forecaster kind 'magic'"),
            (lambda c: {**c, "outputs": {"dir": 5}}, "config section 'outputs' key 'dir' must be a string, got 5"),
        ],
        ids=[
            "forecaster-int", "backend-int", "scenario-list", "seed-text", "top-level-list",
            "backend-keys", "scenario-key", "forecaster-key", "top-level-key", "seed-float",
            "backend-float-count", "backend-bool-count", "backend-text-number", "scenario-float-T",
            "scenario-float-s", "scenario-float-seed", "scenario-bool-d", "scenario-text-number",
            "noise-bool", "dictionary-float-d", "grid-nodes-int", "grid-nodes-text",
            "burn-in-zero", "refresh-sweeps-zero", "seed-negative", "scenario-seed-negative",
            "dictionary-seed-negative", "grid-size-negative", "grid-size-zero",
            "design-scale-negative", "design-scale-nan", "design-scale-zero", "u-true-nan",
            "amplitude-factor-nan", "amplitude-script-text", "amplitude-script-short",
            "normalization-nan", "normalization-zero", "grid-nodes-nan", "grid-nodes-duplicate", "grid-nodes-empty",
            "fixed-B-inf", "noise-sigma-sq-inf", "design-scale-huge", "design-scale-huge-int",
            "noise-bd-huge", "dictionary-d-mismatch", "scenario-s-above-d", "scenario-s-negative",
            "scenario-missing", "forecaster-kind-unknown", "outputs-dir-int",
        ],
    )
    def test_malformed_config_exits_two_and_writes_nothing(self, tmp_path, capsys, command, edit, message):
        cfg = _edited_config(tmp_path / "cfg.json", edit)
        assert cli.main([*command, "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err.splitlines()[-1]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["gen"], ["run"], ["verify", "--bounds", "prop5"], ["batch", "--variant", "thm10"]])
    def test_negative_seed_flag_exits_two_and_writes_nothing(self, tmp_path, capsys, command):
        cfg = _write_config(tmp_path / "cfg.json")
        assert cli.main([*command, "--config", str(cfg), "--seed", "-5"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: --seed must be a non-negative integer, got -5"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario, message",
        [
            ({"T": 2.5}, "scenario key 'T' must be an integer, got 2.5"),
            ({"noise": {"kind": "zz"}}, "unknown noise kind 'zz'"),
        ],
        ids=["float-T", "noise-kind"],
    )
    def test_scenario_message_is_prefixed_once(self, tmp_path, capsys, scenario, message):
        cfg = _edited_config(tmp_path / "cfg.json", lambda c: {**c, "scenario": {**c["scenario"], **scenario}})
        assert cli.main(["gen", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"

    def test_explicit_grid_nodes_load(self, tmp_path):
        cfg = _edited_config(tmp_path / "cfg.json", lambda c: {**c, "backend": {"backend": "quadrature", "grid_nodes": [[-1, 0.0, 1.5]]}})
        assert cli.main(["run", "--config", str(cfg)]) == 0

    def test_readme_config_example_loads(self, tmp_path):
        cfg = tmp_path / "readme.json"
        cfg.write_text(json.dumps(_readme_config()))
        assert cli.main(["gen", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "dataset.csv").exists()


def _readme_config() -> dict:
    """The example config of the README's "Config schema" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("### Config schema")[1].split("```json")[1].split("```")[0]
    return json.loads("\n".join(line.split("//")[0] for line in example.splitlines()))


def _value_paths(node, path=()):
    """The path of every value below ``node``: keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*path, key)
        yield from _value_paths(child, (*path, key))


# The README config at a small size: T, the scripted round and the grid
# shrink so that each example runs in well under a second.
_SMALL_README = _readme_config()
_SMALL_README["scenario"].update(T=12, amplitude_script=[[6, 5.0]])
_SMALL_README["backend"]["grid_points_per_dim"] = 64
_MUTABLE_PATHS = [p for p in _value_paths(_SMALL_README) if p[0] != "outputs"]

# Replacement values.  Integers stay small or beyond int64, which the
# config check refuses, so no mutation runs a huge T, d, n_samples or grid.
_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308, -1e308, 1e-300, 2.5, 10**400, -(10**400)]),
    st.sampled_from([True, None, "x", "chain", "importance", "fourier", "fixed_grid", "bd", "fixed", [], [1.0], [[5]], {}]),
    st.integers(-3, 20),
    st.floats(-1e3, 1e3),
)


class TestBoundaryProperty:
    """One changed value of the README config, through gen, run and verify:
    every outcome is a documented exit code, a refused config writes
    nothing, and an accepted one writes finite losses and bounds."""

    @staticmethod
    def _finite(values) -> bool:
        return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)

    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(_MUTABLE_PATHS), value=_VALUES)
    # Features whose squared norm overflows.
    @example(path=("scenario", "dictionary", "normalization"), value=1e308)
    def test_mutated_readme_config(self, path, value):
        config = json.loads(json.dumps(_SMALL_README))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(config))
            for command in (["gen"], ["run"], ["verify", "--bounds", "prop5", "--replays", "0"]):
                out = Path(tmp) / command[0]
                code = cli.main([*command, "--config", str(cfg), "--out", str(out)])
                assert code in (0, 2, 3, 4)
                if code == 2:
                    assert not out.exists()
                if code != 0:
                    continue
                if command[0] == "gen":
                    assert self._finite(float(line.split(",")[-1]) for line in (out / "dataset.csv").read_text().splitlines()[2:])
                elif command[0] == "run":
                    rows = (out / "run.csv").read_text().splitlines()[2:]
                    assert self._finite(float(v) for row in rows for v in row.split(",")[1:5])
                    assert self._finite([json.loads((out / "run_summary.json").read_text())["cumulative_loss"]])
                else:
                    reports = json.loads((out / "verify.json").read_text())["reports"]
                    assert self._finite(r[key] for r in reports for key in ("lhs", "rhs"))

    @pytest.mark.parametrize("value", [2**63, 10**400, -(2**63) - 1])
    @pytest.mark.parametrize(
        "path, label",
        [
            (("scenario", "T"), "scenario key 'T'"),
            (("backend", "n_samples"), "config section 'backend' key 'n_samples'"),
            (("backend", "grid_points_per_dim"), "config section 'backend' key 'grid_points_per_dim'"),
        ],
        ids=["T", "n_samples", "grid_points_per_dim"],
    )
    def test_count_beyond_int64_exits_two_naming_the_key(self, tmp_path, capsys, path, label, value):
        config = json.loads(json.dumps(_SMALL_README))
        config[path[0]][path[1]] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for command in (["gen"], ["run"]):
            assert cli.main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err.splitlines()[-1] == f"error: {label} must fit in a 64-bit integer, got {value}"
        assert not (tmp_path / "out").exists()


_D2 = dict(d=2, u_true=[1.0, 0.0], dictionary={"kind": "coordinate", "d": 2})


class TestSizeBudget:
    """A count within int64 but far beyond memory is refused, naming the
    key or flag, before anything is built: no array a command allocates
    may hold more than ``cli._MAX_ELEMENTS`` elements."""

    @staticmethod
    def _load(tmp_path, argv=(), **overrides):
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
        return cli._load_config(cli._build_parser().parse_args(["gen", "--config", str(cfg), *argv]))

    @pytest.mark.parametrize(
        "overrides, argv, message",
        [
            (
                dict(scenario=_stochastic_scenario(T=2**62)),
                (),
                "scenario key 'T' is too large: T * d = 4611686018427387904 exceeds the size budget of 2^24 elements",
            ),
            (dict(scenario=_stochastic_scenario(T=2**23 + 1, **_D2)), (), "scenario key 'T' is too large: T * d = 16777218"),
            (
                dict(backend={"backend": "importance", "n_samples": 10**12}),
                (),
                "config section 'backend' key 'n_samples' is too large: n_samples * d = 1000000000000",
            ),
            (
                dict(scenario=_stochastic_scenario(**_D2), backend={"backend": "chain", "n_samples": 2**23 + 1}),
                (),
                "config section 'backend' key 'n_samples' is too large: n_samples * d = 16777218",
            ),
            (dict(backend={"backend": "chain", "n_samples": 400}), ("--samples", str(10**12)), "--samples is too large"),
            (
                dict(scenario=_stochastic_scenario(**_D2), backend={"backend": "quadrature", "grid_points_per_dim": 2**12 + 1}),
                (),
                "config section 'backend' key 'grid_points_per_dim' is too large: grid_points_per_dim^d = 16785409",
            ),
            (
                dict(backend={"backend": "quadrature", "grid_points_per_dim": 2**24 + 1}),
                (),
                "grid_points_per_dim^d = 16777217",
            ),
        ],
        ids=["T-2^62", "T-just-over", "n_samples", "n_samples-just-over", "samples-flag", "grid-d2", "grid-d1"],
    )
    def test_config_count_beyond_budget_is_refused(self, tmp_path, overrides, argv, message):
        with pytest.raises(ArgumentError) as refusal:
            self._load(tmp_path, argv, **overrides)
        assert message in str(refusal.value)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(scenario=_stochastic_scenario(T=2**24)),
            dict(scenario=_stochastic_scenario(**_D2), backend={"backend": "importance", "n_samples": 2**23}),
            dict(scenario=_stochastic_scenario(**_D2), backend={"backend": "quadrature", "grid_points_per_dim": 2**12}),
            # No grid is built beyond d = 2, so only the dimension is refused, later.
            dict(
                scenario=_stochastic_scenario(d=3, u_true=[1.0, 0.0, 0.0], dictionary={"kind": "coordinate", "d": 3}),
                backend={"backend": "quadrature", "grid_points_per_dim": 2**12},
            ),
        ],
        ids=["T", "n_samples", "grid", "grid-d3"],
    )
    def test_counts_at_the_budget_load(self, tmp_path, overrides):
        self._load(tmp_path, **overrides)

    def test_gen_refuses_before_generating(self, tmp_path, monkeypatch, capsys):
        def generate(*args, **kwargs):
            raise AssertionError("generated a sequence")

        monkeypatch.setattr(cli, "gen_individual_sequence", generate)
        cfg = _write_config(tmp_path / "cfg.json", scenario=_stochastic_scenario(T=2**62))
        assert cli.main(["gen", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: scenario key 'T' is too large")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "variant, flags, message",
        [
            ("thm10", ["--replications", "2", "--n-eval", str(10**12)], "--n-eval is too large: n_eval * d = 1000000000000"),
            ("cor12", ["--replications", "2", "--n-eval", str(2**24 + 1)], "--n-eval is too large: n_eval * d = 16777217"),
            ("cor11", ["--replications", str(10**12)], "--replications is too large: replications * T = 12000000000000"),
        ],
        ids=["thm10-n-eval", "cor12-n-eval", "cor11-replications"],
    )
    def test_batch_flag_beyond_budget_exits_two_before_any_draw(self, tmp_path, monkeypatch, capsys, variant, flags, message):
        def allocate(*args, **kwargs):
            raise AssertionError("drew or fitted before the size check")

        monkeypatch.setattr(cli.batch_mod, "fit_random_design", allocate)
        monkeypatch.setattr(cli.NoiseFamily, "draw", allocate)
        cfg = _write_config(tmp_path / "cfg.json", scenario=_stochastic_scenario())
        assert cli.main(["batch", "--config", str(cfg), "--variant", variant, *flags]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message} exceeds the size budget of 2^24 elements"
        assert not (tmp_path / "out").exists()


class TestVerify:
    @pytest.mark.parametrize(
        "forecaster, command, n_reports",
        [
            ({"kind": "auto"}, ["verify", "--bounds", "thm8,cor9"], 6),
            ({"kind": "fixed", "B": 4.0, "eta": 1.0 / 128, "tau": 0.5}, ["verify", "--bounds", "prop2,cor3"], 6),
            ({"kind": "adaptive", "tau": 0.2}, ["verify", "--bounds", "prop5"], 3),
            ({"kind": "ridge"}, ["run"], 0),
        ],
        ids=["auto", "fixed", "adaptive", "ridge"],
    )
    def test_every_forecaster_kind_through_the_cli(self, tmp_path, forecaster, command, n_reports):
        cfg = _write_config(
            tmp_path / "cfg.json",
            scenario=_stochastic_scenario(d=2, u_true=[1.0, 0.0], dictionary={"kind": "coordinate", "d": 2}),
            forecaster=forecaster,
            backend={"backend": "quadrature", "grid_points_per_dim": 129},
        )
        assert cli.main([*command, "--config", str(cfg)]) == 0
        if n_reports:
            reports = json.loads((tmp_path / "out" / "verify.json").read_text())["reports"]
            assert len(reports) == n_reports and all(r["pass"] for r in reports)

    def test_quadrature_reports_pass_with_zero_allowance(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        code = cli.main(["verify", "--config", str(cfg), "--bounds", "prop5"])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert payload["mc_allowance"] == 0.0
        assert len(payload["reports"]) == 3  # zero, sparse, ols comparators
        assert all(r["pass"] for r in payload["reports"])
        assert all(r["slack"] >= 0.0 for r in payload["reports"])

    def test_stochastic_backend_reports_positive_allowance(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            backend={"backend": "importance", "n_samples": 400},
        )
        code = cli.main(["verify", "--config", str(cfg), "--bounds", "prop5", "--replays", "4"])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert payload["mc_allowance"] > 0.0
        assert payload["replays"] == 4

    def test_negative_replays_exit_two_before_any_run(self, tmp_path, monkeypatch, capsys):
        def play(*args, **kwargs):
            raise AssertionError("played a run")

        monkeypatch.setattr(cli, "run_protocol", play)
        cfg = _write_config(tmp_path / "cfg.json", backend={"backend": "importance", "n_samples": 400})
        assert cli.main(["verify", "--config", str(cfg), "--bounds", "prop5", "--replays", "-3"]) == 2
        assert "needs replays >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "forecaster, bound, message",
        [
            ({"kind": "adaptive", "tau": 0.2}, "thm8", "thm8 applies to the automatic forecaster, run used 'adaptive'"),
            ({"kind": "fixed", "B": 16.0, "eta": 1.0, "tau": 0.5}, "prop2", "prop2 requires eta <= 1/(8 B^2)"),
        ],
        ids=["thm8-adaptive", "prop2-overheated"],
    )
    def test_unfit_bound_exits_two_before_any_replay(self, tmp_path, monkeypatch, capsys, forecaster, bound, message):
        played = tmp_path / "played.log"
        _log_runs(monkeypatch, played)
        monkeypatch.setattr(posterior, "_usable_cores", lambda: 2)
        cfg = _write_config(tmp_path / "cfg.json", forecaster=forecaster, backend={"backend": "importance", "n_samples": 200})
        assert cli.main(["verify", "--config", str(cfg), "--bounds", bound, "--replays", "6"]) == 2
        assert played.read_text().split() == [str(os.getpid())]
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
        assert not (tmp_path / "out").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "backend",
        [{"backend": "importance", "n_samples": 200}, {"backend": "chain", "n_samples": 200, "burn_in": 2}],
        ids=["importance", "chain"],
    )
    def test_verify_json_does_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, backend):
        played = tmp_path / "played.log"
        _log_runs(monkeypatch, played)
        cfg = _write_config(tmp_path / "cfg.json", backend=backend)
        outputs = []
        for workers in (1, 2):
            played.unlink(missing_ok=True)
            monkeypatch.setattr(posterior, "_usable_cores", lambda: workers)
            out = tmp_path / f"workers{workers}"
            assert cli.main(["verify", "--config", str(cfg), "--bounds", "prop5", "--replays", "4", "--out", str(out)]) == 0
            assert multiprocessing.active_children() == []
            outputs.append((out / "verify.json").read_bytes())
            first, *replays = played.read_text().split()
            assert first == str(os.getpid()) and len(replays) == 3
            # One worker plays the replays inline; two play them elsewhere.
            assert (str(os.getpid()) in replays) == (workers == 1)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["mc_allowance"] > 0.0

    def test_replay_workers_run_on_one_core_each(self, tmp_path, monkeypatch):
        # The machine's cores, not a patched _usable_cores, decide: one
        # core plays the replays inline, two fork two workers, and each
        # worker's kernel sees a budget of one core.  Chain runs move
        # their points every round.
        log = tmp_path / "cores.log"
        play = cli.run_protocol

        def logged(*args, **kwargs):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {posterior._usable_cores()}\n")
            return play(*args, **kwargs)

        monkeypatch.setattr(cli, "run_protocol", logged)
        cfg = _write_config(tmp_path / "cfg.json", backend={"backend": "chain", "n_samples": 200, "burn_in": 2})
        outputs = []
        for cores in (1, 2):
            log.unlink(missing_ok=True)
            monkeypatch.setattr(posterior.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
            out = tmp_path / f"cores{cores}"
            assert cli.main(["verify", "--config", str(cfg), "--bounds", "prop5", "--replays", "4", "--out", str(out)]) == 0
            assert multiprocessing.active_children() == []
            outputs.append((out / "verify.json").read_bytes())
            (parent, parent_cores), *replays = (line.split() for line in log.read_text().splitlines())
            assert parent == str(os.getpid()) and parent_cores == str(cores) and len(replays) == 3
            if cores == 2:
                assert all(pid != parent and budget == "1" for pid, budget in replays)
        assert outputs[0] == outputs[1]
        assert posterior._usable_cores() == 2  # the budget stays in the workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_replay_exits_four_and_writes_nothing(self, tmp_path, monkeypatch, capsys, workers):
        # Each forecaster comes tagged with its seed offset, and the
        # replay seeded 3 fails.  Forked workers inherit both patches.
        forecaster, play = cli._forecaster, cli.run_protocol

        def failing(tagged, sequence, dictionary):
            seed_offset, f = tagged
            if seed_offset == 3:
                raise DataError("replay 3: the sequence could not be consumed")
            return play(f, sequence, dictionary)

        monkeypatch.setattr(cli, "_forecaster", lambda config, seed_offset: (seed_offset, forecaster(config, seed_offset)))
        monkeypatch.setattr(cli, "run_protocol", failing)
        monkeypatch.setattr(posterior, "_usable_cores", lambda: workers)
        cfg = _write_config(tmp_path / "cfg.json", backend={"backend": "importance", "n_samples": 200})
        assert cli.main(["verify", "--config", str(cfg), "--bounds", "prop5", "--replays", "5"]) == 4
        assert capsys.readouterr().err.splitlines()[-1] == "error: replay 3: the sequence could not be consumed"
        assert not (tmp_path / "out").exists()
        assert multiprocessing.active_children() == []

    def test_overheated_fixed_tuning_warns_once_with_replays_played(self, tmp_path, monkeypatch, capfd):
        # The stand-in report fits the overheated tuning, so the replays
        # are played; capfd also sees what a worker process writes.
        monkeypatch.setattr(cli.bounds_mod, "verify", _stand_in_verify(0.0))
        monkeypatch.setattr(posterior, "_usable_cores", lambda: 2)
        cfg = _write_config(
            tmp_path / "cfg.json",
            forecaster={"kind": "fixed", "B": 16.0, "eta": 1.0, "tau": 0.5},
            backend={"backend": "importance", "n_samples": 200},
        )
        assert cli.main(["verify", "--config", str(cfg), "--bounds", "prop2", "--replays", "4"]) == 0
        assert json.loads((tmp_path / "out" / "verify.json").read_text())["replays"] == 4
        warnings = [line for line in capfd.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and "guarantee" in warnings[0]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--bounds", ""], "--bounds names no bound"),
            (["--bounds", " , "], "--bounds names no bound"),
            (["--bounds", "prop5", "--comparators", ""], "--comparators names no comparator"),
            (["--bounds", "prop5", "--comparators", ","], "--comparators names no comparator"),
            (["--bounds", "prop5", "--comparators", "zero,best"], "unknown comparator 'best'"),
        ],
        ids=["bounds-empty", "bounds-commas", "comparators-empty", "comparators-comma", "comparator-unknown"],
    )
    def test_empty_or_unknown_name_list_exits_two_before_any_run(self, tmp_path, monkeypatch, capsys, flags, message):
        def play(*args, **kwargs):
            raise AssertionError("played a run")

        monkeypatch.setattr(cli, "run_protocol", play)
        cfg = _write_config(tmp_path / "cfg.json", backend={"backend": "importance", "n_samples": 400})
        assert cli.main(["verify", "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--bounds", "prop5,prop5"], "--bounds names bound 'prop5' twice"),
            (["--bounds", "prop5, cor7,prop5"], "--bounds names bound 'prop5' twice"),
            (["--bounds", "prop5", "--comparators", "zero,zero"], "--comparators names comparator 'zero' twice"),
        ],
        ids=["bounds", "bounds-apart", "comparators"],
    )
    def test_repeated_name_exits_two_before_any_run(self, tmp_path, monkeypatch, capsys, flags, message):
        # A repeated bound would write its reports twice, and a repeated
        # comparator would be dropped without a word.
        def play(*args, **kwargs):
            raise AssertionError("played a run")

        monkeypatch.setattr(cli, "run_protocol", play)
        cfg = _write_config(tmp_path / "cfg.json", backend={"backend": "importance", "n_samples": 400})
        assert cli.main(["verify", "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
        assert not (tmp_path / "out").exists()

    def test_unknown_bound_is_usage_error(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert cli.main(["verify", "--config", str(cfg), "--bounds", "prop99"]) == 2

    def test_mismatched_bound_is_usage_error(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")  # adaptive forecaster
        assert cli.main(["verify", "--config", str(cfg), "--bounds", "thm8"]) == 2

    def test_failing_report_exits_three(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path / "cfg.json")
        monkeypatch.setattr(cli.bounds_mod, "verify", _stand_in_verify(-1.0))
        assert cli.main(["verify", "--config", str(cfg), "--bounds", "prop5"]) == 3


class TestBatch:
    def test_thm10_payload(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            scenario={
                "T": 30,
                "d": 2,
                "s": 1,
                "u_true": [1.5, 0.0],
                "design": "iid_uniform",
                "noise": {"kind": "sg", "sigma_sq": 0.25},
                "dictionary": {"kind": "coordinate", "d": 2, "normalization": 1.7320508075688772},
            },
            backend={"backend": "importance", "n_samples": 400},
        )
        code = cli.main(["batch", "--config", str(cfg), "--variant", "thm10", "--replications", "3", "--n-eval", "50"])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "batch_thm10.json").read_text())
        assert payload["pass"] is True
        assert payload["measured_risk"] <= payload["rhs"]
        reps = (tmp_path / "out" / "batch_thm10_reps.csv").read_text().splitlines()
        assert reps[1] == "rep,risk"
        assert len(reps) == 2 + 3

    def test_remark15_equivariance_payload(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            scenario={
                "T": 12,
                "d": 1,
                "s": 1,
                "u_true": [1.0],
                "design": "iid_uniform",
                "noise": {"kind": "sg", "sigma_sq": 0.25},
                "dictionary": {"kind": "coordinate", "d": 1},
            },
            backend={"backend": "importance", "n_samples": 300},
        )
        code = cli.main(["batch", "--config", str(cfg), "--variant", "remark15", "--shift", "4.0"])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "batch_remark15.json").read_text())
        assert payload["anchor_shift_exact"] is True
        assert payload["deltas_bit_identical"] is True
        assert payload["pass"] is True

    def test_cor11_family_table(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        code = cli.main(["batch", "--config", str(cfg), "--variant", "cor11", "--replications", "150"])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "batch_cor11.json").read_text())
        assert {e["family"] for e in payload["families"]} == {"bd", "sg", "bem", "bm"}
        assert payload["pass"] is True

    def test_fixed_design_variant_requires_grid(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")  # iid design
        assert cli.main(["batch", "--config", str(cfg), "--variant", "thm13"]) == 2

    @pytest.mark.parametrize(
        "variant, scenario, message",
        [
            ("cor12", _stochastic_scenario(noise={"kind": "bd", "B": 0.5}), "subgaussian"),
            # Gaussian inputs leave f = u . x unbounded.
            ("cor12", _stochastic_scenario(design="iid_gaussian"), "cor12 needs a bounded regression function"),
            (
                "thm10",
                _stochastic_scenario(
                    d=2, u_true=[1.0, 0.0], design="fixed_grid", dictionary={"kind": "coordinate", "d": 2}
                ),
                "known feature norms",
            ),
            *[
                (
                    variant,
                    _stochastic_scenario(
                        d=2, u_true=[1.0, 0.0], design="fixed_grid", dictionary={"kind": "random_signs", "d": 2}
                    ),
                    "random_signs inputs under design 'fixed_grid' have no sampling distribution",
                )
                for variant in ("thm10", "cor12")
            ],
        ],
        ids=[
            "cor12-bounded-noise", "cor12-unbounded-f", "thm10-coordinate-fixed-grid", "thm10-random-signs",
            "cor12-random-signs",
        ],
    )
    def test_unmet_precondition_exits_two_before_any_fit(self, tmp_path, monkeypatch, capsys, variant, scenario, message):
        def fit(*args, **kwargs):
            raise AssertionError("fitted a replication before checking the variant's preconditions")

        monkeypatch.setattr(cli.batch_mod, "fit_random_design", fit)
        cfg = _write_config(tmp_path / "cfg.json", scenario=scenario)
        assert cli.main(["batch", "--config", str(cfg), "--variant", variant, "--replications", "2"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("variant", ["thm10", "cor11"])
    @pytest.mark.parametrize("replications", [0, -1])
    def test_replications_below_one_exit_two_before_any_fit(self, tmp_path, monkeypatch, capsys, variant, replications):
        def fit(*args, **kwargs):
            raise AssertionError("fitted a replication")

        monkeypatch.setattr(cli.batch_mod, "fit_random_design", fit)
        cfg = _write_config(tmp_path / "cfg.json", scenario=_stochastic_scenario())
        args = ["batch", "--config", str(cfg), "--variant", variant, "--replications", str(replications)]
        assert cli.main(args) == 2
        assert "needs replications >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / f"batch_{variant}.json").exists()

    @pytest.mark.parametrize("variant", ["thm10", "cor12"])
    @pytest.mark.parametrize("n_eval", [0, -1])
    def test_n_eval_below_one_exit_two_before_any_fit(self, tmp_path, monkeypatch, capsys, variant, n_eval):
        def fit(*args, **kwargs):
            raise AssertionError("fitted a replication")

        monkeypatch.setattr(cli.batch_mod, "fit_random_design", fit)
        cfg = _write_config(tmp_path / "cfg.json", scenario=_stochastic_scenario())
        args = ["batch", "--config", str(cfg), "--variant", variant, "--replications", "2", "--n-eval", str(n_eval)]
        assert cli.main(args) == 2
        assert f"needs n_eval >= 1, got {n_eval}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shift", ["nan", "inf", "-inf", "1e308"])
    def test_remark15_unusable_shift_exits_two_before_any_fit(self, tmp_path, monkeypatch, capsys, shift):
        def fit(*args, **kwargs):
            raise AssertionError("fitted before checking the shift")

        monkeypatch.setattr(cli.batch_mod, "fit_remark15", fit)
        cfg = _write_config(tmp_path / "cfg.json", scenario=_stochastic_scenario())
        assert cli.main(["batch", "--config", str(cfg), "--variant", "remark15", f"--shift={shift}"]) == 2
        assert "remark15 needs a finite --shift" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_thm10_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            scenario={
                "T": 20,
                "d": 1,
                "s": 1,
                "u_true": [1.0],
                "design": "iid_uniform",
                "noise": {"kind": "sg", "sigma_sq": 0.25},
                "dictionary": {"kind": "coordinate", "d": 1},
            },
            backend={"backend": "importance", "n_samples": 300},
        )
        args = ["batch", "--config", str(cfg), "--variant", "thm10", "--replications", "4", "--n-eval", "30"]
        assert cli.main([*args, "--out", str(tmp_path / "a")]) == 0
        assert cli.main([*args, "--out", str(tmp_path / "b")]) == 0
        assert (
            (tmp_path / "a" / "batch_thm10.json").read_bytes()
            == (tmp_path / "b" / "batch_thm10.json").read_bytes()
        )
        assert (
            (tmp_path / "a" / "batch_thm10_reps.csv").read_bytes()
            == (tmp_path / "b" / "batch_thm10_reps.csv").read_bytes()
        )

    @pytest.mark.parametrize("variant", ["thm13", "cor14"])
    def test_fixed_design_reruns_are_byte_identical(self, tmp_path, variant):
        scenario = _stochastic_scenario(T=20, design="fixed_grid", grid_size=6)
        cfg = _write_config(tmp_path / "cfg.json", scenario=scenario, backend={"backend": "importance", "n_samples": 300})
        args = ["batch", "--config", str(cfg), "--variant", variant, "--replications", "3"]
        assert cli.main([*args, "--out", str(tmp_path / "a")]) == 0
        assert cli.main([*args, "--out", str(tmp_path / "b")]) == 0
        for name in (f"batch_{variant}.json", f"batch_{variant}_reps.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_replications_score_against_the_witness(self, tmp_path, monkeypatch):
        """With u_true unset, every replication keeps the base draw's
        truth: each fit is scored against the witness's function."""
        truths, score = [], cli.batch_mod.risk

        def risk(estimator, truth_f, *args, **kwargs):
            truths.append(truth_f)
            return score(estimator, truth_f, *args, **kwargs)

        monkeypatch.setattr(cli.batch_mod, "risk", risk)
        scenario = _stochastic_scenario(T=15, d=6, s=2, u_true=None, dictionary={"kind": "coordinate", "d": 6})
        cfg = _write_config(tmp_path / "cfg.json", seed=1, scenario=scenario, backend={"backend": "importance", "n_samples": 200})
        args = ["batch", "--config", str(cfg), "--variant", "thm10", "--replications", "3", "--n-eval", "20"]
        assert cli.main(args) == 0
        witness = np.asarray(json.loads((tmp_path / "out" / "batch_thm10.json").read_text())["witness"])
        assert np.count_nonzero(witness) == 2
        probes = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 6))
        assert len(truths) == 3
        for truth in truths:
            assert [truth(x) for x in probes] == [float(witness @ x) for x in probes]

    @pytest.mark.parametrize(
        "variant, scenario, message",
        [
            (
                "thm13",
                _stochastic_scenario(design="fixed_grid", design_scale=1e154, u_true=[1e-150]),
                "thm13: measured risk",
            ),
            (
                "thm10",
                _stochastic_scenario(dictionary={"kind": "coordinate", "d": 1, "normalization": 1e200}),
                "features must be finite",
            ),
        ],
        ids=["thm13-infinite-gram-trace", "thm10-overflowing-feature-norm"],
    )
    def test_unusable_risk_problem_exits_four_and_writes_nothing(self, tmp_path, capsys, variant, scenario, message):
        cfg = _write_config(tmp_path / "cfg.json", scenario=scenario, backend={"backend": "importance", "n_samples": 200})
        assert cli.main(["batch", "--config", str(cfg), "--variant", variant, "--replications", "2", "--n-eval", "20"]) == 4
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / f"batch_{variant}.json").exists()

    @pytest.mark.parametrize("design", ["iid_gaussian", "adversarial_script"])
    def test_thm10_on_fourier_inputs_off_the_grid(self, tmp_path, design):
        scenario = _stochastic_scenario(d=2, u_true=[1.0, 0.0], design=design, dictionary={"kind": "fourier", "d": 2})
        cfg = _write_config(tmp_path / "cfg.json", scenario=scenario, backend={"backend": "importance", "n_samples": 200})
        assert cli.main(["batch", "--config", str(cfg), "--variant", "thm10", "--replications", "2", "--n-eval", "20"]) == 0
        payload = json.loads((tmp_path / "out" / "batch_thm10.json").read_text())
        assert math.isfinite(payload["rhs"])


class TestGenAndPlot:
    def test_gen_writes_dataset(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert cli.main(["gen", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "dataset.csv").read_text().splitlines()
        assert lines[0] == "# schema=seqsew.dataset.v1"
        assert lines[1] == "t,x_1,y"
        assert len(lines) == 2 + 25

    def test_gen_of_an_overflowing_outcome_is_input_error(self, tmp_path, capsys):
        scenario = json.loads(_write_config(tmp_path / "base.json").read_text())["scenario"]
        cfg = _write_config(tmp_path / "cfg.json", scenario={**scenario, "u_true": [1e308]})
        assert cli.main(["gen", "--config", str(cfg)]) == 4
        assert "x and y must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # What a user sees: the input error alone, with no numpy warning
        # printed before it.
        proc = subprocess.run(
            [sys.executable, "-m", "seqsew", "gen", "--config", str(cfg)],
            env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 4
        assert "x and y must be finite" in proc.stderr and "RuntimeWarning" not in proc.stderr

    def test_plot_cumloss_and_staircase(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        cli.main(["run", "--config", str(cfg)])
        run_csv = str(tmp_path / "out" / "run.csv")
        svg = tmp_path / "cum.svg"
        assert cli.main(["plot", "--input", run_csv, "--kind", "cumloss", "--out", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")
        assert cli.main(["plot", "--input", run_csv, "--kind", "staircase", "--out", str(tmp_path / "st.svg")]) == 0

    @pytest.mark.parametrize("kind, n_inputs", [("cumloss", 2), ("staircase", 1)])
    def test_plot_reads_each_csv_once(self, tmp_path, monkeypatch, kind, n_inputs):
        cfg = _write_config(tmp_path / "cfg.json")
        cli.main(["run", "--config", str(cfg)])
        reads = []
        read_text = cli._read_text
        monkeypatch.setattr(cli, "_read_text", lambda path: reads.append(path) or read_text(path))
        run_csv = str(tmp_path / "out" / "run.csv")
        assert cli.main(["plot", "--input", *[run_csv] * n_inputs, "--kind", kind, "--out", str(tmp_path / "p.svg")]) == 0
        assert len(reads) == n_inputs

    def test_plot_risk_vs_horizon(self, tmp_path):
        for i, (T, measured, rhs) in enumerate([(50, 0.4, 3.0), (200, 0.2, 1.1)]):
            (tmp_path / f"b{i}.json").write_text(
                json.dumps({"schema": "seqsew.batch.v1", "T": T, "measured_risk": measured, "rhs": rhs})
            )
        out = tmp_path / "risk.svg"
        code = cli.main(
            ["plot", "--input", str(tmp_path / "b0.json"), str(tmp_path / "b1.json"), "--kind", "risk", "--out", str(out)]
        )
        assert code == 0
        assert "schema=seqsew.plot.v1" in out.read_text()

    def test_plot_margins_from_verify_json(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        cli.main(["verify", "--config", str(cfg), "--bounds", "prop5,cor7"])
        out = tmp_path / "m.svg"
        code = cli.main(["plot", "--input", str(tmp_path / "out" / "verify.json"), "--kind", "margins", "--out", str(out)])
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("variant", ["cor11", "remark15"])
    def test_plot_risk_of_a_batch_without_a_risk_is_io_error(self, tmp_path, capsys, variant):
        cfg = _write_config(tmp_path / "cfg.json", scenario=_stochastic_scenario())
        assert cli.main(["batch", "--config", str(cfg), "--variant", variant]) == 0
        capsys.readouterr()
        payload = tmp_path / "out" / f"batch_{variant}.json"
        assert cli.main(["plot", "--input", str(payload), "--kind", "risk", "--out", str(tmp_path / "r.svg")]) == 4
        err = capsys.readouterr().err
        assert f"batch_{variant}.json: missing key 'measured_risk'" in err

    def test_plot_margins_of_a_report_without_slack_is_io_error(self, tmp_path, capsys):
        report = tmp_path / "verify.json"
        report.write_text(json.dumps({"reports": [{"bound": "prop5", "mc_allowance": 0.0}]}))
        assert cli.main(["plot", "--input", str(report), "--kind", "margins", "--out", str(tmp_path / "m.svg")]) == 4
        assert "verify.json: missing key 'slack'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, payload, message",
        [
            ("margins", [1, 2], "expected a JSON object, got list"),
            ("margins", {"reports": 5}, "key 'reports' is not a list"),
            ("margins", {"reports": [{"bound": "prop5", "slack": "x", "mc_allowance": 0.0}]}, "key 'slack' is not a number"),
            ("risk", {"T": "x", "measured_risk": 1, "rhs": 2}, "key 'T' is not a number"),
        ],
        ids=["margins-list", "margins-reports-not-list", "margins-text-slack", "risk-text-T"],
    )
    def test_plot_of_wrongly_shaped_json_is_io_error(self, tmp_path, capsys, kind, payload, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["plot", "--input", str(path), "--kind", kind, "--out", str(tmp_path / "p.svg")]) == 4
        assert f"input.json: {message}" in capsys.readouterr().err

    def test_plot_writes_into_a_new_directory(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        cli.main(["run", "--config", str(cfg)])
        out = tmp_path / "new" / "plots" / "cum.svg"
        assert cli.main(["plot", "--input", str(tmp_path / "out" / "run.csv"), "--kind", "cumloss", "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "kind, name, text",
        [
            ("staircase", "run.csv", "# schema=seqsew.run.v1\nt,y,yhat,loss,cumloss,B_t,eta_t,regime,ess\n1,1,0,1,1,1,1,0,1\n"),
            ("margins", "verify.json", json.dumps({"reports": [{"bound": "prop5", "slack": 1.0, "mc_allowance": 0.0}]})),
        ],
        ids=["staircase", "margins"],
    )
    def test_one_input_kinds_refuse_a_second_input(self, tmp_path, capsys, kind, name, text):
        inputs = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / name).write_text(text)
            inputs.append(str(tmp_path / sub / name))
        out = tmp_path / "p.svg"
        assert cli.main(["plot", "--input", inputs[0], "--kind", kind, "--out", str(out)]) == 0
        out.unlink()
        assert cli.main(["plot", "--input", *inputs, "--kind", kind, "--out", str(out)]) == 2
        assert f"plot --kind {kind} takes one input file, got 2" in capsys.readouterr().err
        assert not out.exists()

    def test_plot_is_deterministic(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        cli.main(["run", "--config", str(cfg)])
        run_csv = str(tmp_path / "out" / "run.csv")
        cli.main(["plot", "--input", run_csv, "--kind", "cumloss", "--out", str(tmp_path / "a.svg")])
        cli.main(["plot", "--input", run_csv, "--kind", "cumloss", "--out", str(tmp_path / "b.svg")])
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_empty_input_is_usage_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# schema=seqsew.run.v1\nt,y,yhat,loss,cumloss,B_t,eta_t,regime,ess\n")
        assert cli.main(["plot", "--input", str(empty), "--kind", "cumloss", "--out", str(tmp_path / "x.svg")]) == 2

    def test_malformed_row_is_io_error_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y,yhat,loss,cumloss,B_t,eta_t,regime,ess\n1,2\n")
        assert cli.main(["plot", "--input", str(bad), "--kind", "cumloss", "--out", str(tmp_path / "x.svg")]) == 4
        assert ":2:" in capsys.readouterr().err


class TestReaders:
    """Every file the CLI reads goes through one UTF-8 reader: a file that
    is missing, unreadable or not UTF-8 exits 4 and names the file, and so
    does an input that does not parse."""

    RUN_HEADER = "t,y,yhat,loss,cumloss,B_t,eta_t,regime,ess\n"

    @staticmethod
    def _plot(tmp_path, capsys, path, kind):
        code = cli.main(["plot", "--input", str(path), "--kind", kind, "--out", str(tmp_path / "p.svg")])
        assert not (tmp_path / "p.svg").exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("name, kind", [("run.csv", "cumloss"), ("verify.json", "margins")])
    def test_missing_input_is_io_error(self, tmp_path, capsys, name, kind):
        path = tmp_path / name
        code, err = self._plot(tmp_path, capsys, path, kind)
        assert code == 4 and str(path) in err

    def test_invalid_json_input_is_io_error_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "verify.json"
        path.write_text('{"reports": [\n  {bound}]}')
        code, err = self._plot(tmp_path, capsys, path, "margins")
        assert code == 4 and f"{path}:2: invalid JSON" in err

    def test_input_without_the_kinds_column_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "run.csv"
        path.write_text("t,cumloss\n1,0.5\n")
        code, err = self._plot(tmp_path, capsys, path, "staircase")
        assert code == 4 and f"{path}: missing column 'B_t'" in err

    def test_non_numeric_cell_is_io_error_naming_the_row(self, tmp_path, capsys):
        path = tmp_path / "run.csv"
        path.write_text(self.RUN_HEADER + "1,1,0,1,1,1,1,0,1\n2,1,0,1,abc,1,1,0,1\n")
        code, err = self._plot(tmp_path, capsys, path, "cumloss")
        assert code == 4 and f"{path}: row 2: bad float in 'cumloss': 'abc'" in err

    def test_input_without_a_header_is_usage_error(self, tmp_path, capsys):
        # No header, like no rows, is empty input: a usage error.
        path = tmp_path / "run.csv"
        path.write_text("# schema=seqsew.run.v1\n")
        code, err = self._plot(tmp_path, capsys, path, "cumloss")
        assert code == 2 and f"{path}: no data" in err

    @pytest.mark.parametrize(
        "name, kind, data",
        [
            ("run.csv", "cumloss", ("# schema=seqsew.run.v1\n" + RUN_HEADER).encode() + b"1,1,0,1,\xff,1,1,0,1\n"),
            ("verify.json", "margins", b'{"reports": [{"bound": "prop5\xe9", "slack": 1.0, "mc_allowance": 0.0}]}'),
        ],
        ids=["csv", "json"],
    )
    def test_input_that_is_not_utf8_is_io_error(self, tmp_path, capsys, name, kind, data):
        path = tmp_path / name
        path.write_bytes(data)
        code, err = self._plot(tmp_path, capsys, path, kind)
        assert code == 4 and str(path) in err and "utf-8" in err

    @pytest.mark.parametrize(
        "command",
        [["gen"], ["run"], ["verify", "--bounds", "prop5"], ["batch", "--variant", "cor11"]],
        ids=["gen", "run", "verify", "batch"],
    )
    def test_config_that_is_not_utf8_is_io_error_and_writes_nothing(self, tmp_path, capsys, command):
        cfg = _write_config(tmp_path / "cfg.json")
        cfg.write_bytes(cfg.read_bytes().replace(b'"adaptive"', b'"adaptive\xff"'))
        assert cli.main([*command, "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert str(cfg) in err and "utf-8" in err
        assert not (tmp_path / "out").exists()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _plot_inputs(directory: Path, kind: str, data) -> list[str]:
    """Write ``data`` as the input files of a ``kind`` plot in ``directory``:
    (t, value) rows per CSV for cumloss and staircase, (slack,
    mc_allowance) reports for margins, and (T, measured_risk, rhs) per
    batch JSON for risk."""
    paths = []
    if kind in ("cumloss", "staircase"):
        column = "cumloss" if kind == "cumloss" else "B_t"
        for i, rows in enumerate(data):
            paths.append(directory / f"run{i}.csv")
            paths[-1].write_text(f"t,{column}\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows))
    elif kind == "margins":
        paths.append(directory / "verify.json")
        reports = [{"bound": f"b{i}", "slack": s, "mc_allowance": a} for i, (s, a) in enumerate(data)]
        paths[0].write_text(json.dumps({"reports": reports}))
    else:
        for i, (T, measured, rhs) in enumerate(data):
            paths.append(directory / f"batch{i}.json")
            paths[-1].write_text(json.dumps({"T": T, "measured_risk": measured, "rhs": rhs}))
    return [str(p) for p in paths]


def _check_drawing(svg: str) -> None:
    """Every numeric attribute and polyline coordinate of ``svg`` is finite,
    and each axis has between one and twelve ticks."""
    numbers = [float(v) for v in re.findall(r'\b(?:x|y|x1|y1|x2|y2|width|height)="([^"]*)"', svg)]
    for points in re.findall(r'points="([^"]*)"', svg):
        numbers += [float(c) for pair in points.split() for c in pair.split(",")]
    assert numbers and all(map(math.isfinite, numbers))
    x_ticks = re.findall(r'<line x1="[^"]*" y1="350" x2="[^"]*" y2="354"', svg)
    y_ticks = re.findall(r'<line x1="56" ', svg)
    assert 1 <= len(x_ticks) <= 12 and 1 <= len(y_ticks) <= 12


class TestPlotValues:
    """``seqsew plot`` checks every value it plots where it reads it: a
    value that is not finite, or an axis range the chart cannot scale,
    exits 4 naming the input and writes no SVG.  Finite input that can be
    scaled draws only finite coordinates."""

    @pytest.mark.parametrize(
        "kind, data, message",
        [
            ("cumloss", [[(1.0, math.nan)]], "run0.csv: row 1: 'cumloss' is not finite: nan"),
            ("cumloss", [[(1.0, 1.0), (2.0, math.inf)]], "run0.csv: row 2: 'cumloss' is not finite: inf"),
            ("cumloss", [[(1.0, 1.0)], [(math.nan, 1.0)]], "run1.csv: row 1: 't' is not finite: nan"),
            ("staircase", [[(1.0, 1.0), (math.inf, 2.0)]], "run0.csv: row 2: 't' is not finite: inf"),
            ("margins", [(1.0, 0.0), (math.nan, 0.0)], "verify.json: report 2: slack + mc_allowance is not finite: nan"),
            ("margins", [(1e308, 1e308)], "verify.json: report 1: slack + mc_allowance is not finite: inf"),
            ("risk", [(50.0, 0.1, 1.0), (100.0, 0.2, math.inf)], "batch1.json: key 'rhs' is not finite: inf"),
            ("cumloss", [[(-1e308, 1.0), (1e308, 2.0)]], "run0.csv: the x axis from -1e+308 to 1e+308 cannot be scaled"),
            ("cumloss", [[(0.0, 1.0), (5e-324, 2.0)]], "run0.csv: the x axis from 0.0 to 5e-324 cannot be scaled"),
            ("cumloss", [[(1.0, 5e-324)]], "run0.csv: the y axis from 0.0 to 5e-324 cannot be scaled"),
            ("risk", [(1e16, 0.1, 1.0)], "batch0.json: the x axis from 1e+16 to 1e+16 cannot be scaled"),
        ],
        ids=[
            "cumloss-nan", "cumloss-inf", "second-file-t-nan", "staircase-t-inf", "margin-nan", "margin-overflows",
            "rhs-inf", "x-span-overflows", "x-span-subnormal", "y-span-subnormal", "one-point-beyond-2^53",
        ],
    )
    def test_unplottable_value_exits_four_naming_the_input(self, tmp_path, capsys, kind, data, message):
        out = tmp_path / "p.svg"
        assert cli.main(["plot", "--input", *_plot_inputs(tmp_path, kind, data), "--kind", kind, "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"error: {tmp_path}{os.sep}{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, name, text, message",
        [
            ("staircase", "run.csv", "t,B_t\n1,nan\n2,nan\n", "no rounds with a finite threshold to plot"),
            ("margins", "verify.json", json.dumps({"reports": []}), "no reports to plot"),
        ],
        ids=["staircase-without-thresholds", "margins-without-reports"],
    )
    def test_nothing_to_plot_is_usage_error(self, tmp_path, capsys, kind, name, text, message):
        (tmp_path / name).write_text(text)
        out = tmp_path / "p.svg"
        assert cli.main(["plot", "--input", str(tmp_path / name), "--kind", kind, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / name}: {message}\n"
        assert not out.exists()

    def test_staircase_of_a_ridge_run_is_usage_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", forecaster={"kind": "ridge"})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        run_csv = tmp_path / "out" / "run.csv"
        assert cli.main(["plot", "--input", str(run_csv), "--kind", "staircase", "--out", str(tmp_path / "p.svg")]) == 2
        assert f"{run_csv}: no rounds with a finite threshold to plot" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, data, axis, labels",
        [
            ("cumloss", [[(1.0, 1e-5), (2.0, 3e-5)]], "y", ["0", "1e-5", "2e-5", "3e-5"]),
            ("cumloss", [[(1.0, 1e300), (2.0, 2e300)]], "y", ["0", "5e299", "1e300", "1.5e300", "2e300"]),
            # Steps of 0.5 from 1e16, where floats are 2 apart: five ticks
            # round to two floats.
            ("risk", [(1e16, 0.1, 1.0), (1e16 + 2.0, 0.2, 2.0)], "x", ["1e16", "1.0000000000000002e16"]),
        ],
        ids=["tiny-losses", "huge-losses", "horizons-one-ulp-apart"],
    )
    def test_adjacent_ticks_read_apart(self, tmp_path, kind, data, axis, labels):
        out = tmp_path / "p.svg"
        assert cli.main(["plot", "--input", *_plot_inputs(tmp_path, kind, data), "--kind", kind, "--out", str(out)]) == 0
        svg = out.read_text()
        label, line = {
            "x": ('y="366" text-anchor="middle"', r'<line x1="[^"]*" y1="350" x2="[^"]*" y2="354"'),
            "y": ('text-anchor="end"', '<line x1="56" '),
        }[axis]
        assert re.findall(label + ' font-family="monospace" font-size="10">([^<]*)<', svg) == labels
        assert len(re.findall(line, svg)) == len(labels)

    def test_horizons_one_ulp_apart_draw_in_bounded_time_and_memory(self, tmp_path):
        # 1e16 + 0.5 == 1e16: ticks stepped by adding 0.5 to a float never
        # pass the axis's end.  The plot runs in a child process under an
        # address-space limit, so such a loop fails rather than hangs.
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        inputs = _plot_inputs(tmp_path, "risk", [(1e16, 0.1, 1.0), (1e16 + 2.0, 0.2, 2.0)])
        out = tmp_path / "risk.svg"
        proc = subprocess.run(
            [sys.executable, "-m", "seqsew", "plot", "--input", *inputs, "--kind", "risk", "--out", str(out)],
            env=_src_env(), capture_output=True, text=True, timeout=60, preexec_fn=limit_address_space,
        )
        assert proc.returncode == 0, proc.stderr
        _check_drawing(out.read_text())

    @pytest.mark.parametrize(
        "kind, inputs",
        [
            ("cumloss", st.lists(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=6), min_size=1, max_size=2)),
            ("staircase", st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=6).map(lambda rows: [rows])),
            ("margins", st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=5)),
            ("risk", st.lists(st.tuples(_FINITE, _FINITE, _FINITE), min_size=1, max_size=3)),
        ],
        ids=["cumloss", "staircase", "margins", "risk"],
    )
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_finite_input_draws_finite_coordinates_or_exits_four(self, kind, inputs, data):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "p.svg"
            paths = _plot_inputs(Path(tmp), kind, data.draw(inputs))
            code = cli.main(["plot", "--input", *paths, "--kind", kind, "--out", str(out)])
            assert code in (0, 4)
            if code == 0:
                _check_drawing(out.read_text())
            else:
                assert not out.exists()
