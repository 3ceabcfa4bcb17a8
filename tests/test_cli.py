"""End-to-end tests of the command-line surface: schemas, exit codes,
and byte-level determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

import seqsew.cli as cli
from seqsew.bounds import BoundReport


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

    def test_overheated_fixed_tuning_warns_but_runs(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "cfg.json",
            forecaster={"kind": "fixed", "B": 1.0, "eta": 1.0, "tau": 0.5},  # eta > 1/(8 B^2)
        )
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert "guarantee" in capsys.readouterr().err


class TestVerify:
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

    def test_unknown_bound_is_usage_error(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert cli.main(["verify", "--config", str(cfg), "--bounds", "prop99"]) == 2

    def test_mismatched_bound_is_usage_error(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")  # adaptive forecaster
        assert cli.main(["verify", "--config", str(cfg), "--bounds", "thm8"]) == 2

    def test_failing_report_exits_three(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path / "cfg.json")

        def always_fail(result, bound, comparator, **kw):
            return BoundReport(
                bound=bound,
                lhs=1.0,
                rhs=0.0,
                slack=-1.0,
                mc_allowance=0.0,
                witness_u=np.zeros(1),
                passed=False,
            )

        monkeypatch.setattr(cli.bounds_mod, "verify", always_fail)
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


class TestGenAndPlot:
    def test_gen_writes_dataset(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert cli.main(["gen", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "dataset.csv").read_text().splitlines()
        assert lines[0] == "# schema=seqsew.dataset.v1"
        assert lines[1] == "t,x_1,y"
        assert len(lines) == 2 + 25

    def test_plot_cumloss_and_staircase(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        cli.main(["run", "--config", str(cfg)])
        run_csv = str(tmp_path / "out" / "run.csv")
        svg = tmp_path / "cum.svg"
        assert cli.main(["plot", "--input", run_csv, "--kind", "cumloss", "--out", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")
        assert cli.main(["plot", "--input", run_csv, "--kind", "staircase", "--out", str(tmp_path / "st.svg")]) == 0

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
