"""CLI verbs and the experiment harness."""

import json
import os

import numpy as np
import pytest

from icmor import build_msd, load_model, save_model, unit_vector_basis
from icmor.cli import main
from icmor.errors import ConfigError
from icmor.experiment import ExperimentConfig, emit_report, run_experiment


def small_config(tmp_path, **overrides):
    cfg = {
        "model": {"kind": "msd", "n_masses": 12, "m_inputs": 3},
        "methods": ["augbt", "bt-bt", "bt-irka"],
        "x0_indices": [24],
        "tol": 1e-2,
        "input": {"kind": "decaying_pulses"},
        "out": str(tmp_path / "results"),
    }
    cfg.update(overrides)
    return cfg


class TestExperimentConfig:
    def test_requires_model(self):
        with pytest.raises(ConfigError, match="model"):
            ExperimentConfig.from_dict({"methods": ["bt-bt"]})

    def test_requires_methods(self):
        with pytest.raises(ConfigError, match="methods"):
            ExperimentConfig.from_dict({"model": {"kind": "msd"}})

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            ExperimentConfig.from_dict(
                {"model": {"kind": "msd"}, "methods": ["hankel-norm"]})

    def test_unknown_field_reports_path(self):
        with pytest.raises(ConfigError, match="tolerance"):
            ExperimentConfig.from_dict(
                {"model": {"kind": "msd"}, "methods": ["bt-bt"],
                 "tolerance": 0.1})

    def test_string_model_shorthand(self):
        cfg = ExperimentConfig.from_dict(
            {"model": "builtin:msd", "methods": ["bt-bt"]})
        assert cfg.model == {"kind": "msd"}


class TestRunExperiment:
    def test_basic_report_shape(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            small_config(tmp_path, methods=["bt-bt"]))
        rep = run_experiment(cfg)
        res = rep.report["methods"]["bt-bt"]
        assert set(res["orders"]) == {"r_u", "r_x0"}
        assert res["abs_l2_error"] <= res["bound"]
        assert res["bound_ok"]
        assert rep.bound_ok

    def test_all_methods_bounds_hold(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_config(tmp_path))
        rep = run_experiment(cfg)
        for res in rep.report["methods"].values():
            assert res["bound_ok"]

    def test_zero_input_config(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            small_config(tmp_path, input={"kind": "zero"}, calibrate=False))
        rep = run_experiment(cfg)
        assert rep.report["signals"]["u_l2"] == 0.0
        for res in rep.report["methods"].values():
            assert res["bound_ok"]

    def test_empty_basis_collapses_to_bt(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            small_config(tmp_path, methods=["bt-bt", "bt-irka"], x0_indices=[]))
        rep = run_experiment(cfg)
        assert rep.report["model"]["n0"] == 0
        for method in ("bt-bt", "bt-irka"):
            assert rep.report["methods"][method]["orders"]["r_x0"] == 0
        assert rep.bound_ok

    def test_parallel_matches_sequential(self, tmp_path):
        base = small_config(tmp_path, methods=["bt-bt", "augbt"])
        rep_seq = run_experiment(ExperimentConfig.from_dict(base))
        rep_par = run_experiment(
            ExperimentConfig.from_dict({**base, "parallel": True}))
        assert json.dumps(rep_seq.report, sort_keys=True) == \
            json.dumps(rep_par.report, sort_keys=True)

    def test_determinism(self, tmp_path):
        cfg = small_config(tmp_path)
        r1 = run_experiment(ExperimentConfig.from_dict(cfg))
        r2 = run_experiment(ExperimentConfig.from_dict(cfg))
        assert json.dumps(r1.report, sort_keys=True) == \
            json.dumps(r2.report, sort_keys=True)


class TestEmitReport:
    def test_file_set(self, tmp_path):
        out = str(tmp_path / "results")
        cfg = ExperimentConfig.from_dict(small_config(tmp_path, out=out))
        rep = run_experiment(cfg)
        files = emit_report(rep, out)
        for name in ("report.json", "timings.json", "summary.txt", "hsv.csv",
                     "trace_full.csv", "trace_bt-bt.csv", "error_bt-bt.csv"):
            assert name in files
        with open(os.path.join(out, "report.json")) as fh:
            loaded = json.load(fh)
        assert loaded == json.loads(json.dumps(rep.report))
        with open(os.path.join(out, "hsv.csv")) as fh:
            header = fh.readline().strip()
        assert header == "index,sigma,theta,eta"

    def test_summary_layout(self, tmp_path):
        out = str(tmp_path / "results")
        cfg = ExperimentConfig.from_dict(small_config(tmp_path, out=out))
        rep = run_experiment(cfg)
        emit_report(rep, out)
        with open(os.path.join(out, "summary.txt")) as fh:
            text = fh.read()
        for m in cfg.methods:
            assert m in text
        assert "L_inf error" in text and "L_2 error" in text


class TestCliVerbs:
    def test_bench_msd(self, tmp_path):
        out = str(tmp_path / "bench")
        rc = main(["bench", "msd", "--n-masses", "8", "--m-inputs", "2",
                   "--x0-indices", "16", "--out", out])
        assert rc == 0
        M, basis = load_model(out)
        assert M.n == 16 and basis.n0 == 1

    def test_reduce_split(self, tmp_path):
        model_dir = str(tmp_path / "model")
        M = build_msd(8, m_inputs=2)
        save_model(M, model_dir, basis=unit_vector_basis(M.n, [16]))
        out = str(tmp_path / "red")
        rc = main(["reduce", "--model", model_dir, "--method", "bt-bt",
                   "--tol", "1e-2", "--out", out])
        assert rc == 0
        with open(os.path.join(out, "offline.json")) as fh:
            info = json.load(fh)
        assert info["method"] == "bt-bt"
        assert set(info["orders"]) == {"r_u", "r_x0"}

    def test_reduce_augbt_requires_basis(self, tmp_path, capsys):
        model_dir = str(tmp_path / "model")
        save_model(build_msd(5, m_inputs=2), model_dir)
        rc = main(["reduce", "--model", model_dir, "--method", "augbt",
                   "--out", str(tmp_path / "red")])
        assert rc == 1

    def test_simulate_writes_csv(self, tmp_path):
        model_dir = str(tmp_path / "model")
        save_model(build_msd(6, m_inputs=2), model_dir)
        out = str(tmp_path / "trace.csv")
        rc = main(["simulate", "--model", model_dir, "--tf", "50",
                   "--out", out])
        assert rc == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape[1] == 2  # t plus single output
        assert np.all(np.isfinite(data))

    def test_report_verb_and_exit_code(self, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(small_config(tmp_path, methods=["bt-bt"]), fh)
        rc = main(["report", "--config", cfg_path])
        assert rc == 0
        out = small_config(tmp_path)["out"]
        assert os.path.exists(os.path.join(out, "report.json"))

    def test_report_determinism_across_processes(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(small_config(tmp_path, methods=["bt-bt", "bt-irka"]), fh)
        assert main(["report", "--config", cfg_path, "--out", out1]) == 0
        assert main(["report", "--config", cfg_path, "--out", out2]) == 0
        with open(os.path.join(out1, "report.json")) as fh:
            a = fh.read()
        with open(os.path.join(out2, "report.json")) as fh:
            b = fh.read()
        assert a == b

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            fh.write("{\"methods\": []}")
        assert main(["report", "--config", cfg_path]) == 1
