"""CLI verbs and the experiment harness."""

import json
import os
import re
import warnings

import numpy as np
import pytest

from icmor import (
    OrderSelection, build_msd, experiment, load_model, reduction, save_model,
    unit_vector_basis,
)
from icmor._mmio import read_matrix
from icmor.cli import main
from icmor.errors import ConfigError, MaxItersExceeded
from icmor.experiment import ExperimentConfig, _bound_holds, emit_report, run_experiment
from icmor.linalg import solve_lyapunov
from icmor.simulation import l2_norm

from conftest import _rebind_in_icmor


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
        # IRKA is warm-started from BT, so there is no seed to set
        with pytest.raises(ConfigError, match="seed: unknown config field"):
            ExperimentConfig.from_dict(
                {"model": {"kind": "msd"}, "methods": ["bt-irka"], "seed": 0})

    @pytest.mark.parametrize("overrides, field", [
        ({"input": {"kind": "decaying_pulses", "bogus": 1}}, "input.bogus"),
        ({"input": "decaying_pulses"}, "input"),
        ({"x0_indices": [12.0]}, "x0_indices"),
        ({"x0_indices": "12"}, "x0_indices"),
        ({"z0": ["a"]}, "z0"),
        (None, "config"),  # the whole config is a list
        ({"model": {"kind": "msd", "n_mass": 6}}, "model.n_mass"),
    ])
    def test_malformed_field_is_named(self, tmp_path, capsys, overrides, field):
        cfg = [small_config(tmp_path)] if overrides is None \
            else small_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}\b"):
            ExperimentConfig.from_dict(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["report", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field}")

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

    def test_full_order_reductions_match_to_rounding(self, tmp_path):
        # at r = n every reduced model is a similarity transform of the full
        # one; on one shared time grid the traces then agree to rounding
        cfg = ExperimentConfig.from_dict(small_config(
            tmp_path, model={"kind": "msd", "n_masses": 6, "m_inputs": 6},
            x0_indices=[12]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", MaxItersExceeded)
            rep = run_experiment(cfg)
        for res in rep.report["methods"].values():
            assert set(res["orders"].values()) == {12}
            assert res["rel_l2"] <= 1e-12
            # the bound is 0 here: the check's floor admits the rounding
            assert res["bound"] == 0.0 and res["bound_ok"]

    def test_bound_floor_is_rounding_size(self):
        assert _bound_holds(1e-12, 0.0, 1.0)
        assert not _bound_holds(2e-12, 0.0, 1.0)
        assert not _bound_holds(1.0 + 2e-3, 1.0, 1.0)

    def test_one_full_order_exponential(self, tmp_path, expm_orders):
        run_experiment(ExperimentConfig.from_dict(small_config(tmp_path)))
        # both full-order parts share one FOH set-up (order n + 2m = 30), and
        # Phi comes from its E by squaring, not from an order-n exponential;
        # the reduced models (order 22) take blocks of order 22 and 28
        assert [k for k in expm_orders if k in (24, 30)] == [30]

    def test_one_schur_form_per_state_matrix(self, tmp_path, schur_calls):
        run_experiment(ExperimentConfig.from_dict(small_config(tmp_path)))
        # the real forms of A and A^T; IRKA and aca_bound work on the one
        # of A, so no complex form and none of the balanced A (order 24
        # here, as nothing is deflated) is computed.  The order-22 forms
        # are of A11 and of IRKA's candidates.
        assert schur_calls.count(24) == 2
        assert schur_calls.complex == []

    def test_each_gramian_solved_once(self, tmp_path, lyapunov_orders):
        run_experiment(ExperimentConfig.from_dict(small_config(tmp_path)))
        # P of the input map and of aux, and the Q they share; the augmented
        # P is their sum, not a third solve
        assert lyapunov_orders.count(24) == 3

    def test_gramians_solved_inside_the_reductions(self, tmp_path, monkeypatch):
        # offline time is measured on bt_reduce, abt_reduce and
        # irka_reduce, so every Lyapunov solve of an experiment, the order-r
        # ones of IRKA's candidates too, must happen inside one of them
        depth, inside, outside = [0], [], []

        def entered(fn):
            def call(*args, **kwargs):
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return call

        def solve(A, *args, **kwargs):
            (inside if depth[0] else outside).append(np.shape(A)[0])
            return solve_lyapunov(A, *args, **kwargs)

        for fn in (reduction.bt_reduce, reduction.abt_reduce, reduction.irka_reduce):
            _rebind_in_icmor(monkeypatch, fn, entered(fn))
        _rebind_in_icmor(monkeypatch, solve_lyapunov, solve)
        run_experiment(ExperimentConfig.from_dict(small_config(tmp_path)))
        assert outside == [] and inside.count(24) == 3

    def test_each_norm_measured_once(self, tmp_path, monkeypatch):
        # the input and x0 responses (calibration), the full output and one
        # error per method
        calls = []
        monkeypatch.setattr(experiment, "l2_norm",
                            lambda tr: calls.append(1) or l2_norm(tr))
        rep = run_experiment(ExperimentConfig.from_dict(small_config(tmp_path)))
        assert len(calls) == 3 + len(rep.report["methods"])

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

    def test_reduce_augbt(self, tmp_path):
        model_dir = str(tmp_path / "model")
        M = build_msd(8, m_inputs=2)
        basis = unit_vector_basis(M.n, [16])
        save_model(M, model_dir, basis=basis)
        out = str(tmp_path / "red")
        assert main(["reduce", "--model", model_dir, "--method", "augbt",
                     "--tol", "1e-2", "--out", out]) == 0
        with open(os.path.join(out, "offline.json")) as fh:
            r = json.load(fh)["orders"]["r_aug"]
        want = reduction.abt_reduce(M, M.with_input(basis.X0), OrderSelection.tolerance(1e-2))
        assert r == want.r
        assert np.allclose(read_matrix(os.path.join(out, "X0_red.mtx")), want.X0til)

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

    def test_usage_error_exit_code(self, tmp_path, capsys):
        # 2 is reserved for a bound violation
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(small_config(tmp_path, methods=["bt-bt"]), fh)
        assert main(["report", "--config", cfg_path, "--parallel"]) == 1
        assert main(["reduce", "--model", "builtin:msd", "--method", "bt-irka",
                     "--x0-indices", "300", "--seed", "0",
                     "--out", str(tmp_path / "red")]) == 1
        assert not os.path.exists(tmp_path / "red")
        assert main(["report", "--help"]) == 0
