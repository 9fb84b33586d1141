"""CLI verbs and the experiment harness."""

import argparse
import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import icmor
from icmor import (
    InitialConditionBasis, InputSignal, OrderSelection, build_msd, cli, experiment, linalg,
    load_model, reduction, save_model, simulation, unit_vector_basis,
)
from icmor._mmio import read_matrix, write_matrix
from icmor.cli import FLAGS, build_parser, main
from icmor.errors import ConfigError, InvalidParameter, MaxItersExceeded, NotStable
from icmor.experiment import (
    ExperimentConfig, _bound_holds, emit_report, run_experiment,
)
from icmor.linalg import solve_lyapunov
from icmor.simulation import l2_norm, suggest_grid

from conftest import _rebind_in_icmor, _verbs, golden_mismatches, record_kernels


# the chain of the paper's cases 1 and 2
PAPER_MODEL = {"kind": "msd", "n_masses": 150, "m_inputs": 10}


# the config fields whose values only run_experiment's set-up checks, where
# each is used: the methods, OrderSelection's tol and orders, load_model's
# files and the InputSignal constructors' parameters
SET_UP_FIELDS = ("methods", "tol", "order_", "model.path", "input.")


def _count_simulations(monkeypatch):
    """A list that gets one entry per ``simulate`` call from here on."""
    calls, original = [], simulation.simulate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    _rebind_in_icmor(monkeypatch, original, counted)
    return calls


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
        # the grid check rejects a horizon or dt <= 0 (test_bad_config_grid)
        ({"dt": float("nan")}, "dt"),
        ({"horizon": float("-inf")}, "horizon"),
        ({"tol": 0}, "tol"),
        ({"tol": 1.5}, "tol"),
        ({"order_x0": -1}, "order_x0"),
        ({"model": {"kind": "tank"}}, "model.kind"),
        ({"model": {"path": ".", "n_masses": 6}}, "model.n_masses"),
        ({"model": {"path": "no-such-model-directory"}}, "model.path"),
        # json reads NaN and Infinity as floats
        ({"horizon": float("nan")}, "horizon"),
        ({"horizon": float("inf")}, "horizon"),
        ({"z0": [float("nan")]}, "z0 entry"),
        ({"z0": [float("inf")]}, "z0 entry"),
        ({"input": {"amplitude": float("nan")}}, "input.amplitude"),
        ({"input": {"amplitude": float("inf")}}, "input.amplitude"),
        ({"model": {"kind": "msd", "n_masses": 12, "mass": float("nan")}}, "model.mass"),
        ({"model": {"kind": "msd", "n_masses": 12, "mass": float("inf")}}, "model.mass"),
        ({"horizon": 10**400}, "horizon"),  # an int no float can hold
        # values InputSignal.decaying_pulses rejects
        ({"input": {"period": 0}}, "input.period"),
        ({"input": {"period": -15}}, "input.period"),
        ({"input": {"width": 0}}, "input.width"),
        # a repeated method would run, and be timed, twice
        ({"methods": ["bt-bt", "augbt", "bt-bt"]}, "methods"),
        # a method no branch of run_experiment runs
        ({"methods": ["hankel-norm"]}, "methods"),
        # json reads 0 as an int, which is no bool
        ({"calibrate": 0}, "calibrate"),
    ])
    def test_malformed_field_is_named(self, tmp_path, capsys, monkeypatch, overrides, field):
        # the constructor checks the shape, from JSON or not, with one text;
        # a value of a SET_UP_FIELDS field passes it and is checked where it
        # is used, in run_experiment's set-up; either way before any simulation
        cfg = [small_config(tmp_path)] if overrides is None \
            else small_config(tmp_path, **overrides)
        calls = _count_simulations(monkeypatch)
        builders, texts = [ExperimentConfig.from_dict], []
        if overrides is not None:  # a list is no set of keyword arguments
            builders.append(lambda d: ExperimentConfig(**d))
        for build in builders:
            if field.startswith(SET_UP_FIELDS):
                loaded = build(cfg)
                with pytest.raises(ConfigError, match=rf"^{re.escape(field)}\b") as exc:
                    run_experiment(loaded)
            else:
                with pytest.raises(ConfigError, match=rf"^{re.escape(field)}\b") as exc:
                    build(cfg)
            texts.append(str(exc.value))
        assert len(set(texts)) == 1 and calls == []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["report", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {exc.value}"]
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("grid", [
        {"horizon": 0}, {"horizon": -1.0}, {"dt": 0}, {"dt": -0.1},
        {"horizon": 1.0, "dt": 3.0}, {"horizon": 1e300, "dt": 1e-10}],
        ids=["horizon-0", "horizon-negative", "dt-0", "dt-negative", "sub-step", "overflow"])
    def test_bad_config_grid(self, tmp_path, capsys, grid):
        # from_dict holds no grid rule: simulation._grid_steps rejects the
        # grid in run_experiment's set-up, with its own text
        with pytest.raises(InvalidParameter) as exc:
            suggest_grid(build_msd(12, m_inputs=3), grid.get("horizon"), grid.get("dt"))
        assert str(exc.value).startswith(f"{'dt' if 'dt' in grid else 'horizon'}: ")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(tmp_path, **grid)))
        assert main(["report", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {exc.value}"]
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_string_model_shorthand(self):
        cfg = ExperimentConfig.from_dict(
            {"model": "builtin:msd", "methods": ["bt-bt"]})
        assert cfg.model == {"kind": "msd"}
        assert ExperimentConfig(model="builtin:msd", methods=["bt-bt"]) == cfg


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

    def test_calibration_off_keeps_z0(self, tmp_path):
        # a nonzero input, where calibration would rescale z0
        rep = run_experiment(ExperimentConfig.from_dict(small_config(tmp_path, calibrate=False)))
        signals = rep.report["signals"]
        assert signals["u_l2"] > 0
        assert signals["calibration_scale"] == 1.0
        assert signals["z0_norm"] == np.linalg.norm(np.ones(1))
        assert rep.bound_ok

    def test_abt_scaling_off(self, tmp_path):
        # a basis column of norm 3 against unit input columns, so gamma = 1/3
        # with scaling on and the knob changes the augmented system
        model_dir = str(tmp_path / "model")
        M = build_msd(12, m_inputs=3)
        save_model(M, model_dir, basis=InitialConditionBasis(3.0 * unit_vector_basis(M.n, [24]).X0))
        rep = run_experiment(ExperimentConfig.from_dict(small_config(
            tmp_path, model={"path": model_dir}, x0_indices=None, methods=["augbt"],
            abt_scaling=False)))
        M, basis = load_model(model_dir)
        sel = OrderSelection.tolerance(1e-2)
        want = reduction.abt_reduce(M, M.with_input(basis.X0), sel, scaling=False)
        assert rep.report["methods"]["augbt"]["orders"]["r_aug"] == want.r
        assert np.array_equal(rep.hsv["eta"], want.hankel)
        scaled = reduction.abt_reduce(M, M.with_input(basis.X0), sel)
        assert not np.array_equal(scaled.hankel, want.hankel)

    def test_zero_input_config(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            small_config(tmp_path, input={"kind": "zero"}, calibrate=False))
        rep = run_experiment(cfg)
        assert rep.report["signals"]["u_l2"] == 0.0
        for res in rep.report["methods"].values():
            assert res["bound_ok"]

    @pytest.mark.parametrize("order, key, zero_parts", [
        ("order_u", "r_u", {"bt-bt": ["y_u"], "bt-irka": ["y_u"]}),
        ("order_x0", "r_x0", {"bt-bt": ["y_x0"], "bt-irka": ["y_x0"]}),
        ("order_aug", "r_aug", {"augbt": ["y_u", "y_x0"]}),
    ])
    def test_order_zero_branch(self, tmp_path, order, key, zero_parts):
        # one branch reduced to order 0: every method still reports, every
        # bound holds, and the order-0 branch contributes exactly nothing
        rep = run_experiment(ExperimentConfig.from_dict(small_config(tmp_path, **{order: 0})))
        methods = rep.report["methods"]
        assert sorted(methods) == ["augbt", "bt-bt", "bt-irka"]
        assert all(res["bound_ok"] for res in methods.values())
        for method, parts in zero_parts.items():
            assert methods[method]["orders"][key] == 0
            for part in parts:
                assert not np.any(rep.traces[method].components[part])

    # calls of order >= n in one run_experiment of the 12-mass config (n = 24,
    # m = 3), of reduced-order real Schur forms, and of Cholesky and eigvals
    # at any order; a change that raises a count updates this table and says
    # why.  The real Schur forms are of A, computed when the model is built,
    # and of A^T for Q; a reduced model computes its own form when it is
    # built (r_u, r_x0, r_aug and IRKA's 5 scored iterates), and every H2
    # scoring reads the forms of its two models, so it computes none.  Every
    # stability verdict reads a Schur form, so no eigvals runs.  The Gramian
    # factorizations are of P_B, P_X0 and Q; augmented BT takes its factor
    # from a QR of the first two, and each factor comes from eigh, with no
    # Cholesky tried.  All 24 eigenvalues of each Gramian are positive, so
    # the factors are 24 x 24 and the three Hankel SVDs are of order n.  The
    # Sylvester solves are the H2 errors of bt-bt's x0 map and of IRKA's 5
    # scored iterates; BT itself scores nothing.  IRKA's shifted solves are
    # 2 per iterate (the bases V and W); the Hermite derivative of the
    # returned iterate is read off its two.
    KERNEL_BUDGET = {"real Schur form": 2, "reduced-order real Schur form": 8,
                     "complex Schur form": 0, "solve_lyapunov": 3,
                     "Gramian factorization": 3, "Cholesky": 0, "Hankel SVD": 3,
                     "order-n SVD": 3, "eigvals": 0, "FOH expm": 1,
                     "n x r solve_sylvester": 6, "IRKA shifted_solve": 10}

    def test_order_n_kernel_budget(self, tmp_path, monkeypatch):
        budget = record_kernels(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_experiment(ExperimentConfig.from_dict(small_config(tmp_path)))
        assert budget(24, 3) == self.KERNEL_BUDGET

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

    def test_step_longer_than_the_horizon(self, tmp_path):
        # a step that rounds to no step on the horizon leaves nothing to
        # measure, so the config is rejected, not reported as a 0 error
        cfg = ExperimentConfig.from_dict(small_config(
            tmp_path, model={"kind": "msd", "n_masses": 6, "m_inputs": 6},
            x0_indices=[12], methods=["bt-bt", "augbt"], horizon=10.0, dt=100.0))
        with pytest.raises(ConfigError, match="^dt: "):
            run_experiment(cfg)

    def test_trace_ends_at_the_horizon(self, tmp_path):
        # dt = 0.35 does not divide 100: it is rounded to 286 steps
        cfg = ExperimentConfig.from_dict(small_config(
            tmp_path, model={"kind": "msd", "n_masses": 6, "m_inputs": 2},
            x0_indices=[12], methods=["bt-bt", "augbt"], horizon=100.0, dt=0.35))
        rep = run_experiment(cfg)
        grid = rep.report["grid"]
        assert grid == {"t_f": 100.0, "dt": 100.0 / 286}
        for tr in rep.traces.values():
            assert len(tr.t) == 287 and tr.t[-1] == pytest.approx(grid["t_f"], rel=1e-14)

    def test_step_that_divides_the_horizon_is_kept(self):
        # a dt that divides the horizon, and the default step, keep their bits
        M = build_msd(6, m_inputs=2)
        for t_f, dt in ((100.0, 0.1), (100.0, 0.5), (30.0, 0.075)):
            assert suggest_grid(M, t_f, dt) == (t_f, dt)
        t_f, dt = suggest_grid(M)
        assert dt == t_f / simulation.GRID_SAMPLES
        assert suggest_grid(M, 100.0) == (100.0, 100.0 / simulation.GRID_SAMPLES)

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
        # the real forms of A and A^T; IRKA and the H2 errors work on the one
        # of A, so no complex form and none of the balanced A (order 24
        # here, as nothing is deflated) is computed.  The order-22 forms
        # are of A11 and of IRKA's candidates.
        assert schur_calls.count(24) == 2
        assert schur_calls.complex == []

    def test_every_schur_form_through_one_helper(self, tmp_path, monkeypatch):
        # the OpenBLAS pools are released around each Schur form only when
        # every LAPACK dgees call comes from linalg._real_schur
        dgees, inside, outside = linalg._flapack.dgees, [], []

        def guarded(*args, **kwargs):
            caller = sys._getframe(1).f_code
            (inside if caller is linalg._real_schur.__code__ else outside).append(caller.co_name)
            return dgees(*args, **kwargs)

        monkeypatch.setattr(linalg._flapack, "dgees", guarded)
        run_experiment(ExperimentConfig.from_dict(small_config(tmp_path)))
        assert inside and outside == []

    def test_each_gramian_solved_once(self, tmp_path, lyapunov_orders):
        run_experiment(ExperimentConfig.from_dict(small_config(tmp_path)))
        # P of the input map and of aux, and the Q they share; the augmented
        # P comes from their factors, not from a third solve
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

    @pytest.mark.parametrize("fixed", [True, False], ids=["fixed", "tol"])
    @pytest.mark.parametrize("call, name, key", [
        (1, "input", "order_u"), (2, "x0", "order_x0"), (3, "augmented", "order_aug"),
    ], ids=["input", "x0", "augmented"])
    def test_unstable_truncation_names_its_order(self, tmp_path, monkeypatch, call, name, key,
                                                 fixed):
        # the three truncations build their reduced models in this order; the
        # one whose verdict fails names the order the config fixed, else tol
        built, model = [], reduction.StateSpaceModel

        def failing(*args, **kwargs):
            built.append(1)
            if len(built) == call:
                raise NotStable("A has stability margin 1.000e-03", 1e-3)
            return model(*args, **kwargs)

        monkeypatch.setattr(reduction, "StateSpaceModel", failing)
        cfg = ExperimentConfig.from_dict(small_config(tmp_path, **({key: 2} if fixed else {})))
        with pytest.raises(ConfigError, match=rf"^{key if fixed else 'tol'}: the {name} map's "
                           r"balanced truncation at order \d+ is not stable"):
            run_experiment(cfg)

    @pytest.mark.parametrize("overrides, message", [
        ({"methods": ["hankel-norm"]}, "methods: unknown method 'hankel-norm'"),
        ({"methods": ["bt-bt", "bt-bt"]}, "methods: must be distinct, got ['bt-bt', 'bt-bt']"),
        ({"methods": []}, "methods: at least one method required"),
        ({"tol": 5.0}, "tol: must lie in (0, 1), got 5.0"),
        ({"order_u": -1}, "order_u: must be >= 0, got -1"),
        ({"model": {"path": "missing"}},
         "model.path: No such file or directory: 'missing/A.mtx'"),
    ], ids=["unknown-method", "repeated-method", "no-method", "tol", "order_u", "model.path"])
    def test_constructor_config_is_checked(self, tmp_path, monkeypatch, overrides, message):
        # a config built without from_dict gets every value rule, named by
        # its field, before the first simulation
        monkeypatch.chdir(tmp_path)
        calls = _count_simulations(monkeypatch)
        with pytest.raises(ConfigError) as exc:
            run_experiment(ExperimentConfig(**small_config(tmp_path, **overrides)))
        assert str(exc.value) == message and calls == []

    def test_determinism(self, tmp_path):
        cfg = small_config(tmp_path)
        r1 = run_experiment(ExperimentConfig.from_dict(cfg))
        r2 = run_experiment(ExperimentConfig.from_dict(cfg))
        assert json.dumps(r1.report, sort_keys=True) == \
            json.dumps(r2.report, sort_keys=True)


class TestGoldenNumbers:
    def test_report_matches_golden(self, tmp_path):
        rep = run_experiment(ExperimentConfig.from_dict(small_config(tmp_path)))
        assert golden_mismatches(rep.report, "mass12") == []

    @pytest.mark.parametrize("name, overrides", [
        ("mass12", {}),
        # the paper's cases, as test_acceptance runs them
        ("case1", {"model": PAPER_MODEL, "x0_indices": [300]}),
        ("case2", {"model": PAPER_MODEL, "x0_indices": [30]}),
    ], ids=["mass12", "case1", "case2"])
    def test_one_blas_thread_matches_golden(self, tmp_path, name, overrides):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(tmp_path, **overrides)))
        src = os.path.dirname(os.path.dirname(os.path.abspath(icmor.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "icmor.cli", "report", "--config", str(cfg_path)],
                       env=env, check=True, capture_output=True)
        report = json.loads((tmp_path / "results" / "report.json").read_text())
        assert golden_mismatches(report, name) == []

    def test_pool_release_moves_no_bit(self, tmp_path, monkeypatch):
        def files(out):
            cfg = ExperimentConfig.from_dict(small_config(tmp_path, out=str(out)))
            emit_report(run_experiment(cfg), str(out))
            return [(out / name).read_bytes() for name in ("report.json", "hsv.csv")]

        released = files(tmp_path / "released")
        monkeypatch.setattr(linalg, "_BLAS_RELEASES", ())
        assert files(tmp_path / "kept") == released


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

    def test_trace_and_error_csv_layouts(self, tmp_path):
        # p = 1: a trace holds t, y and its two parts, an error file full - method
        out = tmp_path / "results"
        cfg = ExperimentConfig.from_dict(small_config(tmp_path, out=str(out)))
        emit_report(run_experiment(cfg), str(out))

        def read(name):
            with open(out / name) as fh:
                return fh.readline().strip(), np.loadtxt(fh, delimiter=",")

        _, full = read("trace_full.csv")
        for method in ["full", *cfg.methods]:
            header, trace = read(f"trace_{method}.csv")
            assert header == "t,y1,yu_1,yx0_1" and trace.shape == full.shape
            if method != "full":
                header, err = read(f"error_{method}.csv")
                assert header == "t,e1"
                assert np.array_equal(err, np.column_stack([trace[:, 0],
                                                            full[:, 1] - trace[:, 1]]))

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

    def test_bench_msd_defaults(self, tmp_path):
        # no flags: the model of build_msd's own defaults
        out = str(tmp_path / "bench")
        assert main(["bench", "msd", "--out", out]) == 0
        M, basis = load_model(out)
        want = build_msd()
        assert basis is None
        for name in ("A", "B", "C"):
            assert np.array_equal(getattr(M, name), getattr(want, name)), name

    @pytest.mark.parametrize("verb, lacking", [
        pytest.param("reduce", None, id="verb0"),
        pytest.param("simulate", None, id="verb1"),
        pytest.param("reduce", "A.mtx", id="reduce-A.mtx"),
        pytest.param("simulate", "B.mtx", id="simulate-B.mtx"),
        pytest.param("report", "C.mtx", id="report-C.mtx"),
    ])
    def test_missing_model_directory(self, tmp_path, capsys, verb, lacking):
        # no directory at all, or one that lacks one of the three matrices
        model = str(tmp_path / "model")
        if lacking is not None:
            save_model(build_msd(4, m_inputs=1), model)
            os.remove(os.path.join(model, lacking))
        out = str(tmp_path / "out")
        if verb == "report":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(small_config(tmp_path, model=model, x0_indices=[1])))
            argv = ["report", "--config", str(cfg), "--out", out]
        else:
            argv = [verb, "--model", model, "--x0-indices", "1", "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        name = "model.path" if verb == "report" else "--model"
        assert len(err) == 1 and err[0].startswith(f"error: {name}: ")
        assert (lacking or "A.mtx") in err[0]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("name, text, message", [
        ("A.mtx", "%%MatrixMarket matrix coordinate real general\n-1 6 0\n",
         "{path}:2: negative size"),
        ("B.mtx", "%%MatrixMarket matrix array real general\n-1 -2\n1\n2\n",
         "{path}:2: negative size"),
        ("C.mtx", "%%MatrixMarket matrix array real symmetric\n-1 3\n", "{path}:2: negative size"),
        # Matrix Market symmetric matrices are square
        ("B.mtx", "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n",
         "{path}:2: symmetric matrix is not square"),
        ("B.mtx", "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n",
         "{path}:2: symmetric matrix is not square"),
        # files that parse but give no stable model of order 6 or no basis
        ("B.mtx", "%%MatrixMarket matrix array real general\n2 1\n1\n1\n",
         "B has 2 rows, expected 6"),
        ("A.mtx", "%%MatrixMarket matrix coordinate real general\n6 6 1\n1 1 1.0\n",
         "A has stability margin 1.000e+00"),
        ("B.mtx", "%%MatrixMarket matrix array real general\n6 1\n0\nx\n0\n0\n0\n0\n",
         "{path}:4: bad value 'x'"),
        ("X0.mtx", "%%MatrixMarket matrix array real general\n2 1\n1\n1\n",
         "X0 has 2 rows, model order is 6"),
        ("X0.mtx", "%%MatrixMarket matrix coordinate real general\n6 1 0\n",
         "X0 is numerically rank deficient"),
    ], ids=["coordinate", "array", "array-symmetric", "coordinate-non-square-symmetric",
            "array-non-square-symmetric", "B-rows", "unstable-A", "bad-value", "X0-rows",
            "X0-rank"])
    def test_negative_size_is_one_error_line(self, tmp_path, capsys, name, text, message):
        # every error load_model raises names the model directory: the
        # config field in a report, the flag in simulate
        model = tmp_path / "model"
        save_model(build_msd(3, m_inputs=1), str(model))
        (model / name).write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(tmp_path, model=str(model), x0_indices=[1])))
        out = tmp_path / "out"
        for argv, field in ((["report", "--config", str(cfg)], "model.path"),
                            (["simulate", "--model", str(model), "--out", str(out / "a.csv")],
                             "--model")):
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"error: {field}: {message.format(path=model / name)}")
        assert not (tmp_path / "results").exists() and not out.exists()

    @pytest.mark.parametrize("verb", ["bench", "simulate", "report"])
    def test_model_too_large_to_allocate_is_one_error_line(self, tmp_path, capsys, verb):
        # an order-1e9 A needs 8e18 bytes, more than any address space, so
        # numpy's MemoryError comes at once, with no memory touched; a size
        # that fits could be granted lazily under memory overcommit
        out = tmp_path / "out"
        if verb == "simulate":
            model = tmp_path / "model"
            save_model(build_msd(3, m_inputs=1), str(model))
            (model / "A.mtx").write_text(
                "%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 0\n")
            argv = ["simulate", "--model", str(model), "--out", str(out / "a.csv")]
            field = "--model"
        elif verb == "bench":
            argv = ["bench", "msd", "--n-masses", "500000000", "--out", str(out)]
            field = "--n-masses"
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(small_config(
                tmp_path, model={"kind": "msd", "n_masses": 500000000, "m_inputs": 3})))
            argv = ["report", "--config", str(cfg), "--out", str(out)]
            field = "model.n_masses"
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field}: too large to allocate (")
        assert not out.exists()

    def test_zero_initial_condition_basis_is_one_error_line(self, tmp_path, capsys):
        model = str(tmp_path / "model")
        save_model(build_msd(3, m_inputs=1), model)
        write_matrix(os.path.join(model, "X0.mtx"), np.zeros((6, 1)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(tmp_path, model=model, x0_indices=None)))
        assert main(["report", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: model.path: X0 is numerically rank deficient")
        assert "nan" not in err[0]

    def test_wide_initial_condition_basis_is_one_error_line(self, tmp_path, capsys):
        model = str(tmp_path / "model")
        save_model(build_msd(2, m_inputs=1), model)
        write_matrix(os.path.join(model, "X0.mtx"),
                     np.random.default_rng(0).standard_normal((4, 5)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(tmp_path, model=model, x0_indices=None)))
        assert main(["report", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: model.path: X0 has 5 columns but only 4 rows, so it cannot "
                       "have full column rank"]

    def test_one_table_of_input_kinds(self, tmp_path):
        # the --input choices and the kinds a config may name are
        # simulation.INPUT_KINDS, each an InputSignal constructor of m
        kinds = simulation.INPUT_KINDS
        parser = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices["simulate"]
        flag = next(a for a in parser._actions if "--input" in a.option_strings)
        assert flag.choices == kinds and flag.default == kinds[0]

        def accepted(kind):
            try:
                experiment._build_input({"kind": kind}, 3)
            except ConfigError:
                return False
            return True

        names = [name for name in vars(InputSignal) if not name.startswith("_")]
        assert {name for name in names + ["bogus"] if accepted(name)} == set(kinds)
        assert ExperimentConfig.from_dict({"model": "builtin:msd", "methods": ["bt-bt"]}).input \
            == {"kind": kinds[0]}
        for kind in kinds:
            assert next(iter(inspect.signature(getattr(InputSignal, kind)).parameters)) == "m"

    @pytest.mark.parametrize("flag, value", [
        ("--order-u", "-1"), ("--order-x0", "-1"), ("--tol", "0")])
    def test_reduce_rejects_out_of_range_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "red"
        assert main(["reduce", "--model", "builtin:msd", "--x0-indices", "300",
                     flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag}: must")
        assert not out.exists()

    @pytest.mark.parametrize("flags, flag", [
        (["--mass", "nan"], "--mass"),
        (["--damping", "inf"], "--damping"),
        (["--mass", "0"], "--mass"),
        (["--n-masses", "0"], "--n-masses"),
        (["--n-masses", "6", "--m-inputs", "99"], "--m-inputs"),
        (["--n-masses", "3", "--m-inputs", "1", "--x0-indices", "2", "2"], "--x0-indices"),
        (["--n-masses", "3", "--m-inputs", "1", "--x0-indices", "0"], "--x0-indices"),
        # finite values whose chain is not: ||A||_F^2 overflows, or 1/mass
        (["--n-masses", "3", "--m-inputs", "1", "--stiffness", "1e300"], "--stiffness"),
        (["--n-masses", "3", "--m-inputs", "1", "--damping", "1e308"], "--damping"),
        (["--n-masses", "3", "--m-inputs", "1", "--mass", "1e-310"], "--mass"),
        (["--n-masses", "3", "--m-inputs", "1", "--mass", "1e300", "--damping", "1e-3"],
         "--mass, --damping"),
    ])
    def test_bench_msd_names_the_flag_it_rejects(self, tmp_path, capsys, flags, flag):
        out = tmp_path / "bench"
        assert main(["bench", "msd", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag}: ")
        assert not out.exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"model": {"kind": "msd", "n_masses": 3, "m_inputs": 1, "mass": 0}}, "model.mass"),
        ({"model": {"kind": "msd", "n_masses": 3, "m_inputs": 5}}, "model.m_inputs"),
        ({"model": {"kind": "msd", "n_masses": 0}}, "model.n_masses"),
        ({"model": {"kind": "msd", "n_masses": 3, "m_inputs": 1}, "x0_indices": [2, 2]},
         "x0_indices"),
        ({"model": {"kind": "msd", "n_masses": 3, "m_inputs": 1}, "x0_indices": [0]},
         "x0_indices"),
        # L2 norms that overflow: of the input, and of the x0 response
        ({"model": {"kind": "msd", "n_masses": 6, "m_inputs": 2}, "x0_indices": [12],
          "input": {"kind": "decaying_sinusoid", "decay": -1.0}}, "input"),
        ({"model": {"kind": "msd", "n_masses": 6, "m_inputs": 2}, "x0_indices": [12],
          "input": {"kind": "decaying_pulses", "amplitude": 1e300}}, "input"),
        ({"model": {"kind": "msd", "n_masses": 6, "m_inputs": 2}, "x0_indices": [12],
          "z0": [1e305]}, "z0"),
        # a chain too lightly damped to be numerically stable names each
        # parameter the config sets
        ({"model": {"kind": "msd", "n_masses": 3, "m_inputs": 1, "mass": 1e300,
                    "damping": 1e-3}}, "model.mass, model.damping"),
    ])
    def test_report_names_the_field_out_of_range(self, tmp_path, capsys, overrides, field):
        # caught when the model is built or the full model simulated, not by
        # from_dict; one error line, no traceback and no file
        cfg = small_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: "):
            run_experiment(ExperimentConfig.from_dict(cfg))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["report", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field}: ")
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("text, message", [
        # one x0 index, two coordinates
        (lambda cfg: json.dumps({**cfg, "z0": [1.0, 2.0]}), "z0: expected 1 coordinates"),
        (lambda cfg: json.dumps(cfg)[:-1], "invalid JSON"),
    ], ids=["z0-length", "invalid-json"])
    def test_report_error_is_one_line(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text(small_config(tmp_path)))
        assert main(["report", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_report_names_the_unstable_fixed_order(self, tmp_path, capsys):
        # case1's input map truncated at order 57 is not stable (ROADMAP item
        # 14): one line naming order_u, the map and the order, no traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(tmp_path, model=PAPER_MODEL, x0_indices=[300],
                                               methods=["bt-bt"], order_u=57)))
        assert main(["report", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: order_u: the input map's balanced truncation at order 57 is not stable")

    @pytest.mark.parametrize("fixed", [False, True], ids=["tol", "fixed"])
    @pytest.mark.parametrize("method", experiment.KNOWN_METHODS)
    def test_reduce_writes_the_library_reduction(self, tmp_path, method, fixed):
        # every matrix reduce writes is, bit for bit, the library's reduction
        # at the same orders; augbt's --order-u sets r_aug
        model_dir = str(tmp_path / "model")
        M = build_msd(8, m_inputs=2)
        save_model(M, model_dir, basis=unit_vector_basis(M.n, [16]))
        orders = ["--order-u", "3", *(["--order-x0", "2"] if method != "augbt" else [])]
        out = tmp_path / "red"
        assert main(["reduce", "--model", model_dir, "--method", method, "--tol", "1e-2",
                     *(orders if fixed else []), "--out", str(out)]) == 0
        M, basis = load_model(model_dir)
        sel_u, sel_x0 = ((OrderSelection.fixed(3), OrderSelection.fixed(2)) if fixed
                         else (OrderSelection.tolerance(1e-2),) * 2)
        if method == "augbt":
            R = reduction.abt_reduce(M, M.with_input(basis.X0), sel_u)
            systems, want, r = {"red": R.sys}, {"X0_red": R.X0til}, {"r_aug": R.r}
        else:
            S = reduction.split_reduce(M, basis, sel_u, sel_x0,
                                       x0_method=experiment.SPLIT_METHODS[method])
            systems, want, r = {"u": S.suy.sys, "x0": S.sxy.sys}, {}, \
                {"r_u": S.suy.r, "r_x0": S.sxy.r}
        want.update({f"{name}_{tag}": getattr(red, name)
                     for tag, red in systems.items() for name in "ABC"})
        assert json.loads((out / "offline.json").read_text()) == {"method": method, "orders": r}
        assert sorted(os.listdir(out)) == sorted([f"{key}.mtx" for key in want] + ["offline.json"])
        for key, matrix in want.items():
            assert np.array_equal(read_matrix(str(out / f"{key}.mtx")), matrix), key
        if fixed:
            assert list(r.values()) == ([3] if method == "augbt" else [3, 2])

    def test_reduce_names_the_unstable_fixed_order(self, tmp_path, capsys):
        # the input map of test_report_names_the_unstable_fixed_order: one
        # line naming the flag, and the --out directory is made only once the
        # reduction returns, so none is left behind
        out = tmp_path / "red57"
        assert main(["reduce", "--model", "builtin:msd", "--x0-indices", "300",
                     "--order-u", "57", "--out", str(out / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: --order-u: the input map's balanced truncation at order 57 is not stable")
        assert not out.exists()

    @pytest.mark.parametrize("fixed", [True, False], ids=["fixed", "tol"])
    @pytest.mark.parametrize("method, call, name, flag", [
        ("bt-bt", 1, "input", "--order-u"), ("bt-bt", 2, "x0", "--order-x0"),
        ("augbt", 1, "augmented", "--order-u"),
    ], ids=["input", "x0", "augmented"])
    def test_reduce_names_the_flag_of_an_unstable_truncation(self, tmp_path, capsys, monkeypatch,
                                                             method, call, name, flag, fixed):
        # as test_unstable_truncation_names_its_order: the truncation whose
        # verdict fails names the flag that fixed its order, else --tol
        model_dir = str(tmp_path / "model")
        M = build_msd(8, m_inputs=2)
        save_model(M, model_dir, basis=unit_vector_basis(M.n, [16]))
        built, model = [], reduction.StateSpaceModel

        def failing(*args, **kwargs):
            built.append(1)
            if len(built) == call:
                raise NotStable("A has stability margin 1.000e-03", 1e-3)
            return model(*args, **kwargs)

        monkeypatch.setattr(reduction, "StateSpaceModel", failing)
        out = tmp_path / "red"
        assert main(["reduce", "--model", model_dir, "--method", method,
                     *([flag, "2"] if fixed else []), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.match(rf"error: {flag if fixed else '--tol'}: the {name} "
                                          r"map's balanced truncation at order \d+ is not stable",
                                          err[0]), err
        assert not out.exists()

    def test_reduce_augbt_rejects_order_x0(self, tmp_path, capsys):
        out = tmp_path / "red"
        assert main(["reduce", "--model", "builtin:msd", "--x0-indices", "300",
                     "--method", "augbt", "--order-x0", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --order-x0: ")
        assert "--order-u sets r_aug" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("method", ["augbt", "bt-bt"])
    def test_reduce_requires_basis(self, tmp_path, capsys, method):
        # no --x0-indices, and a model directory without X0.mtx
        model_dir = str(tmp_path / "model")
        save_model(build_msd(5, m_inputs=2), model_dir)
        out = tmp_path / "red"
        assert main(["reduce", "--model", model_dir, "--method", method,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --x0-indices: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["bench", "msd", "--n-masses", "3", "--m-inputs", "1", "--out", "{file}"],
        ["simulate", "--model", "builtin:msd", "--tf", "10", "--out", "{file}/t.csv"],
        ["reduce", "--model", "builtin:msd", "--x0-indices", "300", "--out", "{file}"],
        ["report", "--config", "{missing}"],
        ["report", "--config", "{config}", "--out", "{file}"],
    ], ids=["bench-msd", "simulate", "reduce", "report", "report-out"])
    def test_unusable_path_is_one_error_line(self, tmp_path, capsys, monkeypatch, argv):
        # an output path that is, or lies under, a regular file, and a config
        # file that does not exist: an OSError is one line, not a traceback,
        # and it is found before the experiment or the simulation runs
        def ran(*args, **kwargs):
            pytest.fail("the work ran before the output path was checked")

        monkeypatch.setattr(cli, "run_experiment", ran)
        monkeypatch.setattr(cli, "simulate", ran)
        file = tmp_path / "file"
        file.write_text("")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(small_config(tmp_path)))
        assert main([arg.format(file=file, missing=tmp_path / "no-such.json", config=config)
                     for arg in argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert file.read_text() == ""

    def test_flags_match_the_parser(self):
        # FLAGS names only flags the parser has, and every flag of bench msd,
        # reduce and simulate that sets a config field
        verbs = _verbs(build_parser())
        assert set(FLAGS.values()) <= set().union(*verbs.values())
        others = {"-h", "--help", "--out", "--model", "--method", "--input"}
        for verb in [("bench", "msd"), ("reduce",), ("simulate",)]:
            assert verbs[verb] - others <= set(FLAGS.values()), verb

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

    def test_simulate_csv_holds_the_output(self, tmp_path):
        # with x0 the run steps both parts; the file holds their sum alone
        model_dir = str(tmp_path / "model")
        M = build_msd(6, m_inputs=2)
        save_model(M, model_dir)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--model", model_dir, "--x0-indices", "12", "--tf", "50",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            assert fh.readline().strip() == "t,y1"
            data = np.loadtxt(fh, delimiter=",")
        t_f, dt = suggest_grid(M, 50.0)
        tr = simulation.simulate(M, InputSignal.decaying_pulses(2),
                                 unit_vector_basis(M.n, [12]).X0[:, 0], t_f, dt)
        assert np.array_equal(data, np.column_stack([tr.t, tr.y]))

    @pytest.mark.parametrize("verb, grid", [
        ("simulate", {"horizon": 100.0, "dt": 1e-320}), ("report", {"dt": 1e-320}),
        ("report", {"horizon": 1e300, "dt": 1e-10})], ids=["simulate", "report", "report-horizon"])
    def test_step_count_that_overflows_is_one_error_line(self, tmp_path, capsys, verb, grid):
        # t_f / dt overflows to inf, which no step count rounds from
        out = str(tmp_path / "out")
        if verb == "report":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(small_config(tmp_path, methods=["bt-bt"], **grid)))
            argv = ["report", "--config", str(cfg), "--out", out]
        else:
            argv = ["simulate", "--model", "builtin:msd", "--tf", str(grid["horizon"]),
                    "--dt", str(grid["dt"]), "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        flag = "dt" if verb == "report" else "--dt"
        assert len(err) == 1 and err[0].startswith(f"error: {flag}: ")
        assert "a step count that overflows" in err[0]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("verb", ["report", "simulate"])
    def test_step_too_small_to_allocate_is_one_error_line(self, tmp_path, capsys, verb):
        # 4e16 steps: numpy's MemoryError for 2.78 EiB of samples ended in a
        # traceback; no cap on the step count decides it
        out = str(tmp_path / "out")
        if verb == "report":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(small_config(tmp_path, methods=["bt-bt"],
                                                   horizon=400.0, dt=1e-14)))
            argv = ["report", "--config", str(cfg), "--out", out]
        else:
            argv = ["simulate", "--model", "builtin:msd", "--tf", "400", "--dt", "1e-14",
                    "--out", os.path.join(out, "t.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        flag = "dt" if verb == "report" else "--dt"
        assert err == [f"error: {flag}: 1e-14 gives 4e+16 steps on the horizon "
                       "t_f = 400.0, too many to allocate"]
        # simulate makes the output's directory only once the trace is computed
        assert not os.path.exists(out)

    @pytest.mark.parametrize("verb, dt", [("report", 100.0), ("simulate", 100.0),
                                          ("simulate", 0.0)])
    def test_dt_without_a_step_writes_nothing(self, tmp_path, capsys, verb, dt):
        out = str(tmp_path / "out")
        if verb == "report":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(small_config(
                tmp_path, methods=["bt-bt", "augbt"], horizon=10.0, dt=dt)))
            argv = ["report", "--config", str(cfg), "--out", out]
        else:
            argv = ["simulate", "--model", "builtin:msd", "--tf", "10", "--dt", str(dt),
                    "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        # simulate names its flag, report the config field
        flag = "dt" if verb == "report" else "--dt"
        assert len(err) == 1 and err[0].startswith(f"error: {flag}: ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag, value", [
        ("--tf", "inf"), ("--tf", "nan"), ("--tf", "-1"), ("--dt", "nan"), ("--dt", "-1")])
    def test_simulate_rejects_grid_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sim" / "t.csv"
        assert main(["simulate", "--model", "builtin:msd", flag, value,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag}: must be a finite number > 0")
        assert not out.parent.exists()

    def test_report_verb_and_exit_code(self, tmp_path, capsys):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(small_config(tmp_path, methods=["bt-bt"]), fh)
        rc = main(["report", "--config", cfg_path])
        assert rc == 0
        out = small_config(tmp_path)["out"]
        assert os.path.exists(os.path.join(out, "report.json"))
        # stdout is the summary table, then the count of files written
        with open(os.path.join(out, "summary.txt")) as fh:
            table = fh.read()
        stdout = capsys.readouterr().out
        assert stdout.startswith(table)
        assert stdout[len(table):] == f"wrote {len(os.listdir(out))} files to {out}\n"

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
