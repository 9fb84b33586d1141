"""End-to-end experiment harness: build or load a model, reduce it with
the requested methods, simulate everything, and evaluate bounds against
measured errors."""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import abt_bound, split_bound
from .errors import ConfigError
from .gramians import gramian_factors, hankel_spectrum
from .model import (
    InitialConditionBasis,
    StateSpaceModel,
    build_msd,
    load_model,
    unit_vector_basis,
)
from .reduction import OrderSelection, abt_reduce, augmented_system, split_reduce
from .simulation import (
    InputSignal,
    SimulationTrace,
    l2_norm,
    online_phase,
    relative_errors,
    simulate,
    suggest_grid,
    superpose,
)

__all__ = ["ExperimentConfig", "ReductionReport", "run_experiment", "emit_report"]

KNOWN_METHODS = ("augbt", "bt-bt", "bt-irka")


@dataclass
class ExperimentConfig:
    model: dict
    methods: list
    x0_indices: list = None
    z0: list = None
    tol: float = 1e-2
    order_u: int = None
    order_x0: int = None
    order_aug: int = None
    input: dict = field(default_factory=lambda: {"kind": "decaying_pulses"})
    horizon: float = None
    dt: float = None
    seed: int = 0
    out: str = "results"
    calibrate: bool = True
    abt_scaling: bool = True
    parallel: bool = False

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "model" not in d:
            raise ConfigError("model: required")
        d["model"] = _model_spec(d["model"])
        methods = d.get("methods")
        if not methods:
            raise ConfigError("methods: at least one method required")
        for m in methods:
            if m not in KNOWN_METHODS:
                raise ConfigError(f"methods: unknown method '{m}'")
        known = set(cls.__dataclass_fields__)
        for key in d:
            if key not in known:
                raise ConfigError(f"{key}: unknown config field")
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            try:
                return cls.from_dict(json.load(fh))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})")


@dataclass
class ReductionReport:
    """Machine-readable experiment outcome plus the arrays behind it."""

    report: dict
    traces: dict
    hsv: dict
    timings: dict

    @property
    def bound_ok(self):
        return all(
            res.get("bound_ok", True) for res in self.report["methods"].values()
        )


def _model_spec(model):
    """Normalize a model entry: ``"builtin:msd"``, a model directory, or a
    dict with ``kind`` or ``path``."""
    if isinstance(model, str):
        model = {"kind": "msd"} if model == "builtin:msd" else {"path": model}
    if not isinstance(model, dict) or not ("kind" in model or "path" in model):
        raise ConfigError("model: need 'kind' or 'path'")
    return model


def _build_model(spec, x0_indices=None):
    """The model of a normalized spec and its basis: unit vectors at
    ``x0_indices`` when given, else the model directory's ``X0.mtx``, else
    None."""
    if "path" in spec:
        M, basis = load_model(spec["path"])
    elif spec.get("kind") != "msd":
        raise ConfigError(f"model.kind: unknown builtin '{spec.get('kind')}'")
    else:
        kwargs = {k: spec[k] for k in ("n_masses", "mass", "stiffness", "damping", "m_inputs")
                  if k in spec}
        kwargs.setdefault("n_masses", 150)
        kwargs.setdefault("m_inputs", 10)
        M, basis = build_msd(**kwargs), None
    if x0_indices is not None:
        basis = unit_vector_basis(M.n, x0_indices)
    return M, basis


def _build_input(spec, m):
    spec = dict(spec or {"kind": "decaying_pulses"})
    kind = spec.pop("kind", "decaying_pulses")
    if kind == "zero":
        return InputSignal.zero(m)
    if kind == "decaying_pulses":
        return InputSignal.decaying_pulses(m, **spec)
    if kind == "decaying_sinusoid":
        return InputSignal.decaying_sinusoid(m, **spec)
    raise ConfigError(f"input.kind: unknown kind '{kind}'")


def _selection(order, tol):
    return OrderSelection.fixed(order) if order is not None else OrderSelection.tolerance(tol)


def _grid(M, horizon=None, dt=None):
    """Horizon and step: the decay horizon of ``M`` with 4000 steps, or the
    given horizon with 4000 steps; a given ``dt`` overrides the step."""
    t_f, step = suggest_grid(M)
    if horizon is not None:
        t_f = float(horizon)
        step = t_f / 4000.0
    if dt is not None:
        step = float(dt)
    return t_f, step


def _scaled_trace(tr, factor):
    return SimulationTrace(t=tr.t, y=tr.y * factor, provenance=dict(tr.provenance))


def run_experiment(cfg: ExperimentConfig) -> ReductionReport:
    """Run the full workflow for every configured method.

    Deterministic given the seed; wall-clock timings are collected
    separately from the numerical report so repeated runs produce identical
    report content.
    """
    timings = {}
    t0 = time.perf_counter()
    M, basis = _build_model(cfg.model, cfg.x0_indices)
    if basis is None:
        basis = InitialConditionBasis(np.zeros((M.n, 0)))
    n0 = basis.n0
    z0 = np.ones(n0) if cfg.z0 is None else np.asarray(cfg.z0, dtype=float)
    if z0.shape != (n0,):
        raise ConfigError(f"z0: expected {n0} coordinates, got {z0.shape}")
    u = _build_input(cfg.input, M.m)
    t_f, dt = _grid(M, cfg.horizon, cfg.dt)
    timings["setup"] = time.perf_counter() - t0

    # Hankel spectra of the three relevant systems (for reporting and the
    # order-selection story).
    t0 = time.perf_counter()
    sigma = hankel_spectrum(gramian_factors(M)).sigma
    aux = StateSpaceModel(M.A, basis.X0, M.C)
    theta = hankel_spectrum(gramian_factors(aux)).sigma
    Maug, _ = augmented_system(M, basis.X0, cfg.abt_scaling)
    eta = hankel_spectrum(gramian_factors(Maug)).sigma
    timings["gramians"] = time.perf_counter() - t0

    # Full-order component responses; rescale the initial condition so both
    # components carry comparable energy when calibration is on.
    t0 = time.perf_counter()
    u_l2 = u.l2_norm(t_f, dt) if u.kind != "zero" else 0.0
    tr_u = simulate(M, u, None, t_f, dt)
    tr_x0 = simulate(M, None, basis.X0 @ z0, t_f, dt)
    cal = 1.0
    nu, nx = l2_norm(tr_u), l2_norm(tr_x0)
    if cfg.calibrate and nu > 0 and nx > 0:
        cal = nu / nx
        z0 = z0 * cal
        tr_x0 = _scaled_trace(tr_x0, cal)
    tr_full = superpose(tr_u, tr_x0)
    x0 = basis.X0 @ z0
    z0_norm = float(np.linalg.norm(z0))
    timings["full_simulation"] = time.perf_counter() - t0

    def run_method(method):
        mt = {}
        t0 = time.perf_counter()
        if method == "augbt":
            sel = _selection(cfg.order_aug, cfg.tol)
            R = abt_reduce(M, basis, sel, scaling=cfg.abt_scaling)
            orders = {"r_aug": R.r}
            mt["reduce"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            tr = simulate(R.sys, u, R.X0til @ z0, t_f, dt)
            mt["simulate"] = time.perf_counter() - t1
            t1 = time.perf_counter()
            bound, term_u, term_x0 = abt_bound(M, R, basis, u_l2, z0_norm)
            budget = {"input_term": term_u, "x0_term": term_x0}
            mt["bounds"] = time.perf_counter() - t1
        else:
            x0_method = "irka" if method == "bt-irka" else "bt"
            S = split_reduce(
                M, basis,
                _selection(cfg.order_u, cfg.tol),
                _selection(cfg.order_x0, cfg.tol),
                x0_method=x0_method,
                irka_opts={"seed": cfg.seed},
            )
            orders = {"r_u": S.suy.r, "r_x0": S.sxy.r}
            mt["reduce"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            tr = online_phase(S, u, x0, t_f, dt)
            mt["simulate"] = time.perf_counter() - t1
            t1 = time.perf_counter()
            bound, eb = split_bound(S, u_l2, z0_norm)
            budget = {"e1": eb.e1, "e2": eb.e2, "e2_is_h2_error": eb.e2_is_h2_error}
            mt["bounds"] = time.perf_counter() - t1

        diff = SimulationTrace(t=tr_full.t, y=tr_full.y - tr.y)
        abs_l2 = l2_norm(diff)
        ref = l2_norm(tr_full)
        res = {
            "orders": orders,
            "abs_l2_error": abs_l2,
            "bound": bound,
            "budget": budget,
            # the error norm is measured by quadrature on a finite grid, so
            # the check carries a small relative slack for the near-equality
            # cases where the a priori bound is essentially attained
            "bound_ok": bool(abs_l2 <= bound * (1.0 + 1e-3) + 1e-300),
        }
        if ref > 1e-300:
            res.update(relative_errors(tr_full, tr))
        return method, res, tr, mt

    t0 = time.perf_counter()
    if cfg.parallel and len(cfg.methods) > 1:
        with ThreadPoolExecutor(max_workers=len(cfg.methods)) as pool:
            outcomes = list(pool.map(run_method, cfg.methods))
    else:
        outcomes = [run_method(m) for m in cfg.methods]
    timings["methods_total"] = time.perf_counter() - t0

    traces = {"full": tr_full}
    methods_report = {}
    for method, res, tr, mt in outcomes:
        methods_report[method] = res
        traces[method] = tr
        timings[method] = mt

    report = {
        "config": {
            "model": cfg.model,
            "methods": list(cfg.methods),
            "x0_indices": cfg.x0_indices,
            "tol": cfg.tol,
            "orders_requested": {
                "order_u": cfg.order_u, "order_x0": cfg.order_x0,
                "order_aug": cfg.order_aug,
            },
            "input": cfg.input,
            "seed": cfg.seed,
            "calibrate": cfg.calibrate,
            "abt_scaling": cfg.abt_scaling,
        },
        "model": {"n": M.n, "m": M.m, "p": M.p, "n0": n0},
        "grid": {"t_f": t_f, "dt": dt},
        "signals": {
            "u_l2": u_l2,
            "z0_norm": z0_norm,
            "calibration_scale": cal,
            "y_full_l2": l2_norm(tr_full),
        },
        "methods": methods_report,
    }
    return ReductionReport(
        report=report,
        traces=traces,
        hsv={"sigma": sigma, "theta": theta, "eta": eta},
        timings=timings,
    )


def _write_trace_csv(path, tr):
    p = tr.y.shape[1]
    cols = [tr.t] + [tr.y[:, j] for j in range(p)]
    header = ["t"] + [f"y{j + 1}" for j in range(p)]
    if tr.components:
        for name_prefix, arr in (("yu", tr.components.get("y_u")),
                                 ("yx0", tr.components.get("y_x0"))):
            if arr is not None:
                for j in range(arr.shape[1]):
                    header.append(f"{name_prefix}_{j + 1}")
                    cols.append(arr[:, j])
    data = np.column_stack(cols)
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="")


def emit_report(rep: ReductionReport, out_dir):
    """Persist report.json, summary.txt, hsv.csv, per-method traces and
    error signals, and wall-clock timings."""
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(rep.report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "timings.json"), "w") as fh:
        json.dump(rep.timings, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # hsv.csv: index, sigma, theta, eta (ragged columns padded with blanks)
    hsv = rep.hsv
    n_rows = max((len(v) for v in hsv.values()), default=0)
    with open(os.path.join(out_dir, "hsv.csv"), "w") as fh:
        fh.write("index,sigma,theta,eta\n")
        for i in range(n_rows):
            vals = [
                f"{hsv[k][i]:.16e}" if i < len(hsv[k]) else ""
                for k in ("sigma", "theta", "eta")
            ]
            fh.write(f"{i + 1}," + ",".join(vals) + "\n")

    tr_full = rep.traces["full"]
    _write_trace_csv(os.path.join(out_dir, "trace_full.csv"), tr_full)
    for method, res in rep.report["methods"].items():
        tr = rep.traces[method]
        _write_trace_csv(os.path.join(out_dir, f"trace_{method}.csv"), tr)
        err = tr_full.y - tr.y
        header = ["t"] + [f"e{j + 1}" for j in range(err.shape[1])]
        np.savetxt(
            os.path.join(out_dir, f"error_{method}.csv"),
            np.column_stack([tr.t, err]),
            delimiter=",", header=",".join(header), comments="",
        )

    methods = list(rep.report["methods"])
    lines = []
    lines.append("Reduction report")
    lines.append("")
    model = rep.report["model"]
    lines.append(
        f"model: n={model['n']} m={model['m']} p={model['p']} n0={model['n0']}"
    )
    orders_row = []
    for m in methods:
        o = rep.report["methods"][m]["orders"]
        orders_row.append("/".join(f"{k}={v}" for k, v in o.items()))
    width = max([12] + [len(s) for s in orders_row] + [len(m) for m in methods]) + 2
    def row(label, cells):
        return f"{label:<16}" + "".join(f"{c:>{width}}" for c in cells)
    lines.append(row("", methods))
    lines.append(row("orders", orders_row))
    for key, label in (("rel_linf", "L_inf error"), ("rel_l2", "L_2 error")):
        cells = []
        for m in methods:
            v = rep.report["methods"][m].get(key)
            cells.append(f"{v:.4e}" if v is not None else "n/a")
        lines.append(row(label, cells))
    lines.append(row("bound", [f"{rep.report['methods'][m]['bound']:.4e}" for m in methods]))
    lines.append(row("bound holds", [str(rep.report["methods"][m]["bound_ok"]) for m in methods]))
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    return sorted(os.listdir(out_dir))
