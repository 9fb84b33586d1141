"""End-to-end experiment harness: build or load a model, reduce it with
the requested methods, simulate everything, and evaluate bounds against
measured errors."""

import inspect
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .bounds import abt_bound, split_bound
from .errors import (ConfigError, IndexOutOfRange, InvalidParameter, NonFinite, NotStable,
                     UnstableReduction)
from .gramians import gramian_factors  # noqa: F401 (perfbench's tests expect it bound here)
from .model import (
    InitialConditionBasis,
    build_msd,
    load_model,
    unit_vector_basis,
)
from .reduction import OrderSelection, abt_reduce, bt_reduce, split_from_bt
from .simulation import (
    INPUT_KINDS,
    InputSignal,
    SimulationTrace,
    l2_norm,
    linf_norm,
    online_phase,
    simulate,
    suggest_grid,
)

__all__ = ["ExperimentConfig", "ReductionReport", "run_experiment", "emit_report"]

# the split methods and the reduction of their x0 map (split_from_bt);
# augbt reduces the augmented system instead.  The first method is
# ``icmor reduce``'s default.
SPLIT_METHODS = {"bt-bt": "bt", "bt-irka": "irka"}
KNOWN_METHODS = (*SPLIT_METHODS, "augbt")
# the config field that fixes each truncated map's order, by its map_name
ORDER_FIELDS = {"input": "order_u", "x0": "order_x0", "augmented": "order_aug"}


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
    input: dict = field(default_factory=lambda: {"kind": INPUT_KINDS[0]})
    horizon: float = None
    dt: float = None
    out: str = "results"
    calibrate: bool = True
    abt_scaling: bool = True

    @classmethod
    def from_dict(cls, d):
        """The config of a JSON object, whose shape only is checked here: a
        missing ``model`` or ``methods``, an unknown key, a wrong type, NaN,
        Infinity or a bad model key or ``kind`` raises ``ConfigError`` naming
        the field.  ``run_experiment`` checks each value where it is used."""
        if not isinstance(d, dict):
            raise ConfigError("config: expected a JSON object")
        d = dict(d)
        for key in ("model", "methods"):
            if key not in d:
                raise ConfigError(f"{key}: required")
        d["model"] = _model_spec(d["model"])
        fields = cls.__dataclass_fields__
        for key, value in d.items():
            if key not in fields:
                raise ConfigError(f"{key}: unknown config field")
            if value is not None or fields[key].default is not None:
                _check(value, fields[key].type, key)
        for key, kind in (("x0_indices", int), ("z0", float)):
            for value in d.get(key) or ():
                _check(value, kind, f"{key} entry")
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            try:
                return cls.from_dict(json.load(fh))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})")


@dataclass(eq=False)
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


def _check(value, kind, name):
    """``ConfigError`` naming ``name`` unless the JSON value has the type
    ``kind``; an int passes as a float, a bool only as a bool, and neither
    NaN, Infinity (``json`` reads both as floats) nor an int past the float
    range passes at all."""
    if isinstance(value, bool) and kind is not bool \
            or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")


# build_msd's parameters and their JSON types
MSD_FIELDS = {"n_masses": int, "m_inputs": int, "mass": float,
              "stiffness": float, "damping": float}
_MODEL_FIELDS = {"kind": str, "path": str, **MSD_FIELDS}


def _model_spec(model):
    """Normalize a model entry: ``"builtin:msd"``, a model directory, or a
    dict with ``kind`` and ``build_msd``'s parameters or with ``path``
    alone."""
    if isinstance(model, str):
        model = {"kind": "msd"} if model == "builtin:msd" else {"path": model}
    if not isinstance(model, dict) or not ("kind" in model or "path" in model):
        raise ConfigError("model: need 'kind' or 'path'")
    for key, value in model.items():
        if key not in _MODEL_FIELDS:
            raise ConfigError(f"model.{key}: unknown model field")
        _check(value, _MODEL_FIELDS[key], f"model.{key}")
        if "path" in model and key != "path":
            raise ConfigError(f"model.{key}: not used with 'path'")
    if model.get("kind", "msd") != "msd":
        raise ConfigError(f"model.kind: unknown builtin '{model['kind']}'")
    return model


def _build_model(spec, x0_indices=None):
    """The model of a normalized spec and its basis: unit vectors at
    ``x0_indices`` when given, else the model directory's ``X0.mtx``, else
    None.  ``ConfigError`` names ``model.path`` for a file ``load_model``
    cannot read, ``model.<parameter>`` or ``x0_indices`` for a value
    ``build_msd`` or ``unit_vector_basis`` rejects, and the ``mass``,
    ``stiffness`` and ``damping`` the spec sets for a non-finite or unstable ``A``."""
    if "path" in spec:
        try:
            M, basis = load_model(spec["path"])
        except OSError as exc:
            raise ConfigError(f"model.path: {exc.strerror}: '{exc.filename}'") from None
    else:
        try:
            M, basis = build_msd(**{k: v for k, v in spec.items() if k != "kind"}), None
        except InvalidParameter as exc:
            raise ConfigError(f"model.{exc}") from None
        except (NonFinite, NotStable) as exc:
            keys = [f"model.{k}" for k, kind in MSD_FIELDS.items() if kind is float and k in spec]
            raise ConfigError(f"{', '.join(keys) or 'model'}: the chain is not numerically "
                              f"finite and stable ({exc})") from None
    if x0_indices is not None:
        try:
            basis = unit_vector_basis(M.n, x0_indices)
        except (InvalidParameter, IndexOutOfRange) as exc:
            raise ConfigError(f"x0_indices: {str(exc).partition(': ')[2]}") from None
    return M, basis


def _build_input(spec, m):
    """The ``InputSignal`` of an input spec with ``m`` channels.  Each key
    but ``kind`` must be a number and a parameter of the constructor
    ``kind`` names; a value the constructor rejects raises ``ConfigError``
    naming ``input.<parameter>``."""
    kwargs = dict(spec or {})
    kind = kwargs.pop("kind", INPUT_KINDS[0])
    if kind not in INPUT_KINDS:
        raise ConfigError(f"input.kind: unknown kind '{kind}'")
    factory = getattr(InputSignal, kind)
    params = inspect.signature(factory).parameters
    for key, value in kwargs.items():
        if key == "m" or key not in params:
            raise ConfigError(f"input.{key}: not a parameter of kind '{kind}'")
        _check(value, float, f"input.{key}")
    try:
        return factory(m, **kwargs)
    except InvalidParameter as exc:
        raise ConfigError(f"input.{exc}") from None


def _order_selections(cfg):
    """A context manager that gives each map's ``OrderSelection`` by map
    name, of its ``ORDER_FIELDS`` entry or else ``tol``.  A value one rejects
    (``tol``'s even if unused) raises ``ConfigError`` naming its field now,
    and an ``UnstableReduction`` in the block one naming its order's field."""
    keys = {name: key if getattr(cfg, key) is not None else "tol"
            for name, key in ORDER_FIELDS.items()}
    sel = {}
    for key in dict.fromkeys(("tol", *keys.values())):
        try:
            sel[key] = OrderSelection.tolerance(cfg.tol) if key == "tol" \
                else OrderSelection.fixed(getattr(cfg, key))
        except InvalidParameter as exc:
            raise ConfigError(f"{key}: {str(exc).partition(': ')[2]}") from None
    @contextmanager
    def named():
        try:
            yield {name: sel[key] for name, key in keys.items()}
        except UnstableReduction as exc:
            raise ConfigError(f"{keys[exc.map_name]}: {exc}") from None
    return named()


def _bound_holds(abs_l2, bound, y_full_l2):
    """Whether the error ``abs_l2``, measured by quadrature, is within
    ``bound``: with a relative slack of 1e-3 for a bound that is attained,
    and a floor of rounding size, as at r = n the bound is exactly 0."""
    return bool(abs_l2 <= bound * (1.0 + 1e-3) + 1e-12 * y_full_l2)


def _check_norm(value, key, what):
    """``ConfigError`` naming ``key`` unless the L2 norm ``value`` of
    ``what`` is finite."""
    if not math.isfinite(value):
        raise ConfigError(f"{key}: the L2 norm of {what} on the horizon overflows")


@contextmanager
def _timed(times, key):
    """Store the wall time of the ``with`` block in ``times[key]``."""
    t0 = time.perf_counter()
    yield
    times[key] = time.perf_counter() - t0


def run_experiment(cfg: ExperimentConfig) -> ReductionReport:
    """Check every config value, then run every configured method; wall
    times go to ``timings``, so the report of a repeated run is identical."""
    if not cfg.methods:
        raise ConfigError("methods: at least one method required")
    for m in cfg.methods:
        if m not in KNOWN_METHODS:
            raise ConfigError(f"methods: unknown method '{m}'")
    if len(set(cfg.methods)) != len(cfg.methods):
        raise ConfigError(f"methods: must be distinct, got {cfg.methods!r}")
    timings = {}
    with _timed(timings, "setup"):
        orders = _order_selections(cfg)
        M, basis = _build_model(cfg.model, cfg.x0_indices)
        if basis is None:
            basis = InitialConditionBasis(np.zeros((M.n, 0)))
        n0 = basis.n0
        z0 = np.ones(n0) if cfg.z0 is None else np.asarray(cfg.z0, dtype=float)
        if z0.shape != (n0,):
            raise ConfigError(f"z0: expected {n0} coordinates, got {z0.shape}")
        u = _build_input(cfg.input, M.m)
        try:
            t_f, dt = suggest_grid(M, cfg.horizon, cfg.dt)
        except InvalidParameter as exc:
            raise ConfigError(str(exc)) from None

    # Full-order component responses, stepped in one run; with calibration
    # on, z0 is rescaled so that both components carry the same energy.  A
    # norm that overflows is an input or a z0 out of range.
    with _timed(timings, "full_simulation"):
        with np.errstate(over="ignore", invalid="ignore"):
            u_l2 = u.l2_norm(t_f, dt)
        _check_norm(u_l2, "input", "the input")
        both = simulate(M, u, basis.X0 @ z0, t_f, dt)
        y_u, y_x0 = both.components["y_u"], both.components["y_x0"]
        with np.errstate(over="ignore", invalid="ignore"):
            nu, nx = (l2_norm(SimulationTrace(t=both.t, y=y)) for y in (y_u, y_x0))
        _check_norm(nu, "input", "the full-order input response")
        _check_norm(nx, "z0", "the full-order initial-condition response")
        cal = nu / nx if cfg.calibrate and nu > 0 and nx > 0 else 1.0
        z0, y_x0 = z0 * cal, y_x0 * cal
        tr_full = SimulationTrace(t=both.t, y=y_u + y_x0,
                                  components={"y_u": y_u, "y_x0": y_x0})
        y_full_l2, y_full_linf = l2_norm(tr_full), linf_norm(tr_full)
        x0 = basis.X0 @ z0
        z0_norm = float(np.linalg.norm(z0))

    # BT of the input map and of aux = (A, X0, C), once each, and augmented
    # BT from the two reachability factors they solved: they feed every method
    # and give sigma, theta and eta.  After the simulations, so the factors the
    # models keep add nothing to their peak.
    with _timed(timings, "reductions"), orders as sel:
        suy = bt_reduce(M, sel["input"])
        aux = M.with_input(basis.X0)
        sxy = bt_reduce(aux, sel["x0"], "x0")
        abt = abt_reduce(M, aux, sel["augmented"], scaling=cfg.abt_scaling)

    traces = {"full": tr_full}
    methods_report = {}
    with _timed(timings, "methods_total"):
        for method in cfg.methods:
            mt = timings[method] = {}
            if method in SPLIT_METHODS:
                with _timed(mt, "reduce"):
                    S = split_from_bt(suy, aux, sxy, basis, SPLIT_METHODS[method])
                    orders = {"r_u": S.suy.r, "r_x0": S.sxy.r}
                with _timed(mt, "simulate"):
                    tr = online_phase(S, u, x0, t_f, dt)
                with _timed(mt, "bounds"):
                    bound, eb = split_bound(S, u_l2, z0_norm)
                    budget = {"e1": eb.e1, "e2": eb.e2}
            else:
                with _timed(mt, "reduce"):
                    orders = {"r_aug": abt.r}
                with _timed(mt, "simulate"):
                    tr = simulate(abt.sys, u, abt.X0til @ z0, t_f, dt)
                with _timed(mt, "bounds"):
                    bound, term_u, term_x0 = abt_bound(abt, u_l2, z0_norm)
                    budget = {"input_term": term_u, "x0_term": term_x0}

            diff = SimulationTrace(t=tr_full.t, y=tr_full.y - tr.y)
            abs_l2 = l2_norm(diff)
            res = {
                "orders": orders,
                "abs_l2_error": abs_l2,
                "bound": bound,
                "budget": budget,
                "bound_ok": _bound_holds(abs_l2, bound, y_full_l2),
            }
            if y_full_l2 > 1e-300:
                res["rel_l2"] = abs_l2 / y_full_l2
                res["rel_linf"] = linf_norm(diff) / y_full_linf
            methods_report[method] = res
            traces[method] = tr

    report = {
        "config": {
            "model": cfg.model,
            "methods": list(cfg.methods),
            "x0_indices": cfg.x0_indices,
            "tol": cfg.tol,
            "orders_requested": {key: getattr(cfg, key) for key in ORDER_FIELDS.values()},
            "input": cfg.input,
            "calibrate": cfg.calibrate,
            "abt_scaling": cfg.abt_scaling,
        },
        "model": {"n": M.n, "m": M.m, "p": M.p, "n0": n0},
        "grid": {"t_f": t_f, "dt": dt},
        "signals": {
            "u_l2": u_l2,
            "z0_norm": z0_norm,
            "calibration_scale": cal,
            "y_full_l2": y_full_l2,
        },
        "methods": methods_report,
    }
    return ReductionReport(
        report=report,
        traces=traces,
        hsv={"sigma": suy.hankel, "theta": sxy.hankel, "eta": abt.hankel},
        timings=timings,
    )


def _write_csv(path, t, *columns):
    """Write the column ``t`` and the columns of each ``(prefix, array)``,
    headed ``t`` and ``<prefix><j>``, ``j`` from 1, as CSV at ``path``."""
    header = ["t"] + [f"{prefix}{j + 1}" for prefix, arr in columns for j in range(arr.shape[1])]
    np.savetxt(path, np.column_stack([t, *(arr for _, arr in columns)]),
               delimiter=",", header=",".join(header), comments="")


def emit_report(rep: ReductionReport, out_dir):
    """Persist report.json, summary.txt, hsv.csv, per-method traces and
    error signals, and wall-clock timings."""
    os.makedirs(out_dir, exist_ok=True)

    for name, data in (("report.json", rep.report), ("timings.json", rep.timings)):
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # hsv.csv: index, sigma, theta, eta; each is padded with exact zeros to n
    cols = [rep.hsv[k] for k in ("sigma", "theta", "eta")]
    np.savetxt(os.path.join(out_dir, "hsv.csv"),
               np.column_stack([np.arange(1, len(cols[0]) + 1), *cols]),
               fmt=["%d"] + ["%.16e"] * 3, delimiter=",",
               header="index,sigma,theta,eta", comments="")

    # each trace of a run carries its two components
    full = rep.traces["full"]
    for name, tr in rep.traces.items():
        _write_csv(os.path.join(out_dir, f"trace_{name}.csv"), tr.t, ("y", tr.y),
                   ("yu_", tr.components["y_u"]), ("yx0_", tr.components["y_x0"]))
        if tr is not full:
            _write_csv(os.path.join(out_dir, f"error_{name}.csv"), tr.t, ("e", full.y - tr.y))

    results, model = rep.report["methods"], rep.report["model"]
    orders = ["/".join(f"{k}={v}" for k, v in res["orders"].items()) for res in results.values()]
    width = max([12] + [len(s) for s in orders + list(results)]) + 2
    def row(label, cells):
        return f"{label:<16}" + "".join(f"{c:>{width}}" for c in cells)
    lines = ["Reduction report", "",
             f"model: n={model['n']} m={model['m']} p={model['p']} n0={model['n0']}",
             row("", results), row("orders", orders)]
    for key, label in (("rel_linf", "L_inf error"), ("rel_l2", "L_2 error")):
        lines.append(row(label, [f"{res[key]:.4e}" if key in res else "n/a"
                                 for res in results.values()]))
    lines.append(row("bound", [f"{res['bound']:.4e}" for res in results.values()]))
    lines.append(row("bound holds", [str(res["bound_ok"]) for res in results.values()]))
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    return sorted(os.listdir(out_dir))
