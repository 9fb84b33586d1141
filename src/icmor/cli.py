"""Command-line interface.

Verbs mirror the offline/online split of the workflow:

* ``bench msd``  -- generate the mass-spring-damper benchmark and save it
* ``reduce``     -- offline phase: reduce a model, write reduced matrices
* ``simulate``   -- simulate a full model and write the output trace
* ``report``     -- full experiment from a JSON config: reduce, simulate,
                    evaluate bounds, emit tables and plot data

Exit codes: 0 on success, 2 if a measured error exceeded its bound, 1 on
any other error, a usage error included.
"""

import argparse
import json
import os
import sys

import numpy as np

from ._mmio import write_matrix
from .errors import ConfigError, IcmorError
from .experiment import (
    INPUT_KINDS,
    KNOWN_METHODS,
    MSD_FIELDS,
    SPLIT_METHODS,
    ExperimentConfig,
    _build_input,
    _build_model,
    _grid,
    _model_spec,
    _selection,
    _write_trace_csv,
    emit_report,
    run_experiment,
)
from .model import save_model
from .reduction import abt_reduce, split_reduce
from .simulation import SimulationTrace, l2_norm, linf_norm, simulate


def _flag_error(exc, flags):
    """``exc``, a ``ConfigError`` naming fields, each renamed to the flag
    that ``flags`` maps it to; ``exc`` itself when a field has no flag."""
    keys, _, why = str(exc).partition(": ")
    keys = keys.split(", ")
    if all(key in flags for key in keys):
        return ConfigError(f"{', '.join(flags[key] for key in keys)}: {why}")
    return exc


# the config fields that flags set: build_msd's parameters and x0_indices
_MODEL_FLAGS = {"x0_indices": "--x0-indices",
                **{"model." + key: "--" + key.replace("_", "-") for key in MSD_FIELDS}}


def _load(model, x0_indices):
    """``_build_model`` of a model entry; an error names the flag it
    rejects."""
    try:
        return _build_model(_model_spec(model), x0_indices)
    except ConfigError as exc:
        raise _flag_error(exc, _MODEL_FLAGS) from None


def cmd_bench(args):
    spec = {key: value for key, value in vars(args).items() if key in MSD_FIELDS}
    M, basis = _load({"kind": "msd", **spec}, args.x0_indices or None)
    save_model(M, args.out, basis=basis)
    print(f"wrote order-{M.n} benchmark model to {args.out}")
    return 0


def _check_reduce_flags(args):
    """``ExperimentConfig.from_dict``'s checks of the flags of ``reduce``; an
    error names the flag it rejects.  augbt has one order, ``--order-u``."""
    if args.method == "augbt" and args.order_x0 is not None:
        raise ConfigError("--order-x0: not used by augbt; --order-u sets r_aug")
    flags = {"tol": args.tol, "order_u": args.order_u, "order_x0": args.order_x0}
    try:
        ExperimentConfig.from_dict({"model": args.model, "methods": [args.method], **flags})
    except ConfigError as exc:
        raise _flag_error(exc, {key: "--" + key.replace("_", "-") for key in flags}) from None


def cmd_reduce(args):
    _check_reduce_flags(args)
    M, basis = _load(args.model, args.x0_indices)
    if basis is None:
        print(f"{args.method} needs --x0-indices or a model directory with X0.mtx",
              file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    sel_u = _selection(args.order_u, args.tol)
    if args.method in SPLIT_METHODS:
        S = split_reduce(M, basis, sel_u, _selection(args.order_x0, args.tol),
                         x0_method=SPLIT_METHODS[args.method])
        systems = {"u": S.suy.sys, "x0": S.sxy.sys}
        orders = {"r_u": S.suy.r, "r_x0": S.sxy.r}
    else:
        R = abt_reduce(M, M.with_input(basis.X0), sel_u)
        systems = {"red": R.sys}
        write_matrix(os.path.join(args.out, "X0_red.mtx"), R.X0til)
        orders = {"r_aug": R.r}
    for tag, red in systems.items():
        for name in ("A", "B", "C"):
            write_matrix(os.path.join(args.out, f"{name}_{tag}.mtx"), getattr(red, name))
    with open(os.path.join(args.out, "offline.json"), "w") as fh:
        json.dump({"method": args.method, "orders": orders}, fh, indent=2)
    print(f"{args.method}: orders {orders}; wrote {args.out}")
    return 0


def cmd_simulate(args):
    M, basis = _load(args.model, args.x0_indices)
    try:
        t_f, dt = _grid(M, args.tf, args.dt)
    except ConfigError as exc:
        raise _flag_error(exc, {"horizon": "--tf", "dt": "--dt"}) from None
    u = _build_input({"kind": args.input}, M.m)
    x0 = None if basis is None else basis.X0 @ np.ones(basis.n0)
    tr = simulate(M, u, x0, t_f, dt)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    # the output alone: a trace of both parts also carries each part
    _write_trace_csv(args.out, SimulationTrace(t=tr.t, y=tr.y))
    print(f"simulated to t={t_f:.3g} (dt={dt:.3g}); "
          f"L2={l2_norm(tr):.6g} Linf={linf_norm(tr):.6g}; wrote {args.out}")
    return 0


def cmd_report(args):
    cfg = ExperimentConfig.from_json(args.config)
    if args.out:
        cfg.out = args.out
    rep = run_experiment(cfg)
    files = emit_report(rep, cfg.out)
    print(f"wrote {len(files)} files to {cfg.out}")
    for method, res in rep.report["methods"].items():
        rel = res.get("rel_l2")
        rel_s = f"{rel:.3e}" if rel is not None else "n/a"
        print(f"  {method}: orders={res['orders']} rel_l2={rel_s} "
              f"bound={res['bound']:.3e} ok={res['bound_ok']}")
    return 0 if rep.bound_ok else 2


def build_parser():
    ap = argparse.ArgumentParser(
        prog="icmor",
        description="Model reduction for LTI systems with nonzero initial conditions",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    b = sub.add_parser("bench", help="generate a benchmark model")
    bsub = b.add_subparsers(dest="bench_kind", required=True)
    msd = bsub.add_parser("msd", help="coupled mass-spring-damper chain")
    # build_msd's parameters; one not given keeps build_msd's default
    for key, kind in MSD_FIELDS.items():
        msd.add_argument("--" + key.replace("_", "-"), type=kind, default=argparse.SUPPRESS)
    msd.add_argument("--x0-indices", type=int, nargs="*", default=None)
    msd.add_argument("--out", required=True)
    msd.set_defaults(func=cmd_bench)

    r = sub.add_parser("reduce", help="offline phase: reduce a model")
    r.add_argument("--model", required=True,
                   help="model directory with A.mtx/B.mtx/C.mtx, or builtin:msd")
    r.add_argument("--method", choices=KNOWN_METHODS, default=KNOWN_METHODS[0])
    r.add_argument("--tol", type=float, default=1e-2)
    r.add_argument("--order-u", type=int, default=None,
                   help="order of the input map, or of the augmented system")
    r.add_argument("--order-x0", type=int, default=None,
                   help="order of the initial-condition map of a split method")
    r.add_argument("--x0-indices", type=int, nargs="*", default=None)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_reduce)

    s = sub.add_parser("simulate", help="simulate a full model")
    s.add_argument("--model", required=True)
    s.add_argument("--x0-indices", type=int, nargs="*", default=None)
    s.add_argument("--input", choices=INPUT_KINDS, default=INPUT_KINDS[0])
    s.add_argument("--tf", type=float, default=None)
    s.add_argument("--dt", type=float, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    rp = sub.add_parser("report", help="full experiment from a JSON config")
    rp.add_argument("--config", required=True)
    rp.add_argument("--out", default=None, help="override config output directory")
    rp.set_defaults(func=cmd_report)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 here means a bound violation
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except IcmorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
