"""Command-line interface.

* ``bench msd``  -- build the mass-spring-damper chain and save it as a model directory
* ``reduce``     -- reduce a model with one method and write the reduced matrices
* ``simulate``   -- simulate the full model and write its output trace
* ``report``     -- run an experiment from a JSON config: reduce, simulate,
                    evaluate bounds and write the report files

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

# the flag that sets each config field: the x0 indices, the orders and grid
# of reduce and simulate, and build_msd's parameters
FLAGS = {"x0_indices": "--x0-indices", "tol": "--tol", "order_u": "--order-u",
         "order_x0": "--order-x0", "horizon": "--tf", "dt": "--dt",
         **{"model." + key: "--" + key.replace("_", "-") for key in MSD_FIELDS}}


def _flag_error(exc):
    """The message of ``exc``, with the fields a ``ConfigError`` names
    renamed to their flags when ``FLAGS`` has each one."""
    keys, _, why = str(exc).partition(": ")
    flags = [FLAGS.get(key) for key in keys.split(", ")]
    if isinstance(exc, ConfigError) and all(flags):
        return f"{', '.join(flags)}: {why}"
    return str(exc)


def cmd_bench(args):
    spec = {key: value for key, value in vars(args).items() if key in MSD_FIELDS}
    M, basis = _build_model(_model_spec({"kind": "msd", **spec}), args.x0_indices or None)
    save_model(M, args.out, basis=basis)
    print(f"wrote order-{M.n} benchmark model to {args.out}")
    return 0


def cmd_reduce(args):
    # augbt has one order, --order-u
    if args.method == "augbt" and args.order_x0 is not None:
        raise ConfigError("order_x0: not used by augbt; --order-u sets r_aug")
    cfg = ExperimentConfig.from_dict({
        "model": args.model, "methods": [args.method], "x0_indices": args.x0_indices,
        "tol": args.tol, "order_u": args.order_u, "order_x0": args.order_x0})
    M, basis = _build_model(cfg.model, cfg.x0_indices)
    if basis is None:
        raise ConfigError(f"x0_indices: {args.method} needs x0 indices "
                          "or a model directory with X0.mtx")
    os.makedirs(args.out, exist_ok=True)
    sel_u = _selection(cfg.order_u, cfg.tol)
    if args.method in SPLIT_METHODS:
        S = split_reduce(M, basis, sel_u, _selection(cfg.order_x0, cfg.tol),
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
    M, basis = _build_model(_model_spec(args.model), args.x0_indices)
    t_f, dt = _grid(M, args.tf, args.dt)
    u = _build_input({"kind": args.input}, M.m)
    x0 = None if basis is None else basis.X0 @ np.ones(basis.n0)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    tr = simulate(M, u, x0, t_f, dt)
    # the output alone: a trace of both parts also carries each part
    _write_trace_csv(args.out, SimulationTrace(t=tr.t, y=tr.y))
    print(f"simulated to t={t_f:.3g} (dt={dt:.3g}); "
          f"L2={l2_norm(tr):.6g} Linf={linf_norm(tr):.6g}; wrote {args.out}")
    return 0


def cmd_report(args):
    cfg = ExperimentConfig.from_json(args.config)
    if args.out:
        cfg.out = args.out
    # an unusable out fails now, with makedirs's error; emit_report makes it
    head = os.path.abspath(cfg.out)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        os.makedirs(cfg.out, exist_ok=True)
    rep = run_experiment(cfg)
    files = emit_report(rep, cfg.out)
    with open(os.path.join(cfg.out, "summary.txt")) as fh:
        print(fh.read(), end="")
    print(f"wrote {len(files)} files to {cfg.out}")
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
        msd.add_argument(FLAGS["model." + key], type=kind, default=argparse.SUPPRESS)
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
    except (IcmorError, OSError) as exc:
        # a config file's error names its field, a flag's error the flag
        print(f"error: {exc if args.verb == 'report' else _flag_error(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
