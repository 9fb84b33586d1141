"""Command-line interface.

Verbs mirror the offline/online split of the workflow:

* ``bench msd``  -- generate the mass-spring-damper benchmark and save it
* ``reduce``     -- offline phase: reduce a model, write reduced matrices
* ``simulate``   -- simulate a full model and write the output trace
* ``report``     -- full experiment from a JSON config: reduce, simulate,
                    evaluate bounds, emit tables and plot data

Exit codes: 0 on success, 2 if a measured error exceeded its bound, 1 on
any other error.
"""

import argparse
import json
import os
import sys

import numpy as np

from ._mmio import write_matrix
from .errors import IcmorError
from .experiment import (
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
from .model import build_msd, save_model, unit_vector_basis
from .reduction import abt_reduce, split_reduce
from .simulation import l2_norm, linf_norm, simulate


def _load(args):
    return _build_model(_model_spec(args.model), args.x0_indices)


def cmd_bench(args):
    M = build_msd(args.n_masses, mass=args.mass, stiffness=args.stiffness,
                  damping=args.damping, m_inputs=args.m_inputs)
    basis = unit_vector_basis(M.n, args.x0_indices) if args.x0_indices else None
    save_model(M, args.out, basis=basis)
    print(f"wrote order-{M.n} benchmark model to {args.out}")
    return 0


def cmd_reduce(args):
    M, basis = _load(args)
    if basis is None:
        print(f"{args.method} needs --x0-indices or a model directory with X0.mtx",
              file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    sel_u = _selection(args.order_u, args.tol)
    if args.method == "augbt":
        R = abt_reduce(M, basis, sel_u)
        systems = {"red": R.sys}
        write_matrix(os.path.join(args.out, "X0_red.mtx"), R.X0til)
        orders = {"r_aug": R.r}
    else:
        x0_method = "irka" if args.method == "bt-irka" else "bt"
        S = split_reduce(M, basis, sel_u, _selection(args.order_x0, args.tol),
                         x0_method=x0_method, irka_opts={"seed": args.seed})
        systems = {"u": S.suy.sys, "x0": S.sxy.sys}
        orders = {"r_u": S.suy.r, "r_x0": S.sxy.r}
    for tag, red in systems.items():
        for name in ("A", "B", "C"):
            write_matrix(os.path.join(args.out, f"{name}_{tag}.mtx"), getattr(red, name))
    with open(os.path.join(args.out, "offline.json"), "w") as fh:
        json.dump({"method": args.method, "orders": orders}, fh, indent=2)
    print(f"{args.method}: orders {orders}; wrote {args.out}")
    return 0


def cmd_simulate(args):
    M, basis = _load(args)
    t_f, dt = _grid(M, args.tf, args.dt)
    u = _build_input({"kind": args.input}, M.m)
    x0 = None if basis is None else basis.X0 @ np.ones(basis.n0)
    tr = simulate(M, u, x0, t_f, dt)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    _write_trace_csv(args.out, tr)
    print(f"simulated to t={t_f:.3g} (dt={dt:.3g}); "
          f"L2={l2_norm(tr):.6g} Linf={linf_norm(tr):.6g}; wrote {args.out}")
    return 0


def cmd_report(args):
    cfg = ExperimentConfig.from_json(args.config)
    if args.out:
        cfg.out = args.out
    if args.parallel:
        cfg.parallel = True
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
    msd.add_argument("--n-masses", type=int, default=150)
    msd.add_argument("--m-inputs", type=int, default=10)
    msd.add_argument("--mass", type=float, default=1.0)
    msd.add_argument("--stiffness", type=float, default=2.0)
    msd.add_argument("--damping", type=float, default=0.1)
    msd.add_argument("--x0-indices", type=int, nargs="*", default=None)
    msd.add_argument("--out", required=True)
    msd.set_defaults(func=cmd_bench)

    r = sub.add_parser("reduce", help="offline phase: reduce a model")
    r.add_argument("--model", required=True,
                   help="model directory with A.mtx/B.mtx/C.mtx, or builtin:msd")
    r.add_argument("--method", choices=["augbt", "bt-bt", "bt-irka"], default="bt-bt")
    r.add_argument("--tol", type=float, default=1e-2)
    r.add_argument("--order-u", type=int, default=None)
    r.add_argument("--order-x0", type=int, default=None)
    r.add_argument("--x0-indices", type=int, nargs="*", default=None)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_reduce)

    s = sub.add_parser("simulate", help="simulate a full model")
    s.add_argument("--model", required=True)
    s.add_argument("--x0-indices", type=int, nargs="*", default=None)
    s.add_argument("--input", choices=["decaying_pulses", "decaying_sinusoid", "zero"],
                   default="decaying_pulses")
    s.add_argument("--tf", type=float, default=None)
    s.add_argument("--dt", type=float, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    rp = sub.add_parser("report", help="full experiment from a JSON config")
    rp.add_argument("--config", required=True)
    rp.add_argument("--out", default=None, help="override config output directory")
    rp.add_argument("--parallel", action="store_true",
                    help="run method pipelines concurrently")
    rp.set_defaults(func=cmd_report)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except IcmorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
