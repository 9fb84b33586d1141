"""Workloads, measurement loop, correctness checks and metrics of the icmor
benchmark.  ``run.py`` is the entry point; see README.md for the contract.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Untraced operations carry probes on
the reduction entry points and on ``online_phase`` only (two clock reads
per call), which is what ``offline_s`` and the online latencies come from.
Traced operations wrap every layer function in ``LAYER_FUNCTIONS``.
"""

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy

from icmor import bounds, experiment, gramians, linalg, model, reduction, simulation
from tracer import Tracer, layer_totals

HERE = os.path.dirname(os.path.abspath(__file__))

PAPER_METHODS = ("augbt", "bt-bt", "bt-irka")


@dataclass(frozen=True)
class Workload:
    """An msd chain with x0 at one state index.  With ``methods`` the
    operation is one ``run_experiment``; without, it is one ``online_phase``
    call on a split model reduced during set-up."""

    n_masses: int
    x0_index: int
    methods: tuple = ()
    irka_max_iters: int = None


# case1/case2 cap IRKA so that one experiment fits a run; every iteration
# does the same work as in the 100-iteration paper run, which the -full
# variants reproduce (one experiment takes about 100 s and 60 s).
WORKLOADS = {
    "case1": Workload(150, 300, PAPER_METHODS, irka_max_iters=8),
    "case2": Workload(150, 30, PAPER_METHODS, irka_max_iters=12),
    "msd600-bt": Workload(300, 600, ("augbt", "bt-bt")),
    "online": Workload(150, 300),
    "case1-full": Workload(150, 300, PAPER_METHODS),
    "case2-full": Workload(150, 30, PAPER_METHODS),
}

SETUP_REPEATS = 5
# p95 needs at least ten samples beyond it
MIN_ONLINE_CALLS = 200
ONLINE_CHECKS = 4
ONLINE_CHECK_POOL = 50
# reduced-model accuracy may not get worse than the reference by more than
# this share; better is fine
REL_L2_RTOL = 0.02
# same slack as run_experiment's bound_ok: the error is measured by
# quadrature, the bound is exact
BOUND_SLACK = 1e-3

# one operation is one run_experiment, or one online_phase call on the
# online workload, where wall_s is the p50 online latency
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "offline_s": "s",
    "peak_rss_mb": "MB",
}

REDUCTION_ENTRIES = ("reduction.bt_reduce", "reduction.abt_reduce",
                     "reduction.split_reduce", "reduction.irka_reduce")
PROBES = REDUCTION_ENTRIES + ("simulation.online_phase",)

# (layer metric prefix, module, attribute); StateSpaceModel, schur and
# eigvals are wrapped separately in instrument()
LAYER_FUNCTIONS = [
    ("model.build_msd", model, "build_msd"),
    ("linalg.solve_lyapunov", linalg, "solve_lyapunov"),
    ("linalg.solve_sylvester", linalg, "solve_sylvester"),
    ("linalg.matrix_exponential", linalg, "matrix_exponential"),
    ("linalg.stability_margin", linalg, "stability_margin"),
    ("gramians.gramian_factors", gramians, "gramian_factors"),
    ("gramians.hankel_spectrum", gramians, "hankel_spectrum"),
    ("gramians.balance_realization", gramians, "balance_realization"),
    ("gramians.h2_error_norm", gramians, "h2_error_norm"),
    ("reduction.bt_reduce", reduction, "bt_reduce"),
    ("reduction.abt_reduce", reduction, "abt_reduce"),
    ("reduction.split_reduce", reduction, "split_reduce"),
    ("reduction.irka_reduce", reduction, "irka_reduce"),
    ("reduction.tangential_residuals", reduction, "tangential_residuals"),
    ("bounds.abt_bound", bounds, "abt_bound"),
    ("bounds.split_bound", bounds, "split_bound"),
    ("bounds.aca_bound", bounds, "aca_bound"),
    ("simulation.simulate", simulation, "simulate"),
    ("simulation.foh_weights", simulation, "foh_weights"),
    ("simulation.online_phase", simulation, "online_phase"),
    ("simulation.l2_norm", simulation, "l2_norm"),
    ("experiment.run_experiment", experiment, "run_experiment"),
]
TIMED_LAYERS = ["model.StateSpaceModel", "linalg.schur", "linalg.eigvals"] + [
    name for name, _, _ in LAYER_FUNCTIONS]
COUNTS = ["linalg.solve_lyapunov.n3", "simulation.steps",
          "reduction.irka_reduce.h2_scorings", "reduction.irka_reduce.shift_solves",
          "reduction.irka_reduce.converged"]
WARNING_NAMES = ["MaxItersExceeded", "StepTooLarge", "TailWarning",
                 "IllConditionedBalancing", "NegativeTrace"]


def per_layer_units():
    units = {}
    for name in TIMED_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({f"warnings.{w}": "count" for w in WARNING_NAMES})
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- environment

def _blas_threads():
    """Threads each loaded OpenBLAS reports, by library file name."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in names:
            if hasattr(lib, sym):
                out[os.path.basename(path)] = int(getattr(lib, sym)())
                break
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(blas_threads_requested):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": blas_threads_requested,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ------------------------------------------------------------ instrumentation

def instrument(tracer, workload, full):
    """Install probes (``full=False``) or every layer wrapper on ``tracer``.

    The IRKA cap of ``workload`` is applied in both cases.  Returns the
    names of layer functions the program no longer has.
    """
    cap = {"max_iters": workload.irka_max_iters} if workload.irka_max_iters else None
    hooks = {
        "linalg.solve_lyapunov": _count_n3,
        "simulation.simulate": _count_steps,
        "reduction.irka_reduce": _count_converged,
        "gramians.h2_error_norm": _count_h2_scoring,
    }
    absent = []
    for name, module, attr in LAYER_FUNCTIONS:
        if not full and name not in PROBES:
            continue
        sites = tracer.wrap_function(
            name, module, attr, on_return=hooks.get(name) if full else None,
            fixed_kwargs=cap if name == "reduction.irka_reduce" else None)
        if sites == 0:
            absent.append(name)
    if full:
        tracer.wrap_constructor("model.StateSpaceModel", model.StateSpaceModel)
        tracer.wrap_library_call(
            [linalg, model], "sla", "schur", lambda f: tracer.timed("linalg.schur", f))
        tracer.wrap_library_call(
            [linalg, model], "np", "linalg.eigvals", lambda f: tracer.timed("linalg.eigvals", f))
        tracer.wrap_library_call(
            [reduction], "np", "linalg.solve", lambda f: _shift_solve_counter(tracer, f))
    return absent


def _count_n3(tracer, args, kwargs, result):
    A = kwargs.get("A", args[0] if args else None)
    tracer.counts["linalg.solve_lyapunov.n3"] += int(np.shape(A)[0]) ** 3


def _count_steps(tracer, args, kwargs, result):
    samples = len(result.t) - 1
    tracer.counts["simulation.steps"] += samples * int(result.provenance.get("substeps", 0))


def _count_converged(tracer, args, kwargs, result):
    tracer.counts["reduction.irka_reduce.converged"] += int(bool(result.converged))


def _count_h2_scoring(tracer, args, kwargs, result):
    if tracer.is_open("reduction.irka_reduce"):
        tracer.counts["reduction.irka_reduce.h2_scorings"] += 1


def _shift_solve_counter(tracer, solve):
    def counted(*args, **kwargs):
        if tracer.is_open("reduction.irka_reduce"):
            tracer.counts["reduction.irka_reduce.shift_solves"] += 1
        return solve(*args, **kwargs)
    return counted


def outermost_time(spans, names):
    """Time in spans called one of ``names`` that no such span encloses."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


# ---------------------------------------------------------------- operations

@dataclass
class OpRecord:
    wall: float
    offline: float
    online_s: list
    failures: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    rel_l2: dict = field(default_factory=dict)
    warnings: Counter = field(default_factory=Counter)
    layers: dict = None
    counts: Counter = None
    check: tuple = None


def set_up(workload):
    """Build the model; for the online workload also run the one offline
    reduction.  Returns the state the operations use."""
    M = model.build_msd(workload.n_masses, m_inputs=10)
    basis = model.unit_vector_basis(M.n, [workload.x0_index])
    state = {"M": M, "basis": basis, "offline_s": 0.0}
    if workload.methods:
        state["cfg"] = experiment.ExperimentConfig.from_dict({
            "model": {"kind": "msd", "n_masses": workload.n_masses, "m_inputs": 10},
            "methods": list(workload.methods),
            "x0_indices": [workload.x0_index],
            "tol": 1e-2,
            "input": {"kind": "decaying_pulses"},
        })
    else:
        sel = reduction.OrderSelection.tolerance(1e-2)
        t0 = perf_counter()
        S = reduction.split_reduce(M, basis, sel, sel, x0_method="bt")
        state["offline_s"] = perf_counter() - t0
        state["S"] = S
        state["grid"] = simulation.suggest_grid(M)
        state["orders"] = {"r_u": S.suy.r, "r_x0": S.sxy.r}
    return state


def check_report(report, reference):
    """Failures and bound violations of one experiment report against the
    reference.  A violation the reference already has is reported, not
    failed."""
    failures, violations, rel = [], [], {}
    for method, want in reference["methods"].items():
        got = report["methods"].get(method)
        if got is None:
            failures.append(f"{method}: missing from the report")
            continue
        if got["orders"] != want["orders"]:
            failures.append(f"{method}: orders {got['orders']} != {want['orders']}")
        rel[method] = got.get("rel_l2")
        if rel[method] is None or not rel[method] <= want["rel_l2"] * (1 + REL_L2_RTOL):
            failures.append(f"{method}: rel_l2 {rel[method]} above {want['rel_l2']:.6g}")
        if not got["bound_ok"]:
            violations.append(method)
            if want["bound_ok"]:
                failures.append(f"{method}: error {got['abs_l2_error']:.3e} > bound {got['bound']:.3e}")
    return failures, violations, rel


def online_inputs(rng, M, basis):
    """A random decaying sinusoid and initial-condition coordinate."""
    u = simulation.InputSignal.decaying_sinusoid(
        M.m, amplitude=rng.uniform(0.5, 2.0), decay=rng.uniform(0.05, 0.15),
        freq=rng.uniform(0.05, 0.5))
    # case1's calibration scales z0 to about 8e3, where both responses matter
    z0 = rng.uniform(-1.0, 1.0) * 1e4
    return u, z0, basis.X0 @ np.array([z0])


def run_op(workload, state, reference, rng, keep_output, full):
    """One operation under probes (or full tracing when ``full``)."""
    with Tracer() as tracer, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        instrument(tracer, workload, full)
        rec = OpRecord(wall=0.0, offline=0.0, online_s=[])
        try:
            if workload.methods:
                t0 = perf_counter()
                rep = experiment.run_experiment(state["cfg"])
                rec.wall = perf_counter() - t0
                rec.failures, rec.violations, rec.rel_l2 = check_report(rep.report, reference)
            else:
                u, z0, x0 = online_inputs(rng, state["M"], state["basis"])
                t_f, dt = state["grid"]
                t0 = perf_counter()
                tr = simulation.online_phase(state["S"], u, x0, t_f, dt)
                rec.wall = perf_counter() - t0
                if keep_output:
                    rec.check = (u, z0, x0, tr.y)
        except Exception:
            rec.failures.append(traceback.format_exc())
    rec.offline = outermost_time(tracer.spans, REDUCTION_ENTRIES)
    rec.online_s = [e - s for name, s, e, _, _ in tracer.spans
                    if name == "simulation.online_phase"]
    rec.warnings = Counter(type(w.message).__name__ for w in caught)
    if full:
        rec.layers = layer_totals(tracer.spans)
        rec.counts = tracer.counts
    return rec


def check_online(state, records, reference):
    """Checked online calls against full-order simulation and the split
    bound.  Returns ``(failures, violations, rel_l2 values)``."""
    failures, violations, rels = [], [], []
    if state["orders"] != reference["orders"]:
        failures.append(f"orders {state['orders']} != {reference['orders']}")
    M, S = state["M"], state["S"]
    t_f, dt = state["grid"]
    _, budget = bounds.split_bound(S, 1.0, 1.0)
    with warnings.catch_warnings():
        # the checks are not part of the measured body
        warnings.simplefilter("ignore")
        for rec in records:
            if rec.check is None:
                continue
            u, z0, x0, y_red = rec.check
            full = simulation.simulate(M, u, x0, t_f, dt)
            diff = simulation.SimulationTrace(t=full.t, y=full.y - y_red)
            err = simulation.l2_norm(diff)
            bound = budget.total(u.l2_norm(t_f, dt), abs(z0))
            rels.append(err / simulation.l2_norm(full))
            if err > bound * (1 + BOUND_SLACK):
                violations.append(f"error {err:.3e} > bound {bound:.3e}")
    failures += violations
    return failures, violations, rels


# ---------------------------------------------------------------- the run

def measure(workload, state, reference, seconds, trace, seed):
    """Closed loop until ``seconds`` have passed (whole operations only).

    With ``trace`` untraced and traced operations alternate, so the
    tracing overhead is measured in the same process.
    """
    modes = (False, True) if trace else (False,)
    online = not workload.methods
    min_untraced = 1
    if online:
        min_untraced = ONLINE_CHECK_POOL if trace else MIN_ONLINE_CALLS
    rng = np.random.default_rng(seed)
    check_at = set(np.random.default_rng([seed, 1]).choice(
        ONLINE_CHECK_POOL, ONLINE_CHECKS, replace=False).tolist())
    records = {False: [], True: []}
    start = perf_counter()
    cycles = []
    while True:
        t0 = perf_counter()
        for full in modes:
            keep = online and not full and len(records[False]) in check_at
            records[full].append(run_op(workload, state, reference, rng, keep, full))
        cycles.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if len(records[False]) >= min_untraced and elapsed + statistics.median(cycles) > seconds:
            return records[False], records[True], elapsed


def end_to_end(workload, untraced, setup_s, offline_setup):
    ok = [r for r in untraced if not r.failures] or untraced
    walls = [r.wall for r in ok]
    # the online workload reduces once, in set-up
    offline = [r.offline for r in ok] if workload.methods else offline_setup
    return {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "offline_s": statistics.median(offline),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def online_latency(untraced):
    """``online_phase`` calls seen by the probes: p50 and p95 in ms, calls
    per second of online time, and the sample count."""
    online = [s for r in untraced for s in r.online_s]
    if not online:
        return None
    return (float(np.percentile(online, 50)) * 1e3, float(np.percentile(online, 95)) * 1e3,
            len(online) / sum(online), len(online))


def per_layer(traced, untraced):
    n = len(traced)
    totals = Counter()
    counts = Counter()
    warns = Counter()
    for rec in traced:
        for name, row in rec.layers.items():
            for key, val in row.items():
                totals[f"{name}.{key}"] += val
        counts.update(rec.counts)
        warns.update(rec.warnings)
    values = {}
    for name in PER_LAYER:
        if name.startswith("warnings."):
            values[name] = warns[name.split(".", 1)[1]] / n
        elif name in COUNTS:
            values[name] = counts[name] / n
        else:
            values[name] = totals[name] / n
    traced_wall = statistics.median(r.wall for r in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(r.wall for r in untraced)
    return values


def coverage_problems(workload, traced):
    """Checks that every binding site is wrapped and that the layers are
    separated as the README claims."""
    problems = []
    originals = [getattr(m, a) for _, m, a in LAYER_FUNCTIONS if hasattr(m, a)]
    with Tracer() as tracer:
        absent = instrument(tracer, workload, True)
        left = tracer.originals_left(originals)
    if left:
        problems.append(f"unwrapped binding sites: {left}")
    if absent:
        print(f"note: layer functions absent from the program: {absent}", file=sys.stderr)
    calls = Counter()
    for rec in traced:
        for name, row in rec.layers.items():
            calls[name] += row["calls"]
    irka = calls["reduction.irka_reduce"]
    if "bt-irka" in workload.methods:
        if irka == 0:
            problems.append("irka_reduce was not called")
    elif irka:
        problems.append(f"irka_reduce called {irka} times")
    if not workload.methods and calls["linalg.solve_lyapunov"]:
        problems.append("solve_lyapunov called inside the online body")
    return problems


def run(name, seed, seconds, trace, import_s, blas_threads):
    """Run one workload and return the result object of the last line."""
    workload = WORKLOADS[name]
    reference = load_reference()["workloads"][name]
    setups, offline_setup = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        state = set_up(workload)
        setups.append(perf_counter() - t0)
        offline_setup.append(state["offline_s"])
    setup_s = import_s + statistics.median(setups)

    untraced, traced, body_s = measure(workload, state, reference, seconds, trace, seed)
    records = untraced + traced
    failures = [f for r in records for f in r.failures]
    attempted, failed = len(records), sum(1 for r in records if r.failures)
    violations = [v for r in records for v in r.violations]
    rels = {}
    for r in records:
        for method, val in r.rel_l2.items():
            rels.setdefault(method, []).append(val)
    if not workload.methods:
        f_check, violations, online_rels = check_online(state, records, reference)
        failures += f_check
        failed += len(f_check)
        rels["bt-bt"] = online_rels

    env = environment(blas_threads)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {name}: seed {seed}, {len(untraced)} untraced and {len(traced)} traced "
          f"operation(s), closed loop with one caller")
    for failure in failures[:3]:
        print("FAILED: " + failure.rstrip(), file=sys.stderr)

    coverage = []
    if trace:
        coverage = coverage_problems(workload, traced)
        for problem in coverage:
            print("COVERAGE: " + problem, file=sys.stderr)
        values, units = per_layer(traced, untraced), PER_LAYER
    else:
        values = end_to_end(workload, untraced, setup_s, offline_setup)
        units = END_TO_END
        print(f"  samples: {len(untraced)} operation(s) in {body_s:.1f} s, {SETUP_REPEATS} set-ups")
    for key, val in values.items():
        shown = "n/a" if val is None else f"{val:.6g}"
        print(f"  {key:<44} {shown} {units[key]}")
    latency = online_latency(untraced)
    if latency:
        p50, p95, rate, n = latency
        print(f"  {'online_ms_p50':<44} {p50:.6g} ms ({n} calls)")
        print(f"  {'online_ms_p95':<44} {p95:.6g} ms")
        print(f"  {'online_sims_per_s':<44} {rate:.6g} 1/s")
    print(f"  {'error_rate':<44} {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    known = sorted(set(violations))
    print(f"  {'bound_violations':<44} {len(known)} {known}")
    for method, vals in sorted(rels.items()):
        if vals:
            print(f"  {'rel_l2.' + method:<44} {statistics.median(vals):.6g}")
    warns = Counter()
    for r in untraced:
        warns.update(r.warnings)
    print(f"  warnings per untraced operation: "
          f"{ {k: v / max(len(untraced), 1) for k, v in sorted(warns.items())} }")

    correct = failed == 0 and not coverage and attempted > 0
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
