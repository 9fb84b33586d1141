"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own solution paths: Lyapunov
and Sylvester equations are checked against dense Kronecker linear
systems, matrix functions against eigendecompositions, H2 norms against
time-domain quadrature of the impulse response, Hankel singular values
against the Hankel operator of the sampled impulse response, and the
printed error bounds against the error simulated to six horizons
(``long_horizon_error``).  IRKA's Hermite derivative is checked against
the second shifted solve it used to make (``second_solve_derivative``),
and its batched reduced-order solves against one pair per shift
(``per_shift_residuals``).  The subtraction
H2 error (``h2_error_norm``) and the augmented system (``augmented_system``)
use the library's solvers, but on formulas that the pipeline does not use:
the reachability side ``||H||^2 - 2 tr(B^T Y Br) + ||Hr||^2`` against the
projected error, and a direct solve of the augmented Gramian against the
QR of the two reachability factors that ``abt_reduce`` takes.  The
Gramian of a formed right-hand side (``formed_lyapunov``) and the clipped
``eigh`` factor (``clipped_sqrt_factor``) are the library's former paths, the
oracles of the factored ones.
"""

import argparse
import json
import os
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import LinearOperator, svds

from icmor import InputSignal, StateSpaceModel
from icmor.errors import DimensionMismatch, InvalidParameter, NonFinite
from icmor import linalg
from icmor.linalg import _complex_columns, shifted_solve, solve_lyapunov, solve_sylvester
from icmor.reduction import SplitReducedModel
from icmor.simulation import SimulationTrace, online_phase, simulate


GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden_mismatches(report, name):
    """Where ``report`` differs from ``golden/<name>.json``: floats beyond the
    file's ``rtol``, any other value at all.  A change that moves a number on
    purpose updates the file in the same diff."""
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        golden = json.load(fh)
    out = []

    def walk(want, got, path):
        if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
            for key in want:
                walk(want[key], got[key], f"{path}/{key}")
        elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
            for i, (w, g) in enumerate(zip(want, got)):
                walk(w, g, f"{path}[{i}]")
        elif isinstance(want, float) and type(got) is float:
            if abs(got - want) > golden["rtol"] * abs(want):
                out.append(f"{path}: {got!r} != {want!r}")
        elif type(want) is not type(got) or want != got:
            out.append(f"{path}: {got!r} != {want!r}")

    walk(golden["report"], report, "")
    return out


def _verbs(parser, prefix=()):
    """Every verb path of ``parser`` and the flags of its parser, such as
    ``("bench", "msd")`` and ``{"--n-masses", ...}``."""
    verbs = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                flags = {s for a in sub._actions for s in a.option_strings}
                verbs.update(_verbs(sub, prefix + (name,)) or {prefix + (name,): flags})
    return verbs


def make_stable(rng, n, margin=0.3):
    """Random dense stable state matrix with spectral abscissa <= -margin."""
    A = rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(A).real)
    return A - (shift + margin) * np.eye(n)


def near_margin(ratio):
    """Diagonal state matrix with spectral abscissa ``-ratio 1e-12
    ||A||_F``.  Its ``||A||_F`` is three times its ``||A||_2``, so the
    stability tolerance ``-1e-12 max(1, ||A||_F)`` rejects ``ratio = 0.5``,
    which a tolerance on ``||A||_2`` would accept."""
    d = np.full(10, -2.0)
    d[-1] = -ratio * 1e-12 * np.linalg.norm(d[:-1])
    return np.diag(d)


def random_system(rng, n, m=1, p=1, margin=0.3):
    A = make_stable(rng, n, margin)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    return StateSpaceModel(A, B, C)


def kron_lyapunov(A, G):
    """Solve A P + P A^T + G = 0 as a dense Kronecker linear system."""
    n = A.shape[0]
    I = np.eye(n)
    K = np.kron(I, A) + np.kron(A, I)
    vec = np.linalg.solve(K, -np.asarray(G, dtype=float).ravel(order="F"))
    return vec.reshape((n, n), order="F")


def formed_lyapunov(A, G, schur):
    """``P`` of ``A P + P A^T + G = 0`` from the formed ``G``, on the real
    Schur form ``(T, U)`` of ``A``, as ``solve_lyapunov`` solved it before it
    took a factor of ``G``: ``U^T G U``, ``dtrsyl``, ``(P + P^T) / 2``."""
    T, U = schur
    P = U @ linalg._trsyl(T, T, -(U.T @ G @ U), tranb="T") @ U.T
    return (P + P.T) / 2.0


def clipped_sqrt_factor(P):
    """The n x n factor ``V diag(sqrt(max(w, 0)))`` of ``eigh(P)``, ``w``
    descending, as ``_sqrt_factor`` took it before it dropped the columns of
    the clipped ``w``."""
    w, V = np.linalg.eigh(P)
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1]
    return V[:, order] * np.sqrt(w[order])


def traced_peak(f):
    """The ``tracemalloc`` peak, in bytes, of the arrays ``f()`` allocates.
    numpy's LAPACK workspaces are allocated with malloc, unseen by it."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kron_sylvester(A, M, K):
    """Solve A^T Y + Y M + K = 0 via Kronecker vectorization."""
    n, r = A.shape[0], M.shape[0]
    Kop = np.kron(np.eye(r), A.T) + np.kron(M.T, np.eye(n))
    vec = np.linalg.solve(Kop, -np.asarray(K, dtype=float).ravel(order="F"))
    return vec.reshape((n, r), order="F")


def dense_h2_error(M, R):
    """H2 norm of the error system between ``M`` and ``R`` from one dense
    Lyapunov solve with the block-diagonal error realization (SciPy's
    solver, not the library's)."""
    n, r = M.n, R.n
    Ae = np.zeros((n + r, n + r))
    Ae[:n, :n] = M.A
    Ae[n:, n:] = R.A
    Be = np.vstack([M.B, R.B])
    Ce = np.hstack([M.C, -R.C])
    P = sla.solve_continuous_lyapunov(Ae, -Be @ Be.T)
    return float(np.sqrt(max(np.trace(Ce @ P @ Ce.T), 0.0)))


def h2_squared(M):
    """``tr(C P C^T)``, ``A P + P A^T + B B^T = 0``, from its own solve on
    the shared real Schur form of ``A``: ``||H||^2`` from the reachability
    side."""
    P = solve_lyapunov(M.A, M.B, M.real_schur)
    return float(np.sum((M.C @ P) * M.C))


def h2_norm(M):
    """H2 norm, computed Gramian-side as ``sqrt(trace(C P C^T))``."""
    return float(np.sqrt(max(h2_squared(M), 0.0)))


def h2_error_norm(M, R):
    """H2 norm of the error system between ``M`` and a model ``R``:
    ``||H||^2 - 2 tr(B^T Y Br) + ||Hr||^2`` from ``h2_squared`` and ``A^T Y
    + Y Ar + C^T Cr = 0``, solved on ``M.real_schur``.  The subtraction
    cancels: its relative accuracy is about ``eps ||C||^2 ||P|| / ||H -
    Hr||^2``, so checks against it carry a floor."""
    if R.m != M.m or R.p != M.p:
        raise DimensionMismatch("input/output dimensions differ between models")
    Y = solve_sylvester(M.A, R.A, M.C.T @ R.C, M.real_schur)
    cross = np.sum(M.B * (Y @ R.B))
    return float(np.sqrt(max(h2_squared(M) - 2.0 * cross + h2_squared(R), 0.0)))


def augmented_system(M, X0, scaling=True):
    """The system with input ``[B, gamma X0]``, and ``gamma``: the largest
    column norm of ``B`` over ``||X0||_2``, or 1 when either is empty or
    zero or ``scaling`` is off.  Its Gramian, solved directly, is the oracle
    of ``P_B + gamma^2 P_X0 = R^T R``, ``R`` from the QR of the two
    reachability factors that ``abt_reduce`` takes."""
    gamma = 1.0
    if scaling and X0.shape[1] > 0 and M.m > 0:
        bmax, xnorm = np.max(np.linalg.norm(M.B, axis=0)), np.linalg.norm(X0, 2)
        if bmax > 0 and xnorm > 0:
            gamma = float(bmax / xnorm)
    return M.with_input(np.hstack([M.B, gamma * X0])), gamma


def h2_quadrature(A, B, C, t_f=60.0, samples=60001):
    """H2 norm by trapezoidal quadrature of ||C e^{At} B||_F^2."""
    t = np.linspace(0.0, t_f, samples)
    h = t[1] - t[0]
    E = sla.expm(A * h)
    X = B.copy()
    acc = np.zeros(samples)
    for k in range(samples):
        H = C @ X
        acc[k] = np.sum(H * H)
        X = E @ X
    return float(np.sqrt(np.trapezoid(acc, t)))


def hankel_oracle(A, b, c, k, dt, t_f):
    """The ``k`` largest Hankel singular values of ``(A, b, c)``, one input
    and one output, with no matrix equation solved: those of its Hankel
    operator, ``(G u)(t) = int_0^inf h(t + s) u(s) ds`` with ``h(t) = c
    e^{At} b`` (Glover, IJC 39, 1984), on the midpoint grid of step ``dt``
    over ``[0, t_f / 2]``.  So ``G`` is the Hankel matrix ``dt h((i + j +
    1) dt)``, applied by FFT convolution; ``h`` is sampled to ``t_f`` by
    steps of scipy's ``expm(A dt)``, and ``svds`` reads the values off the
    matvec."""
    N = int(np.ceil(t_f / dt / 2))
    E = sla.expm(A * dt)
    x, h = E @ b, np.empty(2 * N - 1)
    for i in range(2 * N - 1):
        h[i] = c @ x
        x = E @ x
    size = 1 << int(np.ceil(np.log2(3 * N - 2)))
    H = np.fft.rfft(dt * h, size)

    def matvec(u):
        return np.fft.irfft(H * np.fft.rfft(np.ravel(u)[::-1], size), size)[N - 1:2 * N - 1]

    G = LinearOperator((N, N), matvec=matvec, rmatvec=matvec, dtype=float)
    return np.sort(svds(G, k=k, return_singular_vectors=False, random_state=0))[::-1]


def second_solve_derivative(M, s, Yv, cdirs):
    """``c_k^T H'(s_k) b_k = -c_k^T C (s_k I - A)^{-2} B b_k`` by a second
    shifted solve, ``T Y2 - Y2 S = -Yv`` on ``M.real_schur``, where ``Yv`` is
    the Schur-coordinate solve for ``(s_k I - A)^{-1} B b_k``: the reference
    for the derivative ``-w_k^T v_k`` that ``reduction._full_samples`` reads
    off the two basis solves."""
    T, U = M.real_schur
    H2 = _complex_columns(M.C @ U @ shifted_solve(T, s, Yv), s)
    return -np.sum(cdirs * H2, axis=0)


def per_shift_residuals(H, Hd, R, s, bdirs, cdirs):
    """The relative Hermite residuals of ``R`` against the full model's
    samples ``H`` (columns ``H(s_k) b_k``) and ``Hd`` (``c_k^T H'(s_k)
    b_k``), with two dense solves per shift: the reference for
    ``tangential_residuals``' two batched solves."""
    Ir = np.eye(R.n)
    val = der = 0.0
    for i, (b, c) in enumerate(zip(bdirs.T, cdirs.T)):
        xr = np.linalg.solve(s[i] * Ir - R.A, R.B @ b)
        val = max(val, np.linalg.norm(H[:, i] - R.C @ xr) / max(np.linalg.norm(H[:, i]), 1e-300))
        hrd = -(c @ (R.C @ np.linalg.solve(s[i] * Ir - R.A, xr)))
        der = max(der, abs(Hd[i] - hrd) / max(abs(Hd[i]), 1e-300))
    return {"value": float(val), "derivative": float(der)}


def long_horizon_error(M, R, X0, z0, u, t_f, dt, horizons=6):
    """L2 output error of ``R`` against ``M`` on ``[0, horizons t_f]``, with
    the input ``u`` up to ``t_f`` and zero after it, and the initial state
    ``X0 z0``: ``R`` is a split model (``online_phase``) or an augmented-BT
    one (its ``X0til z0``).  Both are stepped by ``simulate`` at the step
    ``dt``, and the error is the trapezoidal norm on that grid, so no matrix
    equation is solved; the tail past ``t_f``, which the report's errors
    leave out, is counted."""
    T = horizons * t_f
    t = np.arange(int(round(T / dt)) + 1) * dt
    u_T = InputSignal.sampled(t, np.where(t[:, None] <= t_f, u(t), 0.0))
    x0 = X0 @ z0
    if isinstance(R, SplitReducedModel):
        y_r = online_phase(R, u_T, x0, T, dt).y
    else:
        y_r = simulate(R.sys, u_T, R.X0til @ z0, T, dt).y
    e = simulate(M, u_T, x0, T, dt).y - y_r
    return float(np.sqrt(np.trapezoid(np.sum(e * e, axis=1), t)))


def foh_block(A, B):
    """``[[A, B, 0], [0, 0, I], [0, 0, 0]]``: its exponential at ``dt`` holds
    the FOH step matrices ``E``, ``F0 + F1`` and ``F1 dt`` in its first
    block row."""
    n, m = A.shape[0], B.shape[1]
    blk = np.zeros((n + 2 * m, n + 2 * m))
    blk[:n, :n] = A
    blk[:n, n:n + m] = B
    blk[n:n + m, n + m:] = np.eye(m)
    return blk


def step_simulate(M: StateSpaceModel, u, x0, t_f, dt):
    """The FOH recursion ``x_{k+1} = E x_k + F0 u_k + F1 u_{k+1}`` stepped
    one output sample at a time: the per-step reference for the lifted
    ``simulate``."""
    A, B, C = M.A, M.B, M.C
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    if t_f <= 0 or dt <= 0:
        raise InvalidParameter("need positive horizon and step")
    N = int(round(t_f / dt))
    dt = t_f / N  # the step simulate takes: N of them end at t_f
    t = np.arange(N + 1) * dt
    if u is None:
        u = InputSignal.zero(m)
    if u.m != m:
        raise InvalidParameter(f"input has {u.m} channels, model expects {m}")
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape[0] != n:
        raise InvalidParameter(f"x0 has length {x0.shape[0]}, expected {n}")

    if n == 0:
        y = np.zeros((N + 1, p))
        return SimulationTrace(t=t, y=y, provenance={"order": 0})

    # the FOH step matrices from scipy's expm, independent of icmor's
    Eb = sla.expm(foh_block(A, B) * dt)
    E, F1 = Eb[:n, :n], Eb[:n, n + m:] / dt
    F0 = Eb[:n, n:n + m] - F1
    U = u(t) if m else np.zeros((N + 1, 0))
    x = x0.copy()
    y = np.zeros((N + 1, p))
    y[0] = C @ x
    for k in range(N):
        x = E @ x + F0 @ U[k] + F1 @ U[k + 1]
        y[k + 1] = C @ x
    if not np.all(np.isfinite(y)):
        raise NonFinite("simulation produced non-finite output")
    return SimulationTrace(t=t, y=y, provenance={"order": n, "substeps": 1})


@pytest.fixture()
def rng():
    # function-scoped so each test sees the same stream no matter which
    # subset of the suite runs
    return np.random.default_rng(12345)


@pytest.fixture()
def lyapunov_orders(monkeypatch):
    """The order of every ``solve_lyapunov`` call, wherever an icmor module
    binds the function."""
    from icmor import linalg

    return _recorded_orders(monkeypatch, linalg.solve_lyapunov)


@pytest.fixture()
def expm_orders(monkeypatch):
    """The order of every ``matrix_exponential`` call, wherever an icmor
    module binds the function."""
    from icmor import linalg

    return _recorded_orders(monkeypatch, linalg.matrix_exponential)


def _recorded_orders(monkeypatch, original, orders=None, order=lambda A: np.shape(A)[0]):
    orders = [] if orders is None else orders

    def counted(A, *args, **kwargs):
        orders.append(order(A))
        return original(A, *args, **kwargs)

    _rebind_in_icmor(monkeypatch, original, counted)
    return orders


class SchurOrders(list):
    """Orders of the real Schur forms; ``complex`` lists those of the
    complex ones."""

    def __init__(self):
        super().__init__()
        self.complex = []


@pytest.fixture()
def schur_calls(monkeypatch):
    """The order of every Schur form icmor computes from here on: the real
    forms, from ``linalg._real_schur`` wherever an icmor module binds it, as
    the list, and the complex ones, from LAPACK's ``zgees`` on
    ``linalg._flapack``, as its ``complex``."""
    return _schur_orders(monkeypatch)


def _schur_orders(monkeypatch):
    from icmor import linalg

    orders = _recorded_orders(monkeypatch, linalg._real_schur, SchurOrders())
    zgees = linalg._flapack.zgees

    def counted(select, a, *args, **kwargs):
        # a workspace query (lwork = -1) computes no form
        if kwargs.get("lwork") != -1:
            orders.complex.append(np.shape(a)[0])
        return zgees(select, a, *args, **kwargs)

    monkeypatch.setattr(linalg._flapack, "zgees", counted)
    return orders


def _rebind_in_icmor(monkeypatch, original, replacement):
    for name, mod in list(sys.modules.items()):
        if name == "icmor" or name.startswith("icmor."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, replacement)


def _recorded_shapes(monkeypatch, module, name):
    shapes, original = [], getattr(module, name)

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return shapes


def record_kernels(monkeypatch):
    """Record the calls of the order-n kernels from here on; returns
    ``budget(n, m)``, the number of calls of each of order >= n (>= n + 2m
    for the FOH step's exponential, n x r for Sylvester solves, the order of
    ``T`` for IRKA's shifted solves, that of the Gramian for
    ``_sqrt_factor``, the state order for the Hankel spectra, whose SVD is of
    the k_U x k_L product of the factors, and the smaller dimension for
    ``np.linalg.svd``), of real Schur forms of order 1 to n - 1, and the
    number of ``np.linalg.cholesky`` and ``np.linalg.eigvals`` calls of any
    order."""
    from icmor import gramians, linalg

    schur = _schur_orders(monkeypatch)
    lyapunov = _recorded_orders(monkeypatch, linalg.solve_lyapunov)
    sylvester = _recorded_orders(monkeypatch, linalg.solve_sylvester)
    expm = _recorded_orders(monkeypatch, linalg.matrix_exponential)
    shifted = _recorded_orders(monkeypatch, linalg.shifted_solve)
    factor = _recorded_orders(monkeypatch, linalg._sqrt_factor)
    hankel = _recorded_orders(monkeypatch, gramians.hankel_spectrum, order=lambda F: F.U.shape[0])
    eigvals = _recorded_shapes(monkeypatch, np.linalg, "eigvals")
    svd = _recorded_shapes(monkeypatch, np.linalg, "svd")
    cholesky = _recorded_shapes(monkeypatch, np.linalg, "cholesky")

    def budget(n, m):
        return {
            "real Schur form": sum(k >= n for k in schur),
            "reduced-order real Schur form": sum(0 < k < n for k in schur),
            "complex Schur form": len(schur.complex),
            "solve_lyapunov": sum(k >= n for k in lyapunov),
            "Gramian factorization": sum(k >= n for k in factor),
            "Cholesky": len(cholesky),
            "Hankel SVD": sum(k >= n for k in hankel),
            "order-n SVD": sum(min(shape) >= n for shape in svd),
            "eigvals": len(eigvals),
            "FOH expm": sum(k >= n + 2 * m for k in expm),
            "n x r solve_sylvester": sum(k >= n for k in sylvester),
            "IRKA shifted_solve": sum(k >= n for k in shifted),
        }
    return budget
