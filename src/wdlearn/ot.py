"""Exact discrete optimal transport, entropic solver, and c-transform.

Every exact solve, ``exact_ot`` over a ground space and a cost-matrix
solve over a metric sample alike, goes through one certified function,
``solve_transport_lp``.  It poses the Kantorovich problem restricted to
the support atoms as a linear program and reads the duals back as
Kantorovich potentials, extended to zero-weight atoms by c-transform and
gauged so that ``psi`` vanishes at the first index.  The primal-dual gap,
dual feasibility and the flow's conservation at every node are checked on
every solve; the coupling is built, and its marginals checked, only when
``plan.matrix`` is first read.

The LP takes one of two forms.  On a rank-2 unit grid with ``p = 2`` the
cost ``(i - k)^2 + (j - l)^2`` splits through a transit node ``(k, j)``,
and the LP is a tripartite min-cost flow with about ``2 n^3`` arcs on
an ``n x n`` grid (Auricchio, Bassetti, Gualandi & Veneroni 2018); every
other cost gets the dense LP with one arc per pair of support atoms.
The flow has the dense LP's optimum, its sink potentials are optimal dense
duals, and the extension and certificates run on the dense cost matrix
either way.  The exponent ``p`` and the cost matrix come from the
ground space; no function here takes its own.

Both forms are posed as one uncapacitated min-cost flow: arcs given by
their ends, tail then head, with a cost each, and a supply at each node,
``a`` at the sources, 0 at the transit nodes and ``-b`` at the sinks.
:func:`linprog` solves it by the primal network simplex of
``_network_simplex.c`` (after LEMON's, as in the exact EMD of
Bonneel, van de Panne, Paris & Heidrich 2011) through ``ctypes``, which
releases the GIL for the call.  The source is compiled once, at import
and never inside a solve, into ``$XDG_CACHE_HOME/wdlearn`` (or
``~/.cache/wdlearn``) under the SHA-256 of the source and the command,
or into a private temporary directory where that one is unsafe; a later
import loads it from there.  Where none can be built, one WARNING is
logged and every solve runs scipy's ``linprog`` (HiGHS dual simplex) on
the flow's node-arc matrix, which only that path builds.

The flow's structure (arc ends and costs and the plan's scatter indices,
all read-only) depends only on the grid and the two supports, so the
last one built is kept in a single slot and reused while that key
repeats, as it does between full-support measures.  The dense LP's arc
ends are built per solve.  No result or basis is kept: every solve runs
its own LP and passes every certificate.

The entropic solver, :func:`sinkhorn`, is the stabilized scaling
algorithm of Schmitzer (2019): scaling iterations, two matrix-vector
products each, on a kernel into which log-domain potentials are
absorbed.  Log-domain iterations, two log-sum-exp passes each, run only
to start and whenever the scalings leave a fixed range or a product goes
non-finite.

Each LP solve logs one DEBUG record on the ``wdlearn.ot`` logger: the
LP's size on the supports, then ``lp_form`` (``grid-flow`` or ``dense``),
``lp_cols`` (arcs), ``lp_path`` (``network-simplex`` or ``linprog``),
``lp_status``, ``simplex_iters``, the certificates' ``gap``,
``dual_infeasibility`` and ``marginal_error`` (the flow's largest
conservation residual), and ``ns``, the nanoseconds spent.  Each
Sinkhorn solve logs the support sizes, then ``sinkhorn_iters``,
``log_iters`` (those run in the log domain), the final marginal
``violation`` and ``ns``.  :func:`_record` writes both:
each name is an attribute of the record, and the message lists
``name=value`` for each, in that order.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import logging
import math
import os
import shlex
import shutil
import stat
import subprocess
import sysconfig
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import OptimizeResult
from scipy.optimize import linprog as _scipy_linprog

from .errors import NotConverged, SolverFailure
from .measures import DiscreteMeasure, ensure_same_ground

_FEAS_TOL = 1e-9
_MARGINAL_TOL = 1e-9

# Settings of the fallback, scipy's ``linprog``: the dual simplex returns
# an exact basic solution, presolve has little to remove from a transport
# LP, and devex pricing (Harris 1973) takes fewer iterations here.
_LP_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "simplex_dual_edge_weight_strategy": "devex",
}
# A kernel solve fails after this many pivots; an 8x8 flow LP takes about
# 330, and strongly feasible trees do not cycle, so it guards against faults.
_PIVOT_CAP = 10_000_000

_log = logging.getLogger(__name__)


def _record(what, t0, **fields):
    """Log one DEBUG record of a solve that began at ``t0``, a
    ``time.perf_counter_ns()`` reading: the ``fields`` and then ``ns``, the
    nanoseconds since, are its attributes, and its message is ``what``
    followed by their ``name=value`` pairs in that order, floats as ``%.3e``."""
    fields["ns"] = time.perf_counter_ns() - t0
    text = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}" for k, v in fields.items())
    _log.debug("%s: %s", what, text, extra=fields)


def _cache_dir():
    """``$XDG_CACHE_HOME/wdlearn`` (``~/.cache/wdlearn`` where that is
    unset) if this user owns it, may write to it and no other user may; a
    private temporary directory, removed at exit, otherwise."""
    path = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "wdlearn"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
        if st.st_uid == os.getuid() and not st.st_mode & stat.S_IWOTH and os.access(path, os.W_OK):
            return path
    except OSError:
        pass
    path = tempfile.mkdtemp(prefix="wdlearn-")
    atexit.register(shutil.rmtree, path, True)
    return Path(path)


def _load_kernel():
    """The network simplex ``ns_solve`` of ``_network_simplex.c``, compiled
    by Python's C compiler into the cache directory under the SHA-256 of
    the source and the command, or loaded from there when that library
    exists; None, after one WARNING, where it cannot be built or loaded."""
    source = Path(__file__).with_name("_network_simplex.c")
    try:
        cc = sysconfig.get_config_var("CC")
        if not cc:
            raise OSError("Python names no C compiler")
        command = [*shlex.split(cc), "-O2", "-shared", "-fPIC"]
        digest = hashlib.sha256(source.read_bytes() + " ".join(command).encode()).hexdigest()
        lib = _cache_dir() / f"{digest}.so"
        if not lib.exists():
            # written under a name of this process's, then moved into place
            tmp = lib.with_suffix(f".{os.getpid()}.tmp")
            subprocess.run([*command, "-o", tmp, source], check=True, capture_output=True)
            os.replace(tmp, lib)
        kernel = ctypes.CDLL(str(lib)).ns_solve
    except (OSError, subprocess.CalledProcessError) as exc:
        _log.warning("network simplex not built (%s); exact solves run scipy's linprog", exc)
        return None
    # (n, m, ends, cost, supply, max_pivots, flow, pi): the arrays go as
    # addresses of contiguous arrays of the C types, which linprog makes
    kernel.argtypes = [ctypes.c_int] * 2 + [ctypes.c_void_p] * 3 + [ctypes.c_long] + [ctypes.c_void_p] * 2
    kernel.restype = ctypes.c_long
    return kernel


_kernel = _load_kernel()


class TransportPlan:
    """Coupling matrix between two measures with its transport cost.  The
    matrix is given as an array (Sinkhorn's) or as a function of no arguments
    (an exact solve's) that builds and certifies it on the first read; later
    reads return that same array (two threads' first reads may both build)."""

    def __init__(self, matrix, cost: float):
        self._matrix, self.cost = matrix, cost

    @property
    def matrix(self) -> np.ndarray:
        if callable(self._matrix):
            self._matrix = self._matrix()
        return self._matrix


@dataclass(frozen=True)
class PotentialPair:
    """Kantorovich potentials for a measure pair.

    ``psi`` is paired with the first measure of the solve and ``phi``
    with the second, so ``dual_value = <phi, nu> + <psi, mu>`` and
    ``phi(y) + psi(x) <= d(x, y)^p`` for all ground points.  ``psi`` is
    gauged to vanish at the first ground point.
    """

    phi: np.ndarray
    psi: np.ndarray
    dual_value: float


def _grid_flow(grid_shape, ia, ib):
    """The tripartite flow LP for the squared Euclidean cost of a unit grid.

    Sources ``(i, j)`` on ``ia`` send to transit nodes ``(k, j)``, which
    send to sinks ``(k, l)`` on ``ib``, at arc costs ``(i - k)^2`` and
    ``(j - l)^2``.  Only transit nodes whose row holds a sink and whose
    column holds a source are kept, so each source reaches each sink by
    exactly one path.  The nodes are the sources, the transit nodes and
    the sinks, in that order.  The arcs into the transit layer come
    first, source-major, then the arcs out of it, sink-major.

    Returns the arc costs, the arc ends (an ``(arcs, 2)`` C-contiguous
    ``np.intc`` array, tail then head), the number of transit nodes and
    a function that takes a flow to its coupling on the ground points.
    Every array of it, the plan's scatter indices included, is
    read-only, so the whole may be reused for any solve on the same
    grid and supports.
    """
    nr, nc = grid_shape
    si, sj = np.divmod(ia, nc)
    tk, tl = np.divmod(ib, nc)
    rows, sink_row = np.unique(tk, return_inverse=True)
    cols, source_col = np.unique(sj, return_inverse=True)
    ma, mb, n_rows, n_cols = len(ia), len(ib), len(rows), len(cols)
    n_in, n_out, n_transit = ma * n_rows, mb * n_cols, n_rows * n_cols
    into = np.arange(n_rows)[None, :] * n_cols + source_col[:, None]
    out_of = sink_row[:, None] * n_cols + np.arange(n_cols)[None, :]
    ends = np.column_stack([
        np.concatenate([np.repeat(np.arange(ma), n_rows), ma + out_of.ravel()]),
        np.concatenate([ma + into.ravel(), ma + n_transit + np.repeat(np.arange(mb), n_cols)]),
    ]).astype(np.intc)
    c = np.concatenate([
        ((si[:, None] - rows[None, :]) ** 2).ravel(),
        ((cols[None, :] - tl[:, None]) ** 2).ravel(),
    ]).astype(float)
    # flat positions of the arcs in x_in[i, j, k] (from (i, j) into
    # (k, j)) and x_out[j, k, l] (from (k, j) out to (k, l))
    scatter_in = np.ravel_multi_index(
        (si[:, None], sj[:, None], rows[None, :]), (nr, nc, nr)
    ).ravel()
    scatter_out = np.ravel_multi_index(
        (cols[None, :], tk[:, None], tl[:, None]), (nc, nr, nc)
    ).ravel()
    for arr in (c, ends, scatter_in, scatter_out):
        arr.setflags(write=False)

    def plan(x):
        # At each transit node (k, j) the inflows from (i, j), in order of
        # i, are paired with the outflows to (k, l), in order of l, by a
        # north-west-corner merge: the overlap of two stacks of intervals.
        # A source-sink pair meets at one node only, so the merge is a
        # coupling with the flow's cost.
        x_in = np.zeros(nr * nc * nr)
        x_in[scatter_in] = x[:n_in]
        x_out = np.zeros(nc * nr * nc)
        x_out[scatter_out] = x[n_in:]
        hi_in = x_in.reshape(nr, nc, nr).cumsum(axis=0)
        hi_out = x_out.reshape(nc, nr, nc).cumsum(axis=2)
        lo_in, lo_out = np.zeros_like(hi_in), np.zeros_like(hi_out)
        lo_in[1:], lo_out[:, :, 1:] = hi_in[:-1], hi_out[:, :, :-1]
        overlap = np.minimum(hi_in[..., None], hi_out)
        overlap -= np.maximum(lo_in[..., None], lo_out)
        return np.maximum(overlap, 0.0, out=overlap).reshape(nr * nc, nr * nc)

    return c, ends, n_transit, plan


def _dense_lp(cost, ia, ib):
    """The dense LP on the supports, returned as :func:`_grid_flow` returns
    its flow: arc ``i * mb + j`` carries mass from ``ia[i]`` to ``ib[j]``."""
    ma, mb, shape = len(ia), len(ib), cost.shape
    c = np.ascontiguousarray(cost[np.ix_(ia, ib)]).ravel()
    ends = np.column_stack([
        np.repeat(np.arange(ma, dtype=np.intc), mb), ma + np.tile(np.arange(mb, dtype=np.intc), ma)
    ])

    def plan(x):
        gamma = np.zeros(shape)
        gamma[np.ix_(ia, ib)] = x.reshape(ma, mb)
        return gamma

    return c, ends, 0, plan


# The last grid flow built, as ``(key, structure)``, keyed by ``(grid_shape,
# supp a, supp b)``.  One slot holds a run whose supports repeat, such as
# every solve between full-support measures on one grid, and costs a rebuild
# only when the key changes.  It holds the LP's arcs, never a result: every
# solve still runs and is certified.
_flow_slot = None


def _reused_grid_flow(grid_shape, ia, ib):
    """:func:`_grid_flow` of the key, from the slot when the key repeats."""
    global _flow_slot
    key = (tuple(grid_shape), ia.tobytes(), ib.tobytes())
    slot = _flow_slot
    if slot is None or slot[0] != key:
        slot = _flow_slot = (key, _grid_flow(grid_shape, ia, ib))
    return slot[1]


def _marginal(name, w, n):
    """``w`` as a float vector if it is a marginal for a cost side of ``n``
    points: finite, nonnegative, of length ``n`` and not all zero; raises
    ``ValueError`` naming the argument otherwise."""
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"{name} of shape {w.shape} is not a vector over {n} points")
    # a NaN fails both comparisons; the initial 0 gives an empty w no mass
    lo, hi = w.min(initial=0.0), w.max(initial=0.0)
    if not (lo >= 0.0 and hi < math.inf):
        raise ValueError(f"{name} must be finite and nonnegative")
    if not hi > 0.0:
        raise ValueError(f"{name} has no mass")
    return w


def linprog(ends, c, supply):
    """``min <c, x>`` over flows ``x >= 0`` on the arcs ``ends``, an
    ``(arcs, 2)`` array of node indices, tail then head, whose outflow
    minus inflow at each node is its ``supply``; by the network simplex
    of ``_network_simplex.c``, or by scipy's ``linprog`` with
    ``_LP_OPTIONS`` where that could not be built at import.

    Returns ``status`` (0 at an optimum, 1 at ``_PIVOT_CAP`` pivots, 2 if
    infeasible: an artificial arc keeps more flow than ``_MARGINAL_TOL``),
    ``message``, ``nit`` (the pivots, or HiGHS's iterations), and ``x``,
    ``fun`` and ``pi``, None unless optimal, and ``lp_path``
    (``"network-simplex"`` or ``"linprog"``).  ``pi`` are the node
    potentials: ``c[e] + pi[tail] - pi[head] >= 0`` on every arc, with
    equality where ``x`` flows.  The benchmark's tracer wraps this name
    and reads ``nit``.

    Raises ``ValueError``, before any solve, unless ``c`` and ``supply``
    are vectors and ``ends`` has one row of two ends for each entry of
    ``c``: the kernel reads the arrays by address.  An end outside the
    nodes of ``supply`` fails the kernel's solve.
    """
    ends = np.ascontiguousarray(ends, dtype=np.intc)
    c = np.ascontiguousarray(c, dtype=np.float64)
    supply = np.ascontiguousarray(supply, dtype=np.float64)
    if c.ndim != 1 or supply.ndim != 1 or ends.shape != (len(c), 2):
        raise ValueError("linprog takes ends of shape (arcs, 2), c over the arcs, supply over the nodes")
    n, m = len(supply), len(c)
    if _kernel is None:
        # HiGHS gets the node-arc matrix with the rows of demand nodes
        # negated, so every right-hand side is a nonnegative mass
        sign = np.where(supply < 0.0, -1.0, 1.0)
        A_eq = sparse.csc_matrix(
            (np.column_stack([sign[ends[:, 0]], -sign[ends[:, 1]]]).ravel(), ends.ravel(),
             np.arange(0, 2 * m + 1, 2)),
            shape=(n, m),
        )
        res = _scipy_linprog(
            c, A_eq=A_eq, b_eq=sign * supply, bounds=(0, None), method="highs-ds", options=_LP_OPTIONS
        )
        res.pi = -sign * res.eqlin.marginals if res.status == 0 else None
        res.lp_path = "linprog"
        return res
    flow, pi = np.empty(m + n), np.empty(n)
    nit = _kernel(
        n, m, ends.ctypes.data, c.ctypes.data, supply.ctypes.data, _PIVOT_CAP,
        flow.ctypes.data, pi.ctypes.data,
    )
    res = OptimizeResult(
        status=4, nit=max(nit, 0), x=None, fun=None, pi=None,
        lp_path="network-simplex", message="The network simplex failed.",
    )
    if nit == -1:
        res.status, res.nit = 1, _PIVOT_CAP
        res.message = f"The network simplex reached its cap of {_PIVOT_CAP} pivots."
    elif nit >= 0 and flow[m:].max() > _MARGINAL_TOL:
        res.status, res.message = 2, "The problem is infeasible."
    elif nit >= 0:
        res.status, res.message = 0, "Optimization terminated successfully."
        res.x = flow[:m]
        res.fun = float(c @ res.x)
        res.pi = pi
    return res


def solve_transport_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray, grid_shape=None):
    """Certified exact solve of ``min <cost, gamma>`` over couplings of
    ``a`` and ``b``.

    The LP is restricted to support atoms and posed as a min-cost flow
    with supply ``a`` at the atoms of ``supp a`` and ``-b`` at those of
    ``supp b``; without ``grid_shape`` it has one arc per support pair,
    from ``x`` to ``y`` at cost ``cost[x, y]``.  :func:`linprog`, the
    network simplex, solves it from scratch.  Its node potentials satisfy
    ``pi(y) - pi(x) <= cost[x, y]``, so the sinks' potentials ``v`` are
    optimal duals on ``b``'s support.  They are extended by
    :func:`c_transform`, ``psi(x) = min_{y in supp b} cost[x, y] - v(y)``
    and ``phi(y) = min_x cost[x, y] - psi(x)``, a pair feasible
    everywhere with the same dual value.

    With ``grid_shape = (nr, nc)``, ``cost`` must be the squared
    Euclidean cost of that unit grid, listed row-major.  The cost from
    ``(i, j)`` to ``(k, l)`` then splits as ``(i - k)^2 + (j - l)^2``
    through the transit node ``(k, j)`` (Auricchio et al. 2018), of
    supply 0, and the flow runs from ``supp a`` through the transit
    nodes to ``supp b``: about ``2 n^3`` arcs on an ``n x n`` grid
    instead of ``n^4``.  Each source reaches each sink by one path whose
    cost is ``cost[x, y]``, so the flow's optimum is the transport
    optimum, and the potentials' bounds along a path's two arcs add up to
    ``v(y) - pi(x) <= cost[x, y]``: the sinks' potentials are optimal
    dense duals again.  The extension, gauge and certificates below then
    run on ``cost`` unchanged.  The flow's arcs are kept for the last
    grid and pair of supports and reused while they repeat; only the
    supplies change between such solves.

    Returns
    -------
    plan : TransportPlan
        Its ``matrix`` is built from the flow on first read, and its row
        and column sums are checked against ``a`` and ``b`` there.
    potentials : PotentialPair
        ``phi`` paired with ``b``, ``psi`` with ``a``; ``psi[0] = 0``.
    value : float
        The LP's optimal objective.  For the flow it is summed over the
        arcs, in another order than ``<cost, plan>``, so the two can
        differ in the last bits.

    Raises ``ValueError``, before any LP, if ``cost`` is not finite, if
    ``a`` or ``b`` is not a finite, nonnegative vector over its side of
    ``cost`` with some mass, or if
    ``grid_shape`` is not a rank-2 shape with ``cost.shape[0]`` points;
    raises ``SolverFailure`` if the LP fails or a certificate (gap,
    feasibility, marginals as the flow's largest conservation residual)
    misses its tolerance or reads NaN; the first read of ``plan.matrix``
    raises it if the plan's marginals miss ``_MARGINAL_TOL``.
    """
    t0 = time.perf_counter_ns()
    if not np.isfinite(cost).all():
        raise ValueError("cost must be finite")
    a = _marginal("a", a, cost.shape[0])
    b = _marginal("b", b, cost.shape[1])
    ia = np.flatnonzero(a > 0.0)
    ib = np.flatnonzero(b > 0.0)
    ma, mb = len(ia), len(ib)

    if grid_shape is None:
        lp_form = "dense"
        c, ends, n_transit, flow_plan = _dense_lp(cost, ia, ib)
    else:
        if len(grid_shape) != 2 or grid_shape[0] * grid_shape[1] != cost.shape[0]:
            raise ValueError(f"grid shape {grid_shape} is not a rank-2 grid of {cost.shape[0]} points")
        lp_form = "grid-flow"
        c, ends, n_transit, flow_plan = _reused_grid_flow(grid_shape, ia, ib)

    supply = np.concatenate([a[ia], np.zeros(n_transit), -b[ib]])
    res = linprog(ends, c, supply)
    gap = feas = marginal = math.nan
    if res.status == 0:
        value = float(res.fun)
        # the flow's conservation residual at each node: outflow - inflow - supply
        net = np.bincount(ends[:, 0], res.x, len(supply)) - np.bincount(ends[:, 1], res.x, len(supply))
        marginal = np.abs(net - supply).max()
        v = res.pi[ma + n_transit:]
        psi = c_transform(v, cost if mb == cost.shape[1] else cost[:, ib])
        phi = c_transform(psi, cost.T)
        psi, phi = psi - psi[0], phi + psi[0]  # the gauge psi[0] = 0
        dual_value = float(np.dot(phi, b) + np.dot(psi, a))
        gap = abs(dual_value - value)
        feas = (phi[None, :] + psi[:, None] - cost).max()
    if _log.isEnabledFor(logging.DEBUG):
        _record(
            f"transport LP {ma}x{mb}", t0, lp_form=lp_form, lp_cols=len(c), lp_path=res.lp_path,
            lp_status=res.message, simplex_iters=int(res.nit),
            gap=gap, dual_infeasibility=feas, marginal_error=marginal,
        )
    if res.status != 0:
        raise SolverFailure(f"transport LP failed: {res.message}")
    if not gap <= _FEAS_TOL * (1.0 + abs(value)):
        raise SolverFailure(f"primal-dual gap {gap:.3e} exceeds tolerance")
    if not feas <= _FEAS_TOL:
        raise SolverFailure(f"dual feasibility violated by {feas:.3e}")
    if not marginal <= _MARGINAL_TOL:
        raise SolverFailure(f"plan marginals violated by {marginal:.3e}")

    def matrix():  # the plan, built and certified on its first read
        gamma = flow_plan(res.x)
        error = max(np.abs(gamma.sum(axis=1) - a).max(), np.abs(gamma.sum(axis=0) - b).max())
        if not error <= _MARGINAL_TOL:
            raise SolverFailure(f"plan marginals violated by {error:.3e}")
        return gamma

    return TransportPlan(matrix, value), PotentialPair(phi=phi, psi=psi, dual_value=dual_value), value


def exact_ot(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Exact optimal transport between two measures, at the cost
    ``ground.cost_matrix()`` of their ground space.

    On a rank-2 grid with ``ground.p == 2`` the LP is posed as the
    tripartite flow of ``solve_transport_lp``; every other ground space
    gets the dense LP.  Both give the same optimum and pass the same
    certificates against the dense cost matrix.

    Parameters
    ----------
    mu, nu : DiscreteMeasure
        Measures on a shared ground space.

    Returns
    -------
    plan : TransportPlan
    potentials : PotentialPair
        ``phi`` paired with ``nu``, ``psi`` with ``mu``; ``psi[0] = 0``.
    wpp : float
        ``W_p^p(mu, nu)``, the LP's optimal objective.
    """
    ensure_same_ground(mu.ground, nu.ground)
    ground, shape = mu.ground, mu.ground.grid_shape
    flow = shape is not None and len(shape) == 2 and ground.p == 2.0
    return solve_transport_lp(
        ground.cost_matrix(), mu.weights, nu.weights, grid_shape=shape if flow else None
    )


def wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """``W_p(mu, nu)`` via the exact solver, ``p`` the ground's."""
    _, _, wpp = exact_ot(mu, nu)
    # a degenerate basic solution may report a cost of -1e-18; the root
    # must not turn that into a NaN
    return float(max(wpp, 0.0) ** (1.0 / mu.ground.p))


def pairwise_wasserstein(measures: Sequence[DiscreteMeasure]) -> np.ndarray:
    """Symmetric matrix of ``W_p`` distances between the given measures."""
    n = len(measures)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = wasserstein(measures[i], measures[j])
    return D


def logsumexp(x, axis):
    """``log(sum(exp(x), axis))``, with the entries shifted by their
    maximum along ``axis`` (by 0 where that maximum is not finite, so an
    all ``-inf`` slice gives ``-inf``)."""
    shift = x.max(axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    out = np.log(np.exp(x - shift).sum(axis=axis))
    return out + shift.reshape(out.shape)


# Sinkhorn's scalings are absorbed into the log-domain potentials once
# either leaves [1 / _SCALING_BOUND, _SCALING_BOUND], checked every
# _ABSORB_EVERY iterations (Schmitzer 2019).  The range lies far inside
# the float range, so products seldom go non-finite between two checks,
# and a check costs four reductions, against two for an iteration.
_SCALING_BOUND = 1e30
_ABSORB_EVERY = 10


def sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    reg: float = 0.1,
    tol: float = 1e-9,
    max_iter: int = 10000,
):
    """Entropic-regularized transport via stabilized Sinkhorn scaling.

    Each iteration updates the potential ``f`` on ``mu``'s support so that
    the plan's row sums match ``mu``, then ``g`` so that its column sums
    match ``nu``.  The first iteration runs in the log domain, on
    potentials ``u = f / reg`` and ``v = g / reg``, and forms the absorbed
    kernel ``G = exp(u + v - C / reg)`` once; the plan is then
    ``diag(su) G diag(sv)``, and each further iteration is a scaling step
    ``su = a / (G sv)``, ``sv = b / (G^T su)``, two matrix-vector
    products.  Every 10 iterations, if a scaling has left
    ``[1e-30, 1e30]``, the next iteration runs in the log domain: it
    absorbs the scalings into ``u`` and ``v`` and rebuilds ``G``.  So does
    an iteration whose products go non-finite, from the state before it.
    The costs may lie far above ``reg``: ``G`` is built from the current
    potentials, where ``exp(-C / reg)`` alone would underflow.

    After a ``g`` update the column sums are exact up to rounding, so the
    marginal violation is that of the row sums, ``su * (G sv)``, whose
    product the next update needs anyway.  Once the violation drops below
    ``tol`` the regularized plan is returned, together with its
    unregularized cost ``sum d^p gamma``.

    Each solve logs one DEBUG record on the ``wdlearn.ot`` logger:
    ``sinkhorn_iters``, ``log_iters``, ``violation`` and ``ns``.

    Raises
    ------
    ValueError
        If ``reg`` or ``tol`` is not finite and positive, or ``max_iter``
        is below 1.
    NotConverged
        If ``max_iter`` iterations end above ``tol``; carries the final
        violation.
    """
    ensure_same_ground(mu.ground, nu.ground)
    if not (np.isfinite(reg) and reg > 0):
        raise ValueError(f"reg must be finite and positive, got {reg!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    t0 = time.perf_counter_ns()
    cost = mu.ground.cost_matrix()
    ia = np.flatnonzero(mu.weights > 0)
    ib = np.flatnonzero(nu.weights > 0)
    a, b = mu.weights[ia], nu.weights[ib]
    la, lb = np.log(a), np.log(b)

    # log-domain potentials in units of reg (f = reg * u, g = reg * v);
    # both passes reduce along a contiguous last axis, of K or of its
    # transpose
    K = cost[np.ix_(ia, ib)] / -reg

    v, sv = np.zeros(len(ib)), np.ones(len(ib))
    log_step, log_iters = True, 0
    # a non-finite product shows as a non-finite violation, not a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for n_iter in range(1, max_iter + 1):
            if not log_step:
                su_n = a / Gv
                sv_n = b / (su_n @ G)
                Gv_n = G @ sv_n
                violation = float(np.abs(su_n * Gv_n - a).max())
                # a non-finite product: redo the iteration in the log
                # domain from the scalings before it
                log_step = not math.isfinite(violation)
                if not log_step:
                    su, sv, Gv = su_n, sv_n, Gv_n
            if log_step:
                v += np.log(sv)
                u = la - logsumexp(K + v, 1)
                v = lb - logsumexp(np.add(K.T, u, order="C"), 1)
                G = np.exp(K + u[:, None] + v[None, :])
                su, sv = np.ones(len(ia)), np.ones(len(ib))
                Gv = G.sum(axis=1)
                violation = float(np.abs(Gv - a).max())
                log_step, log_iters = False, log_iters + 1
            if violation < tol:
                break
            if n_iter % _ABSORB_EVERY == 0:
                log_step = not all(
                    1.0 / _SCALING_BOUND <= s.min() and s.max() <= _SCALING_BOUND
                    for s in (su, sv)
                )

    if _log.isEnabledFor(logging.DEBUG):
        _record(
            f"sinkhorn {len(ia)}x{len(ib)}", t0,
            sinkhorn_iters=n_iter, log_iters=log_iters, violation=violation,
        )
    if not violation < tol:
        raise NotConverged(f"sinkhorn stopped after {max_iter} iterations", violation)

    gamma = np.zeros_like(cost)
    gamma[np.ix_(ia, ib)] = su[:, None] * G * sv[None, :]
    approx_wpp = float((gamma * cost).sum())
    return TransportPlan(matrix=gamma, cost=approx_wpp), approx_wpp


def c_transform(f, cost: np.ndarray) -> np.ndarray:
    """``f^c(x) = min_y cost[x, y] - f(y)`` by enumeration, for ``f`` over the
    columns of ``cost`` (over its rows with ``cost.T``); raises ``ValueError``
    if ``f`` is not such a vector."""
    f = np.asarray(f, dtype=float)
    if f.shape != cost.shape[1:]:
        raise ValueError(f"f of shape {f.shape} is not a vector over {cost.shape[1]} columns")
    return (cost - f[None, :]).min(axis=1)
