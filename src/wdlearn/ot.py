"""Exact discrete optimal transport, entropic solver, and c-transform.

Every exact solve, ``exact_ot`` over a ground space and a cost-matrix
solve over a metric sample alike, goes through one certified function,
``solve_transport_lp``.  It poses the Kantorovich problem restricted to
the support atoms as a linear program and reads the duals back as
Kantorovich potentials, extended to zero-weight atoms by c-transform and
gauged so that ``psi`` vanishes at the first index.  The primal-dual gap,
dual feasibility and plan marginals are checked on every solve.

The LP takes one of two forms.  On a rank-2 unit grid with ``p = 2`` the
cost ``(i - k)^2 + (j - l)^2`` splits through a transit node ``(k, j)``,
and the LP is a tripartite min-cost flow with about ``2 n^3`` columns on
an ``n x n`` grid (Auricchio, Bassetti, Gualandi & Veneroni 2018); every
other cost gets the dense LP with one column per pair of support atoms.
The flow has the dense LP's optimum, its sink duals are optimal dense
duals, and the extension and certificates run on the dense cost matrix
either way.  The exponent ``p`` and the cost matrix come from the
ground space; no function here takes its own.

Both forms run the HiGHS dual simplex (Huangfu & Hall 2018) with devex
pricing (Harris 1973), which takes fewer iterations on these LPs than
the default.  Each solve passes the LP's column-wise arrays as a new
model to its thread's HiGHS instance, kept across solves, runs it cold
and reads back only the status, the solution, the objective, the row
duals and the iteration count.
Settings and results are bitwise those of ``scipy.optimize.linprog``
with ``method="highs-ds"``, without that wrapper's input checks and the
bound duals it fills column by column.  The model is built through
scipy's private HiGHS bindings.  They are used only by :func:`linprog`
and imported in one guarded block; where they do not import,
:func:`linprog` calls scipy's public ``linprog`` with the same settings.

The flow's structure (arc costs, constraint matrix and the plan's
scatter indices, all read-only) depends only on the grid and the two
supports, so the last one built is kept in a single slot and reused
while that key repeats, as it does between full-support measures.  The
dense LP's constraint matrix depends only on the two support sizes and
is built directly in the column-wise form.  No result or basis is kept:
every solve runs its own LP and passes every certificate.

The entropic solver, :func:`sinkhorn`, is the stabilized scaling
algorithm of Schmitzer (2019): scaling iterations, two matrix-vector
products each, on a kernel into which log-domain potentials are
absorbed.  Log-domain iterations, two log-sum-exp passes each, run only
to start and whenever the scalings leave a fixed range or a product goes
non-finite.

Each LP solve logs one DEBUG record on the ``wdlearn.ot`` logger: the
LP's size on the supports, its form (``grid-flow`` or ``dense``) and
column count, the path of the solve (``highs`` for the direct model,
``linprog`` for scipy's wrapper), the HiGHS status, the simplex
iterations, the certificates' gap, dual infeasibility and marginal
error, and the nanoseconds spent.  Each Sinkhorn solve logs one such
record too: the support sizes, the iterations, how many of them ran in
the log domain, the final marginal violation and the nanoseconds spent.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import OptimizeResult
from scipy.optimize import linprog as _scipy_linprog

from .errors import NotConverged, SolverFailure
from .measures import DiscreteMeasure, ensure_same_ground

_FEAS_TOL = 1e-9
_MARGINAL_TOL = 1e-9

# The dual simplex returns an exact basic solution (marginals at machine
# precision); the automatic choice may fall back to interior point on
# larger instances and miss the 1e-10 marginal requirement.  Presolve
# has little to remove from a transportation LP, and on an 8x8 grid it
# takes about twice as long as the simplex run that follows.  Devex
# pricing (Harris 1973) takes fewer iterations than HiGHS's default
# steepest-edge start: per flow LP, 239 against 255 on 8x8 Dirichlet
# measures against uniform and 188 against 213 on 6x6 blob pairs; per
# dense 8x8 LP with p = 1.5, 198 against 212.
_LP_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "simplex_dual_edge_weight_strategy": "devex",
}
# ``linprog``'s names for HiGHS's dual edge weight strategies
_EDGE_WEIGHT_STRATEGY = {"steepest-devex": -1, "dantzig": 0, "devex": 1, "steepest": 2}

# scipy's private HiGHS bindings.  Every name :func:`linprog` takes from
# them is bound here, so a scipy without one of them is found at import
# and every solve goes through scipy's public ``linprog`` instead.
try:
    from scipy.optimize._highspy import _core as _highs_core

    _Highs = _highs_core._Highs
    _HIGHS_COLWISE = int(_highs_core.MatrixFormat.kColwise)
    _HIGHS_MINIMIZE = int(_highs_core.ObjSense.kMinimize)
    _HIGHS_ERROR = _highs_core.HighsStatus.kError
    # ``linprog``'s status code and message for the model statuses it names
    _HIGHS_STATUS = {
        _highs_core.HighsModelStatus.kOptimal: (0, "Optimization terminated successfully."),
        _highs_core.HighsModelStatus.kInfeasible: (2, "The problem is infeasible."),
    }
except (ImportError, AttributeError):
    _highs_core = None

_log = logging.getLogger(__name__)
_thread_highs = threading.local()


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix between two measures with its transport cost."""

    matrix: np.ndarray
    cost: float


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


def _two_entry_columns(upper, lower, lower_value, n_rows):
    """The CSC matrix whose column ``j`` holds 1 in row ``upper[j]`` and
    ``lower_value[j]`` in row ``lower[j] > upper[j]``, built directly in the
    column-wise form HiGHS takes: both LP forms have two entries a column."""
    n_cols = len(upper)
    return sparse.csc_matrix(
        (
            np.column_stack([np.ones(n_cols), lower_value]).ravel(),
            np.column_stack([upper, lower]).ravel(),
            np.arange(0, 2 * n_cols + 1, 2),
        ),
        shape=(n_rows, n_cols),
    )


def _grid_flow(grid_shape, ia, ib):
    """The tripartite flow LP for the squared Euclidean cost of a unit grid.

    Sources ``(i, j)`` on ``ia`` send to transit nodes ``(k, j)``, which
    send to sinks ``(k, l)`` on ``ib``, at arc costs ``(i - k)^2`` and
    ``(j - l)^2``.  Only transit nodes whose row holds a sink and whose
    column holds a source are kept, so each source reaches each sink by
    exactly one path.  The rows are the sources, the transit nodes
    (outflow minus inflow, right-hand side 0) and the sinks, in that
    order.  The arcs into the transit layer come first, source-major,
    then the arcs out of it, sink-major.

    Returns the arc costs, ``A_eq``, the number of transit rows and a
    function that takes a flow to its coupling on the ground points.
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
    # every column has two entries, the upper row first
    upper = np.concatenate([np.repeat(np.arange(ma), n_rows), ma + out_of.ravel()])
    lower = np.concatenate([ma + into.ravel(), ma + n_transit + np.repeat(np.arange(mb), n_cols)])
    sign = np.concatenate([-np.ones(n_in), np.ones(n_out)])
    A_eq = _two_entry_columns(upper, lower, sign, ma + n_transit + mb)
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
    for arr in (c, A_eq.data, A_eq.indices, A_eq.indptr, scatter_in, scatter_out):
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
        lo_in = np.concatenate([np.zeros((1, nc, nr)), hi_in[:-1]], axis=0)
        lo_out = np.concatenate([np.zeros((nc, nr, 1)), hi_out[:, :, :-1]], axis=2)
        overlap = np.minimum(hi_in[..., None], hi_out) - np.maximum(lo_in[..., None], lo_out)
        return np.maximum(overlap, 0.0).reshape(nr * nc, nr * nc)

    return c, A_eq, n_transit, plan


# The last grid flow built, as ``(key, structure)`` with the key
# ``(grid_shape, supp a, supp b)``.  One slot holds a run whose supports
# repeat, such as every solve between full-support measures on one grid,
# and costs a rebuild only when the key changes.  It holds the LP's
# structure, never a result: every solve still runs and is certified.
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
    if not (np.isfinite(w) & (w >= 0.0)).all():
        raise ValueError(f"{name} must be finite and nonnegative")
    if not w.any():
        raise ValueError(f"{name} has no mass")
    return w


def _highs_options():
    """``_LP_OPTIONS`` in HiGHS's own names and values, read afresh at each
    solve, with the settings ``linprog`` adds for "highs-ds": no output
    (set first, so that nothing after it prints) and the dual simplex."""
    options = {"output_flag": False, "solver": "simplex", "simplex_strategy": 1}
    for key, value in _LP_OPTIONS.items():
        if key == "presolve":
            value = "on" if value else "off"
        elif key == "simplex_dual_edge_weight_strategy":
            value = _EDGE_WEIGHT_STRATEGY[value]
        options[key] = value
    return options


def linprog(c, A_eq, b_eq):
    """``min <c, x>`` subject to ``A_eq x = b_eq`` and ``x >= 0``, by the
    HiGHS dual simplex with the settings of ``_LP_OPTIONS``.

    ``A_eq`` is a CSC matrix.  Returns the fields of
    ``scipy.optimize.linprog(..., method="highs-ds")`` that wdlearn
    reads: ``status`` (0 at an optimum), ``message``, ``nit`` (the simplex
    iterations), and ``x``, ``fun`` and ``eqlin.marginals`` (the row
    duals), which are None unless the LP was solved to optimality, and
    ``lp_path``, the path the solve took: ``"highs"`` or ``"linprog"``.

    The LP is passed as a new model to this thread's HiGHS instance and
    run cold, bitwise as ``linprog`` would run it; where scipy's private
    HiGHS bindings did not import, the call goes to ``linprog`` itself.
    The instance keeps the memory of the largest model it has solved
    until a solve fails, the options change or the thread exits: 50-60 MB
    after a dense 20x20 LP.  The benchmark's tracer wraps this name and
    reads ``nit``.
    """
    if _highs_core is None:
        res = _scipy_linprog(
            c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds", options=_LP_OPTIONS
        )
        res.lp_path = "linprog"
        return res
    key, highs = _take_highs()
    res = OptimizeResult(
        status=4, nit=0, x=None, fun=None, eqlin=OptimizeResult(marginals=None), lp_path="highs"
    )
    # passModel's array form reads each array whole; a HighsLp built
    # field by field from Python would convert its arrays element by
    # element.  The starts are one per column, without the end that
    # ``indptr`` adds.  The integrality array must be given in full (an
    # empty one made passModel fail): every column is continuous, 0.
    n_rows, n_cols = A_eq.shape
    model = (
        n_cols, n_rows, A_eq.nnz, _HIGHS_COLWISE, _HIGHS_MINIMIZE, 0.0,
        c, np.zeros(n_cols), np.full(n_cols, np.inf), b_eq, b_eq,
        A_eq.indptr[:-1], A_eq.indices, A_eq.data, np.zeros(n_cols, dtype=np.int32),
    )
    if highs.passModel(*model) == _HIGHS_ERROR:
        res.message = "HiGHS rejected the model."
        return res
    highs.run()
    model_status = highs.getModelStatus()
    res.status, text = _HIGHS_STATUS.get(model_status, (4, "HiGHS stopped without an optimum."))
    res.message = f"{text} (HiGHS Status {int(model_status)}: {highs.modelStatusToString(model_status)})"
    res.nit = highs.getInfoValue("simplex_iteration_count")[1]
    if res.status == 0:
        solution = highs.getSolution()
        res.x = np.array(solution.col_value)
        res.fun = highs.getInfoValue("objective_function_value")[1]
        res.eqlin.marginals = np.array(solution.row_dual)
        _thread_highs.held = key, highs
    return res


def _take_highs():
    """``(key, instance)``: this thread's HiGHS instance for ``_Highs`` and
    the options read now, taken out of its slot; :func:`linprog` puts it
    back only at an optimum.  Per thread, so no other solve's passModel
    lands between a solve's own and its run."""
    options = _highs_options()
    key = (_Highs, tuple(options.items()))
    held = vars(_thread_highs).pop("held", None)
    if held is not None and held[0] == key:
        return held
    highs = _Highs()
    for name, value in options.items():
        if highs.setOptionValue(name, value) == _HIGHS_ERROR:
            raise SolverFailure(f"HiGHS rejected the option {name}={value!r}")
    return key, highs


def solve_transport_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray, grid_shape=None):
    """Certified exact solve of ``min <cost, gamma>`` over couplings of
    ``a`` and ``b``.

    The LP is restricted to support atoms and solved from scratch by
    :func:`linprog`, the HiGHS dual simplex with devex pricing, without
    presolve.  The duals ``v`` on ``b``'s support are extended by
    :func:`c_transform`,
    ``psi(x) = min_{y in supp b} cost[x, y] - v(y)`` and ``phi(y) =
    min_x cost[x, y] - psi(x)``, a pair feasible everywhere with the same
    dual value.

    With ``grid_shape = (nr, nc)``, ``cost`` must be the squared
    Euclidean cost of that unit grid, listed row-major.  The cost from
    ``(i, j)`` to ``(k, l)`` then splits as ``(i - k)^2 + (j - l)^2``
    through the transit node ``(k, j)`` (Auricchio et al. 2018), and the
    LP is posed as a min-cost flow from ``supp a`` through the transit
    nodes to ``supp b``: about ``2 n^3`` columns on an ``n x n`` grid
    instead of ``n^4``.  Each source reaches each sink by one path whose
    cost is ``cost[x, y]``, so the flow's optimum is the transport
    optimum.  Transit rows read outflow minus inflow, so a path's arcs
    give ``u(x) + v(y) <= cost[x, y]``: the sink duals are dual feasible
    and, by strong duality, optimal for the dense LP.  The extension,
    gauge and certificates below then run on ``cost`` unchanged.
    The flow's structure is kept for the last grid and pair of supports
    and reused while they repeat; only ``b_eq`` changes between such
    solves.  Without ``grid_shape`` the LP has one column per support
    pair.

    Returns
    -------
    plan : TransportPlan
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
    feasibility, marginals) misses its tolerance or reads NaN.
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
        lp_form, n_transit = "dense", 0
        c = np.ascontiguousarray(cost[np.ix_(ia, ib)]).ravel()
        # column i * mb + j carries a[i] to b[j]
        A_eq = _two_entry_columns(
            np.repeat(np.arange(ma), mb), ma + np.tile(np.arange(mb), ma), np.ones(ma * mb), ma + mb
        )
    else:
        if len(grid_shape) != 2 or int(np.prod(grid_shape)) != cost.shape[0]:
            raise ValueError(f"grid shape {grid_shape} is not a rank-2 grid of {cost.shape[0]} points")
        lp_form = "grid-flow"
        c, A_eq, n_transit, flow_plan = _reused_grid_flow(grid_shape, ia, ib)
    b_eq = np.concatenate([a[ia], np.zeros(n_transit), b[ib]])

    res = linprog(c, A_eq, b_eq)
    gap = feas = marginal = math.nan
    if res.status == 0:
        if grid_shape is None:
            gamma = np.zeros_like(cost, dtype=float)
            gamma[np.ix_(ia, ib)] = res.x.reshape(ma, mb)
        else:
            gamma = flow_plan(res.x)
        value = float(res.fun)
        v = res.eqlin.marginals[ma + n_transit:]
        psi = c_transform(v, cost[:, ib])
        phi = c_transform(psi, cost.T)
        psi, phi = psi - psi[0], phi + psi[0]  # the gauge psi[0] = 0
        dual_value = float(np.dot(phi, b) + np.dot(psi, a))
        gap = abs(dual_value - value)
        feas = (phi[None, :] + psi[:, None] - cost).max()
        marginal = max(np.abs(gamma.sum(axis=1) - a).max(), np.abs(gamma.sum(axis=0) - b).max())
    if _log.isEnabledFor(logging.DEBUG):
        ns = time.perf_counter_ns() - t0
        _log.debug(
            "transport LP %dx%d: lp_form=%s lp_cols=%d lp_path=%s status=%s simplex_iters=%d "
            "gap=%.3e dual_infeasibility=%.3e marginal_error=%.3e ns=%d",
            ma, mb, lp_form, len(c), res.lp_path, res.message, res.nit, gap, feas, marginal, ns,
            extra={
                "lp_form": lp_form,
                "lp_cols": len(c),
                "lp_path": res.lp_path,
                "lp_status": res.message,
                "simplex_iters": int(res.nit),
                "gap": gap, "dual_infeasibility": feas, "marginal_error": marginal,
                "ns": ns,
            },
        )
    if res.status != 0:
        raise SolverFailure(f"transport LP failed: {res.message}")
    if not gap <= _FEAS_TOL * (1.0 + abs(value)):
        raise SolverFailure(f"primal-dual gap {gap:.3e} exceeds tolerance")
    if not feas <= _FEAS_TOL:
        raise SolverFailure(f"dual feasibility violated by {feas:.3e}")
    if not marginal <= _MARGINAL_TOL:
        raise SolverFailure(f"plan marginals violated by {marginal:.3e}")

    pot = PotentialPair(phi=phi, psi=psi, dual_value=dual_value)
    return TransportPlan(matrix=gamma, cost=value), pot, value


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

    Each solve logs one DEBUG record on the ``wdlearn.ot`` logger with
    the support sizes, the iterations, how many of them ran in the log
    domain, the final violation and the nanoseconds spent.

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
        ns = time.perf_counter_ns() - t0
        _log.debug(
            "sinkhorn %dx%d: iters=%d log_iters=%d violation=%.3e ns=%d",
            len(ia), len(ib), n_iter, log_iters, violation, ns,
            extra={
                "sinkhorn_iters": n_iter,
                "log_iters": log_iters,
                "violation": violation,
                "ns": ns,
            },
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
