"""Exact discrete optimal transport, entropic solver, and c-transform.

Every exact solve, ``exact_ot`` over a ground space and a cost-matrix
solve over a metric sample alike, goes through one certified function,
``solve_transport_lp``.  It poses the Kantorovich problem restricted to
the support atoms as a linear program and reads the duals back as
Kantorovich potentials, extended to zero-weight atoms by c-transform and
gauged so that ``psi`` vanishes at the first index.  The primal-dual gap,
dual feasibility and plan marginals are checked on every solve.

Each LP solve logs one DEBUG record on the ``wdlearn.ot`` logger: the
LP's size on the supports, the HiGHS status, the simplex iterations and
the nanoseconds spent.  Each Sinkhorn solve logs one such record too:
the support sizes, the iterations, the final marginal violation and the
nanoseconds spent.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import NotConverged, SolverFailure
from .measures import DiscreteMeasure, GroundSpace, ensure_same_ground

_FEAS_TOL = 1e-9
_MARGINAL_TOL = 1e-9

# The dual simplex returns an exact basic solution (marginals at machine
# precision); the automatic choice may fall back to interior point on
# larger instances and miss the 1e-10 marginal requirement.  Presolve
# has little to remove from a transportation LP, and on an 8x8 grid it
# takes about twice as long as the simplex run that follows.
_LP_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

_log = logging.getLogger(__name__)


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


def solve_transport_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Certified exact solve of ``min <cost, gamma>`` over couplings of
    ``a`` and ``b``.

    The LP is restricted to support atoms and solved from scratch by the
    HiGHS dual simplex, without presolve.  The duals ``v`` on ``b``'s
    support are extended by c-transform, ``psi(x) = min_{y in supp b}
    cost[x, y] - v(y)`` and ``phi(y) = min_x cost[x, y] - psi(x)``, a
    pair feasible everywhere with the same dual value.

    Returns
    -------
    plan : TransportPlan
    potentials : PotentialPair
        ``phi`` paired with ``b``, ``psi`` with ``a``; ``psi[0] = 0``.
    value : float
        The optimal cost.

    Raises ``SolverFailure`` if the LP fails or a certificate (gap,
    feasibility, marginals) misses its tolerance.
    """
    t0 = time.perf_counter_ns()
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ia = np.flatnonzero(a > 0.0)
    ib = np.flatnonzero(b > 0.0)
    Cs = np.ascontiguousarray(cost[np.ix_(ia, ib)])
    ma, mb = len(ia), len(ib)

    rows = np.concatenate([np.repeat(np.arange(ma), mb), ma + np.tile(np.arange(mb), ma)])
    cols = np.tile(np.arange(ma * mb), 2)
    A_eq = sparse.coo_matrix((np.ones(2 * ma * mb), (rows, cols)), shape=(ma + mb, ma * mb)).tocsr()
    b_eq = np.concatenate([a[ia], b[ib]])

    res = linprog(
        Cs.ravel(),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs-ds",
        options=_LP_OPTIONS,
    )
    if _log.isEnabledFor(logging.DEBUG):
        ns = time.perf_counter_ns() - t0
        _log.debug(
            "transport LP %dx%d: status=%s simplex_iters=%d ns=%d",
            ma, mb, res.message, res.nit, ns,
            extra={"lp_status": res.message, "simplex_iters": int(res.nit), "ns": ns},
        )
    if res.status != 0:
        raise SolverFailure(f"transport LP failed: {res.message}")

    gamma = np.zeros_like(cost, dtype=float)
    gamma[np.ix_(ia, ib)] = res.x.reshape(ma, mb)
    value = float(res.fun)
    v = res.eqlin.marginals[ma:]

    psi = (cost[:, ib] - v[None, :]).min(axis=1)
    phi = (cost - psi[:, None]).min(axis=0)
    shift = psi[0]
    psi = psi - shift
    phi = phi + shift

    dual_value = float(np.dot(phi, b) + np.dot(psi, a))
    if abs(dual_value - value) > _FEAS_TOL * (1.0 + abs(value)):
        raise SolverFailure(
            f"primal-dual gap {abs(dual_value - value):.3e} exceeds tolerance"
        )
    feas = (phi[None, :] + psi[:, None] - cost).max()
    if feas > _FEAS_TOL:
        raise SolverFailure(f"dual feasibility violated by {feas:.3e}")
    marginal = max(np.abs(gamma.sum(axis=1) - a).max(), np.abs(gamma.sum(axis=0) - b).max())
    if marginal > _MARGINAL_TOL:
        raise SolverFailure(f"plan marginals violated by {marginal:.3e}")

    pot = PotentialPair(phi=phi, psi=psi, dual_value=dual_value)
    return TransportPlan(matrix=gamma, cost=value), pot, value


def exact_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, p: Optional[float] = None):
    """Exact optimal transport between two measures.

    Parameters
    ----------
    mu, nu : DiscreteMeasure
        Measures on a shared ground space.
    p : float, optional
        Cost exponent; defaults to the ground space's metric order.

    Returns
    -------
    plan : TransportPlan
    potentials : PotentialPair
        ``phi`` paired with ``nu``, ``psi`` with ``mu``; ``psi[0] = 0``.
    wpp : float
        ``W_p^p(mu, nu)``.
    """
    ensure_same_ground(mu.ground, nu.ground)
    return solve_transport_lp(mu.ground.cost_matrix(p), mu.weights, nu.weights)


def wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, p: Optional[float] = None) -> float:
    """``W_p(mu, nu)`` via the exact solver."""
    p_eff = mu.ground.p if p is None else float(p)
    _, _, wpp = exact_ot(mu, nu, p)
    # a degenerate basic solution may report a cost of -1e-18; the root
    # must not turn that into a NaN
    return float(max(wpp, 0.0) ** (1.0 / p_eff))


def pairwise_wasserstein(measures: Sequence[DiscreteMeasure], p: Optional[float] = None) -> np.ndarray:
    """Symmetric matrix of ``W_p`` distances between the given measures."""
    n = len(measures)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = wasserstein(measures[i], measures[j], p)
    return D


def logsumexp(x, axis):
    """``log(sum(exp(x), axis))``, computed in ``x`` as scratch space.

    ``x`` is overwritten.  Entries are shifted by their maximum along
    ``axis`` (by 0 where that maximum is not finite, so an all ``-inf``
    slice gives ``-inf``) and exponentiated in place; only the sums are
    allocated.
    """
    shift = x.max(axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    np.subtract(x, shift, out=x)
    np.exp(x, out=x)
    out = x.sum(axis=axis)
    np.log(out, out=out)
    out += shift.reshape(out.shape)
    return out


def sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: Optional[float] = None,
    reg: float = 0.1,
    tol: float = 1e-9,
    max_iter: int = 10000,
):
    """Entropic-regularized transport via log-domain Sinkhorn iterations.

    Each iteration updates the potential ``f`` on ``mu``'s support so that
    the plan's row sums match ``mu``, then ``g`` so that its column sums
    match ``nu``.  The column sums are then exact up to rounding, so the
    marginal violation is that of the row sums, ``exp(f / reg + r)``,
    where ``r`` is the row log-sum-exp the next ``f`` update needs
    anyway.  Once the violation drops below ``tol`` the regularized plan
    is returned, together with its unregularized cost ``sum d^p gamma``.

    Each solve logs one DEBUG record on the ``wdlearn.ot`` logger with
    the support sizes, the iterations, the final violation and the
    nanoseconds spent.

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
    cost = mu.ground.cost_matrix(p)
    ia = np.flatnonzero(mu.weights > 0)
    ib = np.flatnonzero(nu.weights > 0)
    a = mu.weights[ia]
    la, lb = np.log(a), np.log(nu.weights[ib])

    # potentials in units of reg (f = reg * u, g = reg * v); both passes
    # reduce along the last axis of K or its transpose
    K = cost[np.ix_(ia, ib)] / -reg
    KT = np.ascontiguousarray(K.T)
    buf, buf_t = np.empty_like(K), np.empty_like(KT)

    v = np.zeros(len(ib))
    r = logsumexp(np.add(K, v, out=buf), 1)
    for n_iter in range(1, max_iter + 1):
        u = la - r
        v = lb - logsumexp(np.add(KT, u, out=buf_t), 1)
        r = logsumexp(np.add(K, v, out=buf), 1)
        violation = float(np.abs(np.exp(u + r) - a).max())
        if violation < tol:
            break

    if _log.isEnabledFor(logging.DEBUG):
        ns = time.perf_counter_ns() - t0
        _log.debug(
            "sinkhorn %dx%d: iters=%d violation=%.3e ns=%d",
            len(ia), len(ib), n_iter, violation, ns,
            extra={"sinkhorn_iters": n_iter, "violation": violation, "ns": ns},
        )
    if not violation < tol:
        raise NotConverged(f"sinkhorn stopped after {max_iter} iterations", violation)

    gamma = np.zeros_like(cost)
    gamma[np.ix_(ia, ib)] = np.exp(K + u[:, None] + v[None, :])
    approx_wpp = float((gamma * cost).sum())
    return TransportPlan(matrix=gamma, cost=approx_wpp), approx_wpp


def c_transform(f, ground: GroundSpace, p: Optional[float] = None) -> np.ndarray:
    """``f^c(x) = min_y d(x, y)^p - f(y)``, computed by enumeration."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != ground.size:
        raise ValueError("f must be a vector over the ground points")
    return (ground.cost_matrix(p) - f[None, :]).min(axis=1)
