"""Random-subcovering diagnostics on a finite metric sample.

The sample plays the role of a metric-probability space; for measure
samples the metric is the exact Wasserstein distance, computed lazily.
Balls are open: a point at distance exactly ``eps`` from a center is
outside the ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CertificateViolation, EmptyCover
from .measures import metric_order
from .ot import pairwise_wasserstein, solve_transport_lp

_FORM_AGREEMENT_TOL = 1e-12


class MetricSample:
    """Finite family of points of a metric space with probability weights.

    Parameters
    ----------
    elements : sequence of DiscreteMeasure, optional
        Points of ``(P(K), W_p)``, ``p`` their ground space's; the
        distance matrix is then computed on demand with the exact solver.
    distance_matrix : ndarray, optional
        Alternatively, a precomputed metric matrix over abstract points:
        square, one row per point, finite and nonnegative.
    weights : ndarray, optional
        Probability weights; uniform when omitted.
    """

    def __init__(self, elements=None, distance_matrix=None, weights=None):
        if elements is None and distance_matrix is None:
            raise ValueError("provide elements or a distance matrix")
        self.elements = list(elements) if elements is not None else None
        self._D = None if distance_matrix is None else np.asarray(distance_matrix, float)
        n = len(self.elements) if self.elements is not None else self._D.shape[0]
        if self._D is not None:
            if self._D.shape != (n, n):
                raise ValueError(f"the distance matrix must have shape ({n}, {n}), got {self._D.shape}")
            if not (np.isfinite(self._D).all() and (self._D >= 0).all()):
                raise ValueError("distances must be finite and nonnegative")
        if weights is None:
            self.weights = np.full(n, 1.0 / n)
        else:
            w = np.asarray(weights, dtype=float)
            if not np.isfinite(w).all():
                raise ValueError("weights must be finite")
            if w.shape[0] != n or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError("weights must be a probability vector over the sample")
            self.weights = w / w.sum()

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def distance_matrix(self) -> np.ndarray:
        if self._D is None:
            self._D = pairwise_wasserstein(self.elements)
        return self._D

    @property
    def diameter(self) -> float:
        return float(self.distance_matrix.max())

    def check_metric(self, seed: int = 0, triples: int = 100, tol: float = 1e-8):
        """Spot-check symmetry, zero diagonal, and the triangle inequality.

        Raises
        ------
        CertificateViolation
            If a check fails by more than ``tol``.
        """
        D = self.distance_matrix
        asymmetry = np.abs(D - D.T).max()
        if not asymmetry <= tol:
            raise CertificateViolation(f"distance matrix asymmetric by {asymmetry:.3e}")
        diagonal = np.abs(np.diag(D)).max()
        if not diagonal <= tol:
            raise CertificateViolation(f"distance matrix diagonal reaches {diagonal:.3e}")
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, self.size, size=(triples, 3))
        i, j, k = idx.T
        if not np.all(D[i, j] <= D[i, k] + D[k, j] + tol):
            excess = np.nanmax(D[i, j] - D[i, k] - D[k, j])
            raise CertificateViolation(f"triangle inequality violated by {excess:.3e}")

    def ball_masses(self, eps: float) -> np.ndarray:
        """``p(B(x_i, eps))`` for every sample point (open balls)."""
        return ((self.distance_matrix < eps) * self.weights[None, :]).sum(axis=1)

    def min_ball_mass(self, eps: float) -> float:
        """``inf_x p(B(x, eps))`` over the support of the sample."""
        supp = self.weights > 0
        return float(self.ball_masses(eps)[supp].min())


def p_eps_k_closed(sample: MetricSample, eps: float, k: int) -> float:
    """Exact subcovering probability for the empirical distribution.

    Evaluates both equivalent forms -- one through ball masses, one
    through complement masses -- and checks they agree to 1e-12.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    w = sample.weights
    inside = sample.distance_matrix < eps
    ball = (inside * w[None, :]).sum(axis=1)
    complement = ((~inside) * w[None, :]).sum(axis=1)
    first = float(np.dot(w, 1.0 - (1.0 - ball) ** k))
    second = float(np.dot(w, 1.0 - complement**k))
    if not abs(first - second) <= _FORM_AGREEMENT_TOL:
        raise CertificateViolation(
            f"closed forms of p(eps, k) disagree by {abs(first - second):.3e}"
        )
    return first


def p_eps_k_monte_carlo(
    sample: MetricSample, eps: float, k: int, trials: int, seed: int
):
    """Monte-Carlo estimate of the subcovering probability.

    Each trial draws ``k`` centers and one fresh point i.i.d. from the
    sample distribution and records whether the fresh point lands in the
    union of the open ``eps``-balls.

    Returns
    -------
    (estimate, stderr) : tuple of float
        ``stderr = sqrt(q (1 - q) / trials)``.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    n = sample.size
    D = sample.distance_matrix
    w = sample.weights
    centers = rng.choice(n, size=(trials, k), p=w)
    fresh = rng.choice(n, size=trials, p=w)
    hits = (D[fresh[:, None], centers] < eps).any(axis=1)
    q = float(hits.mean())
    return q, float(np.sqrt(q * (1.0 - q) / trials))


@dataclass(frozen=True)
class CoveringBoundReport:
    """Output of :func:`covering_number_bound`.

    ``bound`` is the ceiling of ``log(delta)`` over the mean log
    complement mass, a lower bound on ``exact_min_k``; ``exact_min_k``
    the smallest k whose closed-form subcovering probability reaches
    ``1 - delta``; ``unbounded`` flags the degenerate case of a zero
    complement mass at an atom with positive weight (some ball swallows
    the whole support), where the formula collapses; the case is
    reported, not raised, and the bound falls back to 1, still a lower
    bound since ``p(eps, 0) = 0`` makes ``exact_min_k >= 1``.
    """

    bound: int
    exact_min_k: int
    unbounded: bool


def covering_number_bound(sample: MetricSample, eps: float, delta: float) -> CoveringBoundReport:
    """Covering-number estimate from the mean log complement mass.

    With ``c_i`` the complement mass of atom ``i``'s open ``eps``-ball,
    ``1 - p(eps, k) = sum_i w_i c_i^k >= exp(k sum_i w_i log c_i)`` by
    Jensen, so every k with ``p(eps, k) >= 1 - delta`` is at least
    ``bound = ceil(log(delta) / sum_i w_i log c_i)``: the formula is a
    lower bound on ``exact_min_k``.  The Jensen step is an equality iff
    the ``c_i`` are constant on the support; otherwise the two integers
    may still coincide after rounding up.  The number of centers that
    provably suffices is
    ``ceil(log(delta) / log(1 - sample.min_ball_mass(eps)))``, from
    ``sum_i w_i c_i^k <= (max_i c_i)^k``.  As ``p(eps, k)`` is
    nondecreasing in k, ``exact_min_k`` is found by doubling then bisection
    up to that number (at least 1); a ``p`` that misses ``1 - delta`` there
    by rounding raises ``CertificateViolation``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    m = sample.min_ball_mass(eps)
    if not m > 0:  # eps <= 0, or a distance matrix whose diagonal reaches eps
        raise ValueError(f"eps = {eps} leaves an atom of the support outside its own open ball")
    w = sample.weights
    complement = ((sample.distance_matrix >= eps) * w[None, :]).sum(axis=1)
    supp = w > 0
    unbounded = bool(np.any(complement[supp] == 0.0))
    if unbounded:
        bound = 1
    else:
        # below 0, as every c_i <= 1 - m < 1
        denom = float(np.dot(w[supp], np.log(complement[supp])))
        bound = int(np.ceil(np.log(delta) / denom))
    cap = 1 if m >= 1.0 else max(1, int(np.ceil(np.log(delta) / np.log1p(-m))))
    target, lo, hi = 1.0 - delta, 0, 1  # p(eps, 0) = 0
    while p_eps_k_closed(sample, eps, hi) < target:
        if hi == cap:
            raise CertificateViolation(f"p(eps, k) misses 1 - delta at the worst-case bound k = {cap}")
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if p_eps_k_closed(sample, eps, mid) >= target else (mid, hi)
    return CoveringBoundReport(bound=bound, exact_min_k=hi, unbounded=unbounded)


def empirical_subcover_measure(sample: MetricSample, centers: Sequence[int], eps: float):
    """Weights of the cell-mass empirical measure over the sample.

    Cells are assigned first-come: ``C_i`` collects the sample points in
    ``B(X_i, eps)`` not claimed by an earlier center.  Returns a weight
    vector over the sample supported on the centers.

    Raises
    ------
    EmptyCover
        If no sample mass lies in any ball.
    """
    centers = [int(c) for c in centers]
    D = sample.distance_matrix
    w = sample.weights
    claimed = np.zeros(sample.size, dtype=bool)
    cell_mass = np.zeros(len(centers))
    for i, c in enumerate(centers):
        cell = (D[c] < eps) & ~claimed
        cell_mass[i] = w[cell].sum()
        claimed |= cell
    total = cell_mass.sum()
    if total == 0.0:
        raise EmptyCover("no sample point lies in any covering ball")
    out = np.zeros(sample.size)
    # duplicate centers accumulate their (disjoint) cell masses
    for i, c in enumerate(centers):
        out[c] += cell_mass[i] / total
    return out


def nested_wasserstein(sample: MetricSample, w1, w2, p: float = 2.0) -> float:
    """``W_p`` between two measures over the sample, using the sample's
    metric as ground distance; ``p`` is the order of this outer space,
    which has no ground of its own, and must be finite and exceed 1, as a
    ground's (:func:`wdlearn.measures.metric_order`).  The solve is
    certified like ``exact_ot``."""
    p = metric_order(p)
    cost = sample.distance_matrix**p
    _, _, value = solve_transport_lp(cost, np.asarray(w1, float), np.asarray(w2, float))
    return float(value ** (1.0 / p))


def subcover_distance_bound(sample: MetricSample, eps: float, k: int, p: float = 2.0) -> float:
    """Mean-distance bound ``C * (eps * p_ek + 2 (1 - p_ek))`` with
    ``C = 2 (diam + 2 eps)^((p-1)/p) (diam + 2 eps + 1)``, for an outer
    order ``p`` as :func:`nested_wasserstein` takes it."""
    p = metric_order(p)
    pek = p_eps_k_closed(sample, eps, k)
    diam = sample.diameter
    c = 2.0 * (diam + 2 * eps) ** ((p - 1.0) / p) * (diam + 2 * eps + 1.0)
    return c * (eps * pek + 2.0 * (1.0 - pek))


def expected_min_distance_penalty(sample: MetricSample, k: int, cap: float = 1.0) -> float:
    """Exact expectation of ``int L(min_i d(x, X_i)) dp(x)`` over center
    draws, with ``L(r) = min(r, cap)``; enumeration, so only for tiny
    samples and k."""
    n = sample.size
    D = sample.distance_matrix
    w = sample.weights
    total = 0.0
    for tup in np.ndindex(*(n,) * k):
        prob = float(np.prod(w[list(tup)]))
        if prob == 0.0:
            continue
        mins = D[:, list(tup)].min(axis=1)
        total += prob * float(np.dot(w, np.minimum(mins, cap)))
    return total
