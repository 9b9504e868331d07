"""Cylinder functions, their gradient fields, and pre-Cheeger quadratures.

A cylinder function evaluates as ``psi(<phi_1, mu>, ..., <phi_N, mu>)``
for feature functions ``phi_n`` given by their values on the ground
points.  This module holds the two formulas that the least-squares,
network and adversarial code build on:

- the gradient field at ``(mu, x)`` is the spatial gradient of one
  potential, ``partials @ features`` (:func:`grid_gradients`); on grid
  ground spaces it comes from finite differences (central in the
  interior, one-sided at boundaries, unit spacing);
- the pre-Cheeger pairing of two fields against a measure is
  ``int <a(x), b(x)> dmu(x)`` (:func:`field_pairing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NoSpatialGradient
from .measures import DiscreteMeasure, GroundSpace, ensure_same_ground


def gradient_operators(ground: GroundSpace) -> list:
    """Dense finite-difference operators, one (m, m) matrix per grid axis.

    ``G[ax] @ f`` equals ``numpy.gradient`` of ``f`` reshaped to the grid
    along that axis; axes of extent 1 yield the zero operator.  Built
    once per ground space and cached on it.
    """
    if ground.grid_shape is None:
        raise NoSpatialGradient("ground space has no grid structure")
    cached = getattr(ground, "_grad_ops", None)
    if cached is not None:
        return cached
    shape = ground.grid_shape
    m = ground.size
    ops = []
    basis = np.eye(m).reshape((m,) + shape)
    for ax in range(len(shape)):
        if shape[ax] < 2:
            ops.append(np.zeros((m, m)))
            continue
        g = np.gradient(basis, axis=1 + ax)
        ops.append(np.ascontiguousarray(g.reshape(m, m).T))
    ground._grad_ops = ops
    return ops


def grid_gradients(ground: GroundSpace, values) -> np.ndarray:
    """Spatial gradients of point-value vectors: ``(..., m)`` values give
    ``(..., m, d)`` gradients."""
    ops = gradient_operators(ground)
    values = np.asarray(values, dtype=float)
    return np.stack([values @ op.T for op in ops], axis=-1)


def field_pairing(field_a, field_b, weights) -> np.ndarray:
    """Pre-Cheeger pairing ``int <a(x), b(x)> dmu(x)`` of gradient fields.

    ``(..., m, d)`` fields against ``(..., m)`` measure weights give the
    ``(...)`` pairings; the leading axes broadcast.
    """
    return np.einsum("...md,...md,...m->...", field_a, field_b, weights)


@dataclass(frozen=True)
class OuterMap:
    """Outer map ``psi: R^N -> R`` with analytic partial derivatives."""

    value: Callable[[np.ndarray], float]
    partials: Callable[[np.ndarray], np.ndarray]
    n_args: int


def identity_outer() -> OuterMap:
    """``psi(v) = v_1`` for a single feature."""
    return OuterMap(value=lambda v: float(v[0]), partials=lambda v: np.ones(1), n_args=1)


def affine_outer(coeffs, intercept: float = 0.0) -> OuterMap:
    """``psi(v) = <coeffs, v> + intercept``."""
    c = np.asarray(coeffs, dtype=float)
    return OuterMap(
        value=lambda v: float(np.dot(c, v) + intercept),
        partials=lambda v: c.copy(),
        n_args=len(c),
    )


def poly_outer(coeffs) -> OuterMap:
    """Univariate polynomial of the single feature value.

    ``coeffs`` are in increasing degree order, so ``[0, 0, 1]`` is the
    square.
    """
    poly = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    dpoly = poly.deriv()
    return OuterMap(
        value=lambda v: float(poly(v[0])),
        partials=lambda v: np.array([dpoly(v[0])]),
        n_args=1,
    )


class CylinderFunction:
    """Composition of an outer map with linear functionals of a measure.

    Parameters
    ----------
    ground : GroundSpace
    features : (N, m) array_like
        Values of the feature functions on the ground points.
    outer : OuterMap
    """

    def __init__(self, ground: GroundSpace, features, outer: OuterMap):
        feats = np.atleast_2d(np.asarray(features, dtype=float))
        if feats.shape[1] != ground.size:
            raise ValueError("features must be vectors over the ground points")
        if outer.n_args != feats.shape[0]:
            raise ValueError("outer map arity does not match the number of features")
        self.ground = ground
        self.features = feats
        self.outer = outer

    @property
    def n_features(self) -> int:
        return self.features.shape[0]

    def linear_part(self, mu: DiscreteMeasure) -> np.ndarray:
        """Vector of feature integrals ``(<phi_1, mu>, ..., <phi_N, mu>)``."""
        ensure_same_ground(self.ground, mu.ground)
        return self.features @ mu.weights

    def __call__(self, mu: DiscreteMeasure) -> float:
        return float(self.outer.value(self.linear_part(mu)))

    def grad_field(self, mu: DiscreteMeasure) -> np.ndarray:
        """Gradient field over the ground points, shape (m, d): the grid
        gradient of the potential ``partials @ features``.

        Raises
        ------
        NoSpatialGradient
            If the ground space lacks grid structure.
        """
        parts = self.outer.partials(self.linear_part(mu))
        return grid_gradients(self.ground, parts @ self.features)

    def check_partials(self, rng=None, n_probes: int = 5, h: float = 1e-6) -> float:
        """Worst relative disagreement between analytic partials and
        central finite differences of the outer map at random probes.

        Intended for smooth outer maps; returns the max relative error.
        """
        rng = np.random.default_rng(rng)
        worst = 0.0
        for _ in range(n_probes):
            v = rng.normal(size=self.n_features)
            ana = np.asarray(self.outer.partials(v), dtype=float)
            num = np.empty_like(ana)
            for i in range(self.n_features):
                e = np.zeros_like(v)
                e[i] = h
                num[i] = (self.outer.value(v + e) - self.outer.value(v - e)) / (2 * h)
            scale = np.maximum(np.abs(ana), 1.0)
            worst = max(worst, float(np.abs(ana - num).max() / scale.max()))
        return worst


def _quad_weights(n: int, weights) -> np.ndarray:
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape[0] != n or np.any(w < 0):
        raise ValueError("quadrature weights must be nonnegative, one per measure")
    return w


def pre_cheeger(F: CylinderFunction, data: Sequence[DiscreteMeasure], weights=None) -> float:
    """Quadratic energy ``sum_j w_j sum_x |DF(mu_j, x)|^2 mu_j(x)``.

    With ``weights`` omitted each measure carries mass ``1/N``, matching
    the empirical measure over the sample.  The exponent pair is fixed
    at p = p' = 2; the general L^p' energy (p != 2) is out of scope for
    the regression machinery built on top and is not implemented.
    """
    return pre_cheeger_inner(F, F, data, weights)


def pre_cheeger_inner(
    F: CylinderFunction,
    G: CylinderFunction,
    data: Sequence[DiscreteMeasure],
    weights=None,
) -> float:
    """Polarized pre-Cheeger inner product of two cylinder functions."""
    w = _quad_weights(len(data), weights)
    total = 0.0
    for wj, mu in zip(w, data):
        if wj == 0.0:
            continue
        df = F.grad_field(mu)
        dg = df if G is F else G.grad_field(mu)
        total += wj * float(field_pairing(df, dg, mu.weights))
    return total
