"""Gradient fields of cylinder functions and their pre-Cheeger pairing.

A cylinder function evaluates as ``psi(<phi_1, mu>, ..., <phi_N, mu>)``
for feature functions ``phi_n`` given by their values on the ground
points.  The library's two families are the affine functionals of
:class:`wdlearn.erm.CylinderSubspace` and the max networks of
:mod:`wdlearn.nets`.  This module holds the two formulas both build on:

- the gradient field at ``(mu, x)`` is the spatial gradient of one
  potential, ``partials @ features`` (:func:`grid_gradients`); on grid
  ground spaces it comes from finite differences (central in the
  interior, one-sided at boundaries, unit spacing);
- the pre-Cheeger pairing of two fields against a measure is
  ``int <a(x), b(x)> dmu(x)`` (:func:`field_pairing`).
"""

from __future__ import annotations

import numpy as np

from .errors import NoSpatialGradient
from .measures import GroundSpace


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
